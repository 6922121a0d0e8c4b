//! The five FLB lists as flat, preallocated, index-linked structures.
//!
//! Two shapes cover all of them:
//!
//! * [`FlatHeap`] — an indexed binary min-heap over a fixed universe of
//!   `u32` ids, every array sized once at construction. Semantically a
//!   `u32` twin of [`flb_ds::IndexedMinHeap`](https://docs.rs) (ties on
//!   equal keys go to the smaller id), but with the guarantee that no
//!   operation ever allocates. Backs the global non-EP task list and both
//!   processor lists.
//! * [`PairingForest`] — `P` pairing heaps sharing three per-task link
//!   arrays (`child`/`sib`/`prev`). The per-processor `EMT_EP_task_l[p]`
//!   and `LMT_EP_task_l[p]` lists cannot each own a `V`-capacity binary
//!   heap (that would be `O(V·P)` memory), but a task is in at most one
//!   processor's list at a time, so all `P` heaps fit in one shared set of
//!   links with a root slot per processor. Keys are *not* stored: every
//!   operation takes the key array and the tie-break array as arguments
//!   and compares `(time[v], Reverse(bl[v]), v)` — a strict total order,
//!   so the minimum is unique and the forest is deterministic.
//!
//! Pairing heaps give O(1) insert/meld and amortised `O(log n)` delete-min
//! and arbitrary delete — matching the `O(V (log W + log P) + E)` bound of
//! the paper with a constant factor small enough for million-task graphs.

use crate::graph::NONE;
use flb_graph::Time;
use std::cmp::Reverse;

/// An indexed binary min-heap over ids `0..universe`, ties to the smaller
/// id. All storage is allocated in [`FlatHeap::new`]; no later operation
/// allocates.
#[derive(Clone, Debug)]
pub struct FlatHeap<K> {
    /// Heap slots -> id.
    heap: Vec<u32>,
    /// id -> heap slot, or `NONE` when absent.
    pos: Vec<u32>,
    /// id -> key (valid only while the id is present).
    key: Vec<K>,
}

impl<K: Copy + Ord> FlatHeap<K> {
    /// An empty heap over ids `0..universe`. `fill` initialises the key
    /// arena (any value; keys are written on insert).
    #[must_use]
    pub fn new(universe: usize, fill: K) -> Self {
        FlatHeap {
            heap: Vec::with_capacity(universe),
            pos: vec![NONE; universe],
            key: vec![fill; universe],
        }
    }

    // flb-analyze: region(no-alloc)
    // Every FlatHeap operation past construction is allocation-free;
    // tests/alloc_free.rs asserts the same boundary with a counting
    // allocator.

    /// Number of ids currently in the heap.
    #[must_use]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether `id` is in the heap.
    #[must_use]
    pub fn contains(&self, id: u32) -> bool {
        self.pos[id as usize] != NONE
    }

    /// Minimum entry `(id, key)` without removing it.
    #[must_use]
    pub fn peek(&self) -> Option<(u32, K)> {
        self.heap.first().map(|&id| (id, self.key[id as usize]))
    }

    #[inline]
    fn less(&self, a: u32, b: u32) -> bool {
        (self.key[a as usize], a) < (self.key[b as usize], b)
    }

    /// Inserts `id` with `key`.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `id` is already present.
    pub fn insert(&mut self, id: u32, key: K) {
        debug_assert!(!self.contains(id), "duplicate insert of {id}");
        self.key[id as usize] = key;
        let slot = self.heap.len();
        // flb-analyze: allow(no-alloc-in-hot-loop, reason="heap was built with Vec::with_capacity(universe) in new(), and the duplicate-insert debug_assert keeps len <= universe, so this push never reallocates")
        self.heap.push(id);
        self.pos[id as usize] = slot as u32;
        self.sift_up(slot);
    }

    /// Inserts `id` or replaces its key.
    pub fn insert_or_update(&mut self, id: u32, key: K) {
        if self.contains(id) {
            self.update(id, key);
        } else {
            self.insert(id, key);
        }
    }

    /// Replaces the key of a present `id` (any direction).
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if `id` is absent.
    pub fn update(&mut self, id: u32, key: K) {
        debug_assert!(self.contains(id), "update of absent {id}");
        self.key[id as usize] = key;
        let slot = self.pos[id as usize] as usize;
        self.sift_up(slot);
        let slot = self.pos[id as usize] as usize;
        self.sift_down(slot);
    }

    /// Removes `id`, returning its key if it was present.
    pub fn remove(&mut self, id: u32) -> Option<K> {
        if !self.contains(id) {
            return None;
        }
        let slot = self.pos[id as usize] as usize;
        let last = self.heap.len() - 1;
        self.heap.swap(slot, last);
        self.pos[self.heap[slot] as usize] = slot as u32;
        self.heap.pop();
        self.pos[id as usize] = NONE;
        if slot < self.heap.len() {
            // Re-seat the element swapped into `slot`: it may belong
            // either above or below its new position.
            let moved = self.heap[slot];
            self.sift_up(slot);
            self.sift_down(self.pos[moved as usize] as usize);
        }
        Some(self.key[id as usize])
    }

    fn sift_up(&mut self, mut slot: usize) {
        while slot > 0 {
            let parent = (slot - 1) / 2;
            if self.less(self.heap[slot], self.heap[parent]) {
                self.heap.swap(slot, parent);
                self.pos[self.heap[slot] as usize] = slot as u32;
                self.pos[self.heap[parent] as usize] = parent as u32;
                slot = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut slot: usize) {
        loop {
            let l = 2 * slot + 1;
            let r = 2 * slot + 2;
            let mut best = slot;
            if l < self.heap.len() && self.less(self.heap[l], self.heap[best]) {
                best = l;
            }
            if r < self.heap.len() && self.less(self.heap[r], self.heap[best]) {
                best = r;
            }
            if best == slot {
                break;
            }
            self.heap.swap(slot, best);
            self.pos[self.heap[slot] as usize] = slot as u32;
            self.pos[self.heap[best] as usize] = best as u32;
            slot = best;
        }
    }

    // flb-analyze: region-end(no-alloc)
}

/// `P` pairing heaps over a shared universe of `V` nodes.
///
/// The caller owns the root of each heap (`NONE` = empty) and the two
/// key slices; every operation returns the new root. Keys must not change
/// while a node is linked into a heap (the usual heap contract). Nodes
/// must be in at most one heap of a forest at a time — exactly FLB's
/// invariant that a task is enabled by one processor.
#[derive(Clone, Debug)]
pub struct PairingForest {
    /// First child of a node, or `NONE`.
    child: Vec<u32>,
    /// Next sibling, or `NONE`. Doubles as the scratch stack link during
    /// the two-pass combine, so no auxiliary storage is ever needed.
    sib: Vec<u32>,
    /// Previous sibling — or the parent when the node is a first child
    /// (distinguished by `child[prev[v]] == v`). `NONE` for roots.
    prev: Vec<u32>,
}

/// `(time[a], Reverse(bl[a]), a) < (time[b], Reverse(bl[b]), b)` — the
/// paper's task ordering: earlier time first, then larger bottom level,
/// then smaller id.
#[inline]
fn task_less(time: &[Time], bl: &[Time], a: u32, b: u32) -> bool {
    let key = |v: u32| (time[v as usize], Reverse(bl[v as usize]), v);
    key(a) < key(b)
}

impl PairingForest {
    /// A forest over nodes `0..universe`, all heaps empty.
    #[must_use]
    pub fn new(universe: usize) -> Self {
        PairingForest {
            child: vec![NONE; universe],
            sib: vec![NONE; universe],
            prev: vec![NONE; universe],
        }
    }

    // flb-analyze: region(no-alloc)
    // Pairing-heap links live in the three arrays sized at new();
    // meld/insert/combine/pop/remove only rewrite indices.

    /// Melds two non-`NONE` roots; returns the winner.
    #[inline]
    fn meld(&mut self, time: &[Time], bl: &[Time], a: u32, b: u32) -> u32 {
        let (top, bot) = if task_less(time, bl, a, b) {
            (a, b)
        } else {
            (b, a)
        };
        let c = self.child[top as usize];
        self.sib[bot as usize] = c;
        if c != NONE {
            self.prev[c as usize] = bot;
        }
        self.prev[bot as usize] = top;
        self.child[top as usize] = bot;
        top
    }

    /// Inserts node `v` into the heap rooted at `root` (`NONE` = empty);
    /// returns the new root. `v` must not be in any heap of the forest.
    #[must_use]
    pub fn insert(&mut self, time: &[Time], bl: &[Time], root: u32, v: u32) -> u32 {
        debug_assert!(
            self.child[v as usize] == NONE
                && self.sib[v as usize] == NONE
                && self.prev[v as usize] == NONE,
            "insert of linked node {v}"
        );
        if root == NONE {
            v
        } else {
            self.meld(time, bl, root, v)
        }
    }

    /// Two-pass pairing combine of a sibling list starting at `first`
    /// (whose `prev` must already be cleared); returns the resulting root.
    fn combine_siblings(&mut self, time: &[Time], bl: &[Time], first: u32) -> u32 {
        // Pass 1: meld adjacent pairs left to right, stacking the winners
        // through their (now free) `sib` links.
        let mut stack = NONE;
        let mut cur = first;
        while cur != NONE {
            let a = cur;
            let b = self.sib[a as usize];
            if b == NONE {
                self.prev[a as usize] = NONE;
                self.sib[a as usize] = stack;
                stack = a;
                break;
            }
            let next = self.sib[b as usize];
            self.sib[a as usize] = NONE;
            self.prev[a as usize] = NONE;
            self.sib[b as usize] = NONE;
            self.prev[b as usize] = NONE;
            let w = self.meld(time, bl, a, b);
            self.sib[w as usize] = stack;
            stack = w;
            cur = next;
        }
        // Pass 2: fold the stack right to left into one tree.
        let mut root = NONE;
        let mut cur = stack;
        while cur != NONE {
            let next = self.sib[cur as usize];
            self.sib[cur as usize] = NONE;
            root = if root == NONE {
                cur
            } else {
                self.meld(time, bl, root, cur)
            };
            cur = next;
        }
        root
    }

    /// Removes the minimum (the root itself); returns the new root.
    #[must_use]
    pub fn pop_min(&mut self, time: &[Time], bl: &[Time], root: u32) -> u32 {
        debug_assert_ne!(root, NONE, "pop from empty heap");
        let c = self.child[root as usize];
        self.child[root as usize] = NONE;
        if c == NONE {
            return NONE;
        }
        self.prev[c as usize] = NONE;
        self.combine_siblings(time, bl, c)
    }

    /// Removes an arbitrary node `v` from the heap rooted at `root`;
    /// returns the new root.
    #[must_use]
    pub fn remove(&mut self, time: &[Time], bl: &[Time], root: u32, v: u32) -> u32 {
        if v == root {
            return self.pop_min(time, bl, root);
        }
        // Unlink v from its sibling list (it has a prev: it is not a root).
        let p = self.prev[v as usize];
        let s = self.sib[v as usize];
        debug_assert_ne!(p, NONE, "non-root node without prev link");
        if self.child[p as usize] == v {
            self.child[p as usize] = s;
        } else {
            self.sib[p as usize] = s;
        }
        if s != NONE {
            self.prev[s as usize] = p;
        }
        self.sib[v as usize] = NONE;
        self.prev[v as usize] = NONE;
        let c = self.child[v as usize];
        self.child[v as usize] = NONE;
        if c == NONE {
            return root;
        }
        self.prev[c as usize] = NONE;
        let t = self.combine_siblings(time, bl, c);
        self.meld(time, bl, root, t)
    }

    // flb-analyze: region-end(no-alloc)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pop<K: Copy + Ord>(h: &mut FlatHeap<K>) -> Option<u32> {
        let (id, _) = h.peek()?;
        h.remove(id);
        Some(id)
    }

    #[test]
    fn flat_heap_orders_and_breaks_ties_by_id() {
        let mut h: FlatHeap<(Time, Reverse<Time>)> = FlatHeap::new(8, (0, Reverse(0)));
        h.insert(3, (5, Reverse(0)));
        h.insert(1, (5, Reverse(0)));
        h.insert(7, (2, Reverse(0)));
        assert_eq!(h.peek(), Some((7, (2, Reverse(0)))));
        assert_eq!(pop(&mut h), Some(7));
        // Equal keys: smaller id first.
        assert_eq!(pop(&mut h), Some(1));
        assert_eq!(pop(&mut h), Some(3));
        assert_eq!(pop(&mut h), None);
    }

    #[test]
    fn flat_heap_larger_bottom_level_wins_time_ties() {
        let mut h: FlatHeap<(Time, Reverse<Time>)> = FlatHeap::new(4, (0, Reverse(0)));
        h.insert(0, (5, Reverse(1)));
        h.insert(1, (5, Reverse(9)));
        assert_eq!(h.peek().map(|(i, _)| i), Some(1));
    }

    #[test]
    fn flat_heap_update_and_remove() {
        let mut h: FlatHeap<Time> = FlatHeap::new(5, 0);
        for id in 0..5u32 {
            h.insert(id, 10 + Time::from(id));
        }
        h.update(4, 1);
        assert_eq!(h.peek(), Some((4, 1)));
        assert_eq!(h.remove(4), Some(1));
        assert_eq!(h.remove(4), None);
        assert!(!h.contains(4));
        h.insert_or_update(2, 0);
        assert_eq!(h.peek(), Some((2, 0)));
        h.insert_or_update(4, 99);
        assert_eq!(h.len(), 5);
        assert_eq!(h.remove(4), Some(99));
    }

    /// Differential test: the forest agrees with a sorted-set model under
    /// a long random-ish operation sequence, across two interleaved heaps.
    #[test]
    fn pairing_forest_matches_model() {
        let n = 200usize;
        let time: Vec<Time> = (0..n).map(|i| ((i * 37) % 23) as Time).collect();
        let bl: Vec<Time> = (0..n).map(|i| ((i * 11) % 7) as Time).collect();
        let key = |v: u32| (time[v as usize], Reverse(bl[v as usize]), v);

        let mut f = PairingForest::new(n);
        let mut roots = [NONE, NONE];
        let mut model: [std::collections::BTreeSet<_>; 2] = Default::default();
        let mut x = 12345u64; // tiny LCG driving the op sequence
        let mut rng = move || {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (x >> 33) as usize
        };
        let mut present = vec![false; n];
        for _ in 0..5000 {
            let h = rng() % 2;
            match rng() % 4 {
                0 | 1 => {
                    let v = (rng() % n) as u32;
                    if !present[v as usize] {
                        roots[h] = f.insert(&time, &bl, roots[h], v);
                        model[h].insert(key(v));
                        present[v as usize] = true;
                    }
                }
                2 => {
                    if roots[h] != NONE {
                        let min = roots[h];
                        assert_eq!(key(min), *model[h].iter().next().unwrap());
                        roots[h] = f.pop_min(&time, &bl, roots[h]);
                        model[h].remove(&key(min));
                        present[min as usize] = false;
                    }
                }
                _ => {
                    // Remove an arbitrary present element of heap h.
                    if let Some(&k) = model[h].iter().nth(rng() % model[h].len().max(1)) {
                        let v = k.2;
                        roots[h] = f.remove(&time, &bl, roots[h], v);
                        model[h].remove(&k);
                        present[v as usize] = false;
                    }
                }
            }
            // The root is always the model minimum.
            for (r, m) in roots.iter().zip(&model) {
                match m.iter().next() {
                    None => assert_eq!(*r, NONE),
                    Some(&k) => assert_eq!(key(*r), k),
                }
            }
        }
        // Drain both heaps fully in sorted order.
        for h in 0..2 {
            let mut drained = Vec::new();
            while roots[h] != NONE {
                drained.push(key(roots[h]));
                roots[h] = f.pop_min(&time, &bl, roots[h]);
            }
            let expect: Vec<_> = model[h].iter().copied().collect();
            assert_eq!(drained, expect);
        }
    }
}
