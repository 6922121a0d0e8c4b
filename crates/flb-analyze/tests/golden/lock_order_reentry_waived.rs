//! Golden input: the same same-class re-entry, waived with the one
//! argument that makes it sound — a crate-wide total order on the
//! indices, which is exactly what the analysis cannot see.
//! Analyzed as `crates/flb-bench/src/mailboxes.rs`.

use parking_lot::Mutex;

pub struct Mailboxes {
    inboxes: Vec<Mutex<Vec<u32>>>,
}

impl Mailboxes {
    pub fn transfer(&self, from: usize, to: usize) {
        let (lo, hi) = (from.min(to), from.max(to));
        let mut first = self.inboxes[lo].lock();
        // flb-analyze: allow(lock-order, reason="members are always taken in ascending index order (lo < hi enforced one line up), so no two threads can hold them in opposite orders")
        let mut second = self.inboxes[hi].lock();
        second.append(&mut first);
    }
}
