//! The reference request: a fixed piece of work written in this package,
//! independent of the code under test, that the timed runs interleave
//! with their requests to read the host's speed.
//!
//! The test host is a shared VM whose speed drifts by half or more over
//! minutes. A run times one reference request after every batch and
//! divides its time metrics by the median reference time over its
//! window, scaled to a nominal time: what it reports is the time the same
//! requests would take on a host where the reference request takes its
//! nominal time. A change to the program moves its requests and not the
//! reference, so it still shows in full.
//!
//! The reference does the kind of work the workloads' requests do, at
//! the same graph size, with code of its own: encode a graph into bytes,
//! decode it, hash the bytes, list-schedule the graph on `P` processors,
//! and encode and decode the placements. It runs in the benchmark
//! process, which is pinned to the same CPU as everything it starts
//! (see `host::pin_to_one_cpu`), so it runs where the workload runs.

use std::collections::BinaryHeap;
use std::time::Instant;

/// Seed of the reference graph, fixed so every run does the same work.
const SEED: u64 = 0x5EED_F1B0;

/// A random DAG: each task has 1 to 4 predecessors among the 200 before
/// it, like the LU graphs' short, wide dependence windows.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Dag {
    /// `(predecessor, communication cost)` per task.
    preds: Vec<Vec<(u32, u32)>>,
    /// Computation cost per task.
    comp: Vec<u32>,
}

impl Dag {
    /// A DAG of `tasks` tasks drawn from `seed` by xorshift.
    #[must_use]
    pub fn random(tasks: usize, seed: u64) -> Dag {
        let mut x = seed | 1;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut preds = Vec::with_capacity(tasks);
        let mut comp = Vec::with_capacity(tasks);
        for v in 0..tasks {
            comp.push(50 + (next() % 100) as u32);
            let k = if v == 0 { 0 } else { 1 + next() % 4 };
            let window = v.min(200) as u64;
            preds.push(
                (0..k)
                    .map(|_| {
                        let u = v - 1 - (next() % window) as usize;
                        (u as u32, (next() % 100) as u32)
                    })
                    .collect(),
            );
        }
        Dag { preds, comp }
    }

    /// Little-endian bytes: task count, then per task its cost, its
    /// predecessor count and `(pred, cost, volume)` per edge.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&(self.comp.len() as u32).to_le_bytes());
        for (c, ps) in self.comp.iter().zip(&self.preds) {
            out.extend_from_slice(&c.to_le_bytes());
            out.extend_from_slice(&(ps.len() as u32).to_le_bytes());
            for &(u, w) in ps {
                out.extend_from_slice(&u.to_le_bytes());
                out.extend_from_slice(&w.to_le_bytes());
                out.extend_from_slice(&(u64::from(w) * 3).to_le_bytes());
            }
        }
        out
    }

    /// Inverse of [`Dag::encode`]; `None` on malformed bytes.
    #[must_use]
    pub fn decode(bytes: &[u8]) -> Option<Dag> {
        let mut at = 0;
        let mut word = |len: usize| -> Option<u64> {
            let b = bytes.get(at..at + len)?;
            at += len;
            let mut w = [0u8; 8];
            w[..len].copy_from_slice(b);
            Some(u64::from_le_bytes(w))
        };
        let n = word(4)? as usize;
        let mut preds = Vec::with_capacity(n);
        let mut comp = Vec::with_capacity(n);
        for _ in 0..n {
            comp.push(word(4)? as u32);
            let k = word(4)? as usize;
            let mut ps = Vec::with_capacity(k);
            for _ in 0..k {
                ps.push((word(4)? as u32, word(4)? as u32));
                word(8)?;
            }
            preds.push(ps);
        }
        Some(Dag { preds, comp })
    }

    /// Highest-bottom-level-first list scheduling on `procs` processors,
    /// each task on the processor where it starts earliest. Returns
    /// `(processor, start, finish)` per task.
    #[must_use]
    pub fn schedule(&self, procs: usize) -> Vec<(u8, u64, u64)> {
        let n = self.comp.len();
        let mut succs = vec![Vec::new(); n];
        for (v, ps) in self.preds.iter().enumerate() {
            for &(u, _) in ps {
                succs[u as usize].push(v as u32);
            }
        }
        let mut level = vec![0u64; n];
        for v in (0..n).rev() {
            let below = succs[v].iter().map(|&s| level[s as usize]).max();
            level[v] = below.unwrap_or(0) + u64::from(self.comp[v]);
        }
        let mut waiting: Vec<usize> = self.preds.iter().map(Vec::len).collect();
        let mut ready: BinaryHeap<(u64, u32)> = (0..n)
            .filter(|&v| waiting[v] == 0)
            .map(|v| (level[v], v as u32))
            .collect();
        let mut placed = vec![(0u8, 0u64, 0u64); n];
        let mut free = vec![0u64; procs];
        while let Some((_, v)) = ready.pop() {
            let v = v as usize;
            let (start, p) = (0..procs)
                .map(|p| {
                    let arrive = self.preds[v].iter().map(|&(u, w)| {
                        let (q, _, finish) = placed[u as usize];
                        finish + if q as usize == p { 0 } else { u64::from(w) }
                    });
                    (arrive.fold(free[p], u64::max), p)
                })
                .min()
                .expect("at least one processor");
            let finish = start + u64::from(self.comp[v]);
            placed[v] = (p as u8, start, finish);
            free[p] = finish;
            for &s in &succs[v] {
                waiting[s as usize] -= 1;
                if waiting[s as usize] == 0 {
                    ready.push((level[s as usize], s));
                }
            }
        }
        placed
    }
}

/// FNV-1a over `bytes`.
#[must_use]
pub fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Little-endian `(processor, start, finish)` records.
#[must_use]
pub fn encode_placements(placed: &[(u8, u64, u64)]) -> Vec<u8> {
    let mut out = Vec::with_capacity(placed.len() * 17);
    for &(p, s, f) in placed {
        out.push(p);
        out.extend_from_slice(&s.to_le_bytes());
        out.extend_from_slice(&f.to_le_bytes());
    }
    out
}

/// Inverse of [`encode_placements`].
#[must_use]
pub fn decode_placements(bytes: &[u8]) -> Vec<(u8, u64, u64)> {
    let word = |b: &[u8]| u64::from_le_bytes(b.try_into().expect("8 bytes"));
    bytes
        .chunks_exact(17)
        .map(|c| (c[0], word(&c[1..9]), word(&c[9..17])))
        .collect()
}

/// The reference request for graphs of one size, and its timings.
pub struct Reference {
    dag: Dag,
    procs: usize,
    samples_ms: Vec<f64>,
    nominal_ms: f64,
    /// What one request computes, checked on every sample.
    digest: u64,
}

impl Reference {
    /// A reference request on a `tasks`-task graph and `procs` processors
    /// whose median time on the nominal host is `nominal_ms`.
    #[must_use]
    pub fn new(tasks: usize, procs: usize, nominal_ms: f64) -> Reference {
        let mut r = Reference {
            dag: Dag::random(tasks, SEED),
            procs,
            samples_ms: Vec::new(),
            nominal_ms,
            digest: 0,
        };
        r.digest = r.request();
        r
    }

    /// One request; returns a digest of what it computed.
    fn request(&self) -> u64 {
        let bytes = self.dag.encode();
        let dag = Dag::decode(&bytes).expect("the reference graph round-trips");
        let hash = fnv(&bytes);
        let placed = decode_placements(&encode_placements(&dag.schedule(self.procs)));
        let makespan = placed.iter().map(|p| p.2).max().unwrap_or(0);
        hash ^ makespan
    }

    /// Runs one request untimed, so that what ran before it (the daemon
    /// finishing a reply, or the last batch's data in the caches) is
    /// done with, then times one more and keeps the time.
    pub fn sample(&mut self) -> Result<(), String> {
        let warm = self.request();
        let t0 = Instant::now();
        let digest = self.request();
        self.samples_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        if warm == self.digest && digest == self.digest {
            Ok(())
        } else {
            Err("the reference request computed something else".to_owned())
        }
    }

    /// Copies the reference graph to new memory. Where data lands in
    /// memory changes how fast it is read; the timed runs move it once
    /// per segment, as they start a new daemon or build a new graph.
    pub fn move_data(&mut self) {
        self.dag = self.dag.clone();
    }

    /// Median sample time in ms.
    #[must_use]
    pub fn median_ms(&self) -> f64 {
        crate::stats::median(&mut self.samples_ms.clone())
    }

    /// How much slower than nominal the host ran over the samples: a
    /// time divides by it and a rate multiplies by it.
    #[must_use]
    pub fn slowdown(&self) -> f64 {
        self.median_ms() / self.nominal_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn graph_and_placements_round_trip() {
        let dag = Dag::random(500, 3);
        let bytes = dag.encode();
        assert_eq!(Dag::decode(&bytes), Some(Dag::random(500, 3)));
        assert_eq!(Dag::decode(&bytes[..bytes.len() - 1]), None);
        let placed = dag.schedule(4);
        assert_eq!(decode_placements(&encode_placements(&placed)), placed);
    }

    #[test]
    fn schedules_respect_precedence_and_processors() {
        let dag = Dag::random(2_000, 9);
        let placed = dag.schedule(8);
        for (v, &(p, start, finish)) in placed.iter().enumerate() {
            assert_eq!(finish - start, u64::from(dag.comp[v]));
            for &(u, w) in &dag.preds[v] {
                let (q, _, done) = placed[u as usize];
                let comm = if q == p { 0 } else { u64::from(w) };
                assert!(start >= done + comm, "task {v} starts before pred {u}");
            }
        }
        let mut by_proc: Vec<_> = placed.iter().map(|&(p, s, f)| (p, s, f)).collect();
        by_proc.sort_unstable();
        for w in by_proc.windows(2) {
            assert!(
                w[0].0 != w[1].0 || w[0].2 <= w[1].1,
                "overlap on {}",
                w[0].0
            );
        }
    }

    #[test]
    fn samples_repeat_the_same_work() {
        let mut r = Reference::new(1_000, 8, 1.0);
        for _ in 0..3 {
            r.sample().unwrap();
        }
        assert_eq!(r.samples_ms.len(), 3);
        assert!(r.slowdown() > 0.0);
    }
}
