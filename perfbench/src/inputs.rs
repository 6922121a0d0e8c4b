//! Workload definitions and seeded input generation.
//!
//! Every input is an LU decomposition graph streamed by
//! `flb_workloads::million::lu_flat` with CCR 1.0 and computation costs
//! uniform around 100. The benchmark seed picks the cost streams; graph
//! `i` of a pool draws its costs from `mix(seed, i)`, so one seed always
//! yields the same pool and two seeds yield different ones.

use crate::reference::Reference;
use flb_core::AlgorithmId;
use flb_graph::costs::{CostModel, Dist};
use flb_graph::TaskGraph;
use flb_kernel::FlatGraph;
use flb_sched::Machine;
use flb_service::fingerprint::{graph_fingerprint, request_fingerprint, Fnv64};
use flb_service::ShardedLru;
use flb_workloads::million::{lu_flat, lu_order_for_tasks};

/// Communication-to-computation ratio of every request.
pub const CCR: f64 = 1.0;

/// The benchmark's workloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// ≈10k-task LU requests that always miss the daemon's cache.
    ServeMiss,
    /// The same requests from a warmed hot set: always cache hits.
    ServeHit,
    /// `KernelRun` in process on one ≈100k-task LU graph at P=64.
    Kernel100k,
}

/// Shape of a workload's requests and the daemon's cache.
#[derive(Clone, Copy, Debug)]
pub struct Shape {
    /// Tasks per graph.
    pub tasks: usize,
    /// Processors per request.
    pub procs: usize,
    /// Graphs generated from the seed (before `miss_pool` drops any).
    pub pool: usize,
    /// The daemon's `--cache` entries.
    pub cache: usize,
}

/// Shards of the daemon's cache (`ServiceConfig::cache_shards`' default).
pub const CACHE_SHARDS: usize = 8;

impl Workload {
    /// Parses a `--workload` value.
    pub fn parse(s: &str) -> Result<Workload, String> {
        match s {
            "serve-miss" => Ok(Workload::ServeMiss),
            "serve-hit" => Ok(Workload::ServeHit),
            "kernel-100k" => Ok(Workload::Kernel100k),
            other => Err(format!(
                "unknown workload {other:?}: expected serve-miss, serve-hit or kernel-100k"
            )),
        }
    }

    /// The workload's name.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::ServeMiss => "serve-miss",
            Workload::ServeHit => "serve-hit",
            Workload::Kernel100k => "kernel-100k",
        }
    }

    /// The workload's graphs and cache.
    ///
    /// Both send the same size of request, so they differ only in
    /// whether the daemon schedules it. The miss cache has one entry per
    /// shard, and `miss_pool` keeps only graphs that share their shard
    /// with another graph, so each is evicted before it comes round
    /// again. The 8 hot graphs fit even if all 8 fall into one shard of
    /// the hit cache. `kernel-100k` is the `BENCH_07.json` `lu-100k`
    /// point and runs no daemon.
    #[must_use]
    pub fn shape(self) -> Shape {
        match self {
            Workload::ServeMiss => Shape {
                tasks: 10_011,
                procs: 8,
                pool: 32,
                cache: CACHE_SHARDS,
            },
            Workload::ServeHit => Shape {
                tasks: 10_011,
                procs: 8,
                pool: 8,
                cache: 64,
            },
            Workload::Kernel100k => Shape {
                tasks: 100_128,
                procs: 64,
                pool: 1,
                cache: 0,
            },
        }
    }

    /// The reference request the workload's time metrics are normalised
    /// by, of the workload's graph size at P=8, with its nominal time:
    /// about the median it took on the test host when that ran fastest.
    #[must_use]
    pub fn reference(self) -> Reference {
        match self {
            Workload::ServeMiss | Workload::ServeHit => Reference::new(10_011, 8, 3.5),
            Workload::Kernel100k => Reference::new(100_128, 8, 45.0),
        }
    }
}

/// splitmix64 of `seed + i`: decorrelated per-graph cost seeds.
#[must_use]
pub fn mix(seed: u64, i: u64) -> u64 {
    let mut z = seed.wrapping_add(i.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An LU graph of at least `tasks` tasks with costs drawn from `seed`.
#[must_use]
pub fn lu(tasks: usize, seed: u64) -> FlatGraph {
    let model = CostModel {
        comp: Dist::UniformMean(100),
        ccr: CCR,
    };
    lu_flat(lu_order_for_tasks(tasks), &model, seed)
}

/// The workload's pool of request graphs for `seed`.
#[must_use]
pub fn pool(shape: Shape, seed: u64) -> Vec<TaskGraph> {
    (0..shape.pool as u64)
        .map(|i| lu(shape.tasks, mix(seed, i)).to_task_graph())
        .collect()
}

/// Drops from a pool every graph that a cache of `cache` entries in
/// `CACHE_SHARDS` shards would still hold when the pool, sent round-robin,
/// comes back to it. What is left misses on every request.
#[must_use]
pub fn miss_pool(mut graphs: Vec<TaskGraph>, procs: usize, cache: usize) -> Vec<TaskGraph> {
    let machine = Machine::new(procs);
    loop {
        let fps: Vec<u64> = graphs
            .iter()
            .map(|g| request_fingerprint(AlgorithmId::Flb, g, &machine))
            .collect();
        // From the second round on, an LRU sent a cycle sees the same
        // hits in every round.
        let lru = ShardedLru::new(cache, CACHE_SHARDS);
        let mut hit = vec![false; fps.len()];
        for round in 0..2 {
            for (i, &fp) in fps.iter().enumerate() {
                hit[i] = round == 1 && lru.get(fp).is_some();
                lru.insert(fp, ());
            }
        }
        if !hit.contains(&true) {
            return graphs;
        }
        graphs = graphs
            .into_iter()
            .zip(hit)
            .filter_map(|(g, h)| (!h).then_some(g))
            .collect();
    }
}

/// One hash over a sequence of digests.
#[must_use]
pub fn fold(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut h = Fnv64::new();
    for v in values {
        h.write_u64(v);
    }
    h.finish()
}

/// One hash over a flat graph's computation costs and edges.
#[must_use]
pub fn flat_digest(g: &FlatGraph) -> u64 {
    let mut h = Fnv64::new();
    for v in 0..g.num_tasks() as u32 {
        h.write_u64(g.comp(v));
        for (s, c) in g.succs(v) {
            h.write_u64(u64::from(s));
            h.write_u64(c);
        }
    }
    h.finish()
}

/// One hash over the fingerprints of a list of graphs.
#[must_use]
pub fn pool_digest(graphs: &[TaskGraph]) -> u64 {
    fold(graphs.iter().map(graph_fingerprint))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shapes_have_the_documented_sizes() {
        assert_eq!(lu(10_011, 1).num_tasks(), 10_011);
        assert_eq!(lu(100_128, 1).num_tasks(), 100_128);
    }

    #[test]
    fn same_seed_same_inputs_other_seed_other_inputs() {
        let shape = Shape {
            tasks: 990,
            procs: 8,
            pool: 4,
            cache: 8,
        };
        let a = pool_digest(&pool(shape, 42));
        assert_eq!(a, pool_digest(&pool(shape, 42)));
        assert_ne!(a, pool_digest(&pool(shape, 43)));
    }

    #[test]
    fn flat_digests_follow_the_seed() {
        let a = flat_digest(&lu(990, 5));
        assert_eq!(a, flat_digest(&lu(990, 5)));
        assert_ne!(a, flat_digest(&lu(990, 6)));
    }

    #[test]
    fn pool_graphs_are_distinct() {
        let shape = Shape {
            tasks: 990,
            procs: 8,
            pool: 64,
            cache: 8,
        };
        let graphs = pool(shape, 7);
        let mut fps: Vec<u64> = graphs.iter().map(graph_fingerprint).collect();
        fps.sort_unstable();
        fps.dedup();
        assert_eq!(fps.len(), shape.pool);
    }

    #[test]
    fn the_miss_pool_never_hits_a_cache_of_the_daemons_size() {
        let Shape { procs, cache, .. } = Workload::ServeMiss.shape();
        let machine = Machine::new(procs);
        let mut dropped = 0;
        for seed in 0..8 {
            // Small graphs keep the test fast: the filter sees only
            // fingerprints.
            let shape = Shape {
                tasks: 990,
                procs,
                pool: 32,
                cache,
            };
            let graphs = miss_pool(pool(shape, seed), procs, cache);
            dropped += shape.pool - graphs.len();
            let lru = ShardedLru::new(cache, CACHE_SHARDS);
            for round in 0..3 {
                for (i, g) in graphs.iter().enumerate() {
                    let fp = request_fingerprint(AlgorithmId::Flb, g, &machine);
                    assert!(
                        lru.get(fp).is_none(),
                        "seed {seed} round {round}: graph {i} hit"
                    );
                    lru.insert(fp, ());
                }
            }
        }
        // Some graph shared its shard with no other, so the filter ran.
        assert!(dropped > 0);
    }

    #[test]
    fn workload_names_round_trip() {
        for w in [
            Workload::ServeMiss,
            Workload::ServeHit,
            Workload::Kernel100k,
        ] {
            assert_eq!(Workload::parse(w.name()), Ok(w));
        }
        assert!(Workload::parse("kernel-1m").is_err());
    }
}
