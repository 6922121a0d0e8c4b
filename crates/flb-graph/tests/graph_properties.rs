//! Property-based tests over generators, levels and width.

use flb_graph::costs::{CostModel, Dist};
use flb_graph::gen::{self, Family, RandomLayeredSpec};
use flb_graph::levels::{
    alap_times, bottom_levels, bottom_levels_comp_only, critical_path, critical_path_comp_only,
    critical_path_tasks, depths, top_levels,
};
use flb_graph::width::{max_antichain, max_ready_width};
use flb_graph::{TaskGraph, TaskId};
use proptest::prelude::*;

/// Strategy producing a diverse mix of small task graphs.
fn arb_graph() -> impl Strategy<Value = TaskGraph> {
    prop_oneof![
        (1usize..12).prop_map(gen::chain),
        (1usize..12).prop_map(gen::independent),
        (1usize..8, 1usize..5).prop_map(|(w, s)| gen::fork_join(w, s)),
        (2usize..20).prop_map(gen::lu),
        (1usize..7).prop_map(gen::laplace),
        (1usize..6, 1usize..6).prop_map(|(p, s)| gen::stencil(p, s)),
        (1u32..5).prop_map(gen::fft),
        (1usize..4, 0u32..4).prop_map(|(a, h)| gen::out_tree(a, h)),
        (2usize..4, 0u32..4).prop_map(|(a, h)| gen::in_tree(a, h)),
        (10usize..60, 2usize..6, any::<u64>()).prop_map(|(v, l, seed)| {
            gen::random_layered(
                &RandomLayeredSpec {
                    tasks: v,
                    layers: l,
                    edge_prob: 0.3,
                    max_skip: 2,
                },
                seed,
            )
        }),
        (2usize..25, any::<u64>()).prop_map(|(v, seed)| gen::random_dag(v, 0.25, seed)),
    ]
}

/// `order` must list every task exactly once with all predecessors earlier.
fn assert_topological(g: &TaskGraph, order: &[TaskId]) {
    assert_eq!(order.len(), g.num_tasks());
    let mut pos = vec![usize::MAX; g.num_tasks()];
    for (i, &t) in order.iter().enumerate() {
        pos[t.0] = i;
    }
    for t in g.tasks() {
        assert_ne!(pos[t.0], usize::MAX, "task {t} missing from order");
        for &(s, _) in g.succs(t) {
            assert!(pos[t.0] < pos[s.0], "edge {t} -> {s} violates order");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn generated_graphs_are_valid_dags(g in arb_graph()) {
        assert_topological(&g, g.topological_order());
        // Edge count consistency between the two CSR directions.
        let out_sum: usize = g.tasks().map(|t| g.out_degree(t)).sum();
        let in_sum: usize = g.tasks().map(|t| g.in_degree(t)).sum();
        prop_assert_eq!(out_sum, g.num_edges());
        prop_assert_eq!(in_sum, g.num_edges());
        // Every graph has at least one entry and one exit.
        prop_assert!(g.entry_tasks().next().is_some());
        prop_assert!(g.exit_tasks().next().is_some());
    }

    #[test]
    fn level_invariants(g in arb_graph()) {
        let bl = bottom_levels(&g);
        let bl0 = bottom_levels_comp_only(&g);
        let tl = top_levels(&g);
        let alap = alap_times(&g);
        let cp = critical_path(&g);
        let d = depths(&g);

        for t in g.tasks() {
            // Bottom level dominates its comp-only variant and comp itself.
            prop_assert!(bl[t.0] >= bl0[t.0]);
            prop_assert!(bl0[t.0] >= g.comp(t));
            // tl + bl never exceeds the critical path; ALAP >= tl is false in
            // general, but alap + bl == cp by construction.
            prop_assert!(tl[t.0] + bl[t.0] <= cp);
            prop_assert_eq!(alap[t.0] + bl[t.0], cp);
            // Monotonicity along edges.
            for &(s, c) in g.succs(t) {
                prop_assert!(bl[t.0] >= g.comp(t) + c + bl[s.0]);
                prop_assert!(tl[s.0] >= tl[t.0] + g.comp(t) + c);
                prop_assert!(d[s.0] > d[t.0]);
            }
        }
        prop_assert!(cp >= critical_path_comp_only(&g));
        prop_assert!(cp <= g.total_comp() + g.total_comm());
    }

    #[test]
    fn critical_path_tasks_realise_cp(g in arb_graph()) {
        let path = critical_path_tasks(&g);
        prop_assert!(!path.is_empty());
        // Path length (comp + comm along it) equals the critical path.
        let mut len = 0;
        for w in path.windows(2) {
            len += g.comp(w[0]) + g.edge_comm(w[0], w[1]).expect("consecutive path edge");
        }
        len += g.comp(*path.last().unwrap());
        prop_assert_eq!(len, critical_path(&g));
        // Starts at an entry, ends at an exit.
        prop_assert_eq!(g.in_degree(path[0]), 0);
        prop_assert_eq!(g.out_degree(*path.last().unwrap()), 0);
    }

    /// The Dilworth/Hopcroft–Karp width agrees with a brute-force maximum
    /// antichain found by subset enumeration (small graphs only).
    #[test]
    fn exact_width_matches_brute_force(
        v in 2usize..12,
        p in 0.1f64..0.6,
        seed in any::<u64>(),
    ) {
        let g = gen::random_dag(v, p, seed);
        // Reachability by DFS per node.
        let mut reach = vec![vec![false; v]; v];
        for s in g.tasks() {
            let mut stack = vec![s];
            while let Some(u) = stack.pop() {
                for &(w, _) in g.succs(u) {
                    if !reach[s.0][w.0] {
                        reach[s.0][w.0] = true;
                        stack.push(w);
                    }
                }
            }
        }
        let mut best = 0usize;
        for mask in 1u32..(1 << v) {
            let members: Vec<usize> = (0..v).filter(|i| mask & (1 << i) != 0).collect();
            let antichain = members.iter().all(|&a| {
                members.iter().all(|&b| a == b || (!reach[a][b] && !reach[b][a]))
            });
            if antichain {
                best = best.max(members.len());
            }
        }
        prop_assert_eq!(max_antichain(&g), best);
    }

    #[test]
    fn width_bounds(g in arb_graph()) {
        let w = max_antichain(&g);
        let rw = max_ready_width(&g);
        prop_assert!(w >= 1);
        prop_assert!(rw >= 1);
        prop_assert!(rw <= w, "ready width {rw} exceeded antichain {w}");
        prop_assert!(w <= g.num_tasks());
    }

    #[test]
    fn reweighting_preserves_structure(
        topo in arb_graph(),
        seed in any::<u64>(),
        ccr in prop_oneof![Just(0.2), Just(1.0), Just(5.0)],
    ) {
        let model = CostModel { comp: Dist::UniformMean(50), ccr };
        let g = model.apply(&topo, seed);
        prop_assert_eq!(g.num_tasks(), topo.num_tasks());
        prop_assert_eq!(g.num_edges(), topo.num_edges());
        for t in g.tasks() {
            prop_assert!(g.comp(t) >= 1);
            for (&(s, c), &(s0, _)) in g.succs(t).iter().zip(topo.succs(t)) {
                prop_assert_eq!(s, s0);
                prop_assert!(c >= 1);
            }
        }
    }

    #[test]
    fn mirror_and_text_roundtrip(g in arb_graph()) {
        use flb_graph::serialize::{parse_text, to_text, TaskGraphData};
        let text = to_text(&g);
        let g2 = parse_text(&text).unwrap();
        prop_assert_eq!(TaskGraphData::from(&g), TaskGraphData::from(&g2));
    }

    #[test]
    fn transitive_reduction_preserves_order(g in arb_graph()) {
        use flb_graph::transform::transitive_reduction;
        let r = transitive_reduction(&g);
        prop_assert_eq!(r.num_tasks(), g.num_tasks());
        prop_assert!(r.num_edges() <= g.num_edges());
        // The partial order is untouched: identical maximum antichain, and
        // every removed edge is still implied (depth strictly increases
        // along every original edge).
        prop_assert_eq!(max_antichain(&r), max_antichain(&g));
        let d = depths(&r);
        for t in g.tasks() {
            for &(s, _) in g.succs(t) {
                prop_assert!(d[s.0] > d[t.0], "original edge {t} -> {s} lost");
            }
        }
        // Idempotent.
        prop_assert_eq!(transitive_reduction(&r).num_edges(), r.num_edges());
    }

    #[test]
    fn chain_coarsening_conserves_work(g in arb_graph()) {
        use flb_graph::transform::coarsen_chains;
        let c = coarsen_chains(&g);
        prop_assert_eq!(c.graph.total_comp(), g.total_comp());
        prop_assert!(c.graph.num_tasks() <= g.num_tasks());
        prop_assert!(c.graph.total_comm() <= g.total_comm());
        // The mapping covers every old task and respects edges.
        prop_assert_eq!(c.new_of.len(), g.num_tasks());
        let d = depths(&c.graph);
        for t in g.tasks() {
            for &(s, _) in g.succs(t) {
                let (a, b) = (c.new_of[t.0], c.new_of[s.0]);
                if a != b {
                    prop_assert!(d[b.0] > d[a.0], "cross-chain edge order lost");
                }
            }
        }
        // Width can only shrink.
        prop_assert!(max_antichain(&c.graph) <= max_antichain(&g));
        // Coarsening is a fixpoint: no chain links remain.
        let again = coarsen_chains(&c.graph);
        prop_assert_eq!(again.graph.num_tasks(), c.graph.num_tasks());
    }

    #[test]
    fn family_topologies_scale(v in 50usize..500) {
        for fam in Family::ALL {
            let g = fam.topology(v);
            // Within a factor of 2.5 of the request (FFT is the coarsest).
            let n = g.num_tasks();
            prop_assert!(n * 2 >= v / 2, "{}: {n} tasks for target {v}", fam.name());
            prop_assert!(n <= v * 3, "{}: {n} tasks for target {v}", fam.name());
        }
    }
}
