//! Property-based tests for the partitioning substrate.

use partition::{
    bisect_graph, edge_cut, part_weights, partition_graph, partition_hypergraph, vertex_separator,
    Bisection, HypergraphPartitionConfig, PartitionConfig,
};
use proptest::prelude::*;
use sparsegraph::{Graph, Hypergraph};
use sparsemat::{CooMatrix, CsrMatrix};
use std::ops::Range;

/// Strategy: a random connected-ish symmetric matrix (ring + chords) so
/// partitioners always have work to do.
fn graph_strategy() -> impl Strategy<Value = Graph> {
    ring_with_chords(8..80, 0..120)
}

/// A ring of `n` vertices plus random chords, as a graph.
fn ring_with_chords(n: Range<usize>, chords: Range<usize>) -> impl Strategy<Value = Graph> {
    (
        n,
        proptest::collection::vec((0usize..10_000, 0usize..10_000), chords),
    )
        .prop_map(|(n, chords)| {
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                coo.push(i, i, 1.0);
                coo.push_symmetric(i, (i + 1) % n, 1.0); // ring keeps it connected
            }
            for (a, b) in chords {
                let (i, j) = (a % n, b % n);
                if i != j {
                    coo.push_symmetric(i.max(j), i.min(j), 1.0);
                }
            }
            Graph::from_matrix(&CsrMatrix::from_coo(&coo)).unwrap()
        })
}

/// Strategy: a column-net hypergraph with nets above the FM's 256-pin
/// big-net threshold beside small ones, so both of its gain-update paths
/// run. Rows form a band (with a few random strays) whose first
/// bisection splits it near the middle; each dense column holds the
/// first half of the rows plus one row of the second half, so FM moves
/// big-net pins while it shifts the boundary. (The partition crate's
/// unit tests pin the rarer case of kept moves crossing a big net's
/// cut threshold.)
fn hypergraph_strategy() -> impl Strategy<Value = Hypergraph> {
    (
        560usize..700,
        proptest::collection::vec((0usize..10_000, 0usize..10_000), 0..30),
        0usize..10_000,
        1usize..3,
    )
        .prop_map(|(n, strays, extra_row, dense)| {
            let half = n / 2;
            let mut coo = CooMatrix::new(n, n);
            for i in 0..n {
                for j in i.saturating_sub(2)..(i + 3).min(n) {
                    coo.push(i, j, 1.0);
                }
            }
            for (a, b) in strays {
                coo.push(a % n, b % n, 1.0);
            }
            for d in 0..dense {
                let col = n - 1 - d;
                for i in 0..half {
                    coo.push(i, col, 1.0);
                }
                coo.push(half + (extra_row + d) % (n - half), col, 1.0);
            }
            Hypergraph::column_net(&CsrMatrix::from_coo(&coo))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn partition_covers_all_parts_within_balance(g in graph_strategy(), k in 2usize..9) {
        let cfg = PartitionConfig::k(k);
        let parts = partition_graph(&g, &cfg);
        prop_assert_eq!(parts.len(), g.num_vertices());
        prop_assert!(parts.iter().all(|&p| (p as usize) < k));
        let w = part_weights(&g, &parts, k);
        prop_assert_eq!(w.iter().sum::<i64>(), g.total_vertex_weight());
        // Every part weight stays within a generous bound of its target
        // (recursive bisection compounds the per-level tolerance).
        let target = g.total_vertex_weight() as f64 / k as f64;
        for &pw in &w {
            prop_assert!(
                (pw as f64) <= target * 1.6 + 2.0,
                "part weight {pw} vs target {target}"
            );
        }
    }

    #[test]
    fn partition_is_deterministic(g in graph_strategy(), k in 2usize..6) {
        let cfg = PartitionConfig::k(k);
        prop_assert_eq!(partition_graph(&g, &cfg), partition_graph(&g, &cfg));
    }

    #[test]
    fn cut_is_at_most_total_edges(g in graph_strategy(), k in 2usize..6) {
        let parts = partition_graph(&g, &PartitionConfig::k(k));
        let cut = edge_cut(&g, &parts);
        prop_assert!(cut >= 0);
        prop_assert!(cut <= g.total_edge_weight());
    }

    #[test]
    fn separator_disconnects(g in graph_strategy()) {
        let s = vertex_separator(&g, 1.2, 99);
        let n = g.num_vertices();
        prop_assert_eq!(s.left.len() + s.right.len() + s.separator.len(), n);
        let mut side = vec![0u8; n];
        for &v in &s.right { side[v as usize] = 1; }
        for &v in &s.separator { side[v as usize] = 2; }
        for v in 0..n {
            if side[v] == 2 { continue; }
            for &u in g.neighbors(v) {
                if side[u as usize] != 2 {
                    prop_assert_eq!(side[v], side[u as usize],
                        "edge ({}, {}) crosses the separator", v, u);
                }
            }
        }
    }

    #[test]
    fn hypergraph_partition_valid(k in 2usize..6, n in 20usize..120) {
        let mut coo = CooMatrix::new(n, n);
        for i in 0..n {
            coo.push(i, i, 1.0);
            coo.push(i, (i * 7 + 1) % n, 1.0);
            coo.push(i, (i + 1) % n, 1.0);
        }
        let a = CsrMatrix::from_coo(&coo);
        let h = Hypergraph::column_net(&a);
        let parts = partition_hypergraph(&h, &HypergraphPartitionConfig::k(k));
        prop_assert_eq!(parts.len(), n);
        prop_assert!(parts.iter().all(|&p| (p as usize) < k));
        // Cut never exceeds the number of nets.
        let cut = h.cut_net(&parts);
        prop_assert!(cut >= 0 && cut <= h.num_nets() as i64);
        // Determinism.
        prop_assert_eq!(parts, partition_hypergraph(&h, &HypergraphPartitionConfig::k(k)));
    }
}

// FM invariants. Both FM refiners carry their state (gains, external
// degrees or side counts, the cut and the part weights) across passes
// instead of rebuilding it, and each debug-asserts at the end of every
// pass that this state equals a from-scratch recompute. Tests build with
// debug assertions, so these properties drive those checks over random
// graphs and hypergraphs, through every multilevel level, and check the
// carried cut and part weights that reach the caller.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn graph_fm_carries_exact_cut_and_weights(
        g in ring_with_chords(130..400, 0..900),
        share in 10i64..90,
        seed in 0u64..1_000,
    ) {
        let total = g.total_vertex_weight();
        let t0 = total * share / 100;
        let bis = bisect_graph(&g, [t0, total - t0], 1.05, seed);
        let fresh = Bisection::recompute(&g, bis.part_of.clone());
        prop_assert_eq!(bis.cut, fresh.cut);
        prop_assert_eq!(bis.part_weights, fresh.part_weights);
    }

    #[test]
    fn hypergraph_fm_carries_exact_state(h in hypergraph_strategy(), k in 2usize..5) {
        prop_assert!(h.num_nets() > 0);
        prop_assert!((0..h.num_nets()).any(|j| h.net_pins(j).len() > 256));
        let parts = partition_hypergraph(&h, &HypergraphPartitionConfig::k(k));
        prop_assert_eq!(parts.len(), h.num_vertices());
        prop_assert!(parts.iter().all(|&p| (p as usize) < k));
    }
}
