//! Property tests pitting the fast metrics implementations against naive
//! oracles on small random graphs.
#![allow(clippy::needless_range_loop)] // indices are node ids throughout

use dsn::core::graph::{Graph, LinkKind};
use dsn::metrics::{
    bfs_distances, cut_size, edge_disjoint_paths, estimate_bisection, path_stats, UNREACHABLE,
};
use proptest::prelude::*;

/// Build a random connected-ish graph from a proptest-chosen edge set over
/// `n` nodes (a ring backbone guarantees connectivity).
fn arb_graph() -> impl Strategy<Value = Graph> {
    (
        4usize..24,
        proptest::collection::vec((0usize..24, 0usize..24), 0..40),
    )
        .prop_map(|(n, extra)| {
            let mut g = Graph::new(n);
            for i in 0..n {
                let j = (i + 1) % n;
                g.add_edge(i.min(j), i.max(j), LinkKind::Ring);
            }
            for (a, b) in extra {
                let (a, b) = (a % n, b % n);
                if a != b {
                    g.add_edge_dedup(a.min(b), a.max(b), LinkKind::Random);
                }
            }
            g
        })
}

/// Random graphs of up to 150 nodes, so the APSP sweep crosses two
/// 64-source word boundaries. Half keep the ring backbone; the other half
/// draw their edges only, which covers isolated nodes and disconnected
/// graphs. `sparsity` thins the extra edges by up to 64×, so some rings
/// keep a diameter of several dozen hops.
fn arb_wide_graph() -> impl Strategy<Value = Graph> {
    (
        1usize..150,
        0usize..2,
        0usize..4,
        proptest::collection::vec((0usize..150, 0usize..150), 0..300),
    )
        .prop_map(|(n, ring, sparsity, mut extra)| {
            extra.truncate(extra.len() >> (2 * sparsity));
            let mut g = Graph::new(n);
            if ring == 1 && n > 2 {
                for i in 0..n {
                    let j = (i + 1) % n;
                    g.add_edge(i.min(j), i.max(j), LinkKind::Ring);
                }
            }
            for (a, b) in extra {
                let (a, b) = (a % n, b % n);
                if a != b {
                    g.add_edge_dedup(a.min(b), a.max(b), LinkKind::Random);
                }
            }
            g
        })
}

/// O(n^3) Floyd–Warshall oracle.
fn floyd_warshall(g: &Graph) -> Vec<Vec<u32>> {
    let n = g.node_count();
    const INF: u32 = u32::MAX / 4;
    let mut d = vec![vec![INF; n]; n];
    for (v, row) in d.iter_mut().enumerate() {
        row[v] = 0;
    }
    for e in g.edges() {
        d[e.a][e.b] = 1;
        d[e.b][e.a] = 1;
    }
    for k in 0..n {
        for i in 0..n {
            for j in 0..n {
                let via = d[i][k].saturating_add(d[k][j]);
                if via < d[i][j] {
                    d[i][j] = via;
                }
            }
        }
    }
    d
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bfs_matches_floyd_warshall(g in arb_graph()) {
        let oracle = floyd_warshall(&g);
        for s in 0..g.node_count() {
            let bfs = bfs_distances(&g, s);
            for t in 0..g.node_count() {
                let expect = oracle[s][t];
                let got = if bfs[t] == UNREACHABLE { u32::MAX / 4 } else { bfs[t] };
                prop_assert_eq!(got, expect, "{} -> {}", s, t);
            }
        }
    }

    #[test]
    fn path_stats_match_oracle(g in arb_wide_graph()) {
        // Fold one plain BFS per source into every PathStats field.
        let n = g.node_count();
        let mut histogram = vec![0u64];
        let mut eccentricity = vec![0u32; n];
        let mut unreachable = 0u64;
        let (mut sum, mut cnt) = (0u64, 0u64);
        for s in 0..n {
            for (t, &d) in bfs_distances(&g, s).iter().enumerate() {
                if d == UNREACHABLE {
                    unreachable += 1;
                    continue;
                }
                let d = d as usize;
                if histogram.len() <= d {
                    histogram.resize(d + 1, 0);
                }
                histogram[d] += 1;
                if s != t {
                    eccentricity[s] = eccentricity[s].max(d as u32);
                    sum += d as u64;
                    cnt += 1;
                }
            }
        }
        let aspl = if cnt == 0 { 0.0 } else { sum as f64 / cnt as f64 };

        let stats = path_stats(&g);
        prop_assert_eq!(stats.nodes, n);
        prop_assert_eq!(&stats.histogram, &histogram);
        prop_assert_eq!(&stats.eccentricity, &eccentricity);
        prop_assert_eq!(stats.unreachable_pairs, unreachable);
        prop_assert_eq!(stats.diameter, eccentricity.iter().copied().max().unwrap_or(0));
        prop_assert_eq!(stats.aspl.to_bits(), aspl.to_bits());
    }

    #[test]
    fn disjoint_paths_bounded_and_symmetric(g in arb_graph()) {
        let n = g.node_count();
        let pairs = [(0usize, n / 2), (1, n - 1), (n / 3, 2 * n / 3)];
        for &(s, t) in &pairs {
            if s == t { continue; }
            let k_st = edge_disjoint_paths(&g, s, t);
            let k_ts = edge_disjoint_paths(&g, t, s);
            prop_assert_eq!(k_st, k_ts, "max-flow must be symmetric");
            prop_assert!(k_st >= 2, "ring backbone guarantees 2");
            prop_assert!(k_st <= g.degree(s).min(g.degree(t)));
        }
    }

    #[test]
    fn bisection_is_a_valid_balanced_cut(g in arb_graph()) {
        let b = estimate_bisection(&g, 2, 11);
        let n = g.node_count();
        let ones = b.side.iter().filter(|&&s| s).count();
        prop_assert!(ones == n / 2 || ones == n.div_ceil(2));
        prop_assert_eq!(cut_size(&g, &b.side), b.width);
        // A valid cut of a connected graph crosses at least once.
        prop_assert!(b.width >= 1);
    }
}
