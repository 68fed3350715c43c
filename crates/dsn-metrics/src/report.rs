//! One-stop topology summary used by the examples and figure binaries:
//! bundles degree, path, and connectivity metrics for a built topology.

use crate::apsp::{path_stats, PathStats};
use dsn_core::graph::Graph;

/// The Moore bound: the maximum number of nodes a graph of maximum degree
/// `d` and diameter `k` can possibly have —
/// `1 + d * ((d-1)^k - 1) / (d - 2)` for `d > 2`, `2k + 1` for `d = 2`.
/// Saturates at `u64::MAX` for huge parameters.
pub fn moore_bound(d: usize, k: u32) -> u64 {
    match d {
        0 => 1,
        1 => 2,
        2 => 2 * k as u64 + 1,
        _ => {
            let mut total: u64 = 1;
            let mut frontier: u64 = d as u64;
            for _ in 0..k {
                total = total.saturating_add(frontier);
                frontier = frontier.saturating_mul(d as u64 - 1);
            }
            total
        }
    }
}

/// The smallest average shortest path length any `n`-node graph of
/// maximum degree `d` can have: the ASPL of a tree that fills level `k`
/// with `d(d-1)^(k-1)` nodes before starting level `k + 1`. 0 for
/// `n <= 1`; infinite when no connected graph exists (`d = 0` with
/// `n > 1`, `d = 1` with `n > 2`).
pub fn moore_aspl_bound(n: usize, d: usize) -> f64 {
    if n <= 1 {
        return 0.0;
    }
    let (mut left, mut level, mut width, mut sum) = (n as u64 - 1, 0u64, d as u64, 0u64);
    while left > 0 {
        if width == 0 {
            return f64::INFINITY;
        }
        level += 1;
        let here = width.min(left);
        sum += level * here;
        left -= here;
        width = width.saturating_mul(d as u64 - 1);
    }
    sum as f64 / (n - 1) as f64
}

/// Moore efficiency of a graph: `n / moore_bound(max_degree, diameter)` in
/// `(0, 1]`. A value near 1 means the topology is near the theoretical
/// optimum trade-off between degree and diameter.
pub fn moore_efficiency(g: &Graph, diameter: u32) -> f64 {
    let bound = moore_bound(g.max_degree(), diameter);
    if bound == 0 {
        0.0
    } else {
        g.node_count() as f64 / bound as f64
    }
}

/// A compact metrics record for a single topology instance.
#[derive(Debug, Clone)]
pub struct TopologyReport {
    /// Display name.
    pub name: String,
    /// Node count.
    pub nodes: usize,
    /// Undirected edge count.
    pub edges: usize,
    /// Minimum node degree.
    pub min_degree: usize,
    /// Average node degree.
    pub avg_degree: f64,
    /// Maximum node degree.
    pub max_degree: usize,
    /// Hop-count statistics from the exact APSP sweep.
    pub paths: PathStats,
}

impl TopologyReport {
    /// Analyze `graph` under the given display name.
    pub fn new(name: impl Into<String>, graph: &Graph) -> Self {
        TopologyReport {
            name: name.into(),
            nodes: graph.node_count(),
            edges: graph.edge_count(),
            min_degree: graph.min_degree(),
            avg_degree: graph.avg_degree(),
            max_degree: graph.max_degree(),
            paths: path_stats(graph),
        }
    }

    /// Render a single aligned table row (pairs with [`Self::header`]).
    pub fn row(&self) -> String {
        format!(
            "{:<24} {:>6} {:>7} {:>4} {:>6.2} {:>4} {:>5} {:>7.3}",
            self.name,
            self.nodes,
            self.edges,
            self.min_degree,
            self.avg_degree,
            self.max_degree,
            self.paths.diameter,
            self.paths.aspl,
        )
    }

    /// Table header matching [`Self::row`].
    pub fn header() -> String {
        format!(
            "{:<24} {:>6} {:>7} {:>4} {:>6} {:>4} {:>5} {:>7}",
            "topology", "nodes", "edges", "dmin", "davg", "dmax", "diam", "aspl"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsn_core::graph::LinkKind;
    use dsn_core::ring::Ring;

    #[test]
    fn report_fields() {
        let g = Ring::new(16).unwrap().into_graph();
        let r = TopologyReport::new("ring-16", &g);
        assert_eq!(r.nodes, 16);
        assert_eq!(r.edges, 16);
        assert_eq!(r.min_degree, 2);
        assert_eq!(r.max_degree, 2);
        assert_eq!(r.paths.diameter, 8);
    }

    #[test]
    fn moore_bound_known_values() {
        // Petersen graph parameters: degree 3, diameter 2 -> bound 10
        // (and the Petersen graph achieves it).
        assert_eq!(moore_bound(3, 2), 10);
        // degree 2 (=cycle): 2k+1
        assert_eq!(moore_bound(2, 3), 7);
        // k = 0: just the node
        assert_eq!(moore_bound(5, 0), 1);
        // degree 7, diameter 2 -> Hoffman-Singleton: 50
        assert_eq!(moore_bound(7, 2), 50);
    }

    #[test]
    fn moore_aspl_bound_is_met_by_petersen_and_complete_graphs() {
        // Petersen: outer 5-cycle, inner pentagram, five spokes.
        let mut petersen = Graph::new(10);
        for i in 0..5 {
            petersen.add_edge(i, (i + 1) % 5, LinkKind::Ring);
            petersen.add_edge(5 + i, 5 + (i + 2) % 5, LinkKind::Ring);
            petersen.add_edge(i, 5 + i, LinkKind::Ring);
        }
        let bound = moore_aspl_bound(10, 3);
        assert!((bound - 5.0 / 3.0).abs() < 1e-12, "{bound}");
        assert_eq!(path_stats(&petersen).aspl.to_bits(), bound.to_bits());
        for n in 2..8 {
            let mut complete = Graph::new(n);
            for a in 0..n {
                for b in a + 1..n {
                    complete.add_edge(a, b, LinkKind::Ring);
                }
            }
            assert_eq!(moore_aspl_bound(n, n - 1), 1.0, "K{n}");
            assert_eq!(path_stats(&complete).aspl, 1.0, "K{n}");
        }
        // A ring fills two nodes per level: 16 nodes give 1..7 twice, 8 once.
        assert_eq!(moore_aspl_bound(16, 2), (2.0 * 28.0 + 8.0) / 15.0);
        assert_eq!(moore_aspl_bound(1, 4), 0.0);
        assert_eq!(moore_aspl_bound(3, 1), f64::INFINITY);
    }

    #[test]
    fn moore_efficiency_in_unit_interval() {
        let g = Ring::new(16).unwrap().into_graph();
        let eff = moore_efficiency(&g, 8);
        assert!(eff > 0.0 && eff <= 1.0);
        // A 16-ring with diameter 8: bound 17, so 16/17.
        assert!((eff - 16.0 / 17.0).abs() < 1e-12);
    }

    #[test]
    fn rows_align_with_header() {
        let g = Ring::new(8).unwrap().into_graph();
        let r = TopologyReport::new("ring-8", &g);
        // Both render without panicking and carry the name/nodes.
        assert!(r.row().contains("ring-8"));
        assert!(TopologyReport::header().contains("diam"));
    }
}
