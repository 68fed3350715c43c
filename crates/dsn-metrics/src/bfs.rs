//! Single-source breadth-first search over the unweighted physical graph.
//!
//! Interconnect hop metrics (diameter, average shortest path length) are all
//! BFS-based because every link costs one switch hop. The all-pairs sweep
//! lives in [`crate::apsp`]; these single-source searches answer point
//! queries and serve the tests as its oracle.

use dsn_core::graph::Graph;
use dsn_core::NodeId;
use std::collections::VecDeque;

/// Distance value for unreachable nodes.
pub const UNREACHABLE: u32 = u32::MAX;

/// One-shot BFS: distances from `source` to every node. Unreached nodes
/// hold [`UNREACHABLE`].
pub fn bfs_distances(g: &Graph, source: NodeId) -> Vec<u32> {
    let mut dist = vec![UNREACHABLE; g.node_count()];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v];
        for u in g.neighbor_ids(v) {
            if dist[u] == UNREACHABLE {
                dist[u] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Shortest path (as a node sequence, source first) from `source` to
/// `target`, or `None` if unreachable. Parent tracking picks the
/// lowest-numbered parent, so the result is deterministic.
pub fn bfs_path(g: &Graph, source: NodeId, target: NodeId) -> Option<Vec<NodeId>> {
    if source == target {
        return Some(vec![source]);
    }
    let n = g.node_count();
    let mut parent: Vec<Option<NodeId>> = vec![None; n];
    let mut dist = vec![UNREACHABLE; n];
    let mut queue = VecDeque::new();
    dist[source] = 0;
    queue.push_back(source);
    while let Some(v) = queue.pop_front() {
        if v == target {
            break;
        }
        for u in g.neighbor_ids(v) {
            if dist[u] == UNREACHABLE {
                dist[u] = dist[v] + 1;
                parent[u] = Some(v);
                queue.push_back(u);
            }
        }
    }
    if dist[target] == UNREACHABLE {
        return None;
    }
    let mut path = vec![target];
    let mut cur = target;
    while let Some(p) = parent[cur] {
        path.push(p);
        cur = p;
    }
    path.reverse();
    debug_assert_eq!(path[0], source);
    Some(path)
}

/// Graph (hop) distance between two nodes, or `None` if unreachable.
pub fn distance(g: &Graph, a: NodeId, b: NodeId) -> Option<u32> {
    let d = bfs_distances(g, a)[b];
    (d != UNREACHABLE).then_some(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsn_core::graph::LinkKind;

    fn path_graph(n: usize) -> Graph {
        let mut g = Graph::new(n);
        for i in 0..n - 1 {
            g.add_edge(i, i + 1, LinkKind::Ring);
        }
        g
    }

    #[test]
    fn distances_on_a_path() {
        let g = path_graph(5);
        assert_eq!(bfs_distances(&g, 0), vec![0, 1, 2, 3, 4]);
        assert_eq!(bfs_distances(&g, 2), vec![2, 1, 0, 1, 2]);
    }

    #[test]
    fn unreachable_marked() {
        let mut g = path_graph(3);
        g = {
            let mut g2 = Graph::new(4);
            for e in g.edges() {
                g2.add_edge(e.a, e.b, e.kind);
            }
            g2
        };
        let d = bfs_distances(&g, 0);
        assert_eq!(d[3], UNREACHABLE);
    }

    #[test]
    fn path_reconstruction() {
        let g = path_graph(5);
        assert_eq!(bfs_path(&g, 0, 4), Some(vec![0, 1, 2, 3, 4]));
        assert_eq!(bfs_path(&g, 2, 2), Some(vec![2]));
    }

    #[test]
    fn path_is_shortest_on_a_cycle() {
        let mut g = path_graph(6);
        g.add_edge(0, 5, LinkKind::Ring);
        let p = bfs_path(&g, 0, 4).unwrap();
        assert_eq!(p.len() - 1, 2); // 0 -> 5 -> 4
        assert_eq!(distance(&g, 0, 4), Some(2));
    }
}
