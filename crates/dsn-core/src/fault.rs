//! Live fault masking over a [`Graph`]: which edges and switches are
//! currently operational.
//!
//! [`Graph`] itself is append-only and analyses treat it as immutable, so
//! runtime faults (a link or switch going down mid-run and possibly coming
//! back) are represented *outside* the graph by an [`EdgeMask`]. Unlike
//! [`Graph::without_edges`], which renumbers edges densely, a mask keeps
//! the original edge and channel ids — which is what the flit-level
//! simulator needs, since all of its per-channel state is indexed by the
//! original channel numbering.
//!
//! An edge is *alive* when it is administratively up **and** both of its
//! endpoints are up; a switch going down therefore kills every incident
//! link without touching their administrative state, so the links revive
//! when the switch does.

use crate::graph::{EdgeId, Graph};
use crate::NodeId;

/// Mutable liveness overlay for a graph's edges and nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeMask {
    /// Administrative state per edge (`false` = link itself failed).
    edge_admin: Vec<bool>,
    /// Liveness per node (`false` = switch failed).
    node_up: Vec<bool>,
    /// Cached `edge_admin[e] && node_up[a] && node_up[b]` per edge.
    alive: Vec<bool>,
    alive_edges: usize,
}

impl EdgeMask {
    /// A mask with every edge and node alive.
    pub fn fully_alive(g: &Graph) -> Self {
        EdgeMask {
            edge_admin: vec![true; g.edge_count()],
            node_up: vec![true; g.node_count()],
            alive: vec![true; g.edge_count()],
            alive_edges: g.edge_count(),
        }
    }

    /// Whether edge `e` is currently alive (admin-up with both ends up).
    #[inline]
    pub fn edge_alive(&self, e: EdgeId) -> bool {
        self.alive[e]
    }

    /// Whether the directed channel `ch` (= `2e` or `2e + 1`) is alive.
    #[inline]
    pub fn channel_alive(&self, ch: usize) -> bool {
        self.alive[ch / 2]
    }

    /// Whether switch `v` is up.
    #[inline]
    pub fn node_up(&self, v: NodeId) -> bool {
        self.node_up[v]
    }

    /// Number of currently-alive edges.
    #[inline]
    pub fn alive_edges(&self) -> usize {
        self.alive_edges
    }

    /// Heap bytes the mask holds.
    pub fn heap_bytes(&self) -> usize {
        self.edge_admin.capacity() + self.node_up.capacity() + self.alive.capacity()
    }

    /// True when nothing is failed.
    pub fn is_full(&self) -> bool {
        self.alive_edges == self.alive.len() && self.node_up.iter().all(|&u| u)
    }

    /// Deterministic 64-bit fingerprint of the failure state, for keying
    /// routing caches across fault epochs. The pristine mask (nothing
    /// failed) always fingerprints to `0`; any degraded mask maps to a
    /// non-zero value, with identical `(edge_admin, node_up)` states —
    /// regardless of the event history that produced them — colliding on
    /// purpose.
    pub fn fingerprint(&self) -> u64 {
        if self.is_full() {
            return 0;
        }
        // FNV-1a over the failed indices, domain-tagged so an edge index
        // can never alias a node index.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut mix = |x: u64| {
            h ^= x;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        for (e, &up) in self.edge_admin.iter().enumerate() {
            if !up {
                mix((1u64 << 32) | e as u64);
            }
        }
        for (v, &up) in self.node_up.iter().enumerate() {
            if !up {
                mix((2u64 << 32) | v as u64);
            }
        }
        // 0 is reserved for the pristine mask.
        h.max(1)
    }

    /// Set edge `e`'s administrative state. Returns `true` when the edge's
    /// effective liveness changed (it may not — e.g. reviving a link whose
    /// endpoint switch is still down).
    pub fn set_edge_admin(&mut self, g: &Graph, e: EdgeId, up: bool) -> bool {
        assert!(e < self.edge_admin.len(), "edge {e} out of range");
        self.edge_admin[e] = up;
        self.recompute(g, e)
    }

    /// Set switch `v` up or down. Returns the incident edges whose
    /// effective liveness changed, in edge-id order.
    pub fn set_node_up(&mut self, g: &Graph, v: NodeId, up: bool) -> Vec<EdgeId> {
        assert!(v < self.node_up.len(), "node {v} out of range");
        self.node_up[v] = up;
        let mut changed: Vec<EdgeId> = g
            .neighbors(v)
            .map(|(_, e)| e)
            .filter(|&e| self.recompute(g, e))
            .collect();
        changed.sort_unstable();
        changed.dedup();
        changed
    }

    /// Recompute `alive[e]`; returns whether it changed.
    fn recompute(&mut self, g: &Graph, e: EdgeId) -> bool {
        let edge = g.edge(e);
        let now = self.edge_admin[e] && self.node_up[edge.a] && self.node_up[edge.b];
        let was = self.alive[e];
        if now != was {
            self.alive[e] = now;
            if now {
                self.alive_edges += 1;
            } else {
                self.alive_edges -= 1;
            }
        }
        now != was
    }
}

/// Connected-component labels of the survivor graph: `labels[v]` is the
/// smallest node id in `v`'s component over alive edges. Down switches get
/// their own (unreachable) singleton component.
pub fn components_masked(g: &Graph, mask: &EdgeMask) -> Vec<NodeId> {
    let n = g.node_count();
    let mut label = vec![usize::MAX; n];
    let mut stack = Vec::new();
    for s in 0..n {
        if label[s] != usize::MAX {
            continue;
        }
        label[s] = s;
        if !mask.node_up(s) {
            continue; // a dead switch is its own island
        }
        stack.push(s);
        while let Some(v) = stack.pop() {
            for (u, e) in g.neighbors(v) {
                if mask.edge_alive(e) && label[u] == usize::MAX {
                    label[u] = s;
                    stack.push(u);
                }
            }
        }
    }
    label
}

/// True when every *up* node can reach every other up node over alive
/// edges (vacuously true with fewer than two up nodes).
pub fn is_connected_masked(g: &Graph, mask: &EdgeMask) -> bool {
    let labels = components_masked(g, mask);
    let mut first = None;
    for (v, &label) in labels.iter().enumerate() {
        if !mask.node_up(v) {
            continue;
        }
        match first {
            None => first = Some(label),
            Some(l) if label != l => return false,
            _ => {}
        }
    }
    true
}

/// Materialize the survivor graph: same node set, only alive edges (edge
/// ids renumbered densely, like [`Graph::without_edges`]). For static
/// analyses/oracles; the simulator itself works on the mask.
pub fn survivor_graph(g: &Graph, mask: &EdgeMask) -> Graph {
    let dead: Vec<EdgeId> = (0..g.edge_count())
        .filter(|&e| !mask.edge_alive(e))
        .collect();
    g.without_edges(&dead)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::LinkKind;
    use crate::ring::Ring;

    fn ring(n: usize) -> Graph {
        Ring::new(n).unwrap().into_graph()
    }

    #[test]
    fn fresh_mask_is_full() {
        let g = ring(6);
        let m = EdgeMask::fully_alive(&g);
        assert!(m.is_full());
        assert_eq!(m.alive_edges(), 6);
        for e in 0..6 {
            assert!(m.edge_alive(e));
            assert!(m.channel_alive(2 * e) && m.channel_alive(2 * e + 1));
        }
        assert!(is_connected_masked(&g, &m));
    }

    #[test]
    fn edge_admin_toggles() {
        let g = ring(6);
        let mut m = EdgeMask::fully_alive(&g);
        assert!(m.set_edge_admin(&g, 2, false));
        assert!(!m.edge_alive(2));
        assert!(!m.channel_alive(4) && !m.channel_alive(5));
        assert_eq!(m.alive_edges(), 5);
        assert!(!m.is_full());
        // one dead ring edge leaves the ring connected
        assert!(is_connected_masked(&g, &m));
        assert!(!m.set_edge_admin(&g, 2, false), "no-op repeat");
        assert!(m.set_edge_admin(&g, 2, true));
        assert!(m.is_full());
    }

    #[test]
    fn node_down_kills_incident_edges_without_admin_change() {
        let g = ring(6);
        let mut m = EdgeMask::fully_alive(&g);
        let changed = m.set_node_up(&g, 0, false);
        // ring node 0 touches edges (0,1) and (5,0)
        assert_eq!(changed.len(), 2);
        for &e in &changed {
            assert!(!m.edge_alive(e));
        }
        assert_eq!(m.alive_edges(), 4);
        // reviving the node revives exactly those edges
        let revived = m.set_node_up(&g, 0, true);
        assert_eq!(revived, changed);
        assert!(m.is_full());
    }

    #[test]
    fn admin_down_survives_node_bounce() {
        let g = ring(6);
        let mut m = EdgeMask::fully_alive(&g);
        let e01 = 0; // first ring edge touches node 0
        m.set_edge_admin(&g, e01, false);
        m.set_node_up(&g, 0, false);
        let revived = m.set_node_up(&g, 0, true);
        // the admin-down edge must NOT revive with the switch
        assert!(!revived.contains(&e01));
        assert!(!m.edge_alive(e01));
    }

    #[test]
    fn components_split_and_min_label() {
        let g = ring(6);
        let mut m = EdgeMask::fully_alive(&g);
        // cut edges (0,1) and (3,4): components {1,2,3} and {4,5,0}
        m.set_edge_admin(&g, 0, false);
        m.set_edge_admin(&g, 3, false);
        assert!(!is_connected_masked(&g, &m));
        let labels = components_masked(&g, &m);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[2], labels[3]);
        assert_eq!(labels[4], labels[5]);
        assert_eq!(labels[5], labels[0]);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn dead_node_is_singleton_component() {
        let g = ring(6);
        let mut m = EdgeMask::fully_alive(&g);
        m.set_node_up(&g, 3, false);
        let labels = components_masked(&g, &m);
        assert_eq!(labels[3], 3);
        assert!(labels.iter().enumerate().all(|(v, &l)| v == 3 || l != 3));
        // survivors 0,1,2,4,5 remain connected around the ring
        assert!(is_connected_masked(&g, &m));
    }

    #[test]
    fn fingerprint_keys_failure_state_not_history() {
        let g = ring(6);
        let mut m = EdgeMask::fully_alive(&g);
        assert_eq!(m.fingerprint(), 0, "pristine mask is always 0");
        m.set_edge_admin(&g, 2, false);
        let f1 = m.fingerprint();
        assert_ne!(f1, 0);
        // same end state via a different event history → same fingerprint
        let mut m2 = EdgeMask::fully_alive(&g);
        m2.set_edge_admin(&g, 4, false);
        m2.set_edge_admin(&g, 4, true);
        m2.set_edge_admin(&g, 2, false);
        assert_eq!(m2.fingerprint(), f1);
        // a node failure is distinct from an edge failure
        let mut m3 = EdgeMask::fully_alive(&g);
        m3.set_node_up(&g, 2, false);
        assert_ne!(m3.fingerprint(), f1);
        // full recovery returns to the pristine fingerprint
        m.set_edge_admin(&g, 2, true);
        assert_eq!(m.fingerprint(), 0);
    }

    #[test]
    fn survivor_graph_matches_mask() {
        let mut g = ring(5);
        g.add_edge(0, 2, LinkKind::Random);
        let mut m = EdgeMask::fully_alive(&g);
        m.set_edge_admin(&g, 1, false);
        let s = survivor_graph(&g, &m);
        assert_eq!(s.node_count(), 5);
        assert_eq!(s.edge_count(), 5);
        assert!(!s.has_edge(1, 2));
        assert!(s.has_edge(0, 2));
    }
}
