//! Live fault masking over a [`Graph`]: which links are currently
//! operational.
//!
//! [`Graph`] itself is append-only and analyses treat it as immutable, so
//! runtime link faults (a link going down mid-run and possibly coming
//! back) are represented *outside* the graph by an [`EdgeMask`]. Unlike
//! [`Graph::without_edges`], which renumbers edges densely, a mask keeps
//! the original edge and channel ids — which is what the flit-level
//! simulator needs, since all of its per-channel state is indexed by the
//! original channel numbering. Switches never fail on their own: a switch
//! whose links are all down is an isolated node of the survivor graph.

use crate::graph::{EdgeId, Graph};
use crate::NodeId;

/// Mutable liveness overlay for a graph's edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EdgeMask {
    /// Liveness per edge (`false` = link failed).
    alive: Vec<bool>,
    alive_edges: usize,
}

impl EdgeMask {
    /// A mask with every edge alive.
    pub fn fully_alive(g: &Graph) -> Self {
        EdgeMask {
            alive: vec![true; g.edge_count()],
            alive_edges: g.edge_count(),
        }
    }

    /// Whether edge `e` is currently alive.
    #[inline]
    pub fn edge_alive(&self, e: EdgeId) -> bool {
        self.alive[e]
    }

    /// Whether the directed channel `ch` (= `2e` or `2e + 1`) is alive.
    #[inline]
    pub fn channel_alive(&self, ch: usize) -> bool {
        self.alive[ch / 2]
    }

    /// Number of currently-alive edges.
    #[inline]
    pub fn alive_edges(&self) -> usize {
        self.alive_edges
    }

    /// Heap bytes the mask holds.
    pub fn heap_bytes(&self) -> usize {
        self.alive.capacity()
    }

    /// True when nothing is failed.
    pub fn is_full(&self) -> bool {
        self.alive_edges == self.alive.len()
    }

    /// Deterministic 64-bit fingerprint of the failure state, for keying
    /// routing caches across fault epochs. The pristine mask (nothing
    /// failed) always fingerprints to `0`; any degraded mask maps to a
    /// non-zero value, with identical failed-link sets — regardless of the
    /// event history that produced them — colliding on purpose.
    pub fn fingerprint(&self) -> u64 {
        if self.is_full() {
            return 0;
        }
        // FNV-1a over the failed edge indices, domain-tagged.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        for (e, &up) in self.alive.iter().enumerate() {
            if !up {
                h ^= (1u64 << 32) | e as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01B3);
            }
        }
        // 0 is reserved for the pristine mask.
        h.max(1)
    }

    /// Set edge `e` up or down. Returns `true` when its liveness changed.
    pub fn set_edge(&mut self, e: EdgeId, up: bool) -> bool {
        assert!(e < self.alive.len(), "edge {e} out of range");
        let was = std::mem::replace(&mut self.alive[e], up);
        if up != was {
            if up {
                self.alive_edges += 1;
            } else {
                self.alive_edges -= 1;
            }
        }
        up != was
    }
}

/// Connected-component labels of the survivor graph: `labels[v]` is the
/// smallest node id in `v`'s component over alive edges.
pub fn components_masked(g: &Graph, mask: &EdgeMask) -> Vec<NodeId> {
    let n = g.node_count();
    let mut label = vec![usize::MAX; n];
    let mut stack = Vec::new();
    for s in 0..n {
        if label[s] != usize::MAX {
            continue;
        }
        label[s] = s;
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

/// True when every node can reach every other node over alive edges.
pub fn is_connected_masked(g: &Graph, mask: &EdgeMask) -> bool {
    components_masked(g, mask).iter().all(|&label| label == 0)
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
    fn edge_toggles() {
        let g = ring(6);
        let mut m = EdgeMask::fully_alive(&g);
        assert!(m.set_edge(2, false));
        assert!(!m.edge_alive(2));
        assert!(!m.channel_alive(4) && !m.channel_alive(5));
        assert_eq!(m.alive_edges(), 5);
        assert!(!m.is_full());
        // one dead ring edge leaves the ring connected
        assert!(is_connected_masked(&g, &m));
        assert!(!m.set_edge(2, false), "no-op repeat");
        assert!(m.set_edge(2, true));
        assert!(m.is_full());
    }

    #[test]
    fn components_split_and_min_label() {
        let g = ring(6);
        let mut m = EdgeMask::fully_alive(&g);
        // cut edges (0,1) and (3,4): components {1,2,3} and {4,5,0}
        m.set_edge(0, false);
        m.set_edge(3, false);
        assert!(!is_connected_masked(&g, &m));
        let labels = components_masked(&g, &m);
        assert_eq!(labels[1], labels[2]);
        assert_eq!(labels[2], labels[3]);
        assert_eq!(labels[4], labels[5]);
        assert_eq!(labels[5], labels[0]);
        assert_ne!(labels[0], labels[1]);
    }

    #[test]
    fn fingerprint_keys_failure_state_not_history() {
        let g = ring(6);
        let mut m = EdgeMask::fully_alive(&g);
        assert_eq!(m.fingerprint(), 0, "pristine mask is always 0");
        m.set_edge(2, false);
        let f1 = m.fingerprint();
        assert_ne!(f1, 0);
        // same end state via a different event history → same fingerprint
        let mut m2 = EdgeMask::fully_alive(&g);
        m2.set_edge(4, false);
        m2.set_edge(4, true);
        m2.set_edge(2, false);
        assert_eq!(m2.fingerprint(), f1);
        // a different failed edge is a different state
        let mut m3 = EdgeMask::fully_alive(&g);
        m3.set_edge(3, false);
        assert_ne!(m3.fingerprint(), f1);
        // full recovery returns to the pristine fingerprint
        m.set_edge(2, true);
        assert_eq!(m.fingerprint(), 0);
    }

    #[test]
    fn survivor_graph_matches_mask() {
        let mut g = ring(5);
        g.add_edge(0, 2, LinkKind::Random);
        let mut m = EdgeMask::fully_alive(&g);
        m.set_edge(1, false);
        let s = survivor_graph(&g, &m);
        assert_eq!(s.node_count(), 5);
        assert_eq!(s.edge_count(), 5);
        assert!(!s.has_edge(1, 2));
        assert!(s.has_edge(0, 2));
    }
}
