//! Topology-agnostic **up*/down*** routing (Silla & Duato, paper ref. \[24\]).
//!
//! A BFS spanning tree from a root assigns every link a direction: the end
//! closer to the root (breaking ties by smaller node id) is *up*. A legal
//! path is zero or more up-moves followed by zero or more down-moves; this
//! forbids every down→up turn and is therefore deadlock-free (the CDG test
//! in this crate verifies it). The paper's simulator uses up*/down* for the
//! escape paths of its adaptive routing; we do the same in `dsn-sim`.
//!
//! Routing state is the pair `(node, phase)` where the phase records
//! whether the packet has taken a down-move yet. Shortest legal distances
//! are precomputed per destination over that state graph (parallel over
//! destinations), and next hops are enumerated on demand from the current
//! phase — which is exactly what a switch's routing logic needs.
//!
//! [`UpDown`] holds that n × 2n `u32` matrix (33.5 MB at 2046 switches).
//! Its users are analysis — [`crate::load::updown_loads`], the up*/down*
//! path statistics — and the simulator's test oracle, which derives its
//! reference hops from [`UpDown::next_hops`]. The simulator itself builds
//! no `UpDown`: it takes [`forest_depth`] and [`is_up`] and fills its
//! port-mask tables with a bit-parallel BFS over blocks of 64
//! destinations (`dsn-sim`'s `masks.rs`), which holds six `u64` words
//! per node. The per-destination queue BFS here stays as it is
//! on purpose: it is the independent reference that kernel is checked
//! against, so the two share only the orientation.

use dsn_core::fault::EdgeMask;
use dsn_core::graph::Graph;
use dsn_core::NodeId;
use rayon::prelude::*;
use std::collections::VecDeque;

/// Distance marker for unroutable states (cannot occur on connected graphs
/// when starting in the Up phase).
const INF: u32 = u32::MAX;

/// Phase of a packet along an up*/down* path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum UdPhase {
    /// May still move up (or turn down).
    Up,
    /// Has moved down; must keep moving down.
    Down,
}

impl UdPhase {
    #[inline]
    fn idx(self) -> usize {
        match self {
            UdPhase::Up => 0,
            UdPhase::Down => 1,
        }
    }
}

/// Up*/down* link orientation plus shortest legal-path distance tables.
#[derive(Debug, Clone)]
pub struct UpDown {
    root: NodeId,
    /// BFS depth of each node.
    depth: Vec<u32>,
    /// `dist[t][2v + phase]` = shortest legal path length from `(v, phase)`
    /// to `t`.
    dist: Vec<Vec<u32>>,
    /// Liveness overlay when built on a survivor graph (`None` = strict
    /// mode: the full graph, connectivity asserted).
    mask: Option<EdgeMask>,
}

impl UpDown {
    /// Orient links from a BFS tree rooted at `root` and precompute
    /// shortest legal-path distances for every destination.
    ///
    /// # Panics
    /// Panics if the graph is disconnected or `root` is out of range.
    pub fn new(g: &Graph, root: NodeId) -> Self {
        let depth = forest_depth(g, root, None);
        let dist: Vec<Vec<u32>> = (0..g.node_count())
            .into_par_iter()
            .map(|t| legal_distances(g, &depth, t, None))
            .collect();
        UpDown {
            root,
            depth,
            dist,
            mask: None,
        }
    }

    /// Orient links on the *survivor* graph defined by `mask`: the BFS
    /// forest of [`forest_depth`]. The survivor graph may be
    /// disconnected — unreachable `(state, dest)` pairs keep distance
    /// `INF` and [`Self::next_hops`] returns no hops for them instead of
    /// panicking, so the caller (the simulator's online-reroute path) can
    /// treat them as unroutable.
    ///
    /// # Panics
    /// Panics if `root` is out of range.
    pub fn new_masked(g: &Graph, root: NodeId, mask: &EdgeMask) -> Self {
        let depth = forest_depth(g, root, Some(mask));
        let dist: Vec<Vec<u32>> = (0..g.node_count())
            .into_par_iter()
            .map(|t| legal_distances(g, &depth, t, Some(mask)))
            .collect();
        UpDown {
            root,
            depth,
            dist,
            mask: Some(mask.clone()),
        }
    }

    /// The spanning-tree root.
    #[inline]
    pub fn root(&self) -> NodeId {
        self.root
    }

    /// BFS depth of `v`.
    #[inline]
    pub fn depth(&self, v: NodeId) -> u32 {
        self.depth[v]
    }

    /// True when traversing `edge` out of `from` is an *up* move.
    pub fn is_up_move(&self, g: &Graph, edge: usize, from: NodeId) -> bool {
        let to = g.edge(edge).other(from);
        is_up(&self.depth, from, to)
    }

    /// Shortest legal-path length from `s` (fresh packet, Up phase) to `t`.
    #[inline]
    pub fn distance(&self, s: NodeId, t: NodeId) -> u32 {
        self.dist[t][2 * s]
    }

    /// Shortest legal-path length from `(v, phase)` to `t`.
    #[inline]
    pub fn distance_phased(&self, v: NodeId, phase: UdPhase, t: NodeId) -> u32 {
        self.dist[t][2 * v + phase.idx()]
    }

    /// Whether a legal path from `(v, phase)` to `t` exists at all. Always
    /// true from the Up phase on a connected unmasked instance; a Down
    /// state can be unreachable even then — such states never occur in
    /// legal traffic, which is what lets table compilers skip them.
    #[inline]
    pub fn reachable_phased(&self, v: NodeId, phase: UdPhase, t: NodeId) -> bool {
        self.dist[t][2 * v + phase.idx()] != INF
    }

    /// Minimal legal next hops from `(v, phase)` toward `t`: each entry is
    /// `(edge_id, next_phase)`. Empty only when `v == t`.
    pub fn next_hops(
        &self,
        g: &Graph,
        v: NodeId,
        phase: UdPhase,
        t: NodeId,
    ) -> Vec<(usize, UdPhase)> {
        let mut out = Vec::new();
        self.for_each_next_hop(g, v, phase, t, |_, e, next| out.push((e, next)));
        out
    }

    /// [`Self::next_hops`] without the allocation: calls `f(port, edge_id,
    /// next_phase)` for each minimal legal hop, in `g.neighbors(v)` order,
    /// where `port` is the hop's position in that iteration.
    pub fn for_each_next_hop(
        &self,
        g: &Graph,
        v: NodeId,
        phase: UdPhase,
        t: NodeId,
        mut f: impl FnMut(usize, usize, UdPhase),
    ) {
        if v == t {
            return;
        }
        let dv = self.distance_phased(v, phase, t);
        if dv == INF {
            // Only possible on a masked (survivor) instance: the state
            // cannot reach `t`, so there is no hop to offer.
            debug_assert!(self.mask.is_some(), "({v}, {phase:?}) cannot reach {t}");
            return;
        }
        let mut found = false;
        for (port, (u, e)) in g.neighbors(v).enumerate() {
            if self.mask.as_ref().is_some_and(|m| !m.edge_alive(e)) {
                continue; // dead link on the survivor graph
            }
            let up = is_up(&self.depth, v, u);
            if up && phase == UdPhase::Down {
                continue; // illegal down -> up turn
            }
            let next_phase = if up { UdPhase::Up } else { UdPhase::Down };
            let du = self.distance_phased(u, next_phase, t);
            if du != INF && du + 1 == dv {
                found = true;
                f(port, e, next_phase);
            }
        }
        debug_assert!(found, "no legal next hop from {v} to {t}");
    }

    /// Walk a deterministic shortest legal path (first listed hop at every
    /// step). Returns the node sequence from `s` to `t`.
    pub fn path(&self, g: &Graph, s: NodeId, t: NodeId) -> Vec<NodeId> {
        let mut path = vec![s];
        let mut v = s;
        let mut phase = UdPhase::Up;
        while v != t {
            let (e, next_phase) = self.next_hops(g, v, phase, t)[0];
            v = g.edge(e).other(v);
            phase = next_phase;
            path.push(v);
        }
        path
    }

    /// Check that a node sequence is a legal up*/down* path.
    pub fn is_legal_path(&self, path: &[NodeId]) -> bool {
        let mut gone_down = false;
        for w in path.windows(2) {
            let up = is_up(&self.depth, w[0], w[1]);
            if up && gone_down {
                return false;
            }
            if !up {
                gone_down = true;
            }
        }
        true
    }

    /// Average shortest legal path length over ordered pairs — up*/down*
    /// paths are generally longer than graph-shortest paths, which is the
    /// routing-inefficiency cost the paper attributes to topology-agnostic
    /// routing on irregular topologies.
    pub fn avg_path_length(&self) -> f64 {
        let n = self.dist.len();
        let mut sum = 0u64;
        let mut count = 0u64;
        for (t, row) in self.dist.iter().enumerate() {
            for s in 0..n {
                if s != t && row[2 * s] != INF {
                    sum += row[2 * s] as u64;
                    count += 1;
                }
            }
        }
        if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        }
    }
}

/// `true` when moving `from -> to` goes up (toward the root): `to` is
/// shallower in `depth` (a [`forest_depth`] result), or as deep with the
/// smaller id.
#[inline]
pub fn is_up(depth: &[u32], from: NodeId, to: NodeId) -> bool {
    depth[to] < depth[from] || (depth[to] == depth[from] && to < from)
}

/// BFS depth of every node in the up*/down* forest: grown from `root`,
/// then from the smallest still-unreached node of each remaining
/// component, over the links `mask` keeps (every link when `None`).
///
/// # Panics
/// Panics if `root` is out of range, or if `mask` is `None` and the graph
/// is disconnected: the strict, unmasked orientation needs one tree.
pub fn forest_depth(g: &Graph, root: NodeId, mask: Option<&EdgeMask>) -> Vec<u32> {
    let n = g.node_count();
    assert!(root < n, "root out of range");
    let mut depth = vec![INF; n];
    let mut q = VecDeque::new();
    for seed in std::iter::once(root).chain(0..n) {
        if depth[seed] != INF {
            continue;
        }
        assert!(
            seed == root || mask.is_some(),
            "up*/down* requires a connected graph"
        );
        depth[seed] = 0;
        q.push_back(seed);
        while let Some(v) = q.pop_front() {
            for (u, e) in g.neighbors(v) {
                if mask.is_some_and(|m| !m.edge_alive(e)) {
                    continue;
                }
                if depth[u] == INF {
                    depth[u] = depth[v] + 1;
                    q.push_back(u);
                }
            }
        }
    }
    depth
}

/// Backward BFS from `t` over the `(node, phase)` state graph. Forward
/// transitions: `(v, Up) -up-> (u, Up)`, `(v, Up) -down-> (u, Down)`,
/// `(v, Down) -down-> (u, Down)`. Arrival at `t` in either phase accepts.
fn legal_distances(g: &Graph, depth: &[u32], t: NodeId, mask: Option<&EdgeMask>) -> Vec<u32> {
    let n = g.node_count();
    let mut dist = vec![INF; 2 * n];
    let mut q = VecDeque::new();
    dist[2 * t] = 0;
    dist[2 * t + 1] = 0;
    q.push_back(2 * t);
    q.push_back(2 * t + 1);
    while let Some(state) = q.pop_front() {
        let (u, phase_u) = (state / 2, state % 2);
        let du = dist[state];
        for (v, e) in g.neighbors(u) {
            if mask.is_some_and(|m| !m.edge_alive(e)) {
                continue;
            }
            let up = is_up(depth, v, u);
            if up {
                // v must be in Up phase and u is entered in Up phase.
                if phase_u == 0 {
                    let s = 2 * v;
                    if dist[s] == INF {
                        dist[s] = du + 1;
                        q.push_back(s);
                    }
                }
            } else if phase_u == 1 {
                // down move allowed from either phase; enters Down.
                for sphase in 0..2 {
                    let s = 2 * v + sphase;
                    if dist[s] == INF {
                        dist[s] = du + 1;
                        q.push_back(s);
                    }
                }
            }
        }
    }
    dist
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // indices are node ids
mod tests {
    use super::*;
    use dsn_core::dsn::Dsn;
    use dsn_core::ring::Ring;
    use dsn_core::torus::Torus;

    fn graph_dists(g: &Graph, s: NodeId) -> Vec<u32> {
        let mut dist = vec![INF; g.node_count()];
        let mut q = VecDeque::new();
        dist[s] = 0;
        q.push_back(s);
        while let Some(v) = q.pop_front() {
            for u in g.neighbor_ids(v) {
                if dist[u] == INF {
                    dist[u] = dist[v] + 1;
                    q.push_back(u);
                }
            }
        }
        dist
    }

    #[test]
    fn ring_paths_are_legal_and_reachable() {
        let g = Ring::new(8).unwrap().into_graph();
        let ud = UpDown::new(&g, 0);
        for s in 0..8 {
            for t in 0..8 {
                let path = ud.path(&g, s, t);
                assert_eq!(path[0], s);
                assert_eq!(*path.last().unwrap(), t);
                assert!(ud.is_legal_path(&path), "illegal path {path:?}");
                assert_eq!(path.len() as u32 - 1, ud.distance(s, t));
            }
        }
    }

    #[test]
    fn distances_at_least_graph_distance() {
        let g = Torus::new(&[4, 4]).unwrap().into_graph();
        let ud = UpDown::new(&g, 0);
        for s in 0..16 {
            let dist = graph_dists(&g, s);
            for t in 0..16 {
                assert!(ud.distance(s, t) >= dist[t], "{s}->{t}");
            }
        }
    }

    #[test]
    fn down_phase_distance_no_shorter() {
        let g = Dsn::new(64, 5).unwrap().into_graph();
        let ud = UpDown::new(&g, 0);
        for v in 0..64 {
            for t in 0..64 {
                let up = ud.distance_phased(v, UdPhase::Up, t);
                let down = ud.distance_phased(v, UdPhase::Down, t);
                // Down phase is more constrained, so it can never be
                // strictly better... but it can be unroutable (INF).
                if down != INF {
                    assert!(down >= up, "({v}, Down) -> {t}");
                }
            }
        }
    }

    #[test]
    fn path_to_self_is_empty() {
        let g = Ring::new(6).unwrap().into_graph();
        let ud = UpDown::new(&g, 0);
        assert_eq!(ud.path(&g, 3, 3), vec![3]);
        assert_eq!(ud.distance(3, 3), 0);
    }

    #[test]
    fn up_moves_decrease_depth_or_tiebreak() {
        let g = Dsn::new(64, 5).unwrap().into_graph();
        let ud = UpDown::new(&g, 0);
        for v in 0..64 {
            for (u, e) in g.neighbors(v) {
                if ud.is_up_move(&g, e, v) {
                    assert!(ud.depth(u) < ud.depth(v) || (ud.depth(u) == ud.depth(v) && u < v));
                }
            }
        }
    }

    #[test]
    fn dsn_all_pairs_routable_with_legal_paths() {
        let g = Dsn::new(100, 6).unwrap().into_graph();
        let ud = UpDown::new(&g, 0);
        for s in 0..100 {
            for t in 0..100 {
                assert!(ud.distance(s, t) < INF);
                let path = ud.path(&g, s, t);
                assert!(ud.is_legal_path(&path));
                assert_eq!(*path.last().unwrap(), t);
            }
        }
    }

    #[test]
    fn next_hops_respect_phase() {
        let g = Torus::new(&[4, 4]).unwrap().into_graph();
        let ud = UpDown::new(&g, 0);
        for v in 0..16 {
            for t in 0..16 {
                if v == t {
                    continue;
                }
                if ud.distance_phased(v, UdPhase::Down, t) != INF {
                    for (e, _) in ud.next_hops(&g, v, UdPhase::Down, t) {
                        assert!(!ud.is_up_move(&g, e, v), "down-phase up move");
                    }
                }
            }
        }
    }

    #[test]
    fn masked_full_mask_matches_strict() {
        let g = Dsn::new(64, 5).unwrap().into_graph();
        let strict = UpDown::new(&g, 0);
        let masked = UpDown::new_masked(&g, 0, &dsn_core::EdgeMask::fully_alive(&g));
        for s in 0..64 {
            for t in 0..64 {
                assert_eq!(strict.distance(s, t), masked.distance(s, t), "{s}->{t}");
            }
        }
    }

    #[test]
    fn masked_avoids_dead_edges_and_stays_legal() {
        let g = Dsn::new(64, 5).unwrap().into_graph();
        let mut mask = dsn_core::EdgeMask::fully_alive(&g);
        mask.set_edge(0, false);
        mask.set_edge(17, false);
        let ud = UpDown::new_masked(&g, 0, &mask);
        for (s, t) in [(0usize, 32usize), (5, 60), (63, 1)] {
            let mut v = s;
            let mut phase = UdPhase::Up;
            let mut hops = 0;
            while v != t {
                let next = ud.next_hops(&g, v, phase, t);
                assert!(
                    !next.is_empty(),
                    "{v}->{t} unroutable on connected survivor"
                );
                let (e, p) = next[0];
                assert!(mask.edge_alive(e), "routed over dead edge {e}");
                v = g.edge(e).other(v);
                phase = p;
                hops += 1;
                assert!(hops < 200);
            }
        }
    }

    #[test]
    fn masked_disconnected_survivor_reports_unroutable() {
        // Cut ring edges (0,1) and (3,4) on a plain 6-ring: {1,2,3} vs
        // {4,5,0}. Cross-component states must be INF with no next hops
        // (and no panic).
        let g = Ring::new(6).unwrap().into_graph();
        let mut mask = dsn_core::EdgeMask::fully_alive(&g);
        mask.set_edge(0, false);
        mask.set_edge(3, false);
        let ud = UpDown::new_masked(&g, 0, &mask);
        assert_eq!(ud.distance(1, 4), INF);
        assert!(ud.next_hops(&g, 1, UdPhase::Up, 4).is_empty());
        // same-side pairs still route
        assert_ne!(ud.distance(1, 3), INF);
        assert_ne!(ud.distance(4, 0), INF);
        assert!(!ud.next_hops(&g, 4, UdPhase::Up, 0).is_empty());
    }

    #[test]
    fn avg_length_not_shorter_than_aspl() {
        let g = Torus::new(&[4, 4]).unwrap().into_graph();
        let ud = UpDown::new(&g, 0);
        let mut sum = 0u64;
        let mut cnt = 0u64;
        for s in 0..16 {
            let dist = graph_dists(&g, s);
            for t in 0..16 {
                if s != t {
                    sum += dist[t] as u64;
                    cnt += 1;
                }
            }
        }
        let aspl = sum as f64 / cnt as f64;
        assert!(ud.avg_path_length() >= aspl);
    }
}
