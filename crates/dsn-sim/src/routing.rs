//! Routing adapters that plug the `dsn-route` algorithms into the
//! simulator's switch pipeline.
//!
//! The paper's evaluation uses the topology-agnostic *adaptive* scheme of
//! Silla & Duato: fully adaptive minimal hops on the high VCs with
//! up*/down* *escape paths* on VC 0 (Duato's methodology). We also provide
//! pure up*/down* and the DSN custom routing, computed hop by hop from
//! switch ids by the three-phase DSN-V automaton ([`DsnAlgorithmic`], also
//! the escape layer of [`MinimalAdaptiveDsn`]), so the simulator can
//! compare custom vs agnostic routing the way Section VII.B discusses.
//!
//! Every scheme is a pure function of `(cur, dest, RouteState)`, and
//! [`RouteState`] is two bytes: no scheme keeps a per-packet path. The
//! per-`(switch, destination)` state a scheme needs — minimal sets and
//! up*/down* escape hops — is one byte-per-mask port-mask table built in
//! the constructor (`masks.rs`) by a bit-parallel BFS; the up*/down*
//! forest depths it is built from are dropped afterwards, and no distance
//! table is ever built.

use crate::masks::{PortMasks, UpMoves};
use dsn_core::fault::EdgeMask;
use dsn_core::graph::{Graph, LinkKind};
use dsn_core::NodeId;
use dsn_route::dsn_routing::{dsnv_step, DsnvState};
use dsn_route::updown::{forest_depth, UdPhase};
use dsn_route::RouteStep;
use std::sync::Arc;

/// Per-packet routing state carried between hops.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouteState {
    /// Up*/down* phase while the packet travels on escape channels.
    pub ud_phase: UdPhase,
    /// Packed DSN-V automaton state ([`DsnvState::to_bits`]): the phase
    /// (bits 0–1) plus the FINISH dateline flag (bit 2). [`DsnAlgorithmic`]
    /// sets bit 3 once a post-fault packet leaves the automaton;
    /// [`MinimalAdaptiveDsn`] keeps its escape sojourn here. 0 for every
    /// other scheme.
    pub alg: u8,
}

/// [`RouteState::alg`] bit of a packet that left the DSN-V automaton at a
/// dead channel and descends greedily for the rest of its life.
const DETOUR: u8 = 1 << 3;

impl RouteState {
    /// The state every packet starts in, whatever its scheme or endpoints:
    /// up*/down* phase up, and `alg = 0`, the PRE-WORK start state of the
    /// DSN-V automaton.
    pub const START: RouteState = RouteState {
        ud_phase: UdPhase::Up,
        alg: 0,
    };
}

/// A candidate output for the current hop: directed channel plus VC.
pub type Candidate = (usize, u8);

/// Routing logic used by the simulator. Implementations must be pure
/// given `(cur, dest, state)` so the engine can retry candidates across
/// cycles.
pub trait SimRouting: Send + Sync {
    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// Produce candidates in preference order for a packet at switch
    /// `cur` heading to switch `dest`. Never called with `cur == dest`
    /// (the engine ejects instead).
    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>);

    /// Commit a hop: update the packet state after the engine granted
    /// `(channel, vc)`.
    fn on_hop(&self, cur: NodeId, dest: NodeId, state: &mut RouteState, channel: usize, vc: u8);

    /// Rebuild this routing for the survivor graph described by `mask`
    /// (online reroute after a fault). Returns `None` when the scheme does
    /// not support reroute — the simulator panics on a fault then.
    fn rebuild(&self, graph: &Arc<Graph>, mask: &EdgeMask) -> Option<Arc<dyn SimRouting>> {
        let _ = (graph, mask);
        None
    }

    /// Stable identity of this scheme *configuration* (name + parameters
    /// that change candidate tables), used as the
    /// [`RoutingCache`](crate::cache::RoutingCache) key component. Two
    /// instances with the same key on the same graph must produce identical
    /// candidates. Defaults to [`Self::name`].
    fn scheme_key(&self) -> String {
        self.name()
    }

    /// Does nothing. Kept only for its one caller, the `dsn-benchmark`
    /// package, which calls it to warm a routing table that no longer
    /// exists; it goes with the next change to that benchmark.
    fn compiled_flat(&self) {}

    /// Resident heap bytes of the routing state this instance holds: port
    /// masks, up-move bits, channel LUTs and survivor masks — everything
    /// but the topology it shares with the simulator. Benchmark
    /// accounting.
    fn table_bytes(&self) -> usize;

    /// How many virtual channels the candidates span (the highest VC
    /// emitted, plus one). The simulator rejects a scheme whose span
    /// exceeds `SimConfig::vcs`.
    fn vcs(&self) -> u8;
}

/// The state of an up*/down* escape scheme: port masks (optionally led by
/// the minimal set), the per-channel up-move bits `on_hop` reads, and the
/// forest root a rebuild regrows from.
struct PhaseTables {
    masks: PortMasks,
    up_moves: UpMoves,
    root: NodeId,
}

impl PhaseTables {
    /// Grow the up*/down* forest from `root` (over the survivors when
    /// `survivors` is set), tabulate it, and drop it.
    ///
    /// # Panics
    /// Panics if `survivors` is `None` and the graph is disconnected.
    fn build(graph: &Graph, root: NodeId, survivors: Option<&EdgeMask>, minimal: bool) -> Self {
        let depth = forest_depth(graph, root, survivors);
        PhaseTables {
            masks: PortMasks::build(graph, survivors, minimal, Some(&depth)),
            up_moves: UpMoves::new(graph, &depth),
            root,
        }
    }

    fn bytes(&self) -> usize {
        self.masks.bytes() + self.up_moves.bytes()
    }
}

/// The paper's simulator routing: fully adaptive minimal on VCs `1..V`,
/// up*/down* escape on VC 0.
pub struct AdaptiveEscape {
    tables: PhaseTables,
    vcs: u8,
}

impl AdaptiveEscape {
    /// Build for the given graph with `vcs >= 2` virtual channels
    /// (VC 0 is the escape layer).
    ///
    /// # Panics
    /// Panics if `vcs < 2`.
    pub fn new(graph: Arc<Graph>, vcs: u8) -> Self {
        assert!(vcs >= 2, "adaptive + escape needs at least 2 VCs");
        AdaptiveEscape {
            tables: PhaseTables::build(&graph, 0, None, true),
            vcs,
        }
    }

    /// The [`SimRouting::scheme_key`] an instance built with `vcs` virtual
    /// channels will report, computable without building the scheme. Lets
    /// benchmark drivers address a [`crate::RoutingCache`] entry up front.
    pub fn key_for(vcs: u8) -> String {
        format!("adaptive+ud-escape({vcs}vc)")
    }
}

impl SimRouting for AdaptiveEscape {
    fn name(&self) -> String {
        AdaptiveEscape::key_for(self.vcs)
    }

    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        // Adaptive minimal candidates on VCs 1..V, then the escape on VC 0
        // honoring the packet's current up*/down* phase.
        let masks = &self.tables.masks;
        masks.push_minimal(cur, dest, 1..self.vcs, out);
        masks.push_escape(cur, dest, state.ud_phase, 0..1, out);
    }

    fn on_hop(&self, _cur: NodeId, _dest: NodeId, state: &mut RouteState, channel: usize, vc: u8) {
        state.ud_phase = if vc == 0 {
            // Stayed on (or entered) the escape layer: advance the phase.
            self.tables.up_moves.phase_after(channel)
        } else {
            // Adaptive hop: next escape entry starts a fresh up*/down* walk.
            UdPhase::Up
        };
    }

    fn vcs(&self) -> u8 {
        self.vcs
    }

    fn rebuild(&self, graph: &Arc<Graph>, mask: &EdgeMask) -> Option<Arc<dyn SimRouting>> {
        Some(Arc::new(AdaptiveEscape {
            tables: PhaseTables::build(graph, self.tables.root, Some(mask), true),
            vcs: self.vcs,
        }))
    }

    fn table_bytes(&self) -> usize {
        self.tables.bytes()
    }
}

/// Pure up*/down* routing on every VC (the paper's non-adaptive
/// topology-agnostic baseline).
pub struct UpDownRouting {
    tables: PhaseTables,
    vcs: u8,
}

impl UpDownRouting {
    /// Build for the given graph.
    pub fn new(graph: Arc<Graph>, vcs: u8) -> Self {
        assert!(vcs >= 1);
        UpDownRouting {
            tables: PhaseTables::build(&graph, 0, None, false),
            vcs,
        }
    }
}

impl SimRouting for UpDownRouting {
    fn name(&self) -> String {
        format!("up*/down*({}vc)", self.vcs)
    }

    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        self.tables
            .masks
            .push_escape(cur, dest, state.ud_phase, 0..self.vcs, out);
    }

    fn on_hop(&self, _cur: NodeId, _dest: NodeId, state: &mut RouteState, channel: usize, _vc: u8) {
        state.ud_phase = self.tables.up_moves.phase_after(channel);
    }

    fn vcs(&self) -> u8 {
        self.vcs
    }

    fn rebuild(&self, graph: &Arc<Graph>, mask: &EdgeMask) -> Option<Arc<dyn SimRouting>> {
        Some(Arc::new(UpDownRouting {
            tables: PhaseTables::build(graph, self.tables.root, Some(mask), false),
            vcs: self.vcs,
        }))
    }

    fn table_bytes(&self) -> usize {
        self.tables.bytes()
    }
}

/// The paper's *future work*, realized: deadlock-free **minimal-adaptive
/// custom routing** on DSN. Minimal hops (any neighbor closer to the
/// destination) ride VCs `4..8`; the escape layer is the DSN-V discipline
/// on VCs `0..4` — the packet can always fall back to the three-phase
/// custom route *from its current node* (Duato's methodology, with the
/// escape network's all-pairs CDG machine-checked acyclic by
/// `dsn_route::deadlock::dsnv_cdg`). Unlike the up*/down* escape this one
/// has no root hotspot, pairing adaptivity with DSN's balanced structure.
///
/// Needs 8 VCs (4 escape classes + 4 adaptive).
pub struct MinimalAdaptiveDsn {
    /// Minimal-set port masks.
    masks: PortMasks,
    /// The DSN-V escape layer: one lane per class, on VCs `0..4`.
    escape: DsnAlgorithmic,
    vcs: u8,
}

impl MinimalAdaptiveDsn {
    /// Build for a DSN instance; `vcs` must be at least 5 (4 escape classes
    /// plus at least one adaptive VC).
    ///
    /// # Panics
    /// Panics if `vcs < 5`.
    pub fn new(dsn: Arc<dsn_core::dsn::Dsn>, vcs: u8) -> Self {
        assert!(vcs >= 5, "minimal-adaptive DSN needs >= 5 VCs");
        MinimalAdaptiveDsn {
            masks: PortMasks::build(dsn.graph(), None, true, None),
            escape: DsnAlgorithmic::new(dsn),
            vcs,
        }
    }
}

impl SimRouting for MinimalAdaptiveDsn {
    fn name(&self) -> String {
        format!("minimal-adaptive+dsnv-escape({}vc)", self.vcs)
    }

    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        // Adaptive minimal candidates on VCs 4..vcs first.
        self.masks.push_minimal(cur, dest, 4..self.vcs, out);
        // Escape: the next hop of the current escape sojourn, whose
        // automaton state `alg` carries. An adaptive hop resets `alg` to 0,
        // the PRE-WORK start state, so the next escape hop begins a fresh
        // three-phase route from here. No separate "sojourn active" bit is
        // needed: a sojourn still in PRE-WORK also reads 0, and PRE-WORK
        // is memoryless — a fresh route from here takes the same hop.
        // Either way the hop belongs to some complete (u, t) route, so the
        // escape CDG stays within the machine-checked all-pairs union of
        // `dsnv_cdg`. Restarting the route at every escape hop would NOT
        // work: PRE-WORK walks pred, and a fresh route from the pred node
        // can walk succ straight back (livelock); carrying the sojourn's
        // phase keeps escape progress monotone.
        let (ch, vc, _) = self.escape.automaton_hop(cur, dest, state.alg);
        out.push((ch, vc));
    }

    fn on_hop(&self, cur: NodeId, dest: NodeId, state: &mut RouteState, _ch: usize, vc: u8) {
        state.alg = if vc < 4 {
            self.escape.automaton_hop(cur, dest, state.alg).2
        } else {
            // Adaptive hop: any escape sojourn ends.
            0
        };
    }

    fn vcs(&self) -> u8 {
        self.vcs
    }

    fn table_bytes(&self) -> usize {
        self.masks.bytes() + self.escape.table_bytes()
    }
}

/// Table-free DSN custom routing: the next hop is computed
/// *algorithmically* from switch ids and the DSN level structure by the
/// incremental three-phase automaton ([`dsn_route::dsn_routing::dsnv_step`]),
/// in O(levels) time per hop with O(n) memory — three per-node channel
/// LUTs instead of an O(n²) per-(switch, dest) table or a per-packet path.
/// The automaton state rides in [`RouteState::alg`] (3 bits), and the hops
/// are exactly those of [`dsn_route::deadlock::dsnv_route_channels`].
///
/// The DSN-V discipline puts each hop on one of 4 VC classes; `lanes`
/// physical VCs are assigned to each class (`vc = class * lanes + lane`),
/// and the router may use any lane of the hop's class. Lane multiplication
/// preserves the DSN-V deadlock-freedom argument: the per-class acyclicity
/// proofs (level monotonicity for PRE-WORK/MAIN, the dateline for FINISH)
/// do not depend on which lane inside the class a packet holds, and
/// inter-class dependencies stay monotone.
///
/// **Under faults** ([`SimRouting::rebuild`]) packets — in flight or new —
/// follow the automaton while its next channel is alive. At a dead
/// channel a packet leaves the automaton for good (bit 3 of
/// [`RouteState::alg`]) and descends greedily on survivor-graph distance,
/// ring links first (DSN's ring is the always-present fallback substrate),
/// on class 0. The detour abandons the VC discipline, so deadlock freedom
/// is no longer statically guaranteed across epochs; the simulator's stall
/// watchdog covers this. A detour outlives the fault: once every link is
/// back, a detoured packet keeps descending on the full graph's distances.
pub struct DsnAlgorithmic {
    dsn: Arc<dsn_core::dsn::Dsn>,
    /// Channel of the clockwise ring link at each node.
    succ_ch: Vec<u32>,
    /// Channel of the counter-clockwise ring link at each node.
    pred_ch: Vec<u32>,
    /// Channel of the owned shortcut at each node (`u32::MAX` when the
    /// node owns none).
    short_ch: Vec<u32>,
    /// VC classes the hops use: 4 for DSN-V, 1 for the unsafe basic
    /// routing (every hop on class 0).
    classes: u8,
    lanes: u8,
    /// Set on post-fault rebuilds.
    detour: Option<Detour>,
}

/// The survivor state a rebuilt [`DsnAlgorithmic`] detours by.
struct Detour {
    mask: EdgeMask,
    /// Minimal ports on the survivor graph.
    masks: PortMasks,
    /// Per-switch ring-port bits (`masks.mask_bytes()` each): the detour
    /// offers ring links before shortcuts.
    ring: Vec<u8>,
}

impl DsnAlgorithmic {
    /// Build the per-node channel LUTs for `dsn`'s own graph, one lane per
    /// VC class (the DSN-V discipline uses classes 0–3, so the simulator
    /// needs `vcs >= 4 * lanes`).
    pub fn new(dsn: Arc<dsn_core::dsn::Dsn>) -> Self {
        let graph = dsn.graph();
        let n = dsn.n();
        let find = |u: NodeId, v: NodeId, want_shortcut: bool| -> Option<u32> {
            // Same resolution order as `dsn-route`'s edge_for_step: first
            // matching-kind edge, then (shortcut only) any edge — the
            // dedup fallback for shortcuts that coincide with ring links.
            let kind_match = graph
                .neighbors(u)
                .find(|&(w, e)| w == v && (graph.edge(e).kind == LinkKind::Ring) != want_shortcut)
                .map(|(_, e)| graph.channel_id(e, u) as u32);
            kind_match.or_else(|| {
                want_shortcut
                    .then(|| {
                        graph
                            .neighbors(u)
                            .find(|&(w, _)| w == v)
                            .map(|(_, e)| graph.channel_id(e, u) as u32)
                    })
                    .flatten()
            })
        };
        let mut succ_ch = Vec::with_capacity(n);
        let mut pred_ch = Vec::with_capacity(n);
        let mut short_ch = Vec::with_capacity(n);
        for u in 0..n {
            succ_ch.push(find(u, dsn.succ(u), false).expect("ring succ link"));
            pred_ch.push(find(u, dsn.pred(u), false).expect("ring pred link"));
            short_ch.push(match dsn.shortcut(u) {
                Some(t) => find(u, t, true).expect("owned shortcut link"),
                None => u32::MAX,
            });
        }
        DsnAlgorithmic {
            dsn,
            succ_ch,
            pred_ch,
            short_ch,
            classes: 4,
            lanes: 1,
            detour: None,
        }
    }

    /// The *unsafe* basic custom routing: the same three-phase hops with
    /// every hop on VC class 0 (the hops of
    /// [`dsn_route::deadlock::basic_route_channels`]). Its CDG is cyclic
    /// (Section V.A's motivation), so under load the simulator exhibits a
    /// genuine routing deadlock. Provided to demonstrate, in vivo, what the
    /// static CDG analysis predicts; never use for real measurements.
    pub fn basic_single_vc(dsn: Arc<dsn_core::dsn::Dsn>) -> Self {
        DsnAlgorithmic {
            classes: 1,
            ..DsnAlgorithmic::new(dsn)
        }
    }

    /// Set the number of lanes per VC class.
    pub fn with_lanes(mut self, lanes: u8) -> Self {
        assert!(lanes >= 1);
        self.lanes = lanes;
        self
    }

    /// The automaton state a packet in state `alg` follows: its own while
    /// on the automaton, `None` while it detours. A detoured packet that
    /// reaches an unrebuilt scheme restarts the automaton (PRE-WORK at
    /// `cur`).
    #[inline]
    fn automaton_bits(&self, alg: u8) -> Option<u8> {
        if alg & DETOUR == 0 {
            Some(alg)
        } else if self.detour.is_none() {
            Some(0)
        } else {
            None
        }
    }

    /// The automaton's hop for a packet at `cur` in state `alg` (bit 3
    /// clear): `(channel, vc class, next state bits)`.
    #[inline]
    fn automaton_hop(&self, cur: NodeId, dest: NodeId, alg: u8) -> (usize, u8, u8) {
        let hop = dsnv_step(&self.dsn, cur, dest, DsnvState::from_bits(alg))
            .expect("never called with cur == dest");
        let ch = match hop.step {
            RouteStep::Succ => self.succ_ch[cur],
            RouteStep::Pred => self.pred_ch[cur],
            RouteStep::Shortcut => self.short_ch[cur],
        };
        debug_assert_ne!(ch, u32::MAX, "shortcut step at a node without one");
        (
            ch as usize,
            hop.vc.min(self.classes - 1),
            hop.state.to_bits(),
        )
    }
}

impl SimRouting for DsnAlgorithmic {
    fn name(&self) -> String {
        if self.classes == 1 {
            "dsn-basic(1vc,UNSAFE)".to_string()
        } else {
            "dsn-algorithmic(dsn-v)".to_string()
        }
    }

    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        if let Some(alg) = self.automaton_bits(state.alg) {
            let (ch, class, _) = self.automaton_hop(cur, dest, alg);
            if self
                .detour
                .as_ref()
                .is_none_or(|d| d.mask.channel_alive(ch))
            {
                for lane in 0..self.lanes {
                    out.push((ch, class * self.lanes + lane));
                }
                return;
            }
        }
        // Detour: greedy descent on survivor-graph distance, ring links
        // first. Empty output (unreachable destination) makes the engine
        // drop the packet as unroutable.
        let d = self.detour.as_ref().expect("only a rebuilt scheme detours");
        let mb = d.masks.mask_bytes();
        let ring = &d.ring[cur * mb..(cur + 1) * mb];
        for ring_pass in [true, false] {
            d.masks.for_each_channel(
                cur,
                dest,
                0,
                |b| if ring_pass { ring[b] } else { !ring[b] },
                |ch| out.extend((0..self.lanes).map(|lane| (ch, lane))),
            );
        }
    }

    fn on_hop(&self, cur: NodeId, dest: NodeId, state: &mut RouteState, channel: usize, _vc: u8) {
        if let Some(alg) = self.automaton_bits(state.alg) {
            let (ch, _, next) = self.automaton_hop(cur, dest, alg);
            if ch == channel {
                state.alg = next;
                return;
            }
        }
        // Left the automaton at a dead channel: detour for good.
        state.alg = DETOUR;
    }

    fn vcs(&self) -> u8 {
        self.classes * self.lanes
    }

    fn rebuild(&self, graph: &Arc<Graph>, mask: &EdgeMask) -> Option<Arc<dyn SimRouting>> {
        let masks = PortMasks::build(graph, Some(mask), true, None);
        let ring = masks.port_bits(graph, |e| graph.edge(e).kind == LinkKind::Ring);
        Some(Arc::new(DsnAlgorithmic {
            dsn: self.dsn.clone(),
            succ_ch: self.succ_ch.clone(),
            pred_ch: self.pred_ch.clone(),
            short_ch: self.short_ch.clone(),
            classes: self.classes,
            lanes: self.lanes,
            detour: Some(Detour {
                mask: mask.clone(),
                masks,
                ring,
            }),
        }))
    }

    fn scheme_key(&self) -> String {
        // Lanes change the emitted VCs, so they are part of the identity.
        // A rebuild routes detoured packets by its survivor mask, so it
        // never shares the pristine scheme's key: once a fault clears, the
        // mask fingerprints to the pristine epoch, and the cache must not
        // hand back the pristine entry. Every rebuild shares one key, so
        // catch-up rebuild chains still hit.
        let rebuilt = if self.detour.is_some() {
            "+rebuilt"
        } else {
            ""
        };
        format!("{}[lanes={}]{rebuilt}", self.name(), self.lanes)
    }

    fn table_bytes(&self) -> usize {
        let luts = (self.succ_ch.capacity() + self.pred_ch.capacity() + self.short_ch.capacity())
            * std::mem::size_of::<u32>();
        luts + self.detour.as_ref().map_or(0, |d| {
            d.mask.heap_bytes() + d.masks.bytes() + d.ring.capacity()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsn_core::dsn::Dsn;

    #[test]
    fn adaptive_candidates_make_progress() {
        let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
        let r = AdaptiveEscape::new(g.clone(), 4);
        let mut out = Vec::new();
        for (cur, dest) in [(0usize, 32usize), (10, 11), (63, 0)] {
            out.clear();
            let st = RouteState::START;
            r.candidates(cur, dest, &st, &mut out);
            assert!(!out.is_empty(), "{cur}->{dest}");
            // escape candidate (vc 0) must be present
            assert!(out.iter().any(|&(_, vc)| vc == 0));
            // adaptive candidates only on vcs 1..4
            for &(ch, vc) in &out {
                assert!(vc < 4);
                let (from, _) = g.channel_endpoints(ch);
                assert_eq!(from, cur);
            }
        }
    }

    #[test]
    fn adaptive_walk_terminates() {
        // Greedily follow the first candidate; minimal-adaptive plus escape
        // must reach the destination.
        let g = Arc::new(Dsn::new(100, 6).unwrap().into_graph());
        let r = AdaptiveEscape::new(g.clone(), 4);
        let mut out = Vec::new();
        for (s, t) in [(0usize, 50usize), (99, 3), (42, 41)] {
            let mut cur = s;
            let mut st = RouteState::START;
            let mut hops = 0;
            while cur != t {
                out.clear();
                r.candidates(cur, t, &st, &mut out);
                let (ch, vc) = out[0];
                r.on_hop(cur, t, &mut st, ch, vc);
                cur = g.channel_endpoints(ch).1;
                hops += 1;
                assert!(hops < 200, "no progress {s}->{t}");
            }
        }
    }

    #[test]
    fn updown_only_walk_terminates() {
        let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
        let r = UpDownRouting::new(g.clone(), 2);
        let mut out = Vec::new();
        for (s, t) in [(5usize, 60usize), (63, 0)] {
            let mut cur = s;
            let mut st = RouteState::START;
            let mut hops = 0;
            while cur != t {
                out.clear();
                r.candidates(cur, t, &st, &mut out);
                let (ch, vc) = out[0];
                r.on_hop(cur, t, &mut st, ch, vc);
                cur = g.channel_endpoints(ch).1;
                hops += 1;
                assert!(hops < 100);
            }
        }
    }

    #[test]
    fn minimal_adaptive_dsn_walk_terminates() {
        let dsn = Arc::new(Dsn::new(100, 6).unwrap());
        let g = Arc::new(dsn.graph().clone());
        let r = MinimalAdaptiveDsn::new(dsn, 8);
        let mut out = Vec::new();
        for (s, t) in [(0usize, 50usize), (99, 1), (13, 14)] {
            let mut cur = s;
            let mut st = RouteState::START;
            let mut hops = 0;
            while cur != t {
                out.clear();
                r.candidates(cur, t, &st, &mut out);
                assert!(!out.is_empty(), "{cur}->{t}");
                // escape candidate always present and on a class VC < 4
                assert!(out.iter().any(|&(_, vc)| vc < 4));
                let (ch, vc) = out[0]; // greedy: first adaptive candidate
                r.on_hop(cur, t, &mut st, ch, vc);
                cur = g.channel_endpoints(ch).1;
                hops += 1;
                assert!(hops < 200, "{s}->{t} livelock");
            }
        }
    }

    #[test]
    fn minimal_adaptive_escape_only_walk_terminates() {
        // Following ONLY the escape candidate must also reach: it is one
        // DSN-V route from the source, carried hop by hop in `alg`.
        let dsn = Arc::new(Dsn::new(126, 6).unwrap());
        let g = Arc::new(dsn.graph().clone());
        let r = MinimalAdaptiveDsn::new(dsn.clone(), 8);
        let bound = 3 * dsn.p() as usize + dsn.r() + 16;
        let mut out = Vec::new();
        for (s, t) in [(0usize, 70usize), (125, 3)] {
            let mut cur = s;
            let mut st = RouteState::START;
            let mut hops = 0;
            while cur != t {
                out.clear();
                r.candidates(cur, t, &st, &mut out);
                let &(ch, vc) = out.iter().find(|&&(_, vc)| vc < 4).expect("escape");
                r.on_hop(cur, t, &mut st, ch, vc);
                cur = g.channel_endpoints(ch).1;
                hops += 1;
                assert!(hops <= bound, "{s}->{t}: escape walk exceeded {bound}");
            }
        }
    }

    /// Follow the first candidate from `s` until `t`, returning the
    /// `(channel, vc)` hops taken.
    fn walk(r: &dyn SimRouting, g: &Graph, s: NodeId, t: NodeId) -> Vec<Candidate> {
        let mut st = RouteState::START;
        let (mut cur, mut hops, mut out) = (s, Vec::new(), Vec::new());
        while cur != t {
            out.clear();
            r.candidates(cur, t, &st, &mut out);
            let (ch, vc) = out[0];
            r.on_hop(cur, t, &mut st, ch, vc);
            hops.push((ch, vc));
            cur = g.channel_endpoints(ch).1;
            assert!(hops.len() <= 4 * g.node_count(), "{s}->{t}: runaway walk");
        }
        hops
    }

    /// Two disjoint rings of 4.
    fn two_rings() -> Arc<Graph> {
        let mut g = Graph::new(8);
        for v in 0..8 {
            g.add_edge(v, v / 4 * 4 + (v + 1) % 4, LinkKind::Ring);
        }
        Arc::new(g)
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn adaptive_escape_rejects_a_disconnected_graph() {
        AdaptiveEscape::new(two_rings(), 2);
    }

    #[test]
    #[should_panic(expected = "connected")]
    fn updown_routing_rejects_a_disconnected_graph() {
        UpDownRouting::new(two_rings(), 1);
    }

    #[test]
    fn route_state_is_two_bytes() {
        assert_eq!(std::mem::size_of::<RouteState>(), 2);
    }

    #[test]
    fn algorithmic_walks_reproduce_route_channels_all_pairs() {
        // DSN-V and the class-0 basic constructor hop for hop against the
        // materialized channel sequences of `dsn-route`, clean and
        // non-clean sizes.
        use dsn_route::deadlock::{basic_route_channels, dsnv_route_channels};
        for &n in &[30usize, 64, 100, 126] {
            let dsn = Arc::new(Dsn::new(n, dsn_core::util::ceil_log2(n) - 1).unwrap());
            let g = dsn.graph().clone();
            let dsnv = DsnAlgorithmic::new(dsn.clone());
            let basic = DsnAlgorithmic::basic_single_vc(dsn.clone());
            assert_eq!((dsnv.vcs(), basic.vcs()), (4, 1));
            for s in 0..n {
                for t in (0..n).filter(|&t| t != s) {
                    assert_eq!(walk(&dsnv, &g, s, t), dsnv_route_channels(&dsn, s, t));
                    assert_eq!(walk(&basic, &g, s, t), basic_route_channels(&dsn, s, t));
                }
            }
        }
    }

    #[test]
    fn rebuilt_algorithmic_detours_around_a_dead_link() {
        // Every pair still arrives, never over the dead link, and pairs
        // whose DSN-V route avoids it keep that route exactly.
        let dsn = Arc::new(Dsn::new(64, 5).unwrap());
        let g = Arc::new(dsn.graph().clone());
        let dead = 3;
        let mut mask = EdgeMask::fully_alive(&g);
        mask.set_edge(dead, false);
        let r = DsnAlgorithmic::new(dsn.clone())
            .with_lanes(2)
            .rebuild(&g, &mask)
            .unwrap();
        assert_eq!(r.scheme_key(), "dsn-algorithmic(dsn-v)[lanes=2]+rebuilt");
        assert_eq!(r.rebuild(&g, &mask).unwrap().scheme_key(), r.scheme_key());
        for s in 0..64 {
            for t in (0..64).filter(|&t| t != s) {
                let hops = walk(r.as_ref(), &g, s, t);
                assert!(hops.iter().all(|&(ch, _)| ch / 2 != dead), "{s}->{t}");
                let plan = dsn_route::deadlock::dsnv_route_channels(&dsn, s, t);
                if plan.iter().all(|&(ch, _)| ch / 2 != dead) {
                    let lane0: Vec<_> = plan.iter().map(|&(ch, c)| (ch, 2 * c)).collect();
                    assert_eq!(hops, lane0, "{s}->{t}: left a live route");
                }
            }
        }
    }

    #[test]
    fn table_bytes_count_everything_held() {
        // Masks of max_degree.div_ceil(8) bytes per (cur, dest) slot, u32
        // port->channel entries at max_degree stride, one up-move bit per
        // channel in u64 words, u32 channel LUTs, and a rebuilt DSN-V's
        // survivor masks, ring-port bits and edge mask.
        use dsn_core::random_regular::RandomRegular;
        let phase = |g: &Graph, slots: usize| {
            let (n, d) = (g.node_count(), g.max_degree());
            n * n * slots * d.div_ceil(8) + n * d * 4 + g.channel_count().div_ceil(64) * 8
        };
        let dsn = Arc::new(Dsn::new(64, 5).unwrap());
        let rr = RandomRegular::new(32, 10, 7).unwrap().into_graph();
        assert!(dsn.graph().max_degree() <= 8 && rr.max_degree() > 8);
        for g in [Arc::new(dsn.graph().clone()), Arc::new(rr)] {
            let a = AdaptiveEscape::new(g.clone(), 4);
            assert_eq!(a.table_bytes(), phase(&g, 3));
            assert_eq!(UpDownRouting::new(g.clone(), 2).table_bytes(), phase(&g, 2));
        }

        let g = dsn.graph();
        let (n, d, e) = (g.node_count(), g.max_degree(), g.edge_count());
        let luts = 3 * n * 4;
        assert_eq!(DsnAlgorithmic::new(dsn.clone()).table_bytes(), luts);
        assert_eq!(
            MinimalAdaptiveDsn::new(dsn.clone(), 8).table_bytes(),
            n * n + n * d * 4 + luts
        );
        let arc = Arc::new(g.clone());
        let mut mask = EdgeMask::fully_alive(&arc);
        mask.set_edge(3, false);
        let rebuilt = DsnAlgorithmic::new(dsn.clone())
            .rebuild(&arc, &mask)
            .unwrap();
        let detour = n * n + n * d * 4 + n + e;
        assert_eq!(rebuilt.table_bytes(), luts + detour);
    }
}
