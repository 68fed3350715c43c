//! Routing adapters that plug the `dsn-route` algorithms into the
//! simulator's switch pipeline.
//!
//! The paper's evaluation uses the topology-agnostic *adaptive* scheme of
//! Silla & Duato: fully adaptive minimal hops on the high VCs with
//! up*/down* *escape paths* on VC 0 (Duato's methodology). We also provide
//! pure up*/down* and deterministic source-routed adapters (DSN custom
//! routing with the DSN-V virtual-channel discipline, and dimension-order
//! routing for tori), so the simulator can compare custom vs agnostic
//! routing the way Section VII.B discusses.

use crate::flat::{compile_phase_table, HopRule};
use dsn_core::fault::EdgeMask;
use dsn_core::graph::{Graph, LinkKind};
use dsn_core::NodeId;
use dsn_route::updown::{UdPhase, UpDown};
use std::sync::{Arc, OnceLock};

pub use crate::flat::FlatRouting;

/// Per-packet routing state carried between hops.
#[derive(Debug, Clone)]
pub struct RouteState {
    /// Up*/down* phase while the packet travels on escape channels.
    pub ud_phase: UdPhase,
    /// Precomputed path for source-routed adapters: `(channel, vc)` hops.
    pub path: Option<Arc<[(usize, u8)]>>,
    /// Next hop index into `path`.
    pub idx: usize,
    /// Packed algorithmic-router state
    /// ([`dsn_route::deadlock::DsnvState::to_bits`]): the
    /// DSN-V phase (bits 0–1) plus the FINISH dateline flag (bit 2).
    /// Only [`DsnAlgorithmic`] reads/writes it; 0 elsewhere.
    pub alg: u8,
}

impl RouteState {
    fn fresh() -> Self {
        RouteState {
            ud_phase: UdPhase::Up,
            path: None,
            idx: 0,
            alg: 0,
        }
    }
}

/// A candidate output for the current hop: directed channel plus VC.
pub type Candidate = (usize, u8);

/// Routing logic used by the simulator. Implementations must be pure
/// given `(cur, dest, state)` so the engine can retry candidates across
/// cycles.
pub trait SimRouting: Send + Sync {
    /// Human-readable name for reports.
    fn name(&self) -> String;

    /// Initial per-packet state.
    fn init(&self, src: NodeId, dest: NodeId) -> RouteState;

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

    /// Reset one packet's in-flight state after a reroute, so stale
    /// assumptions (escape phase, cached paths into the old topology) do
    /// not leak into the new epoch. The default restarts the up*/down*
    /// phase; cached source routes are translated by the scheme itself.
    fn reset_state(&self, state: &mut RouteState) {
        state.ud_phase = UdPhase::Up;
    }

    /// Stable identity of this scheme *configuration* (name + parameters
    /// that change candidate tables), used as the
    /// [`RoutingCache`](crate::cache::RoutingCache) key component. Two
    /// instances with the same key on the same graph must produce identical
    /// candidates. Defaults to [`Self::name`].
    fn scheme_key(&self) -> String {
        self.name()
    }

    /// The flattened candidate table for this scheme, compiled lazily on
    /// first call and memoized per instance. `None` (the default) means the
    /// scheme cannot be tabulated per `(switch, dest, phase)` — the engine
    /// stays on the dynamic `candidates` path.
    fn compiled_flat(&self) -> Option<Arc<FlatRouting>> {
        None
    }

    /// Whether this scheme computes its next hop *algorithmically* in
    /// O(levels) time and O(n) memory — i.e. the dynamic path needs no
    /// per-(switch, dest) table at all. Above
    /// [`ALGORITHMIC_AUTO_THRESHOLD`](crate::engine::ALGORITHMIC_AUTO_THRESHOLD)
    /// switches the engine skips flat compilation for such schemes
    /// ([`flat_table_for`](crate::engine::flat_table_for)).
    fn algorithmic(&self) -> bool {
        false
    }

    /// Resident bytes of auxiliary routing structures the *dynamic* path
    /// keeps per scheme instance (distance tables, per-node LUTs, …),
    /// excluding any compiled flat table. Benchmark accounting only.
    fn table_bytes(&self) -> usize {
        0
    }

    /// Dynamic escape residue for schemes whose flat table covers only the
    /// adaptive candidates (`FlatRouting::needs_dyn_escape`). Called by
    /// the engine only after every tabulated candidate was blocked; must
    /// emit exactly the candidates `candidates` would have appended after
    /// the adaptive ones.
    fn escape_candidates(
        &self,
        cur: NodeId,
        dest: NodeId,
        state: &RouteState,
        out: &mut Vec<Candidate>,
    ) {
        let _ = (cur, dest, state, out);
    }
}

/// Precomputed all-pairs hop distances (BFS), used for minimal-adaptive
/// candidate selection.
#[derive(Debug, Clone)]
pub struct DistanceTable {
    n: usize,
    dist: Vec<u16>,
}

impl DistanceTable {
    /// Build by one BFS per source.
    pub fn new(g: &Graph) -> Self {
        Self::build(g, None)
    }

    /// Build over the survivor graph only (dead edges skipped); pairs
    /// disconnected by the faults keep distance `u16::MAX`.
    pub fn new_masked(g: &Graph, mask: &EdgeMask) -> Self {
        Self::build(g, Some(mask))
    }

    fn build(g: &Graph, mask: Option<&EdgeMask>) -> Self {
        let n = g.node_count();
        let mut dist = vec![u16::MAX; n * n];
        let mut queue = std::collections::VecDeque::new();
        for s in 0..n {
            let row = &mut dist[s * n..(s + 1) * n];
            row[s] = 0;
            queue.clear();
            queue.push_back(s);
            while let Some(v) = queue.pop_front() {
                let dv = row[v];
                for (u, e) in g.neighbors(v) {
                    if mask.is_some_and(|m| !m.edge_alive(e)) {
                        continue;
                    }
                    if row[u] == u16::MAX {
                        row[u] = dv + 1;
                        queue.push_back(u);
                    }
                }
            }
        }
        DistanceTable { n, dist }
    }

    /// Hop distance between two switches.
    #[inline]
    pub fn get(&self, a: NodeId, b: NodeId) -> u16 {
        self.dist[a * self.n + b]
    }
}

/// The paper's simulator routing: fully adaptive minimal on VCs `1..V`,
/// up*/down* escape on VC 0.
pub struct AdaptiveEscape {
    graph: Arc<Graph>,
    dist: DistanceTable,
    updown: UpDown,
    vcs: u8,
    /// Survivor mask when this instance is a post-fault rebuild.
    mask: Option<EdgeMask>,
    flat: OnceLock<Arc<FlatRouting>>,
}

impl AdaptiveEscape {
    /// Build for the given graph with `vcs >= 2` virtual channels
    /// (VC 0 is the escape layer).
    ///
    /// # Panics
    /// Panics if `vcs < 2`.
    pub fn new(graph: Arc<Graph>, vcs: u8) -> Self {
        assert!(vcs >= 2, "adaptive + escape needs at least 2 VCs");
        let dist = DistanceTable::new(&graph);
        let updown = UpDown::new(&graph, 0);
        AdaptiveEscape {
            graph,
            dist,
            updown,
            vcs,
            mask: None,
            flat: OnceLock::new(),
        }
    }

    /// Per-channel "taking this directed channel is an up move" table for
    /// the flat hop rule.
    fn up_move_table(&self) -> Vec<bool> {
        up_move_table(&self.graph, &self.updown)
    }

    /// The [`SimRouting::scheme_key`] an instance built with `vcs` virtual
    /// channels will report, computable without building the scheme. Lets
    /// benchmark drivers address a [`crate::RoutingCache`] entry up front.
    pub fn key_for(vcs: u8) -> String {
        format!("adaptive+ud-escape({vcs}vc)")
    }
}

/// Shared helper: `up_move[ch]` for every directed channel of `g` under
/// the given up*/down* forest (dead channels get a value too — harmless,
/// they never appear in a compiled row).
fn up_move_table(g: &Graph, updown: &UpDown) -> Vec<bool> {
    (0..2 * g.edge_count())
        .map(|ch| {
            let (from, _) = g.channel_endpoints(ch);
            updown.is_up_move(g, ch / 2, from)
        })
        .collect()
}

impl SimRouting for AdaptiveEscape {
    fn name(&self) -> String {
        AdaptiveEscape::key_for(self.vcs)
    }

    fn init(&self, _src: NodeId, _dest: NodeId) -> RouteState {
        RouteState::fresh()
    }

    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        // Adaptive minimal candidates on VCs 1..V, closest-first.
        let dcur = self.dist.get(cur, dest);
        for (u, e) in self.graph.neighbors(cur) {
            if self.mask.as_ref().is_some_and(|m| !m.edge_alive(e)) {
                continue;
            }
            if self.dist.get(u, dest) < dcur {
                let ch = self.graph.channel_id(e, cur);
                for vc in 1..self.vcs {
                    out.push((ch, vc));
                }
            }
        }
        // Escape on VC 0, honoring the packet's current up*/down* phase.
        for (e, _next_phase) in self
            .updown
            .next_hops(&self.graph, cur, state.ud_phase, dest)
        {
            out.push((self.graph.channel_id(e, cur), 0));
        }
    }

    fn on_hop(&self, cur: NodeId, _dest: NodeId, state: &mut RouteState, channel: usize, vc: u8) {
        if vc == 0 {
            // Stayed on (or entered) the escape layer: advance the phase.
            let edge = channel / 2;
            let up = self.updown.is_up_move(&self.graph, edge, cur);
            state.ud_phase = if up { UdPhase::Up } else { UdPhase::Down };
        } else {
            // Adaptive hop: next escape entry starts a fresh up*/down* walk.
            state.ud_phase = UdPhase::Up;
        }
    }

    fn rebuild(&self, graph: &Arc<Graph>, mask: &EdgeMask) -> Option<Arc<dyn SimRouting>> {
        Some(Arc::new(AdaptiveEscape {
            graph: graph.clone(),
            dist: DistanceTable::new_masked(graph, mask),
            updown: UpDown::new_masked(graph, self.updown.root(), mask),
            vcs: self.vcs,
            mask: Some(mask.clone()),
            flat: OnceLock::new(),
        }))
    }

    fn compiled_flat(&self) -> Option<Arc<FlatRouting>> {
        Some(
            self.flat
                .get_or_init(|| {
                    compile_phase_table(
                        self.graph.node_count(),
                        1,
                        self.up_move_table(),
                        |ctx, cur, dest, out| {
                            let state = FlatRouting::synthetic_state(ctx);
                            // A Down state that cannot reach `dest` never
                            // occurs in legal traffic; its row is never
                            // queried, so leave it empty instead of asking
                            // the strict-mode escape for hops it lacks.
                            if !self.updown.reachable_phased(cur, state.ud_phase, dest) {
                                return;
                            }
                            self.candidates(cur, dest, &state, out)
                        },
                    )
                })
                .clone(),
        )
    }
}

/// Pure up*/down* routing on every VC (the paper's non-adaptive
/// topology-agnostic baseline).
pub struct UpDownRouting {
    graph: Arc<Graph>,
    updown: UpDown,
    vcs: u8,
    flat: OnceLock<Arc<FlatRouting>>,
}

impl UpDownRouting {
    /// Build for the given graph.
    pub fn new(graph: Arc<Graph>, vcs: u8) -> Self {
        assert!(vcs >= 1);
        let updown = UpDown::new(&graph, 0);
        UpDownRouting {
            graph,
            updown,
            vcs,
            flat: OnceLock::new(),
        }
    }
}

impl SimRouting for UpDownRouting {
    fn name(&self) -> String {
        format!("up*/down*({}vc)", self.vcs)
    }

    fn init(&self, _src: NodeId, _dest: NodeId) -> RouteState {
        RouteState::fresh()
    }

    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        for (e, _next) in self
            .updown
            .next_hops(&self.graph, cur, state.ud_phase, dest)
        {
            let ch = self.graph.channel_id(e, cur);
            for vc in 0..self.vcs {
                out.push((ch, vc));
            }
        }
    }

    fn on_hop(&self, cur: NodeId, _dest: NodeId, state: &mut RouteState, channel: usize, _vc: u8) {
        let edge = channel / 2;
        let up = self.updown.is_up_move(&self.graph, edge, cur);
        state.ud_phase = if up { UdPhase::Up } else { UdPhase::Down };
    }

    fn rebuild(&self, graph: &Arc<Graph>, mask: &EdgeMask) -> Option<Arc<dyn SimRouting>> {
        Some(Arc::new(UpDownRouting {
            graph: graph.clone(),
            updown: UpDown::new_masked(graph, self.updown.root(), mask),
            vcs: self.vcs,
            flat: OnceLock::new(),
        }))
    }

    fn compiled_flat(&self) -> Option<Arc<FlatRouting>> {
        Some(
            self.flat
                .get_or_init(|| {
                    // Every VC is an escape lane: the phase rule applies to
                    // all hops, exactly like the dynamic `on_hop`.
                    compile_phase_table(
                        self.graph.node_count(),
                        self.vcs,
                        up_move_table(&self.graph, &self.updown),
                        |ctx, cur, dest, out| {
                            let state = FlatRouting::synthetic_state(ctx);
                            // Unreachable Down states never occur in legal
                            // traffic; leave their rows empty.
                            if !self.updown.reachable_phased(cur, state.ud_phase, dest) {
                                return;
                            }
                            self.candidates(cur, dest, &state, out)
                        },
                    )
                })
                .clone(),
        )
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
    dsn: Arc<dsn_core::dsn::Dsn>,
    graph: Arc<Graph>,
    dist: DistanceTable,
    vcs: u8,
    flat: OnceLock<Arc<FlatRouting>>,
}

impl MinimalAdaptiveDsn {
    /// Build for a DSN instance; `vcs` must be at least 5 (4 escape classes
    /// plus at least one adaptive VC).
    ///
    /// # Panics
    /// Panics if `vcs < 5`.
    pub fn new(dsn: Arc<dsn_core::dsn::Dsn>, vcs: u8) -> Self {
        assert!(vcs >= 5, "minimal-adaptive DSN needs >= 5 VCs");
        let graph = Arc::new(dsn.graph().clone());
        let dist = DistanceTable::new(&graph);
        MinimalAdaptiveDsn {
            dsn,
            graph,
            dist,
            vcs,
            flat: OnceLock::new(),
        }
    }

    /// Adaptive minimal candidates on VCs `4..vcs` — the tabulable part of
    /// the preference list.
    fn adaptive_candidates(&self, cur: NodeId, dest: NodeId, out: &mut Vec<Candidate>) {
        let dcur = self.dist.get(cur, dest);
        for (u, e) in self.graph.neighbors(cur) {
            if self.dist.get(u, dest) < dcur {
                let ch = self.graph.channel_id(e, cur);
                for vc in 4..self.vcs {
                    out.push((ch, vc));
                }
            }
        }
    }
}

impl SimRouting for MinimalAdaptiveDsn {
    fn name(&self) -> String {
        format!("minimal-adaptive+dsnv-escape({}vc)", self.vcs)
    }

    fn init(&self, _src: NodeId, _dest: NodeId) -> RouteState {
        RouteState {
            ud_phase: dsn_route::updown::UdPhase::Up,
            path: None,
            idx: 0,
            alg: 0,
        }
    }

    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        self.adaptive_candidates(cur, dest, out);
        self.escape_candidates(cur, dest, state, out);
    }

    fn escape_candidates(
        &self,
        cur: NodeId,
        dest: NodeId,
        state: &RouteState,
        out: &mut Vec<Candidate>,
    ) {
        // Escape: continue the cached per-sojourn custom route when one is
        // active at this node; otherwise the first hop of a fresh
        // three-phase route from here. Either way the hop belongs to some
        // complete (u, t) route, so the escape CDG stays within the
        // machine-checked all-pairs union of `dsnv_cdg`. A plain per-hop
        // restart would NOT work: PRE-WORK walks pred, and a fresh route
        // from the pred node can walk succ straight back (livelock); the
        // sojourn cache is what makes escape progress monotone.
        let cached = state.path.as_ref().and_then(|p| {
            p.get(state.idx)
                .filter(|&&(ch, _)| self.graph.channel_endpoints(ch).0 == cur)
        });
        match cached {
            Some(&hop) => out.push(hop),
            None => {
                // First hop only — O(1) per retry cycle; the full sojourn
                // route is materialized once the hop is granted (on_hop).
                if let Some(hop) = dsn_route::deadlock::dsnv_first_hop(&self.dsn, cur, dest) {
                    out.push(hop);
                }
            }
        }
    }

    fn on_hop(&self, cur: NodeId, dest: NodeId, state: &mut RouteState, ch: usize, vc: u8) {
        if vc >= 4 {
            // Adaptive hop: any escape sojourn ends.
            state.path = None;
            state.idx = 0;
            return;
        }
        // Escape hop: advance the cached sojourn, or start one from `cur`.
        let continues = state
            .path
            .as_ref()
            .and_then(|p| p.get(state.idx))
            .is_some_and(|&(c, v)| c == ch && v == vc);
        if continues {
            state.idx += 1;
        } else {
            let fresh: Arc<[(usize, u8)]> =
                dsn_route::deadlock::dsnv_route_channels(&self.dsn, cur, dest).into();
            debug_assert!(fresh.first().is_some_and(|&(c, v)| c == ch && v == vc));
            state.path = Some(fresh);
            state.idx = 1;
        }
    }

    fn compiled_flat(&self) -> Option<Arc<FlatRouting>> {
        Some(
            self.flat
                .get_or_init(|| {
                    // Only the adaptive candidates are a pure function of
                    // (cur, dest); the DSN-V escape depends on the packet's
                    // sojourn cache and stays dynamic (`escape_candidates`,
                    // consulted after the table blocks), as does `on_hop`.
                    Arc::new(FlatRouting::compile(
                        self.graph.node_count(),
                        1,
                        HopRule::Dyn,
                        true,
                        |_, cur, dest, out| self.adaptive_candidates(cur, dest, out),
                    ))
                })
                .clone(),
        )
    }
}

/// Deterministic source routing from a precomputed path provider — used for
/// the DSN custom routing (with the DSN-V VC discipline) and torus DOR.
///
/// The provider emits a *VC class* per hop; `lanes` physical VCs are
/// assigned to each class (`vc = class * lanes + lane`), and the router may
/// use any lane of the hop's class. Lane multiplication preserves the
/// DSN-V deadlock-freedom argument: the per-class acyclicity proofs
/// (level monotonicity for PRE-WORK/MAIN, the dateline for FINISH) do not
/// depend on which lane inside the class a packet holds, and inter-class
/// dependencies stay monotone.
/// A source-routing path provider: `(src, dest) -> [(channel, vc_class)]`.
/// Shared (`Arc`) so a post-fault rebuild can reuse the same provider.
pub type PathProvider = Arc<dyn Fn(NodeId, NodeId) -> Vec<(usize, u8)> + Send + Sync>;

/// Deterministic source routing driven by a [`PathProvider`]; see the
/// module docs for the lane/VC-class discipline.
pub struct SourceRouted {
    name: String,
    /// `provider(src, dest)` returns the `(channel, vc_class)` hop sequence.
    provider: PathProvider,
    lanes: u8,
}

impl SourceRouted {
    /// Wrap a path provider with a single lane per VC class.
    pub fn new(
        name: impl Into<String>,
        provider: impl Fn(NodeId, NodeId) -> Vec<(usize, u8)> + Send + Sync + 'static,
    ) -> Self {
        SourceRouted {
            name: name.into(),
            provider: Arc::new(provider),
            lanes: 1,
        }
    }

    /// Set the number of lanes per VC class (the simulator's `vcs` must be
    /// at least `max_class * lanes + lanes`).
    pub fn with_lanes(mut self, lanes: u8) -> Self {
        assert!(lanes >= 1);
        self.lanes = lanes;
        self
    }

    /// DSN custom routing with the DSN-V 4-class deadlock-free discipline.
    pub fn dsn_custom(dsn: Arc<dsn_core::dsn::Dsn>) -> Self {
        SourceRouted::new("dsn-custom(dsn-v)", move |s, t| {
            dsn_route::deadlock::dsnv_route_channels(&dsn, s, t)
        })
    }

    /// The *unsafe* single-VC basic custom routing — its CDG is cyclic
    /// (Section V.A's motivation), so under load the simulator exhibits a
    /// genuine routing deadlock. Provided to demonstrate, in vivo, what the
    /// static CDG analysis predicts; never use for real measurements.
    pub fn dsn_basic_single_vc(dsn: Arc<dsn_core::dsn::Dsn>) -> Self {
        SourceRouted::new("dsn-basic(1vc,UNSAFE)", move |s, t| {
            dsn_route::deadlock::basic_route_channels(&dsn, s, t)
        })
    }

    /// Dimension-order routing on a torus with dateline VCs.
    pub fn torus_dor(torus: Arc<dsn_core::torus::Torus>) -> Self {
        SourceRouted::new("torus-dor", move |s, t| {
            let g = torus.graph();
            let mut prev = s;
            dsn_route::dor::dor_route(&torus, s, t)
                .into_iter()
                .map(|h| {
                    let ch = g.channel_id(h.edge, prev);
                    prev = h.node;
                    (ch, h.vc)
                })
                .collect()
        })
    }
}

impl SimRouting for SourceRouted {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn init(&self, src: NodeId, dest: NodeId) -> RouteState {
        let path: Arc<[(usize, u8)]> = (self.provider)(src, dest).into();
        RouteState {
            ud_phase: UdPhase::Up,
            path: Some(path),
            idx: 0,
            alg: 0,
        }
    }

    fn candidates(
        &self,
        _cur: NodeId,
        _dest: NodeId,
        state: &RouteState,
        out: &mut Vec<Candidate>,
    ) {
        let path = state
            .path
            .as_ref()
            .expect("source-routed packet has a path");
        let (ch, class) = path[state.idx];
        for lane in 0..self.lanes {
            out.push((ch, class * self.lanes + lane));
        }
    }

    fn on_hop(
        &self,
        _cur: NodeId,
        _dest: NodeId,
        state: &mut RouteState,
        _channel: usize,
        _vc: u8,
    ) {
        state.idx += 1;
    }

    fn rebuild(&self, graph: &Arc<Graph>, mask: &EdgeMask) -> Option<Arc<dyn SimRouting>> {
        Some(Arc::new(DetourSourceRouted {
            name: format!("{}+detour", self.name),
            base_key: self.scheme_key(),
            provider: self.provider.clone(),
            lanes: self.lanes,
            graph: graph.clone(),
            dist: DistanceTable::new_masked(graph, mask),
            mask: mask.clone(),
        }))
    }

    fn scheme_key(&self) -> String {
        // Lanes change the emitted VCs, so they are part of the identity.
        format!("{}[lanes={}]", self.name, self.lanes)
    }
}

/// Post-fault form of [`SourceRouted`]: packets follow their planned path
/// while its next channel is alive; when the plan hits a dead channel the
/// packet switches permanently to a greedy masked-distance descent that
/// prefers ring links (the "ring detour" — DSN's ring is the always-present
/// fallback substrate). New packets still get full planned paths and only
/// detour where the plan is broken.
///
/// The detour abandons the source-route VC discipline, so deadlock freedom
/// is no longer statically guaranteed across epochs; the simulator's stall
/// watchdog covers this (and the differential tests keep both engines in
/// bit-identical agreement either way).
struct DetourSourceRouted {
    name: String,
    /// The pre-fault scheme's key, kept stable across epochs so the
    /// per-(scheme, mask) rebuild cache hits on catch-up rebuild chains.
    base_key: String,
    provider: PathProvider,
    lanes: u8,
    graph: Arc<Graph>,
    dist: DistanceTable,
    mask: EdgeMask,
}

impl SimRouting for DetourSourceRouted {
    fn name(&self) -> String {
        self.name.clone()
    }

    fn init(&self, src: NodeId, dest: NodeId) -> RouteState {
        let path: Arc<[(usize, u8)]> = (self.provider)(src, dest).into();
        RouteState {
            ud_phase: UdPhase::Up,
            path: Some(path),
            idx: 0,
            alg: 0,
        }
    }

    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        // On plan and the next planned channel is alive: stay on plan.
        if let Some(&(ch, class)) = state.path.as_ref().and_then(|p| p.get(state.idx)) {
            if self.graph.channel_endpoints(ch).0 == cur && self.mask.channel_alive(ch) {
                for lane in 0..self.lanes {
                    out.push((ch, class * self.lanes + lane));
                }
                return;
            }
        }
        // Detour: greedy descent on survivor-graph distance, ring links
        // first. Empty output (unreachable destination) makes the engine
        // drop the packet as unroutable.
        let dcur = self.dist.get(cur, dest);
        if dcur == u16::MAX {
            return;
        }
        for ring_pass in [true, false] {
            for (u, e) in self.graph.neighbors(cur) {
                if !self.mask.edge_alive(e) {
                    continue;
                }
                if (self.graph.edge(e).kind == LinkKind::Ring) != ring_pass {
                    continue;
                }
                if self.dist.get(u, dest) < dcur {
                    let ch = self.graph.channel_id(e, cur);
                    for lane in 0..self.lanes {
                        out.push((ch, lane));
                    }
                }
            }
        }
    }

    fn on_hop(&self, _cur: NodeId, _dest: NodeId, state: &mut RouteState, channel: usize, _vc: u8) {
        let on_plan = state
            .path
            .as_ref()
            .and_then(|p| p.get(state.idx))
            .is_some_and(|&(ch, _)| ch == channel);
        if on_plan {
            state.idx += 1;
        } else {
            // Left the plan: the remaining planned hops start at the wrong
            // switch, so the packet detours greedily for the rest of its
            // life.
            state.path = None;
        }
    }

    fn rebuild(&self, graph: &Arc<Graph>, mask: &EdgeMask) -> Option<Arc<dyn SimRouting>> {
        Some(Arc::new(DetourSourceRouted {
            name: self.name.clone(),
            base_key: self.base_key.clone(),
            provider: self.provider.clone(),
            lanes: self.lanes,
            graph: graph.clone(),
            dist: DistanceTable::new_masked(graph, mask),
            mask: mask.clone(),
        }))
    }

    fn scheme_key(&self) -> String {
        self.base_key.clone()
    }
}

/// Table-free DSN-V routing: the next hop is computed *algorithmically*
/// from switch ids and the DSN level structure by the incremental
/// three-phase automaton ([`dsn_route::deadlock::dsnv_step`]), in
/// O(levels) time per hop with O(n) memory — three per-node channel LUTs
/// instead of the O(n²) per-(context, switch, dest) CSR arena or the
/// per-packet materialized paths of [`SourceRouted::dsn_custom`].
///
/// Emits candidates bit-identical to `SourceRouted::dsn_custom` (same
/// `(channel, vc_class * lanes + lane)` sequence, pinned by
/// `tests/algorithmic_equivalence.rs`), carries the automaton state in
/// [`RouteState::alg`] (3 bits), and can still lower itself into a
/// 4-context [`FlatRouting`] table — its own tabulated twin for the
/// flat-vs-algorithmic equivalence gate and the `routing_table_bytes`
/// comparison. Post-fault rebuilds fall back to the same ring-detour
/// scheme as source routing (in-flight packets, which carry no path,
/// detour greedily from their current switch).
pub struct DsnAlgorithmic {
    dsn: Arc<dsn_core::dsn::Dsn>,
    graph: Arc<Graph>,
    /// Channel of the clockwise ring link at each node.
    succ_ch: Vec<u32>,
    /// Channel of the counter-clockwise ring link at each node.
    pred_ch: Vec<u32>,
    /// Channel of the owned shortcut at each node (`u32::MAX` when the
    /// node owns none).
    short_ch: Vec<u32>,
    lanes: u8,
    flat: OnceLock<Arc<FlatRouting>>,
}

impl DsnAlgorithmic {
    /// Build the per-node channel LUTs for `dsn`'s own graph, one lane per
    /// VC class (the DSN-V discipline uses classes 0–3, so the simulator
    /// needs `vcs >= 4 * lanes`).
    pub fn new(dsn: Arc<dsn_core::dsn::Dsn>) -> Self {
        let graph = Arc::new(dsn.graph().clone());
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
            graph,
            succ_ch,
            pred_ch,
            short_ch,
            lanes: 1,
            flat: OnceLock::new(),
        }
    }

    /// Set the number of lanes per VC class, mirroring
    /// [`SourceRouted::with_lanes`].
    pub fn with_lanes(mut self, lanes: u8) -> Self {
        assert!(lanes >= 1);
        self.lanes = lanes;
        self
    }

    /// The single next hop for a packet at `cur` with packed automaton
    /// state `alg`.
    #[inline]
    fn next_hop(&self, cur: NodeId, dest: NodeId, alg: u8) -> dsn_route::deadlock::DsnvHop {
        dsn_route::deadlock::dsnv_step(
            &self.dsn,
            cur,
            dest,
            dsn_route::deadlock::DsnvState::from_bits(alg),
        )
        .expect("never called with cur == dest")
    }
}

impl SimRouting for DsnAlgorithmic {
    fn name(&self) -> String {
        "dsn-algorithmic(dsn-v)".to_string()
    }

    fn init(&self, _src: NodeId, _dest: NodeId) -> RouteState {
        // alg = 0 is the PRE-WORK start state of the automaton.
        RouteState::fresh()
    }

    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        let hop = self.next_hop(cur, dest, state.alg);
        let ch = match hop.step {
            dsn_route::RouteStep::Succ => self.succ_ch[cur],
            dsn_route::RouteStep::Pred => self.pred_ch[cur],
            dsn_route::RouteStep::Shortcut => self.short_ch[cur],
        };
        debug_assert_ne!(ch, u32::MAX, "shortcut step at a node without one");
        for lane in 0..self.lanes {
            out.push((ch as usize, hop.vc * self.lanes + lane));
        }
    }

    fn on_hop(&self, cur: NodeId, dest: NodeId, state: &mut RouteState, _channel: usize, _vc: u8) {
        state.alg = self.next_hop(cur, dest, state.alg).state.to_bits();
    }

    fn rebuild(&self, graph: &Arc<Graph>, mask: &EdgeMask) -> Option<Arc<dyn SimRouting>> {
        // Graceful fallback: same ring-detour discipline as source routing.
        // New packets get full DSN-V planned paths (materialized once per
        // packet); packets already in flight carry no path and detour
        // greedily on survivor-graph distance from wherever they are.
        let dsn = self.dsn.clone();
        Some(Arc::new(DetourSourceRouted {
            name: format!("{}+detour", self.name()),
            base_key: self.scheme_key(),
            provider: Arc::new(move |s, t| dsn_route::deadlock::dsnv_route_channels(&dsn, s, t)),
            lanes: self.lanes,
            graph: graph.clone(),
            dist: DistanceTable::new_masked(graph, mask),
            mask: mask.clone(),
        }))
    }

    fn reset_state(&self, state: &mut RouteState) {
        state.ud_phase = UdPhase::Up;
        // Restart the automaton: the new epoch's scheme re-plans from the
        // packet's current switch.
        state.alg = 0;
    }

    fn scheme_key(&self) -> String {
        format!("{}[lanes={}]", self.name(), self.lanes)
    }

    fn compiled_flat(&self) -> Option<Arc<FlatRouting>> {
        Some(
            self.flat
                .get_or_init(|| {
                    Arc::new(FlatRouting::compile(
                        self.graph.node_count(),
                        4,
                        HopRule::Dyn,
                        false,
                        |ctx, cur, dest, out| {
                            self.candidates(cur, dest, &FlatRouting::synthetic_state(ctx), out);
                        },
                    ))
                })
                .clone(),
        )
    }

    fn algorithmic(&self) -> bool {
        true
    }

    fn table_bytes(&self) -> usize {
        (self.succ_ch.len() + self.pred_ch.len() + self.short_ch.len()) * std::mem::size_of::<u32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsn_core::dsn::Dsn;
    use dsn_core::torus::Torus;

    #[test]
    fn distance_table_matches_bfs() {
        let g = Dsn::new(64, 5).unwrap().into_graph();
        let dt = DistanceTable::new(&g);
        assert_eq!(dt.get(0, 0), 0);
        // symmetric
        for (a, b) in [(0usize, 10usize), (5, 60), (33, 2)] {
            assert_eq!(dt.get(a, b), dt.get(b, a));
            assert!(dt.get(a, b) > 0);
        }
    }

    #[test]
    fn adaptive_candidates_make_progress() {
        let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
        let r = AdaptiveEscape::new(g.clone(), 4);
        let mut out = Vec::new();
        for (cur, dest) in [(0usize, 32usize), (10, 11), (63, 0)] {
            out.clear();
            let st = r.init(cur, dest);
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
            let mut st = r.init(s, t);
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
            let mut st = r.init(s, t);
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
            let mut st = r.init(s, t);
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
        // Following ONLY the escape candidate must also reach (it is the
        // custom route, recomputed per hop — restart semantics).
        let dsn = Arc::new(Dsn::new(126, 6).unwrap());
        let g = Arc::new(dsn.graph().clone());
        let r = MinimalAdaptiveDsn::new(dsn.clone(), 8);
        let bound = 3 * dsn.p() as usize + dsn.r() + 16;
        let mut out = Vec::new();
        for (s, t) in [(0usize, 70usize), (125, 3)] {
            let mut cur = s;
            let mut st = r.init(s, t);
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

    #[test]
    fn source_routed_dsn_follows_path() {
        let dsn = Arc::new(Dsn::new(64, 5).unwrap());
        let g = dsn.graph().clone();
        let r = SourceRouted::dsn_custom(dsn);
        let mut st = r.init(3, 40);
        let path = st.path.clone().unwrap();
        let mut cur = 3;
        let mut out = Vec::new();
        for _ in 0..path.len() {
            out.clear();
            r.candidates(cur, 40, &st, &mut out);
            assert_eq!(out.len(), 1);
            let (ch, vc) = out[0];
            r.on_hop(cur, 40, &mut st, ch, vc);
            cur = g.channel_endpoints(ch).1;
        }
        assert_eq!(cur, 40);
    }

    #[test]
    fn source_routed_dor_reaches_dest() {
        let torus = Arc::new(Torus::new(&[4, 4]).unwrap());
        let g = torus.graph().clone();
        let r = SourceRouted::torus_dor(torus);
        for (s, t) in [(0usize, 15usize), (7, 8)] {
            let mut st = r.init(s, t);
            let path = st.path.clone().unwrap();
            let mut cur = s;
            let mut out = Vec::new();
            for _ in 0..path.len() {
                out.clear();
                r.candidates(cur, t, &st, &mut out);
                let (ch, vc) = out[0];
                r.on_hop(cur, t, &mut st, ch, vc);
                cur = g.channel_endpoints(ch).1;
            }
            assert_eq!(cur, t);
        }
    }
}
