//! Shared test oracles. [`spec`] is the spec simulator the engine is
//! checked against, and [`Sim`] runs a scenario on either. The rest are
//! reference [`SimRouting`] schemes that share no code with the
//! simulator's port-mask tables. Each computes its candidates hop by hop
//! from its own BFS distances, [`UpDown::next_hops`] and [`dsnv_step`],
//! walking `graph.neighbors(cur)` in order — the definitions the mask
//! tables are built to reproduce. Comparing a run of a library scheme with
//! a run of its reference pins the tables (and their decode) against
//! those definitions.

#![allow(dead_code)]

pub mod spec;

use dsn_core::dsn::Dsn;
use dsn_core::fault::EdgeMask;
use dsn_core::graph::{Graph, LinkKind};
use dsn_core::NodeId;
use dsn_route::dsn_routing::{dsnv_step, DsnvState};
use dsn_route::updown::{UdPhase, UpDown};
use dsn_route::RouteStep;
use dsn_sim::routing::{Candidate, RouteState};
use dsn_sim::{RunStats, SimConfig, SimRouting, Simulator, Workload};
use std::collections::VecDeque;
use std::sync::Arc;

/// The two implementations of the router model: the spec simulator and
/// the library's engine.
#[derive(Debug, Clone, Copy)]
pub enum Sim {
    /// [`spec::run`].
    Spec,
    /// [`Simulator::run`].
    Engine,
}

/// Run one scenario on the spec simulator and on the engine, demand
/// bit-identical `RunStats` and return them for scenario-specific
/// assertions.
pub fn assert_engine_matches_spec(
    g: Arc<Graph>,
    cfg: SimConfig,
    routing: Arc<dyn SimRouting>,
    workload: Workload,
    seed: u64,
    label: &str,
) -> RunStats {
    let expected = Sim::Spec.run(&g, &cfg, routing.clone(), &workload, seed);
    assert!(
        expected.total_packets_all_time > 0,
        "{label}: vacuous scenario"
    );
    let got = Sim::Engine.run(&g, &cfg, routing, &workload, seed);
    assert_eq!(expected, got, "{label}: engine diverged from the spec");
    got
}

impl Sim {
    /// Both, spec first.
    pub const BOTH: [Sim; 2] = [Sim::Spec, Sim::Engine];

    /// Label for assertion messages.
    pub fn name(self) -> &'static str {
        match self {
            Sim::Spec => "spec",
            Sim::Engine => "engine",
        }
    }

    /// Run one scenario.
    pub fn run(
        self,
        g: &Arc<Graph>,
        cfg: &SimConfig,
        routing: Arc<dyn SimRouting>,
        workload: &Workload,
        seed: u64,
    ) -> RunStats {
        match self {
            Sim::Spec => spec::run(g.clone(), cfg.clone(), routing, workload.clone(), seed),
            Sim::Engine => {
                Simulator::with_workload(g.clone(), cfg.clone(), routing, workload.clone(), seed)
                    .run()
            }
        }
    }
}

/// All-pairs hop distances over the survivors of `mask` (`u16::MAX` =
/// unreachable), one BFS per source.
fn distances(g: &Graph, mask: Option<&EdgeMask>) -> Vec<u16> {
    let n = g.node_count();
    let mut dist = vec![u16::MAX; n * n];
    for s in 0..n {
        let row = &mut dist[s * n..(s + 1) * n];
        row[s] = 0;
        let mut queue = VecDeque::from([s]);
        while let Some(v) = queue.pop_front() {
            for (u, e) in g.neighbors(v) {
                if mask.is_some_and(|m| !m.edge_alive(e)) || row[u] != u16::MAX {
                    continue;
                }
                row[u] = row[v] + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Minimal candidates: every live neighbor closer to `dest`, in adjacency
/// order, each on `vcs`.
fn minimal(
    g: &Graph,
    dist: &[u16],
    mask: Option<&EdgeMask>,
    cur: NodeId,
    dest: NodeId,
    vcs: std::ops::Range<u8>,
    out: &mut Vec<Candidate>,
) {
    let n = g.node_count();
    let dcur = dist[cur * n + dest];
    for (u, e) in g.neighbors(cur) {
        if mask.is_some_and(|m| !m.edge_alive(e)) {
            continue;
        }
        if dist[u * n + dest] < dcur {
            let ch = g.channel_id(e, cur);
            out.extend(vcs.clone().map(|vc| (ch, vc)));
        }
    }
}

fn phase_of(updown: &UpDown, g: &Graph, channel: usize, cur: NodeId) -> UdPhase {
    if updown.is_up_move(g, channel / 2, cur) {
        UdPhase::Up
    } else {
        UdPhase::Down
    }
}

fn updown_for(g: &Graph, root: NodeId, mask: Option<&EdgeMask>) -> UpDown {
    match mask {
        None => UpDown::new(g, root),
        Some(m) => UpDown::new_masked(g, root, m),
    }
}

/// Reference for `AdaptiveEscape` (`minimal = true`: minimal hops on VCs
/// `1..vcs`, up*/down* escape on VC 0) and `UpDownRouting`
/// (`minimal = false`: up*/down* on every VC).
pub struct RefPhase {
    graph: Arc<Graph>,
    dist: Vec<u16>,
    updown: UpDown,
    mask: Option<EdgeMask>,
    minimal: bool,
    vcs: u8,
}

impl RefPhase {
    fn build(graph: Arc<Graph>, mask: Option<EdgeMask>, minimal: bool, vcs: u8) -> Self {
        RefPhase {
            dist: distances(&graph, mask.as_ref()),
            updown: updown_for(&graph, 0, mask.as_ref()),
            graph,
            mask,
            minimal,
            vcs,
        }
    }

    /// Reference adaptive + up*/down* escape.
    pub fn adaptive(graph: Arc<Graph>, vcs: u8) -> Arc<dyn SimRouting> {
        Arc::new(Self::build(graph, None, true, vcs))
    }

    /// Reference pure up*/down*.
    pub fn updown(graph: Arc<Graph>, vcs: u8) -> Arc<dyn SimRouting> {
        Arc::new(Self::build(graph, None, false, vcs))
    }
}

impl SimRouting for RefPhase {
    fn name(&self) -> String {
        format!("reference-phase(minimal={},{}vc)", self.minimal, self.vcs)
    }

    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        let g = &self.graph;
        let escape_vcs = if self.minimal {
            minimal(
                g,
                &self.dist,
                self.mask.as_ref(),
                cur,
                dest,
                1..self.vcs,
                out,
            );
            0..1
        } else {
            0..self.vcs
        };
        for (e, _) in self.updown.next_hops(g, cur, state.ud_phase, dest) {
            let ch = g.channel_id(e, cur);
            out.extend(escape_vcs.clone().map(|vc| (ch, vc)));
        }
    }

    fn on_hop(&self, cur: NodeId, _dest: NodeId, state: &mut RouteState, channel: usize, vc: u8) {
        state.ud_phase = if !self.minimal || vc == 0 {
            phase_of(&self.updown, &self.graph, channel, cur)
        } else {
            UdPhase::Up
        };
    }

    fn rebuild(&self, graph: &Arc<Graph>, mask: &EdgeMask) -> Option<Arc<dyn SimRouting>> {
        Some(Arc::new(Self::build(
            graph.clone(),
            Some(mask.clone()),
            self.minimal,
            self.vcs,
        )))
    }

    fn table_bytes(&self) -> usize {
        0
    }

    fn vcs(&self) -> u8 {
        self.vcs
    }
}

/// The channel a DSN-V step takes out of `cur`: the ring link for
/// succ/pred, the owned shortcut (falling back to any link to its target,
/// for a shortcut that coincides with a ring link).
fn step_channel(dsn: &Dsn, cur: NodeId, step: RouteStep) -> usize {
    let g = dsn.graph();
    let (to, ring) = match step {
        RouteStep::Succ => (dsn.succ(cur), true),
        RouteStep::Pred => (dsn.pred(cur), true),
        RouteStep::Shortcut => (dsn.shortcut(cur).expect("owned shortcut"), false),
    };
    let link = g
        .neighbors(cur)
        .find(|&(w, e)| w == to && (g.edge(e).kind == LinkKind::Ring) == ring)
        .or_else(|| {
            (!ring)
                .then(|| g.neighbors(cur).find(|&(w, _)| w == to))
                .flatten()
        })
        .expect("DSN-V step has a link");
    g.channel_id(link.1, cur)
}

/// The DSN-V hop of a packet at `cur` in automaton state `alg`:
/// `(channel, vc class, next state bits)`.
fn dsnv_hop(dsn: &Dsn, cur: NodeId, dest: NodeId, alg: u8) -> (usize, u8, u8) {
    let hop = dsnv_step(dsn, cur, dest, DsnvState::from_bits(alg)).expect("cur != dest");
    (
        step_channel(dsn, cur, hop.step),
        hop.vc,
        hop.state.to_bits(),
    )
}

/// Bit 3 of [`RouteState::alg`]: the packet left the automaton.
const DETOUR: u8 = 1 << 3;

/// Reference for `DsnAlgorithmic` (DSN-V on 4 classes × `lanes`), with
/// its post-fault detour: greedy descent on survivor distance, ring links
/// first, on class 0.
pub struct RefDsnv {
    dsn: Arc<Dsn>,
    graph: Arc<Graph>,
    lanes: u8,
    survivors: Option<(EdgeMask, Vec<u16>)>,
}

impl RefDsnv {
    /// Reference DSN-V with `lanes` lanes per class.
    pub fn scheme(dsn: Arc<Dsn>, lanes: u8) -> Arc<dyn SimRouting> {
        Arc::new(RefDsnv {
            graph: Arc::new(dsn.graph().clone()),
            dsn,
            lanes,
            survivors: None,
        })
    }

    fn automaton(&self, alg: u8) -> Option<u8> {
        if alg & DETOUR == 0 {
            Some(alg)
        } else if self.survivors.is_none() {
            Some(0)
        } else {
            None
        }
    }
}

impl SimRouting for RefDsnv {
    fn name(&self) -> String {
        format!("reference-dsnv(lanes={})", self.lanes)
    }

    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        if let Some(alg) = self.automaton(state.alg) {
            let (ch, class, _) = dsnv_hop(&self.dsn, cur, dest, alg);
            if self
                .survivors
                .as_ref()
                .is_none_or(|(m, _)| m.channel_alive(ch))
            {
                out.extend((0..self.lanes).map(|lane| (ch, class * self.lanes + lane)));
                return;
            }
        }
        let (mask, dist) = self.survivors.as_ref().expect("only a rebuild detours");
        let n = self.graph.node_count();
        let dcur = dist[cur * n + dest];
        for ring_pass in [true, false] {
            for (u, e) in self.graph.neighbors(cur) {
                let ring = self.graph.edge(e).kind == LinkKind::Ring;
                if mask.edge_alive(e) && ring == ring_pass && dist[u * n + dest] < dcur {
                    let ch = self.graph.channel_id(e, cur);
                    out.extend((0..self.lanes).map(|lane| (ch, lane)));
                }
            }
        }
    }

    fn on_hop(&self, cur: NodeId, dest: NodeId, state: &mut RouteState, channel: usize, _vc: u8) {
        state.alg = match self.automaton(state.alg) {
            Some(alg) => match dsnv_hop(&self.dsn, cur, dest, alg) {
                (ch, _, next) if ch == channel => next,
                _ => DETOUR,
            },
            None => DETOUR,
        };
    }

    fn rebuild(&self, graph: &Arc<Graph>, mask: &EdgeMask) -> Option<Arc<dyn SimRouting>> {
        Some(Arc::new(RefDsnv {
            dsn: self.dsn.clone(),
            graph: graph.clone(),
            lanes: self.lanes,
            survivors: Some((mask.clone(), distances(graph, Some(mask)))),
        }))
    }

    fn scheme_key(&self) -> String {
        let rebuilt = if self.survivors.is_some() {
            "+rebuilt"
        } else {
            ""
        };
        format!("{}{rebuilt}", self.name())
    }

    fn table_bytes(&self) -> usize {
        0
    }

    fn vcs(&self) -> u8 {
        4 * self.lanes
    }
}

/// Reference for `MinimalAdaptiveDsn`: minimal hops on VCs `4..vcs`, then
/// the DSN-V escape hop of the packet's sojourn on its class VC.
pub struct RefMinimalDsn {
    dsn: Arc<Dsn>,
    dist: Vec<u16>,
    vcs: u8,
}

impl RefMinimalDsn {
    /// Reference minimal-adaptive DSN with `vcs` VCs.
    pub fn scheme(dsn: Arc<Dsn>, vcs: u8) -> Arc<dyn SimRouting> {
        Arc::new(RefMinimalDsn {
            dist: distances(dsn.graph(), None),
            dsn,
            vcs,
        })
    }
}

impl SimRouting for RefMinimalDsn {
    fn name(&self) -> String {
        format!("reference-minimal-dsn({}vc)", self.vcs)
    }

    fn candidates(&self, cur: NodeId, dest: NodeId, state: &RouteState, out: &mut Vec<Candidate>) {
        minimal(
            self.dsn.graph(),
            &self.dist,
            None,
            cur,
            dest,
            4..self.vcs,
            out,
        );
        let (ch, vc, _) = dsnv_hop(&self.dsn, cur, dest, state.alg);
        out.push((ch, vc));
    }

    fn on_hop(&self, cur: NodeId, dest: NodeId, state: &mut RouteState, _ch: usize, vc: u8) {
        state.alg = if vc < 4 {
            dsnv_hop(&self.dsn, cur, dest, state.alg).2
        } else {
            0
        };
    }

    fn table_bytes(&self) -> usize {
        0
    }

    fn vcs(&self) -> u8 {
        self.vcs
    }
}
