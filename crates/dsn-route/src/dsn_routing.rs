//! The paper's custom three-phase routing algorithm for DSN-x (Figure 2).
//!
//! Routing from `s` to `t` works on clockwise ring distance `d`:
//!
//! 1. **PRE-WORK** — walk `pred` links until the current node's level drops
//!    to the *required level* `l = floor(log2(n/d)) + 1`, i.e. climb to a
//!    node high enough to "look over" to `t`;
//! 2. **MAIN-PROCESS** — repeatedly either take the owned shortcut (when
//!    the current level equals the required level; this halves the
//!    remaining distance) or walk one `succ` step (to reach the super-node
//!    sibling that owns the right shortcut). Stops when the level runs out
//!    of shortcuts (`l_u = x + 1`), the remaining distance is at most `p`,
//!    or a shortcut overshot `t`;
//! 3. **FINISH** — a local `succ`/`pred` walk to `t`.
//!
//! Fact 2 bounds the resulting path by `3p + r` hops for
//! `x > p - log2 p`; Theorem 2a bounds the expected length by `2p`.
//!
//! Every hop is decided by one automaton step, [`dsnv_step`] (and its
//! Section V.D variant behind [`route_avoid_overshoot`]): traces, routing
//! statistics, channel loads, the CDG channel walks of `deadlock` and the
//! simulator's table-free router all walk it. The phase loops as the paper
//! writes them live on only in `tests/fig2_oracle.rs`, as its oracle.

use dsn_core::dsn::Dsn;
use dsn_core::NodeId;
use rayon::prelude::*;

/// Kind of move the router took on one hop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RouteStep {
    /// Counter-clockwise ring move (PRE-WORK, or FINISH after overshoot).
    Pred,
    /// Clockwise ring move (MAIN-PROCESS gap walk, or FINISH).
    Succ,
    /// Distance-halving shortcut (MAIN-PROCESS).
    Shortcut,
}

/// Which phase a hop belongs to. Monotone along a route:
/// PreWork → Main → Finish.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePhase {
    /// Climb to the required height.
    #[default]
    PreWork,
    /// Distance-halving loop.
    Main,
    /// Local walk to the destination.
    Finish,
}

impl RoutePhase {
    /// The phase numbered `i`: 0 is PRE-WORK, 1 MAIN and anything above
    /// FINISH. The DSN-V VCs follow the same numbering (FINISH owns VCs 2
    /// and 3), so this also reads a hop's phase off its VC.
    #[inline]
    pub(crate) fn from_index(i: u8) -> Self {
        match i {
            0 => RoutePhase::PreWork,
            1 => RoutePhase::Main,
            _ => RoutePhase::Finish,
        }
    }
}

/// A fully traced route: node sequence plus per-hop step/phase labels.
#[derive(Debug, Clone, PartialEq)]
pub struct RouteTrace {
    /// Visited nodes, starting at the source and ending at the destination.
    pub path: Vec<NodeId>,
    /// `steps[i]` describes the hop from `path[i]` to `path[i+1]`.
    pub steps: Vec<RouteStep>,
    /// `phases[i]` is the phase of hop `i`.
    pub phases: Vec<RoutePhase>,
    /// Whether the MAIN-PROCESS overshot the destination.
    pub overshoot: bool,
}

impl RouteTrace {
    /// Total hop count.
    #[inline]
    pub fn hops(&self) -> usize {
        self.steps.len()
    }

    /// Hops spent in the given phase.
    pub fn hops_in(&self, phase: RoutePhase) -> usize {
        self.phases.iter().filter(|&&p| p == phase).count()
    }

    /// Number of shortcut hops taken.
    pub fn shortcut_hops(&self) -> usize {
        self.steps
            .iter()
            .filter(|&&s| s == RouteStep::Shortcut)
            .count()
    }
}

/// Errors the router can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// A node id was out of range.
    NodeOutOfRange(NodeId),
    /// The step cap was exceeded — indicates a construction bug, never an
    /// expected outcome.
    StepCapExceeded {
        /// Source of the failed route.
        s: NodeId,
        /// Destination of the failed route.
        t: NodeId,
        /// Cap that was hit.
        cap: usize,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::NodeOutOfRange(v) => write!(f, "node {v} out of range"),
            RouteError::StepCapExceeded { s, t, cap } => {
                write!(f, "routing {s} -> {t} exceeded the {cap}-hop step cap")
            }
        }
    }
}

impl std::error::Error for RouteError {}

/// Per-packet state of the three-phase walk. The walk is memoryless
/// given `(current node, destination)` **within** a phase, but the phase
/// itself is genuine state — a MAIN node whose level exceeds the required
/// level walks `succ`, while a fresh route from the same node would walk
/// `pred` (PRE-WORK), so per-hop route restarts livelock. Carrying
/// `(phase, crossed)` — 3 bits — is exactly enough to produce a route one
/// hop at a time in O(levels) per hop and O(1) memory, with no
/// materialized path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct DsnvState {
    /// Phase the next hop starts in.
    pub phase: RoutePhase,
    /// Whether a FINISH hop has crossed the ring's 0/n-1 dateline (bumps
    /// the FINISH VC from 2 to 3, permanently).
    pub crossed: bool,
}

impl DsnvState {
    /// Pack into 3 bits (phase in bits 0–1, dateline flag in bit 2), for
    /// embedding in compact per-packet state words.
    #[inline]
    pub fn to_bits(self) -> u8 {
        self.phase as u8 | ((self.crossed as u8) << 2)
    }

    /// Inverse of [`Self::to_bits`]. Unknown phase encodings map to
    /// `Finish` (they cannot be produced by `to_bits`).
    #[inline]
    pub fn from_bits(bits: u8) -> Self {
        DsnvState {
            phase: RoutePhase::from_index(bits & 3),
            crossed: bits & 4 != 0,
        }
    }
}

/// One hop of the three-phase walk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DsnvHop {
    /// The node after the hop.
    pub next: NodeId,
    /// Ring direction / shortcut kind of the hop.
    pub step: RouteStep,
    /// DSN-V virtual channel of the hop (0 = PRE-WORK, 1 = MAIN,
    /// 2/3 = FINISH before/after the dateline).
    pub vc: u8,
    /// State to carry to the next hop.
    pub state: DsnvState,
}

impl DsnvHop {
    /// Phase that emitted the hop, read off its VC class.
    #[inline]
    pub(crate) fn phase(&self) -> RoutePhase {
        RoutePhase::from_index(self.vc)
    }

    /// Whether the hop is a MAIN shortcut past the destination.
    #[inline]
    pub(crate) fn overshoots(&self) -> bool {
        self.step == RouteStep::Shortcut && self.state.phase == RoutePhase::Finish
    }
}

/// The MAIN/FINISH rule a walk follows.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Rule {
    /// Figure 2: shortcut at the required level, even past `t`; FINISH
    /// walks back after an overshoot.
    Basic,
    /// Section V.D: shortcut at or above the required level only when it
    /// lands short of `t` or on it; FINISH walks forward only.
    AvoidOvershoot,
}

/// The next hop of the Figure 2 walk from `u` toward `t`, given the
/// packet's carried [`DsnvState`]; `None` when `u == t`. Walking it from
/// [`DsnvState::default`] yields the hops and DSN-V VCs of [`route`].
///
/// A PRE-WORK packet whose level has dropped to the required level falls
/// through to the MAIN decision *at the same node*, and a MAIN packet
/// whose distance is `<= p` (or whose level exceeds `x`) falls through to
/// FINISH — each hop is labeled with the phase that actually emitted it.
pub fn dsnv_step(dsn: &Dsn, u: NodeId, t: NodeId, st: DsnvState) -> Option<DsnvHop> {
    step(dsn, u, t, st, Rule::Basic)
}

/// The one implementation of the three-phase decisions. Always inlined, so
/// [`dsnv_step`] compiles with its rule folded away.
#[inline(always)]
fn step(dsn: &Dsn, u: NodeId, t: NodeId, st: DsnvState, rule: Rule) -> Option<DsnvHop> {
    if u == t {
        return None;
    }
    let d = dsn.cw_dist(u, t);
    let mut phase = st.phase;

    if phase == RoutePhase::PreWork {
        if dsn.level(u) > dsn.required_level(d) {
            return Some(DsnvHop {
                next: dsn.pred(u),
                step: RouteStep::Pred,
                vc: 0,
                state: st,
            });
        }
        phase = RoutePhase::Main;
    }

    if phase == RoutePhase::Main {
        let lu = dsn.level(u);
        // The paper writes the level stop as "l_u = x + 1"; for small x
        // the level can also sit above x + 1 right after PRE-WORK.
        if d > dsn.p() as usize && lu <= dsn.x() {
            let l = dsn.required_level(d);
            let jump = match rule {
                Rule::Basic => lu == l,
                Rule::AvoidOvershoot => {
                    lu >= l && dsn.shortcut(u).is_some_and(|sc| dsn.cw_dist(u, sc) <= d)
                }
            };
            let (next, step, next_phase) = if jump {
                let target = dsn
                    .shortcut(u)
                    .expect("level <= x nodes always own a shortcut");
                let overshoot = dsn.cw_dist(u, target) > d;
                (
                    target,
                    RouteStep::Shortcut,
                    if overshoot {
                        RoutePhase::Finish
                    } else {
                        RoutePhase::Main
                    },
                )
            } else {
                (dsn.succ(u), RouteStep::Succ, RoutePhase::Main)
            };
            return Some(DsnvHop {
                next,
                step,
                vc: 1,
                state: DsnvState {
                    phase: next_phase,
                    crossed: st.crossed,
                },
            });
        }
    }

    // FINISH: the shorter ring direction (forward only under V.D).
    let (next, step) = if rule == Rule::Basic && dsn.cw_dist(t, u) < d {
        (dsn.pred(u), RouteStep::Pred)
    } else {
        (dsn.succ(u), RouteStep::Succ)
    };
    let n = dsn.n();
    let crossing = (u == n - 1 && next == 0) || (u == 0 && next == n - 1);
    let crossed = st.crossed || crossing;
    Some(DsnvHop {
        next,
        step,
        vc: if crossed { 3 } else { 2 },
        state: DsnvState {
            phase: RoutePhase::Finish,
            crossed,
        },
    })
}

/// The hops of one walk, [`step`] by [`step`]; builds nothing.
pub(crate) struct Walk<'a> {
    dsn: &'a Dsn,
    u: NodeId,
    t: NodeId,
    state: DsnvState,
    rule: Rule,
}

/// Walk `s -> t` under `rule`. Both ids must be nodes of `dsn`.
#[inline]
pub(crate) fn walk(dsn: &Dsn, s: NodeId, t: NodeId, rule: Rule) -> Walk<'_> {
    assert!(s < dsn.n() && t < dsn.n(), "walk {s} -> {t} off the ring");
    Walk {
        dsn,
        u: s,
        t,
        state: DsnvState::default(),
        rule,
    }
}

impl Iterator for Walk<'_> {
    type Item = DsnvHop;

    #[inline]
    fn next(&mut self) -> Option<DsnvHop> {
        let hop = step(self.dsn, self.u, self.t, self.state, self.rule)?;
        self.u = hop.next;
        self.state = hop.state;
        Some(hop)
    }
}

/// Route `s -> t` on the basic DSN with the paper's algorithm and return the
/// full trace.
pub fn route(dsn: &Dsn, s: NodeId, t: NodeId) -> Result<RouteTrace, RouteError> {
    trace(dsn, s, t, Rule::Basic)
}

/// The Section V.D *overshoot-avoiding* routing variant: when the selected
/// shortcut would overshoot the destination, step to the successor and use
/// its (shorter, next-level) shortcut instead. The returned trace never
/// overshoots, so FINISH only ever walks forward — at the cost of a
/// possibly longer MAIN-PROCESS, exactly the trade-off the paper predicts.
pub fn route_avoid_overshoot(dsn: &Dsn, s: NodeId, t: NodeId) -> Result<RouteTrace, RouteError> {
    trace(dsn, s, t, Rule::AvoidOvershoot)
}

/// Record the walk `s -> t` hop by hop.
fn trace(dsn: &Dsn, s: NodeId, t: NodeId, rule: Rule) -> Result<RouteTrace, RouteError> {
    let n = dsn.n();
    if s >= n {
        return Err(RouteError::NodeOutOfRange(s));
    }
    if t >= n {
        return Err(RouteError::NodeOutOfRange(t));
    }
    let mut trace = RouteTrace {
        path: vec![s],
        steps: Vec::new(),
        phases: Vec::new(),
        overshoot: false,
    };
    // Generous cap: PRE-WORK <= p, MAIN <= 2p + overshoot, FINISH can be
    // long for small x (up to n / 2^x), so cap at the trivially safe 4n.
    let cap = 4 * n;
    for hop in walk(dsn, s, t, rule) {
        trace.path.push(hop.next);
        trace.steps.push(hop.step);
        trace.phases.push(hop.phase());
        trace.overshoot |= hop.overshoots();
        if trace.steps.len() > cap {
            return Err(RouteError::StepCapExceeded { s, t, cap });
        }
    }
    Ok(trace)
}

/// Summary statistics of the custom routing over every ordered pair.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingStats {
    /// Pairs measured.
    pub pairs: usize,
    /// Maximum route length (the *routing diameter* of Fact 2).
    pub max_hops: usize,
    /// Mean route length (Theorem 2a bounds this by `2p`).
    pub avg_hops: f64,
    /// Mean hops per phase: (PRE-WORK, MAIN, FINISH).
    pub avg_phase_hops: (f64, f64, f64),
    /// Fraction of routes that overshot.
    pub overshoot_rate: f64,
}

/// Per-source accumulation of the all-pairs sweep. Integer-only, so the
/// parallel per-source merge is exact (no float-order effects): the final
/// averages are computed once from the merged integer sums, which makes
/// the parallel result bit-identical to the serial loop by construction.
#[derive(Debug, Clone, Copy, Default)]
struct StatsPartial {
    max_hops: usize,
    sum: u64,
    /// Hops per phase, indexed by [`RoutePhase`].
    phase_sums: [u64; 3],
    overshoots: usize,
    pairs: usize,
}

impl StatsPartial {
    fn merge(mut self, other: StatsPartial) -> StatsPartial {
        self.max_hops = self.max_hops.max(other.max_hops);
        self.sum += other.sum;
        for (a, b) in self.phase_sums.iter_mut().zip(other.phase_sums) {
            *a += b;
        }
        self.overshoots += other.overshoots;
        self.pairs += other.pairs;
        self
    }
}

/// Walks from one source to every other node — the unit of work both the
/// serial and the parallel sweep share.
fn source_partial(dsn: &Dsn, s: NodeId) -> StatsPartial {
    let mut part = StatsPartial::default();
    for t in (0..dsn.n()).filter(|&t| t != s) {
        let mut hops = 0;
        for hop in walk(dsn, s, t, Rule::Basic) {
            hops += 1;
            part.phase_sums[hop.phase() as usize] += 1;
            part.overshoots += hop.overshoots() as usize;
        }
        part.max_hops = part.max_hops.max(hops);
        part.sum += hops as u64;
        part.pairs += 1;
    }
    part
}

fn finish_stats(total: StatsPartial) -> RoutingStats {
    let pf = total.pairs.max(1) as f64;
    let [pre, main, fin] = total.phase_sums.map(|h| h as f64 / pf);
    RoutingStats {
        pairs: total.pairs,
        max_hops: total.max_hops,
        avg_hops: total.sum as f64 / pf,
        avg_phase_hops: (pre, main, fin),
        overshoot_rate: total.overshoots as f64 / pf,
    }
}

/// Route every ordered pair `(s, t)` with `s != t` and aggregate, fanned
/// out per source. Integer partials merge in source order, so the result
/// is bit-identical for every worker count.
pub fn routing_stats(dsn: &Dsn) -> RoutingStats {
    let total = (0..dsn.n())
        .into_par_iter()
        .map(|s| source_partial(dsn, s))
        .reduce(StatsPartial::default, StatsPartial::merge);
    finish_stats(total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_path_valid(dsn: &Dsn, tr: &RouteTrace, s: NodeId, t: NodeId) {
        assert_eq!(tr.path[0], s);
        assert_eq!(*tr.path.last().unwrap(), t);
        assert_eq!(tr.path.len(), tr.steps.len() + 1);
        for (i, step) in tr.steps.iter().enumerate() {
            let (a, b) = (tr.path[i], tr.path[i + 1]);
            match step {
                RouteStep::Succ => assert_eq!(b, dsn.succ(a), "hop {i}"),
                RouteStep::Pred => assert_eq!(b, dsn.pred(a), "hop {i}"),
                RouteStep::Shortcut => {
                    assert_eq!(Some(b), dsn.shortcut(a), "hop {i}");
                    // Shortcuts are physical links.
                    assert!(dsn.graph().has_edge(a, b), "hop {i} not a link");
                }
            }
        }
    }

    #[test]
    fn reaches_every_destination_small() {
        let dsn = Dsn::new(64, 5).unwrap();
        for s in 0..64 {
            for t in 0..64 {
                let tr = route(&dsn, s, t).unwrap();
                check_path_valid(&dsn, &tr, s, t);
            }
        }
    }

    #[test]
    fn trivial_route() {
        let dsn = Dsn::new(64, 5).unwrap();
        let tr = route(&dsn, 7, 7).unwrap();
        assert_eq!(tr.hops(), 0);
        assert_eq!(tr.path, vec![7]);
    }

    #[test]
    fn fact2_routing_diameter_bound() {
        // Fact 2: max path length <= 3p + r for x > p - log2 p.
        for &n in &[64usize, 128, 200, 256] {
            let p = dsn_core::util::ceil_log2(n);
            let dsn = Dsn::new(n, p - 1).unwrap();
            let stats = routing_stats(&dsn);
            let bound = 3 * p as usize + dsn.r();
            assert!(
                stats.max_hops <= bound,
                "n={n}: routing diameter {} > {bound}",
                stats.max_hops
            );
        }
    }

    #[test]
    fn theorem2a_expected_route_length() {
        // E[route] <= 2p for uniform s, t (Theorem 2a).
        for &n in &[128usize, 256, 512] {
            let p = dsn_core::util::ceil_log2(n);
            let dsn = Dsn::new(n, p - 1).unwrap();
            let stats = routing_stats(&dsn);
            assert!(
                stats.avg_hops <= 2.0 * p as f64,
                "n={n}: avg {} > 2p = {}",
                stats.avg_hops,
                2 * p
            );
        }
    }

    #[test]
    fn phases_ordered_correctly() {
        let dsn = Dsn::new(256, 7).unwrap();
        for (s, t) in [(3usize, 250usize), (100, 5), (0, 128), (255, 254)] {
            let tr = route(&dsn, s, t).unwrap();
            // Phases must appear in PreWork* Main* Finish* order.
            let mut max_rank = 0u8;
            for ph in &tr.phases {
                let rank = match ph {
                    RoutePhase::PreWork => 0,
                    RoutePhase::Main => 1,
                    RoutePhase::Finish => 2,
                };
                assert!(rank >= max_rank, "phase order violated for {s}->{t}");
                max_rank = max_rank.max(rank);
            }
        }
    }

    #[test]
    fn prework_bounded_by_p() {
        let dsn = Dsn::new(512, 8).unwrap();
        for s in (0..512).step_by(7) {
            for t in (0..512).step_by(13) {
                let tr = route(&dsn, s, t).unwrap();
                assert!(tr.hops_in(RoutePhase::PreWork) <= dsn.p() as usize);
            }
        }
    }

    #[test]
    fn small_x_still_terminates() {
        // With x = 1 the MAIN loop stops at level 2 and FINISH may be long,
        // but routing must still succeed.
        let dsn = Dsn::new(64, 1).unwrap();
        for s in 0..64 {
            for t in 0..64 {
                let tr = route(&dsn, s, t).unwrap();
                check_path_valid(&dsn, &tr, s, t);
            }
        }
    }

    #[test]
    fn incomplete_supernode_handled() {
        // n = 100, p = 7, r = 2: the final super node is incomplete.
        let dsn = Dsn::new(100, 6).unwrap();
        assert!(dsn.r() > 0);
        let stats = routing_stats(&dsn);
        assert!(stats.max_hops <= 3 * 7 + dsn.r());
    }

    #[test]
    fn stats_consistency() {
        let dsn = Dsn::new(64, 5).unwrap();
        let stats = routing_stats(&dsn);
        assert_eq!(stats.pairs, 64 * 63);
        let (a, b, c) = stats.avg_phase_hops;
        assert!((a + b + c - stats.avg_hops).abs() < 1e-9);
        assert!(stats.overshoot_rate >= 0.0 && stats.overshoot_rate <= 1.0);
    }

    #[test]
    fn avoid_overshoot_never_overshoots_and_reaches() {
        for &n in &[64usize, 100, 256] {
            let p = dsn_core::util::ceil_log2(n);
            let dsn = Dsn::new(n, p - 1).unwrap();
            for s in (0..n).step_by(3) {
                for t in (0..n).step_by(5) {
                    let tr = route_avoid_overshoot(&dsn, s, t).unwrap();
                    assert!(!tr.overshoot);
                    assert_eq!(*tr.path.last().unwrap(), t);
                    // Forward-only FINISH: no Pred steps outside PRE-WORK.
                    for (i, &st) in tr.steps.iter().enumerate() {
                        if st == RouteStep::Pred {
                            assert_eq!(tr.phases[i], RoutePhase::PreWork, "{s}->{t}");
                        }
                    }
                    // Every hop is still a physical link.
                    for w in tr.path.windows(2) {
                        assert!(dsn.graph().has_edge(w[0], w[1]));
                    }
                }
            }
        }
    }

    #[test]
    fn avoid_overshoot_stays_within_routing_bound() {
        // The variant should stay within the same asymptotic envelope; use
        // a slightly relaxed 3.5p + r cap (MAIN may be longer, FINISH
        // shorter).
        let n = 252; // p = 8, r = 4
        let dsn = Dsn::new(n, 7).unwrap();
        let bound = (3.5 * 8.0) as usize + dsn.r();
        for s in 0..n {
            for t in 0..n {
                let tr = route_avoid_overshoot(&dsn, s, t).unwrap();
                assert!(tr.hops() <= bound, "{s}->{t}: {} > {bound}", tr.hops());
            }
        }
    }

    #[test]
    fn avoid_overshoot_shrinks_finish_on_average() {
        // Section V.D: "will help to reduce a lot in the FINISH, but may
        // prolong the MAIN-PROCESS".
        let dsn = Dsn::new(256, 7).unwrap();
        let (mut fin_basic, mut fin_avoid) = (0usize, 0usize);
        let (mut main_basic, mut main_avoid) = (0usize, 0usize);
        for s in (0..256).step_by(3) {
            for t in (0..256).step_by(7) {
                let b = route(&dsn, s, t).unwrap();
                let a = route_avoid_overshoot(&dsn, s, t).unwrap();
                fin_basic += b.hops_in(RoutePhase::Finish);
                fin_avoid += a.hops_in(RoutePhase::Finish);
                main_basic += b.hops_in(RoutePhase::Main);
                main_avoid += a.hops_in(RoutePhase::Main);
            }
        }
        assert!(
            fin_avoid <= fin_basic,
            "FINISH should shrink: {fin_avoid} vs {fin_basic}"
        );
        assert!(
            main_avoid >= main_basic,
            "MAIN expected to grow or stay: {main_avoid} vs {main_basic}"
        );
    }

    #[test]
    fn dsnv_state_bits_roundtrip() {
        for phase in [RoutePhase::PreWork, RoutePhase::Main, RoutePhase::Finish] {
            for crossed in [false, true] {
                let st = DsnvState { phase, crossed };
                assert_eq!(DsnvState::from_bits(st.to_bits()), st);
            }
        }
    }

    #[test]
    fn out_of_range_rejected() {
        let dsn = Dsn::new(64, 5).unwrap();
        for f in [route, route_avoid_overshoot] {
            assert_eq!(f(&dsn, 64, 0), Err(RouteError::NodeOutOfRange(64)));
            assert_eq!(f(&dsn, 0, 99), Err(RouteError::NodeOutOfRange(99)));
        }
    }
}
