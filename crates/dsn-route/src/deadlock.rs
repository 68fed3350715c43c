//! Deadlock-free DSN routing — the paper's Section V.A / Theorem 3.
//!
//! The basic three-phase algorithm is *not* deadlock-free on a single
//! virtual channel: PRE-WORK and FINISH share `pred` channels, and FINISH
//! walks can chain into a cycle around the ring. The paper proposes two
//! remedies and we implement (and *verify*, via exhaustive channel-
//! dependency-graph construction) both:
//!
//! * **DSN-V** — virtual channels. We use a 4-VC scheme (conveniently
//!   matching the 4 VCs of the paper's simulator):
//!   VC0 = PRE-WORK `pred` hops, VC1 = MAIN `succ`/shortcut hops,
//!   VC2 = FINISH hops, VC3 = FINISH hops after crossing the ring's
//!   0/n-1 *dateline* in either direction. VC0→VC1→VC2→VC3 transitions are
//!   monotone; within VC0/VC1 the DSN level changes monotonically; within
//!   VC2 a cycle would have to cross the dateline, which bumps to VC3; and
//!   a VC3 FINISH segment is far too short (≤ p + r hops) to wrap again.
//!   This refines the paper's three-group argument into a scheme whose
//!   acyclicity we machine-check over every source/destination pair. The
//!   automaton step [`dsnv_step`](crate::dsn_routing::dsnv_step) assigns
//!   the VC with each hop.
//! * **DSN-E** — extra physical links instead of VCs: PRE-WORK rides the
//!   dedicated `Up` links, and FINISH hops that *land at* ids `<= 2p` ride
//!   the `Extra` links, so both the succ- and pred-direction ring-channel
//!   cycles are broken at the `0..2p` region, exactly in the spirit of
//!   Theorem 3's "use Extra links when available in the FINISH".
//!
//! Every per-pair channel sequence here comes from one walker over the
//! automaton's hops.

use crate::cdg::{Cdg, VirtualChannel};
use crate::dsn_routing::{walk, DsnvHop, RoutePhase, RouteStep, Rule};
use dsn_core::dsn::Dsn;
use dsn_core::dsn_ext::DsnE;
use dsn_core::graph::{Graph, LinkKind};
use dsn_core::NodeId;

/// Find the edge joining `a` and `b` whose kind satisfies `pred`, if any.
fn find_edge(g: &Graph, a: NodeId, b: NodeId, pred: impl Fn(LinkKind) -> bool) -> Option<usize> {
    g.neighbors(a)
        .find(|&(u, e)| u == b && pred(g.edge(e).kind))
        .map(|(_, e)| e)
}

/// Pick the physical edge realizing one basic-route hop.
fn edge_for_step(g: &Graph, prev: NodeId, cur: NodeId, step: RouteStep) -> usize {
    match step {
        RouteStep::Succ | RouteStep::Pred => {
            find_edge(g, prev, cur, |k| k == LinkKind::Ring).expect("ring link must exist")
        }
        RouteStep::Shortcut => {
            find_edge(g, prev, cur, |k| matches!(k, LinkKind::Shortcut { .. }))
                // On tiny rings a shortcut may have been deduped against a
                // ring link; fall back to any link joining the pair.
                .or_else(|| find_edge(g, prev, cur, |_| true))
                .expect("shortcut link must exist")
        }
    }
}

/// The channel walker: the `(channel, vc)` hops of the `rule` walk
/// `s -> t` over `g` (the DSN's graph or a supergraph of it). Each hop
/// rides the edge `lane(from, hop)` names, else the one
/// [`edge_for_step`] picks, on the hop's DSN-V VC capped at
/// `classes - 1`.
pub(crate) fn walk_channels<'a>(
    dsn: &'a Dsn,
    g: &'a Graph,
    s: NodeId,
    t: NodeId,
    rule: Rule,
    classes: u8,
    mut lane: impl FnMut(NodeId, &DsnvHop) -> Option<usize> + 'a,
) -> impl Iterator<Item = VirtualChannel> + 'a {
    let mut u = s;
    walk(dsn, s, t, rule).map(move |hop| {
        let edge = lane(u, &hop).unwrap_or_else(|| edge_for_step(g, u, hop.next, hop.step));
        let channel = (g.channel_id(edge, u), hop.vc.min(classes - 1));
        u = hop.next;
        channel
    })
}

/// Channel sequence of the *basic* routing on a single VC — used to show
/// the basic scheme is NOT deadlock-free (its CDG has cycles).
pub fn basic_route_channels(dsn: &Dsn, s: NodeId, t: NodeId) -> Vec<VirtualChannel> {
    walk_channels(dsn, dsn.graph(), s, t, Rule::Basic, 1, |_, _| None).collect()
}

/// Channel sequence of the DSN-V routing: basic path, 4-VC assignment.
pub fn dsnv_route_channels(dsn: &Dsn, s: NodeId, t: NodeId) -> Vec<VirtualChannel> {
    walk_channels(dsn, dsn.graph(), s, t, Rule::Basic, 4, |_, _| None).collect()
}

/// Channel sequence of the Section V.D overshoot-avoiding routing under
/// the same DSN-V 4-VC discipline. Its FINISH is forward-only, so the
/// pred-side dateline never triggers; the succ-side dateline still
/// protects the wrap. The tests CDG-verify acyclicity exhaustively.
pub fn dsnv_avoid_overshoot_channels(dsn: &Dsn, s: NodeId, t: NodeId) -> Vec<VirtualChannel> {
    walk_channels(dsn, dsn.graph(), s, t, Rule::AvoidOvershoot, 4, |_, _| None).collect()
}

/// Channel sequence of the DSN-E routing: basic path over the DSN-E graph,
/// single VC, with PRE-WORK on `Up` links and the Extra links acting as a
/// *dateline lane* for FINISH walks.
///
/// The Extra-link discipline matters. A naive "use Extra while inside
/// `0..2p`" still deadlocks, because FINISH walks of *different* routes
/// chain across the region and close a full-ring cycle (our CDG checker
/// finds it). Instead, Extra links carry only the hops a FINISH walk takes
/// *after crossing a dateline*:
///
/// * a forward (succ) walk crosses at the `n-1 -> 0` wrap and then rides
///   Extra; since a FINISH walk is at most `p + r < 2p` hops, it ends while
///   still inside the Extra zone and never re-enters the ring lane;
/// * a backward (pred) walk crosses at the `2p -> 2p-1` hop and then rides
///   Extra; it ends at id `>= p - r >= 1` (for `p | n`, at `>= p`), so it
///   never wraps past 0.
///
/// Every ring-direction dependency cycle must pass one of the two dateline
/// hops, and the post-crossing traffic lives on the Extra lane which no
/// other walk shares — so the CDG is acyclic, as the tests verify
/// exhaustively. Deadlock freedom is guaranteed for `p | n` (the paper's
/// own recommendation; an incomplete final super node lets MAIN-PROCESS
/// wrap the ring with a level decrease, which breaks the monotonicity that
/// keeps the MAIN group acyclic).
pub fn dsne_route_channels(dsne: &DsnE, s: NodeId, t: NodeId) -> Vec<VirtualChannel> {
    let dsn = dsne.base();
    let g = dsne.graph();
    let p = dsn.p() as usize;
    let n = dsn.n();
    let mut crossed = false;
    let lane = move |u: NodeId, hop: &DsnvHop| {
        let kind = match (hop.phase(), hop.step) {
            // PRE-WORK stays inside a super node, where Up links always
            // exist (levels >= 2 own one toward their pred).
            (RoutePhase::PreWork, RouteStep::Pred) => LinkKind::Up,
            (RoutePhase::Finish, step) => {
                crossed |= match step {
                    RouteStep::Succ => u == n - 1 && hop.next == 0,
                    RouteStep::Pred => u == 2 * p && hop.next + 1 == 2 * p,
                    RouteStep::Shortcut => false,
                };
                if !crossed {
                    return None;
                }
                LinkKind::Extra
            }
            _ => return None,
        };
        find_edge(g, u, hop.next, |k| k == kind)
    };
    walk_channels(dsn, g, s, t, Rule::Basic, 1, lane).collect()
}

/// Build the CDG of the given per-pair channel function over every ordered
/// pair of distinct nodes.
pub fn build_cdg(
    n: usize,
    mut channels_of: impl FnMut(NodeId, NodeId) -> Vec<VirtualChannel>,
) -> Cdg {
    let mut cdg = Cdg::new();
    for s in 0..n {
        for t in 0..n {
            if s != t {
                cdg.add_route(&channels_of(s, t));
            }
        }
    }
    cdg
}

/// CDG of basic single-VC DSN routing (expected cyclic).
pub fn basic_cdg(dsn: &Dsn) -> Cdg {
    build_cdg(dsn.n(), |s, t| basic_route_channels(dsn, s, t))
}

/// CDG of DSN-V routing (expected acyclic — Theorem 3).
pub fn dsnv_cdg(dsn: &Dsn) -> Cdg {
    build_cdg(dsn.n(), |s, t| dsnv_route_channels(dsn, s, t))
}

/// CDG of DSN-E routing over individual channels.
///
/// **Reproduction finding:** this fine-grained CDG is *not* acyclic, even
/// with the Up/Extra links and a dateline discipline: a cycle closes
/// through position-wrapping shortcuts (a level-l shortcut near the end of
/// the ring lands at a small id without using the ring wrap channel)
/// bridged by forward-FINISH hops whose head level wraps at super-node
/// boundaries. The paper's Theorem 3 argument operates on three *groups*
/// of links (Figure 6) and holds at that granularity — see
/// [`dsne_group_dependencies`] — but group-level acyclicity does not imply
/// channel-level acyclicity. The virtual-channel variant DSN-V
/// ([`dsnv_cdg`]) is acyclic at full channel granularity.
pub fn dsne_cdg(dsne: &DsnE) -> Cdg {
    build_cdg(dsne.n(), |s, t| dsne_route_channels(dsne, s, t))
}

/// The paper's own coarse CDG for DSN-E (Figure 6): vertices are the three
/// link groups — `Up`, `Succ + Shortcut`, `Pred + Extra` — and an arc
/// records that some route holds a channel of one group while requesting a
/// channel of another. Theorem 3 claims this graph has no cycle among
/// distinct groups; [`dsne_group_dependencies`] lets the tests verify that
/// inter-group dependencies only ever point "forward" (Up -> Main ->
/// Finish).
pub fn dsne_group_dependencies(dsne: &DsnE) -> Vec<(u8, u8)> {
    let g = dsne.graph();
    let group_of = |channel: usize| -> u8 {
        let edge = g.edge(channel / 2);
        let (from, to) = g.channel_endpoints(channel);
        match edge.kind {
            LinkKind::Up => 0,
            LinkKind::Shortcut { .. } => 1,
            LinkKind::Ring => {
                let n = g.node_count();
                let succ = to == (from + 1) % n;
                if succ {
                    1
                } else {
                    2
                }
            }
            LinkKind::Extra => 2,
            k => unreachable!("unexpected link kind {k} in DSN-E"),
        }
    };
    let mut deps: Vec<(u8, u8)> = Vec::new();
    let n = dsne.n();
    for s in 0..n {
        for t in 0..n {
            if s == t {
                continue;
            }
            let ch = dsne_route_channels(dsne, s, t);
            for w in ch.windows(2) {
                let a = group_of(w[0].0);
                let b = group_of(w[1].0);
                if a != b && !deps.contains(&(a, b)) {
                    deps.push((a, b));
                }
            }
        }
    }
    deps.sort_unstable();
    deps
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dsn_routing::route;

    #[test]
    fn basic_routing_has_cdg_cycles() {
        // The motivation for Section V.A: without VCs or extra links the
        // three-phase algorithm deadlocks.
        let dsn = Dsn::new(64, 5).unwrap();
        let cdg = basic_cdg(&dsn);
        assert!(
            cdg.find_cycle().is_some(),
            "basic single-VC DSN routing should exhibit a CDG cycle"
        );
    }

    #[test]
    fn theorem3_dsnv_acyclic() {
        // Complete super nodes (p | n), the paper's own recommendation: an
        // incomplete final super node lets MAIN wrap the ring with a level
        // decrease and reintroduces cycles.
        for &n in &[30usize, 60, 126, 248] {
            let p = dsn_core::util::ceil_log2(n);
            assert_eq!(
                n % p as usize,
                0,
                "test sizes must have complete super nodes"
            );
            let dsn = Dsn::new(n, p - 1).unwrap();
            let cdg = dsnv_cdg(&dsn);
            assert!(
                cdg.is_acyclic(),
                "DSN-V CDG must be acyclic for n = {n}; cycle: {:?}",
                cdg.find_cycle()
            );
        }
    }

    #[test]
    fn theorem3_dsne_group_level_acyclic() {
        // The paper's Figure 6 argument: inter-group dependencies only go
        // Up(0) -> Main(1) -> Finish(2). We verify that exhaustively.
        for &n in &[30usize, 60, 126] {
            let dsne = DsnE::new(n).unwrap();
            let deps = dsne_group_dependencies(&dsne);
            for &(a, b) in &deps {
                assert!(
                    a < b,
                    "n={n}: backward group dependency {a} -> {b}; all deps: {deps:?}"
                );
            }
        }
    }

    #[test]
    fn dsne_channel_level_cycle_exists() {
        // Reproduction finding: group-level acyclicity does NOT imply
        // channel-level acyclicity. The fine-grained CDG of DSN-E closes a
        // cycle through position-wrapping shortcuts bridged by
        // forward-FINISH hops. (DSN-V fixes this with its dateline VC.)
        let dsne = DsnE::new(30).unwrap();
        let cdg = dsne_cdg(&dsne);
        assert!(
            cdg.find_cycle().is_some(),
            "expected the documented fine-grained DSN-E cycle"
        );
    }

    #[test]
    fn dsne_routing_diameter_preserved() {
        // Theorem 3: the extended routing keeps routing diameter <= 3p + r
        // (the path is the same as the basic algorithm's, only the links
        // ridden differ).
        let dsne = DsnE::new(128).unwrap();
        let dsn = dsne.base();
        let bound = 3 * dsn.p() as usize + dsn.r();
        for s in 0..128 {
            for t in 0..128 {
                let ch = dsne_route_channels(&dsne, s, t);
                assert!(ch.len() <= bound, "{s}->{t}: {} > {bound}", ch.len());
            }
        }
    }

    #[test]
    fn dsnv_channel_count_matches_route_length() {
        let dsn = Dsn::new(64, 5).unwrap();
        for (s, t) in [(0usize, 33usize), (10, 3), (63, 0), (5, 6)] {
            let tr = route(&dsn, s, t).unwrap();
            let ch = dsnv_route_channels(&dsn, s, t);
            assert_eq!(ch.len(), tr.hops());
        }
    }

    #[test]
    fn dsnv_vcs_monotone_per_route() {
        let dsn = Dsn::new(100, 6).unwrap();
        for s in 0..100 {
            for t in 0..100 {
                if s == t {
                    continue;
                }
                let ch = dsnv_route_channels(&dsn, s, t);
                let mut prev_vc = 0u8;
                for &(_, vc) in &ch {
                    assert!(vc >= prev_vc, "{s}->{t}: VC regressed");
                    prev_vc = vc;
                }
            }
        }
    }

    #[test]
    fn avoid_overshoot_dsnv_discipline_acyclic() {
        // The Section V.D variant under the DSN-V VC discipline stays
        // deadlock-free (machine-checked).
        for &n in &[30usize, 60, 126] {
            let p = dsn_core::util::ceil_log2(n);
            let dsn = Dsn::new(n, p - 1).unwrap();
            let cdg = build_cdg(n, |s, t| dsnv_avoid_overshoot_channels(&dsn, s, t));
            assert!(
                cdg.is_acyclic(),
                "avoid-overshoot DSN-V CDG cyclic at n = {n}: {:?}",
                cdg.find_cycle()
            );
        }
    }

    #[test]
    fn every_channel_walk_chains_from_s_to_t() {
        // Each walker's channels are physical links laid end to end: the
        // first leaves s, each starts where the previous one ends, and the
        // last ends at t.
        for &n in &[30usize, 64, 100] {
            let dsn = Dsn::new(n, dsn_core::util::ceil_log2(n) - 1).unwrap();
            let dsne = DsnE::new(n).unwrap();
            for s in 0..n {
                for t in (0..n).filter(|&t| t != s) {
                    let walks = [
                        ("basic", dsn.graph(), basic_route_channels(&dsn, s, t)),
                        ("DSN-V", dsn.graph(), dsnv_route_channels(&dsn, s, t)),
                        (
                            "V.D",
                            dsn.graph(),
                            dsnv_avoid_overshoot_channels(&dsn, s, t),
                        ),
                        ("DSN-E", dsne.graph(), dsne_route_channels(&dsne, s, t)),
                    ];
                    for (name, g, channels) in walks {
                        assert!(!channels.is_empty(), "{name} n={n} {s}->{t}: no hop");
                        let mut at = s;
                        for (i, &(ch, _)) in channels.iter().enumerate() {
                            let (from, to) = g.channel_endpoints(ch);
                            assert_eq!(from, at, "{name} n={n} {s}->{t}: hop {i} leaves {from}");
                            at = to;
                        }
                        assert_eq!(at, t, "{name} n={n} {s}->{t}: ends at {at}");
                    }
                }
            }
        }
    }

    #[test]
    fn dsne_uses_up_links_in_prework() {
        let dsne = DsnE::new(64).unwrap();
        let g = dsne.graph();
        // Find a pair with nonempty PRE-WORK: s level high, long distance.
        // Node 5 has level 6 (p = 6); distance to 37 is 32 = n/2 -> l = 1.
        let ch = dsne_route_channels(&dsne, 5, 37);
        let first_kind = g.edge(ch[0].0 / 2).kind;
        assert_eq!(first_kind, LinkKind::Up, "PRE-WORK must ride Up links");
    }
}
