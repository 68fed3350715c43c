//! The one independent statement of the paper's Fig. 2 routing.
//!
//! The library decides every hop in one automaton step
//! (`dsn_routing::dsnv_step`), which the simulator's table-free router and
//! the test-side spec simulator also call, so they cannot disagree with
//! each other. This file keeps Fig. 2 and its Section V.D variant as the
//! three phase loops they are written as in the paper, sharing no code
//! with the step, and checks the library's traces and DSN-V virtual
//! channels against them: over every ordered pair up to 252 switches, and
//! on a stride sample of pairs at the simulated 1020 and 2046.

use dsn_core::dsn::Dsn;
use dsn_core::NodeId;
use dsn_route::deadlock::{dsnv_avoid_overshoot_channels, dsnv_route_channels};
use dsn_route::{route, route_avoid_overshoot, RouteError, RoutePhase, RouteStep, RouteTrace};

/// Fig. 2 as three loops: PRE-WORK, MAIN-PROCESS, FINISH.
fn frozen_route(dsn: &Dsn, s: NodeId, t: NodeId) -> Result<RouteTrace, RouteError> {
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
    if s == t {
        return Ok(trace);
    }

    let p = dsn.p() as usize;
    let x = dsn.x();
    // Generous cap: PRE-WORK <= p, MAIN <= 2p + overshoot, FINISH can be
    // long for small x (up to n / 2^x), so cap at the trivially safe 4n.
    let cap = 4 * n;
    let mut u = s;

    let push = |trace: &mut RouteTrace, v: NodeId, step: RouteStep, phase: RoutePhase| {
        trace.path.push(v);
        trace.steps.push(step);
        trace.phases.push(phase);
    };

    // PRE-WORK: move pred while our level is below the required height
    // (numerically: level greater than required level).
    loop {
        let d = dsn.cw_dist(u, t);
        if d == 0 {
            return Ok(trace);
        }
        let l = dsn.required_level(d);
        if dsn.level(u) <= l {
            break;
        }
        u = dsn.pred(u);
        push(&mut trace, u, RouteStep::Pred, RoutePhase::PreWork);
        if trace.steps.len() > cap {
            return Err(RouteError::StepCapExceeded { s, t, cap });
        }
    }

    // MAIN-PROCESS: shortcut when level matches, otherwise succ.
    loop {
        let d = dsn.cw_dist(u, t);
        if d == 0 {
            return Ok(trace);
        }
        if d <= p {
            break; // close enough; leave the rest to FINISH
        }
        let lu = dsn.level(u);
        if lu > x {
            // The paper writes this stop condition as "l_u = x + 1"; for
            // small x the current level can also sit above x + 1 right
            // after PRE-WORK, so test the general form.
            break; // no shortcut at this level
        }
        let l = dsn.required_level(d);
        if lu == l {
            let target = dsn
                .shortcut(u)
                .expect("level <= x nodes always own a shortcut");
            let jump = dsn.cw_dist(u, target);
            let overshoot = jump > d;
            u = target;
            push(&mut trace, u, RouteStep::Shortcut, RoutePhase::Main);
            if overshoot {
                trace.overshoot = true;
                break;
            }
        } else {
            u = dsn.succ(u);
            push(&mut trace, u, RouteStep::Succ, RoutePhase::Main);
        }
        if trace.steps.len() > cap {
            return Err(RouteError::StepCapExceeded { s, t, cap });
        }
    }

    // FINISH: local walk. If the last shortcut overshot, walk back via
    // pred; otherwise walk forward via succ.
    while u != t {
        let d = dsn.cw_dist(u, t);
        let back = dsn.cw_dist(t, u);
        if d <= back {
            u = dsn.succ(u);
            push(&mut trace, u, RouteStep::Succ, RoutePhase::Finish);
        } else {
            u = dsn.pred(u);
            push(&mut trace, u, RouteStep::Pred, RoutePhase::Finish);
        }
        if trace.steps.len() > cap {
            return Err(RouteError::StepCapExceeded { s, t, cap });
        }
    }

    Ok(trace)
}

/// The Section V.D *overshoot-avoiding* routing variant: when the selected
/// shortcut would overshoot the destination, step to the successor and use
/// its (shorter, next-level) shortcut instead. The returned trace never
/// overshoots, so FINISH only ever walks forward — at the cost of a
/// possibly longer MAIN-PROCESS, exactly the trade-off the paper predicts.
fn frozen_route_avoid_overshoot(dsn: &Dsn, s: NodeId, t: NodeId) -> Result<RouteTrace, RouteError> {
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
    if s == t {
        return Ok(trace);
    }
    let p = dsn.p() as usize;
    let x = dsn.x();
    let cap = 4 * n;
    let mut u = s;

    let push = |trace: &mut RouteTrace, v: NodeId, step: RouteStep, phase: RoutePhase| {
        trace.path.push(v);
        trace.steps.push(step);
        trace.phases.push(phase);
    };

    // PRE-WORK: identical to the basic algorithm.
    loop {
        let d = dsn.cw_dist(u, t);
        if d == 0 {
            return Ok(trace);
        }
        let l = dsn.required_level(d);
        if dsn.level(u) <= l {
            break;
        }
        u = dsn.pred(u);
        push(&mut trace, u, RouteStep::Pred, RoutePhase::PreWork);
        if trace.steps.len() > cap {
            return Err(RouteError::StepCapExceeded { s, t, cap });
        }
    }

    // MAIN: take any non-overshooting shortcut at or above the required
    // level; otherwise step succ (which also walks past overshooting
    // shortcuts onto the next, shorter one — the Section V.D twist).
    loop {
        let d = dsn.cw_dist(u, t);
        if d == 0 {
            return Ok(trace);
        }
        if d <= p {
            break;
        }
        let lu = dsn.level(u);
        if lu > x {
            break;
        }
        let l = dsn.required_level(d);
        let jump_ok = lu >= l && dsn.shortcut(u).is_some_and(|sc| dsn.cw_dist(u, sc) <= d);
        if jump_ok {
            let target = dsn.shortcut(u).expect("checked above");
            u = target;
            push(&mut trace, u, RouteStep::Shortcut, RoutePhase::Main);
        } else {
            u = dsn.succ(u);
            push(&mut trace, u, RouteStep::Succ, RoutePhase::Main);
        }
        if trace.steps.len() > cap {
            return Err(RouteError::StepCapExceeded { s, t, cap });
        }
    }

    // FINISH: forward-only by construction.
    while u != t {
        u = dsn.succ(u);
        push(&mut trace, u, RouteStep::Succ, RoutePhase::Finish);
        if trace.steps.len() > cap {
            return Err(RouteError::StepCapExceeded { s, t, cap });
        }
    }
    Ok(trace)
}

/// DSN-V virtual channel of each hop of `tr`: VC 0 for PRE-WORK, 1 for
/// MAIN, and for FINISH 2 until a hop crosses the ring's 0/n-1 dateline in
/// either direction, 3 from that hop on.
fn frozen_dsnv_vcs(n: usize, tr: &RouteTrace) -> Vec<u8> {
    let mut crossed = false;
    let mut out = Vec::with_capacity(tr.steps.len());
    for (i, w) in tr.path.windows(2).enumerate() {
        let (prev, cur) = (w[0], w[1]);
        out.push(match tr.phases[i] {
            RoutePhase::PreWork => 0,
            RoutePhase::Main => 1,
            RoutePhase::Finish => {
                if (prev == n - 1 && cur == 0) || (prev == 0 && cur == n - 1) {
                    crossed = true;
                }
                if crossed {
                    3
                } else {
                    2
                }
            }
        });
    }
    out
}

/// Check `route`, `route_avoid_overshoot` and both DSN-V channel walkers
/// against the phase loops for one pair: the traces must be equal, and
/// each walker's channels must run along the loop's path on its VCs.
fn check_pair(dsn: &Dsn, s: NodeId, t: NodeId) {
    let n = dsn.n();
    let x = dsn.x();
    let basic = (
        "Fig. 2",
        frozen_route(dsn, s, t).unwrap(),
        route(dsn, s, t).unwrap(),
        dsnv_route_channels(dsn, s, t),
    );
    let avoid = (
        "V.D",
        frozen_route_avoid_overshoot(dsn, s, t).unwrap(),
        route_avoid_overshoot(dsn, s, t).unwrap(),
        dsnv_avoid_overshoot_channels(dsn, s, t),
    );
    for (rule, want, got, channels) in [basic, avoid] {
        let ctx = format!("{rule} n={n} x={x} {s}->{t}");
        assert_eq!(got, want, "{ctx}");
        let vcs: Vec<u8> = channels.iter().map(|&(_, vc)| vc).collect();
        assert_eq!(vcs, frozen_dsnv_vcs(n, &want), "{ctx}");
        let hops: Vec<(NodeId, NodeId)> = channels
            .iter()
            .map(|&(ch, _)| dsn.graph().channel_endpoints(ch))
            .collect();
        let path: Vec<(NodeId, NodeId)> = want.path.windows(2).map(|w| (w[0], w[1])).collect();
        assert_eq!(hops, path, "{ctx}");
    }
}

#[test]
fn route_and_avoid_overshoot_match_the_phase_loops_all_pairs() {
    // Complete and incomplete final super nodes (r = 0 at 30, 126, 252),
    // with the paper's x = p - 1 and the long-FINISH x = 1.
    for &n in &[30usize, 64, 100, 126, 252] {
        let p = dsn_core::util::ceil_log2(n);
        for x in [p - 1, 1] {
            let dsn = Dsn::new(n, x).unwrap();
            for s in 0..n {
                for t in 0..n {
                    check_pair(&dsn, s, t);
                }
            }
        }
    }
}

#[test]
fn route_and_avoid_overshoot_match_the_phase_loops_sampled_large() {
    // The simulated scales: DSN-9-1020 (Fig. 7) and DSN-10-2046, the
    // largest instance the saturation runs route table-free, on a
    // stride sample of pairs.
    for dsn in [Dsn::new_clean(1024).unwrap(), Dsn::new(2046, 10).unwrap()] {
        let n = dsn.n();
        for s in (0..n).step_by(37) {
            for t in (0..n).step_by(23) {
                check_pair(&dsn, s, t);
            }
        }
    }
}
