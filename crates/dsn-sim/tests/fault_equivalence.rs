//! Bit-equivalence gate for the fault-injection subsystem: under every
//! fault schedule shape (single link, correlated burst, flapping link,
//! a switch cut off by all its links) and every retry policy, the engine
//! must reproduce the spec simulator's `RunStats` (`common/spec.rs`)
//! *exactly* — drop/retry counters and post-fault latency floats
//! included. The comparison is `assert_eq!` on the whole struct, so any
//! new `RunStats` field is automatically covered.

use dsn_core::dln::Dln;
use dsn_core::dsn::Dsn;
use dsn_core::graph::Graph;
use dsn_core::torus::Torus;
use dsn_sim::{
    AdaptiveEscape, DsnAlgorithmic, FaultKind, FaultPlan, RetryPolicy, RoutingCache, SimConfig,
    SimRouting, Simulator, Switching, TrafficPattern, UpDownRouting, Workload,
};
use std::sync::Arc;

mod common;
use common::assert_engine_matches_spec;

/// Short-horizon config so the spec simulator stays fast in debug builds.
fn cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 300,
        measure_cycles: 2_500,
        drain_cycles: 2_500,
        ..SimConfig::test_small()
    }
}

fn open(rate: f64) -> Workload {
    Workload::Open {
        pattern: TrafficPattern::Uniform,
        packets_per_cycle_per_host: rate,
    }
}

// ---------------------------------------------------------------------
// Scripted single-link schedules across the topology × routing matrix.
// ---------------------------------------------------------------------

#[test]
fn single_link_dsn_adaptive() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg0 = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg0.vcs));
    let cfg = SimConfig {
        fault_plan: FaultPlan::single_link(5, 900),
        ..cfg0
    };
    let stats = assert_engine_matches_spec(
        g,
        cfg,
        routing,
        open(0.02),
        42,
        "dsn64 adaptive single-link",
    );
    assert!(stats.delivered_packets > 0);
}

#[test]
fn single_link_dsn_updown_with_retries() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg0 = cfg();
    let routing = Arc::new(UpDownRouting::new(g.clone(), cfg0.vcs));
    for retry in [RetryPolicy::disabled(), RetryPolicy::new(3, 200, 100)] {
        let cfg = SimConfig {
            fault_plan: FaultPlan::single_link(7, 800).with_retry(retry),
            ..cfg0.clone()
        };
        assert_engine_matches_spec(
            g.clone(),
            cfg,
            routing.clone(),
            open(0.015),
            7,
            &format!("dsn64 up*/down* single-link retries={}", retry.max_retries),
        );
    }
}

#[test]
fn single_link_dsn_custom_routing() {
    // DSN-V custom routing: packets whose automaton points at the dead
    // link detour via the greedy masked-distance ring fallback.
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let routing = Arc::new(DsnAlgorithmic::new(dsn));
    let cfg = SimConfig {
        vcs: 4,
        fault_plan: FaultPlan::single_link(3, 900).with_retry(RetryPolicy::new(2, 150, 50)),
        ..cfg()
    };
    assert_engine_matches_spec(g, cfg, routing, open(0.01), 11, "dsn64 DSN-V single-link");
}

#[test]
fn single_link_torus_updown() {
    let g = Arc::new(Torus::new(&[4, 4]).unwrap().into_graph());
    let cfg = SimConfig {
        fault_plan: FaultPlan::single_link(2, 700),
        ..cfg()
    };
    let routing = Arc::new(UpDownRouting::new(g.clone(), cfg.vcs));
    assert_engine_matches_spec(
        g,
        cfg,
        routing,
        open(0.012),
        13,
        "torus4x4 up*/down* single-link",
    );
}

#[test]
fn single_link_dln_adaptive() {
    let g = Arc::new(Dln::new(64, 2).unwrap().into_graph());
    let cfg0 = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg0.vcs));
    let cfg = SimConfig {
        fault_plan: FaultPlan::single_link(9, 1_000),
        ..cfg0
    };
    assert_engine_matches_spec(
        g,
        cfg,
        routing,
        open(0.015),
        17,
        "dln64 adaptive single-link",
    );
}

// ---------------------------------------------------------------------
// Correlated bursts and flapping links.
// ---------------------------------------------------------------------

#[test]
fn burst_dsn_adaptive() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg0 = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg0.vcs));
    let cfg = SimConfig {
        fault_plan: FaultPlan::burst(&[4, 11, 30, 57], 850)
            .with_retry(RetryPolicy::new(2, 120, 60)),
        ..cfg0
    };
    let stats =
        assert_engine_matches_spec(g, cfg, routing, open(0.025), 23, "dsn64 adaptive burst");
    assert!(stats.delivered_packets > 0);
}

#[test]
fn flap_dsn_updown() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg0 = cfg();
    let routing = Arc::new(UpDownRouting::new(g.clone(), cfg0.vcs));
    let cfg = SimConfig {
        fault_plan: FaultPlan::flap(6, 600, 400, 3).with_retry(RetryPolicy::new(4, 100, 50)),
        ..cfg0
    };
    assert_engine_matches_spec(g, cfg, routing, open(0.015), 29, "dsn64 up*/down* flap");
}

#[test]
fn flap_dsn_custom_routing_with_and_without_cache() {
    // Each time the flap clears, the survivor mask fingerprints to the
    // pristine epoch while detoured packets are still in flight. A shared
    // cache holding the pristine DSN-V entry must not hand it back: the
    // run must match the uncached one exactly.
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let cfg = SimConfig {
        vcs: 4,
        fault_plan: FaultPlan::flap(3, 700, 400, 2).with_retry(RetryPolicy::new(2, 150, 50)),
        ..cfg()
    };
    let routing: Arc<dyn SimRouting> = Arc::new(DsnAlgorithmic::new(dsn.clone()));
    let uncached = assert_engine_matches_spec(
        g.clone(),
        cfg.clone(),
        routing.clone(),
        open(0.03),
        13,
        "dsn64 DSN-V flap",
    );
    let cache = Arc::new(RoutingCache::new());
    let pristine = cache.get_or_build(&g, &routing.scheme_key(), || {
        Arc::new(DsnAlgorithmic::new(dsn.clone()))
    });
    let cached = Simulator::with_workload(g.clone(), cfg.clone(), pristine, open(0.03), 13)
        .with_routing_cache(cache.clone())
        .run();
    assert_eq!(cached, uncached, "cache changed the run");
    assert!(cache.hits() >= 1, "the rebuild chain never hit");
}

/// Tight buffers under many link flaps at load: twelve links flap eight
/// times each, so fault purges land while input VCs hold several packets.
/// A wormhole VC one flit longer than a packet holds the tail of one
/// packet and the head of the next, a cut-through VC of the same size the
/// last flit of one while the next streams in, and a cut-through VC of
/// two packets plus a flit a blocked whole packet with the next arriving
/// behind it. Purges then hit partly sent fronts and partly arrived backs
/// of the packet rings.
#[test]
fn flapping_links_purge_partial_packets_in_tight_buffers() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let pf = cfg().packet_flits;
    let flaps = (0..12u64).fold(FaultPlan::none(), |plan, k| {
        let (edge, first_down) = (5 * k as usize + 1, 600 + 53 * k);
        (0..8).fold(plan, |plan, f| {
            let down = first_down + 300 * f;
            plan.with_event(down, FaultKind::LinkDown(edge))
                .with_event(down + 150, FaultKind::LinkUp(edge))
        })
    });
    for (switching, buffer_flits) in [
        (Switching::Wormhole, pf + 1),
        (Switching::VirtualCutThrough, pf + 1),
        (Switching::VirtualCutThrough, 2 * pf + 1),
    ] {
        let cfg = SimConfig {
            switching,
            buffer_flits,
            fault_plan: flaps.clone().with_retry(RetryPolicy::new(3, 100, 50)),
            ..cfg()
        };
        let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
        let stats = assert_engine_matches_spec(
            g.clone(),
            cfg,
            routing,
            open(0.05),
            61,
            &format!("dsn64 adaptive {switching:?} {buffer_flits}-flit buffers, 12 flapping links"),
        );
        assert!(
            stats.dropped_packets_all_time > 0,
            "the flaps must drop packets"
        );
    }
}

#[test]
fn flap_torus_adaptive() {
    let g = Arc::new(Torus::new(&[4, 4]).unwrap().into_graph());
    let cfg = SimConfig {
        fault_plan: FaultPlan::flap(1, 500, 300, 4),
        ..cfg()
    };
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    assert_engine_matches_spec(g, cfg, routing, open(0.012), 31, "torus4x4 adaptive flap");
}

// ---------------------------------------------------------------------
// Cut-off switches, seeded-random schedules, and closed workloads.
// ---------------------------------------------------------------------

/// Append one event of `kind` per incident link of switch `sw` at
/// `cycle`: `LinkDown` cuts the switch off, `LinkUp` brings it back.
fn all_links_of(
    plan: FaultPlan,
    g: &Graph,
    sw: usize,
    cycle: u64,
    kind: fn(usize) -> FaultKind,
) -> FaultPlan {
    g.neighbors(sw)
        .fold(plan, |plan, (_, e)| plan.with_event(cycle, kind(e)))
}

#[test]
fn switch_cut_off_and_rejoined_dsn_adaptive() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg0 = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg0.vcs));
    let plan = all_links_of(FaultPlan::none(), &g, 10, 700, FaultKind::LinkDown);
    let cfg = SimConfig {
        fault_plan: all_links_of(plan, &g, 10, 1_900, FaultKind::LinkUp)
            .with_retry(RetryPolicy::new(3, 150, 80)),
        ..cfg0
    };
    let stats = assert_engine_matches_spec(
        g,
        cfg,
        routing,
        open(0.02),
        37,
        "dsn64 adaptive switch cut off and rejoined",
    );
    assert!(
        stats.dropped_packets_all_time > 0,
        "a switch cut off at load must drop packets"
    );
}

/// Switches cut off at load, with retries, under both escape styles.
/// Packets stranded at a cut-off switch, or bound for one, become
/// unroutable; each such drop frees output VCs and hands credits back
/// mid-cycle, so the engine's allocation walk must keep the wake-up marks
/// set while it runs. One test per switching mode, so they run in
/// parallel.
fn switches_cut_off_at_load(switching: Switching) {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let plan = all_links_of(FaultPlan::none(), &g, 3, 700, FaultKind::LinkDown);
    let plan = all_links_of(plan, &g, 30, 1_500, FaultKind::LinkDown);
    let plan = all_links_of(plan, &g, 3, 2_100, FaultKind::LinkUp);
    let cfg = SimConfig {
        switching,
        drain_cycles: 1_000,
        fault_plan: plan.with_retry(RetryPolicy::new(3, 150, 80)),
        ..cfg()
    };
    let routings: [(&str, Arc<dyn SimRouting>); 2] = [
        (
            "adaptive",
            Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs)),
        ),
        (
            "up*/down*",
            Arc::new(UpDownRouting::new(g.clone(), cfg.vcs)),
        ),
    ];
    for (name, routing) in routings {
        for (rate, seeds) in [(0.05, [1, 2]), (0.2, [7, 8])] {
            for seed in seeds {
                assert_engine_matches_spec(
                    g.clone(),
                    cfg.clone(),
                    routing.clone(),
                    open(rate),
                    seed,
                    &format!("dsn64 {switching:?} {name} switches cut off rate={rate} seed={seed}"),
                );
            }
        }
    }
}

#[test]
fn switches_cut_off_at_load_vct() {
    switches_cut_off_at_load(Switching::VirtualCutThrough);
}

#[test]
fn switches_cut_off_at_load_wormhole() {
    switches_cut_off_at_load(Switching::Wormhole);
}

#[test]
fn seeded_random_connected_schedule() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg0 = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg0.vcs));
    let plan = FaultPlan::random_connected(&g, 0xFA11, 5, 600, 350)
        .with_retry(RetryPolicy::new(3, 150, 80));
    assert_eq!(plan.events.len(), 5, "dsn64 has links to spare");
    let cfg = SimConfig {
        fault_plan: plan,
        ..cfg0
    };
    assert_engine_matches_spec(g, cfg, routing, open(0.02), 41, "dsn64 random-connected x5");
}

#[test]
fn closed_batch_under_single_link() {
    // A closed all-to-all exchange with a mid-batch link death: the batch
    // completes once everything is delivered or definitively dropped, and
    // the engine and the spec agree on the makespan.
    let g = Arc::new(Dsn::new(16, 3).unwrap().into_graph());
    let mut cfg0 = cfg();
    cfg0.drain_cycles = 60_000;
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg0.vcs));
    let hosts = 16 * cfg0.hosts_per_switch;
    for retry in [RetryPolicy::disabled(), RetryPolicy::new(3, 200, 100)] {
        let cfg = SimConfig {
            fault_plan: FaultPlan::single_link(2, 150).with_retry(retry),
            ..cfg0.clone()
        };
        let stats = assert_engine_matches_spec(
            g.clone(),
            cfg,
            routing.clone(),
            Workload::all_to_all(hosts),
            3,
            &format!("dsn16 all-to-all faulted retries={}", retry.max_retries),
        );
        assert!(stats.completion_cycle.is_some(), "batch must resolve");
    }
}

/// CI smoke: a 30k-cycle faulted spec-vs-event check on a paper-sized DSN
/// with a seeded connectivity-preserving schedule and retries on — one
/// named test so the workflow can run exactly this gate.
#[test]
fn smoke_30k_faulted_spec_vs_event() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let mut cfg = SimConfig {
        warmup_cycles: 5_000,
        measure_cycles: 15_000,
        drain_cycles: 10_000,
        ..SimConfig::default()
    };
    cfg.fault_plan = FaultPlan::random_connected(&g, 2024, 4, 8_000, 3_000)
        .with_retry(RetryPolicy::new(3, 500, 250));
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let rate = cfg.packets_per_cycle_for_gbps(1.0);
    let stats = assert_engine_matches_spec(
        g,
        cfg,
        routing,
        open(rate),
        2024,
        "smoke dsn64-x5 30k cycles faulted",
    );
    assert!(stats.delivered_packets > 0);
    assert!(!stats.deadlock_suspected);
    assert!(stats.post_fault_delivered > 0, "post-fault traffic flowed");
}
