//! Bit-equivalence gate for the fault-injection subsystem: under every
//! fault schedule shape (single link, correlated burst, flapping link,
//! switch death), every salvage policy and every retry policy, the
//! engine must reproduce the spec simulator's `RunStats` (`common/spec.rs`)
//! *exactly* — drop/salvage/retry counters and post-fault latency floats
//! included. The comparison is `assert_eq!` on the whole struct, so any
//! new `RunStats` field is automatically covered.

use dsn_core::dln::Dln;
use dsn_core::dsn::Dsn;
use dsn_core::torus::Torus;
use dsn_sim::{
    AdaptiveEscape, DsnAlgorithmic, FaultKind, FaultPlan, RetryPolicy, RoutingCache, SalvagePolicy,
    SimConfig, SimRouting, Simulator, Switching, TrafficPattern, UpDownRouting, Workload,
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
fn single_link_dsn_adaptive_both_policies() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg0 = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg0.vcs));
    for policy in [SalvagePolicy::Drop, SalvagePolicy::Salvage] {
        let cfg = SimConfig {
            fault_plan: FaultPlan::single_link(5, 900).with_salvage(policy),
            ..cfg0.clone()
        };
        let stats = assert_engine_matches_spec(
            g.clone(),
            cfg,
            routing.clone(),
            open(0.02),
            42,
            &format!("dsn64 adaptive single-link salvage={}", policy.name()),
        );
        assert!(stats.delivered_packets > 0);
    }
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
fn single_link_torus_updown_salvage() {
    let g = Arc::new(Torus::new(&[4, 4]).unwrap().into_graph());
    let cfg = SimConfig {
        fault_plan: FaultPlan::single_link(2, 700).with_salvage(SalvagePolicy::Salvage),
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
fn burst_dsn_adaptive_both_policies() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg0 = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg0.vcs));
    for policy in [SalvagePolicy::Drop, SalvagePolicy::Salvage] {
        let cfg = SimConfig {
            fault_plan: FaultPlan::burst(&[4, 11, 30, 57], 850)
                .with_salvage(policy)
                .with_retry(RetryPolicy::new(2, 120, 60)),
            ..cfg0.clone()
        };
        let stats = assert_engine_matches_spec(
            g.clone(),
            cfg,
            routing.clone(),
            open(0.025),
            23,
            &format!("dsn64 adaptive burst salvage={}", policy.name()),
        );
        assert!(stats.delivered_packets > 0);
    }
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

#[test]
fn flap_torus_adaptive() {
    let g = Arc::new(Torus::new(&[4, 4]).unwrap().into_graph());
    let cfg = SimConfig {
        fault_plan: FaultPlan::flap(1, 500, 300, 4).with_salvage(SalvagePolicy::Salvage),
        ..cfg()
    };
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    assert_engine_matches_spec(g, cfg, routing, open(0.012), 31, "torus4x4 adaptive flap");
}

// ---------------------------------------------------------------------
// Switch death, seeded-random schedules, and closed workloads.
// ---------------------------------------------------------------------

#[test]
fn switch_down_and_recovery_dsn_adaptive() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg0 = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg0.vcs));
    let cfg = SimConfig {
        fault_plan: FaultPlan::none()
            .with_event(700, FaultKind::SwitchDown(10))
            .with_event(1_900, FaultKind::SwitchUp(10))
            .with_retry(RetryPolicy::new(3, 150, 80)),
        ..cfg0
    };
    let stats = assert_engine_matches_spec(
        g,
        cfg,
        routing,
        open(0.02),
        37,
        "dsn64 adaptive switch bounce",
    );
    assert!(
        stats.dropped_packets_all_time > 0,
        "a dying switch at load must drop residents"
    );
}

/// Switch deaths at load, with retries, under both escape styles. A dying
/// switch's purge and every later unroutable drop free output VCs and hand
/// credits back mid-cycle, so the engine's allocation walk must keep the
/// wake-up marks set while it runs, and a purge's VC release must wake
/// its switch. The seeds are ones where a walk that clears those marks, or
/// a purge that releases without waking, diverges from the spec.
/// One test per switching mode, so they run in parallel.
fn switch_deaths_at_load(switching: Switching) {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = SimConfig {
        switching,
        drain_cycles: 1_000,
        fault_plan: FaultPlan::none()
            .with_event(700, FaultKind::SwitchDown(3))
            .with_event(1_500, FaultKind::SwitchDown(30))
            .with_event(2_100, FaultKind::SwitchUp(3))
            .with_retry(RetryPolicy::new(3, 150, 80)),
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
                    &format!("dsn64 {switching:?} {name} switch deaths rate={rate} seed={seed}"),
                );
            }
        }
    }
}

#[test]
fn switch_deaths_at_load_vct() {
    switch_deaths_at_load(Switching::VirtualCutThrough);
}

#[test]
fn switch_deaths_at_load_wormhole() {
    switch_deaths_at_load(Switching::Wormhole);
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
/// with a seeded connectivity-preserving schedule, salvage and retries all
/// on — one named test so the workflow can run exactly this gate.
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
        .with_salvage(SalvagePolicy::Salvage)
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
