//! The static deadlock analysis and the dynamic simulator must agree: the
//! provably-cyclic single-VC basic DSN routing wedges under load, while the
//! provably-acyclic DSN-V discipline never stalls.

use dsn::core::dsn::Dsn;
use dsn::route::deadlock::{basic_cdg, dsnv_cdg};
use dsn::sim::{DsnAlgorithmic, SimConfig, Simulator, TrafficPattern};
use std::sync::Arc;

fn cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 10_000,
        drain_cycles: 10_000,
        ..SimConfig::default()
    }
}

fn run(dsn: &Arc<Dsn>, unsafe_mode: bool, gbps: f64) -> dsn::sim::RunStats {
    let graph = Arc::new(dsn.graph().clone());
    let cfg = cfg();
    let rate = cfg.packets_per_cycle_for_gbps(gbps);
    let routing: Arc<dyn dsn::sim::SimRouting> = if unsafe_mode {
        Arc::new(DsnAlgorithmic::basic_single_vc(dsn.clone()))
    } else {
        Arc::new(DsnAlgorithmic::new(dsn.clone()))
    };
    Simulator::new(graph, cfg, routing, TrafficPattern::Uniform, rate, 0xDEAD).run()
}

#[test]
fn static_and_dynamic_analyses_agree() {
    let dsn = Arc::new(Dsn::new(60, 5).unwrap());

    // Static: basic is cyclic, DSN-V is acyclic.
    assert!(basic_cdg(&dsn).find_cycle().is_some());
    assert!(dsnv_cdg(&dsn).is_acyclic());

    // Dynamic: under pressure the cyclic scheme wedges...
    let bad = run(&dsn, true, 4.0);
    assert!(
        bad.deadlock_suspected,
        "expected a deadlock; longest stall {} cycles, delivery {:.3}",
        bad.longest_stall_cycles,
        bad.delivery_ratio()
    );
    assert!(bad.delivery_ratio() < 0.5);

    // ... while DSN-V keeps making progress (it may saturate, but every
    // stall stays within normal pipeline waits).
    let good = run(&dsn, false, 4.0);
    assert!(
        !good.deadlock_suspected,
        "DSN-V stalled {} cycles",
        good.longest_stall_cycles
    );
    assert!(good.delivered_packets > 0);
}

#[test]
fn both_schemes_fine_at_trickle_load() {
    // At near-zero load even the unsafe scheme rarely forms the cycle in a
    // short run — deadlock is a congestion phenomenon.
    let dsn = Arc::new(Dsn::new(60, 5).unwrap());
    let bad = run(&dsn, true, 0.5);
    assert!(
        bad.delivery_ratio() > 0.9,
        "delivery {}",
        bad.delivery_ratio()
    );
}
