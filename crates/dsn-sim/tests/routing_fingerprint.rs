//! Pinned `RunStats` fingerprints for the DSN-native routing schemes: the
//! DSN-V custom routing with one and two lanes per VC class (fault-free,
//! under a dead link and under a flapping link, always with retries), the
//! unsafe single-class basic routing at a load where it wedges, and the
//! minimal-adaptive scheme with its DSN-V escape layer.
//!
//! Every scenario runs on both engines, which must agree on the whole
//! `RunStats`; the pins then fix the routing semantics themselves, so a
//! refactor of a router that changes a single hop or VC choice fails here.
//! The pins were recorded with the earlier materialized-path DSN-V router
//! (every packet carried its whole route) and the per-sojourn path cache
//! of the minimal-adaptive escape; the table-free automaton reproduces
//! them.
//! The digest is FNV-1a over the `Debug` rendering of the whole struct
//! (floats render as their shortest round-trip decimal, so the digest is
//! as exact as `to_bits()`).
//!
//! If a deliberate semantic change lands, regenerate the pins with:
//! `cargo test --release -p dsn-sim --test routing_fingerprint -- --nocapture`
//! (each scenario prints its measured values before asserting).

use dsn_core::dsn::Dsn;
use dsn_core::graph::Graph;
use dsn_sim::{
    DsnAlgorithmic, EngineKind, FaultPlan, MinimalAdaptiveDsn, RetryPolicy, RunStats, SimConfig,
    SimRouting, Simulator, TrafficPattern,
};
use std::sync::Arc;

/// Pinned values of one scenario.
struct Pin {
    delivered: u64,
    dropped_all_time: u64,
    retried: u64,
    deadlock: bool,
    digest: u64,
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn dsn64() -> (Arc<Dsn>, Arc<Graph>) {
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    (dsn, g)
}

/// Short-horizon config (fast in debug builds) with `vcs` virtual channels.
fn cfg(vcs: u8, fault_plan: FaultPlan) -> SimConfig {
    SimConfig {
        vcs,
        warmup_cycles: 300,
        measure_cycles: 2_500,
        drain_cycles: 2_500,
        fault_plan,
        ..SimConfig::test_small()
    }
}

fn retry() -> RetryPolicy {
    RetryPolicy::new(2, 150, 50)
}

/// The three fault shapes every custom-routing variant is pinned under.
fn plans() -> [(&'static str, FaultPlan); 3] {
    [
        ("fault-free", FaultPlan::none().with_retry(retry())),
        (
            "single-link",
            FaultPlan::single_link(3, 900).with_retry(retry()),
        ),
        ("flap", FaultPlan::flap(3, 700, 400, 2).with_retry(retry())),
    ]
}

/// Run one scenario on both engines, demand identical stats, print the
/// measured fingerprint and compare it with the pin.
fn check(
    label: &str,
    g: &Arc<Graph>,
    cfg: SimConfig,
    routing: Arc<dyn SimRouting>,
    rate: f64,
    pin: &Pin,
) {
    let run = |engine| {
        Simulator::new(
            g.clone(),
            SimConfig {
                engine,
                ..cfg.clone()
            },
            routing.clone(),
            TrafficPattern::Uniform,
            rate,
            2024,
        )
        .run()
    };
    let dense: RunStats = run(EngineKind::Dense);
    let event = run(EngineKind::Event);
    assert_eq!(dense, event, "{label}: engines diverged");
    let digest = fnv1a(format!("{event:?}").as_bytes());
    println!(
        "{label}: delivered={} dropped_all_time={} retried={} deadlock={} digest={digest:#018x}",
        event.delivered_packets,
        event.dropped_packets_all_time,
        event.retried_packets,
        event.deadlock_suspected,
    );
    assert_eq!(event.delivered_packets, pin.delivered, "{label}: delivered");
    assert_eq!(
        event.dropped_packets_all_time, pin.dropped_all_time,
        "{label}: dropped"
    );
    assert_eq!(event.retried_packets, pin.retried, "{label}: retried");
    assert_eq!(event.deadlock_suspected, pin.deadlock, "{label}: deadlock");
    assert_eq!(digest, pin.digest, "{label}: RunStats digest");
}

/// DSN-V custom routing, one lane per class (4 VCs).
#[test]
fn dsnv_one_lane_matches_pins() {
    let (dsn, g) = dsn64();
    let pins = [
        Pin {
            delivered: 4651,
            dropped_all_time: 0,
            retried: 0,
            deadlock: false,
            digest: 0x06dd3de3ecd67128,
        },
        Pin {
            delivered: 4651,
            dropped_all_time: 2,
            retried: 2,
            deadlock: false,
            digest: 0x72083cdca6722c03,
        },
        Pin {
            delivered: 4651,
            dropped_all_time: 1,
            retried: 1,
            deadlock: false,
            digest: 0x929a693d262804d3,
        },
    ];
    let routing: Arc<dyn SimRouting> = Arc::new(DsnAlgorithmic::new(dsn));
    for ((name, plan), pin) in plans().into_iter().zip(&pins) {
        let label = format!("dsnv lanes=1 {name}");
        check(&label, &g, cfg(4, plan), routing.clone(), 0.03, pin);
    }
}

/// DSN-V custom routing, two lanes per class (8 VCs).
#[test]
fn dsnv_two_lanes_matches_pins() {
    let (dsn, g) = dsn64();
    let pins = [
        Pin {
            delivered: 6314,
            dropped_all_time: 0,
            retried: 0,
            deadlock: false,
            digest: 0x0e578e594ebf7bfb,
        },
        Pin {
            delivered: 6314,
            dropped_all_time: 0,
            retried: 0,
            deadlock: false,
            digest: 0x4c2f12c8e213a5ee,
        },
        Pin {
            delivered: 6314,
            dropped_all_time: 2,
            retried: 2,
            deadlock: false,
            digest: 0x9faa903389d2c8c5,
        },
    ];
    let routing: Arc<dyn SimRouting> = Arc::new(DsnAlgorithmic::new(dsn).with_lanes(2));
    for ((name, plan), pin) in plans().into_iter().zip(&pins) {
        let label = format!("dsnv lanes=2 {name}");
        check(&label, &g, cfg(8, plan), routing.clone(), 0.04, pin);
    }
}

/// The single-class basic routing wedges under load (its CDG is cyclic).
#[test]
fn basic_single_vc_wedges_at_pinned_stats() {
    let (dsn, g) = dsn64();
    let pin = Pin {
        delivered: 160,
        dropped_all_time: 0,
        retried: 0,
        deadlock: true,
        digest: 0xeda8a799dd64995d,
    };
    let routing: Arc<dyn SimRouting> = Arc::new(DsnAlgorithmic::basic_single_vc(dsn));
    check(
        "basic 1vc",
        &g,
        cfg(1, FaultPlan::none()),
        routing,
        0.03,
        &pin,
    );
}

/// Minimal-adaptive hops over the DSN-V escape layer, 8 VCs, at a load
/// high enough that packets fall back to the escape.
#[test]
fn minimal_adaptive_dsn_matches_pins() {
    let (dsn, g) = dsn64();
    let pin = Pin {
        delivered: 23862,
        dropped_all_time: 0,
        retried: 0,
        deadlock: false,
        digest: 0x98fdffbf64eab931,
    };
    let routing: Arc<dyn SimRouting> = Arc::new(MinimalAdaptiveDsn::new(dsn, 8));
    check(
        "min-adaptive 8vc",
        &g,
        cfg(8, FaultPlan::none()),
        routing,
        0.15,
        &pin,
    );
}
