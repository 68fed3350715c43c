//! Bit-equivalence gate for table-free (algorithmic) DSN routing: the
//! [`DsnAlgorithmic`] scheme computes every hop from switch ids and the
//! DSN level structure through per-node channel LUTs, and must be
//! indistinguishable — every `RunStats` counter and float — from the
//! test-side [`RefDsnv`] reference (which resolves each `dsnv_step` to a
//! link by walking the graph), on the spec simulator and the engine, at
//! clean and non-clean
//! sizes, and across mid-run fault rebuilds (where it detours around dead
//! channels on the EdgeMask survivors).
//!
//! Its runs are pinned against the materialized DSN-V routes it replaced
//! in `tests/routing_fingerprint.rs`.
//!
//! Plus the large-n scale smoke: a spec (short-horizon) vs event
//! bit-equality run on DSN-9-1020, the first rung of the paper's full
//! Fig. 7 size range.

use dsn_core::dsn::Dsn;
use dsn_sim::{
    DsnAlgorithmic, FaultPlan, RetryPolicy, RunStats, SimConfig, SimRouting, TrafficPattern,
    Workload,
};
use std::sync::Arc;

mod common;
use common::{RefDsnv, Sim};

/// Short-horizon config so the matrix stays fast in debug builds. DSN-V
/// needs the paper's 4 VCs.
fn cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 300,
        measure_cycles: 2_500,
        drain_cycles: 2_500,
        vcs: 4,
        ..SimConfig::test_small()
    }
}

fn open(rate: f64) -> Workload {
    Workload::Open {
        pattern: TrafficPattern::Uniform,
        packets_per_cycle_per_host: rate,
    }
}

/// Run the identical scenario with DSN-V from `dsn` and with its
/// reference, on the spec and on the engine, and demand bit-identical
/// stats from all four runs.
fn assert_matches_reference(
    dsn: Arc<Dsn>,
    cfg: SimConfig,
    workload: Workload,
    seed: u64,
    label: &str,
) -> RunStats {
    let g = Arc::new(dsn.graph().clone());
    let routing: Arc<dyn SimRouting> = Arc::new(DsnAlgorithmic::new(dsn.clone()));
    let mut runs = Vec::new();
    for sim in Sim::BOTH {
        let oracle = sim.run(&g, &cfg, RefDsnv::scheme(dsn.clone(), 1), &workload, seed);
        assert!(
            oracle.total_packets_all_time > 0,
            "{label} [{}]: vacuous scenario",
            sim.name()
        );
        let got = sim.run(&g, &cfg, routing.clone(), &workload, seed);
        assert_eq!(
            oracle,
            got,
            "{label} [{}]: diverged from the reference",
            sim.name()
        );
        runs.push(got);
    }
    assert_eq!(runs[0], runs[1], "{label}: engine diverged from the spec");
    runs.pop().unwrap()
}

#[test]
fn algorithmic_modes_agree_across_sizes() {
    // Clean (p | n) and non-clean sizes: the automaton covers the
    // incomplete-final-super-node geometry too.
    for (n, rate) in [(30usize, 0.01), (64, 0.006), (126, 0.004)] {
        let dsn = Arc::new(Dsn::new(n, dsn_core::util::ceil_log2(n) - 1).unwrap());
        assert_matches_reference(
            dsn,
            cfg(),
            open(rate),
            0xA16,
            &format!("dsn{n} algorithmic uniform"),
        );
    }
}

#[test]
fn fault_rebuild_falls_back_gracefully() {
    // Mid-run link death: the rebuilt scheme detours by its survivor port
    // masks, the reference by its own survivor distances.
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let mut cfg = cfg();
    cfg.fault_plan = FaultPlan::single_link(5, 900).with_retry(RetryPolicy::new(2, 150, 50));
    let stats = assert_matches_reference(
        dsn,
        cfg,
        open(0.008),
        0xFA17,
        "dsn64 algorithmic single-link fault",
    );
    assert!(stats.dropped_packets_all_time + stats.delivered_packets > 0);
}

#[test]
fn fault_flap_algorithmic() {
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let mut cfg = cfg();
    cfg.fault_plan = FaultPlan::flap(6, 600, 400, 3).with_retry(RetryPolicy::new(4, 100, 50));
    assert_matches_reference(
        dsn,
        cfg,
        open(0.006),
        0xF1A8,
        "dsn64 algorithmic flapping link",
    );
}

#[test]
fn smoke_1020_spec_vs_event() {
    // DSN-9-1020, the first rung of the paper's Fig. 7 scale: the spec
    // (short horizon) and the engine must agree bit-exactly with
    // table-free routing.
    let dsn = Arc::new(Dsn::new_clean(1024).unwrap());
    assert_eq!(dsn.n(), 1020);
    let g = Arc::new(dsn.graph().clone());
    let routing: Arc<dyn SimRouting> = Arc::new(DsnAlgorithmic::new(dsn));
    let cfg = SimConfig {
        warmup_cycles: 100,
        measure_cycles: 900,
        drain_cycles: 1_000,
        vcs: 4,
        ..SimConfig::test_small()
    };
    let workload = open(0.004);
    let seed = 0x1020;
    let expected = Sim::Spec.run(&g, &cfg, routing.clone(), &workload, seed);
    assert!(expected.delivered_packets > 0, "vacuous 1020 smoke");
    let got = Sim::Engine.run(&g, &cfg, routing, &workload, seed);
    assert_eq!(expected, got, "dsn1020: engine diverged from the spec");
}
