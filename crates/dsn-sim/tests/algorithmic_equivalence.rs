//! Bit-equivalence gate for table-free (algorithmic) DSN routing: the
//! [`DsnAlgorithmic`] scheme computes every hop from switch ids and the
//! DSN level structure, and must be indistinguishable — every `RunStats`
//! counter and float — from
//!
//! 1. its own 4-context compiled flat table (the engine's automatic
//!    choice below the table-free threshold vs the [`NoTables`] oracle),
//!    and
//! 2. itself across engines and mid-run fault rebuilds (where it detours
//!    gracefully around dead channels on the EdgeMask survivors).
//!
//! Its runs are pinned against the materialized DSN-V routes it replaced
//! in `tests/routing_fingerprint.rs`.
//!
//! Plus the large-n scale smoke: a dense (short-horizon) vs event
//! bit-equality run on DSN-9-1020, the first rung of the paper's full
//! Fig. 7 size range.

use dsn_core::dsn::Dsn;
use dsn_core::graph::Graph;
use dsn_sim::{
    flat_table_for, DsnAlgorithmic, EngineKind, FaultPlan, RetryPolicy, RunStats, SimConfig,
    SimRouting, Simulator, TrafficPattern, Workload, ALGORITHMIC_AUTO_THRESHOLD,
};
use std::sync::Arc;

mod common;
use common::NoTables;

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

fn run_one(
    g: &Arc<Graph>,
    cfg: &SimConfig,
    engine: EngineKind,
    routing: Arc<dyn SimRouting>,
    workload: &Workload,
    seed: u64,
) -> RunStats {
    Simulator::with_workload(
        g.clone(),
        SimConfig {
            engine,
            ..cfg.clone()
        },
        routing,
        workload.clone(),
        seed,
    )
    .run()
}

/// Run the identical scenario with the engine's own table choice and with
/// the dynamic-path oracle, on both engines, and demand bit-identical
/// stats.
fn assert_auto_matches_oracle(
    g: Arc<Graph>,
    cfg: SimConfig,
    routing: Arc<dyn SimRouting>,
    workload: Workload,
    seed: u64,
    label: &str,
) -> RunStats {
    let mut last = None;
    for engine in [EngineKind::Dense, EngineKind::Event] {
        let oracle = run_one(
            &g,
            &cfg,
            engine,
            NoTables::wrap(routing.clone()),
            &workload,
            seed,
        );
        assert!(
            oracle.total_packets_all_time > 0,
            "{label} [{}]: vacuous scenario",
            engine.name()
        );
        let auto = run_one(&g, &cfg, engine, routing.clone(), &workload, seed);
        assert_eq!(
            oracle,
            auto,
            "{label} [{}]: diverged from the dynamic path",
            engine.name()
        );
        last = Some(oracle);
    }
    last.unwrap()
}

#[test]
fn algorithmic_modes_agree_across_sizes() {
    // Clean (p | n) and non-clean sizes: the automaton covers the
    // incomplete-final-super-node geometry too.
    for (n, rate) in [(30usize, 0.01), (64, 0.006), (126, 0.004)] {
        let dsn = Arc::new(Dsn::new(n, dsn_core::util::ceil_log2(n) - 1).unwrap());
        let g = Arc::new(dsn.graph().clone());
        let routing = Arc::new(DsnAlgorithmic::new(dsn));
        assert_auto_matches_oracle(
            g,
            cfg(),
            routing,
            open(rate),
            0xA16,
            &format!("dsn{n} algorithmic uniform"),
        );
    }
}

#[test]
fn fault_rebuild_falls_back_gracefully() {
    // Mid-run link death: the rebuilt scheme routes by the EdgeMask
    // survivors and has no flat table — the flat and the oracle run must
    // converge on the same dynamic path, bit-identically.
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let mut cfg = cfg();
    cfg.fault_plan = FaultPlan::single_link(5, 900).with_retry(RetryPolicy::new(2, 150, 50));
    let routing = Arc::new(DsnAlgorithmic::new(dsn));
    let stats = assert_auto_matches_oracle(
        g,
        cfg,
        routing,
        open(0.008),
        0xFA17,
        "dsn64 algorithmic single-link fault",
    );
    assert!(stats.dropped_packets_all_time + stats.delivered_packets > 0);
}

#[test]
fn fault_flap_algorithmic() {
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let mut cfg = cfg();
    cfg.fault_plan = FaultPlan::flap(6, 600, 400, 3).with_retry(RetryPolicy::new(4, 100, 50));
    let routing = Arc::new(DsnAlgorithmic::new(dsn));
    assert_auto_matches_oracle(
        g,
        cfg,
        routing,
        open(0.006),
        0xF1A8,
        "dsn64 algorithmic flapping link",
    );
}

#[test]
fn table_bytes_ratio_and_auto_threshold() {
    // The whole point of the algorithmic path: O(n) LUT bytes vs the
    // O(ctxs * n^2) CSR arena. Even at n = 64 the compiled table is well
    // over 10x the LUTs; the benchmark rows assert the same at n = 2046.
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let routing = Arc::new(DsnAlgorithmic::new(dsn));
    let flat = routing.compiled_flat().expect("4-ctx table compiles");
    assert!(
        flat.table_bytes() >= 10 * routing.table_bytes(),
        "flat {} B vs algorithmic {} B: expected >= 10x",
        flat.table_bytes(),
        routing.table_bytes()
    );

    // Below the threshold the engine compiles the table...
    assert!(flat_table_for(routing.as_ref(), g.node_count()).is_some());
    let sim = Simulator::with_workload(g.clone(), cfg(), routing.clone(), open(0.004), 1);
    assert_eq!(
        sim.routing_table_bytes(),
        flat.table_bytes() + routing.table_bytes()
    );

    // ...and above it, it runs table-free.
    let dsn = Arc::new(Dsn::new_clean(1024).unwrap());
    let n = dsn.n();
    assert!(n > ALGORITHMIC_AUTO_THRESHOLD);
    let g = Arc::new(dsn.graph().clone());
    let routing = Arc::new(DsnAlgorithmic::new(dsn));
    assert!(flat_table_for(routing.as_ref(), n).is_none());
    let sim = Simulator::with_workload(g, cfg(), routing.clone(), open(0.001), 1);
    assert_eq!(sim.routing_table_bytes(), routing.table_bytes());
    assert_eq!(routing.table_bytes(), 3 * n * std::mem::size_of::<u32>());
}

#[test]
fn smoke_1020_dense_vs_event() {
    // DSN-9-1020, the first rung of the paper's Fig. 7 scale: dense
    // (short-horizon reference) and event must agree bit-exactly with
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
    let dense = run_one(
        &g,
        &cfg,
        EngineKind::Dense,
        routing.clone(),
        &workload,
        seed,
    );
    assert!(dense.delivered_packets > 0, "vacuous 1020 smoke");
    let event = run_one(&g, &cfg, EngineKind::Event, routing, &workload, seed);
    assert_eq!(dense, event, "dsn1020: event diverged from dense");
}
