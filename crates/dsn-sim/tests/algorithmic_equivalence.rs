//! Bit-equivalence gate for table-free (algorithmic) DSN routing: the
//! [`DsnAlgorithmic`] scheme computes every hop from switch ids and the
//! DSN level structure, and must be indistinguishable — every `RunStats`
//! counter and float — from
//!
//! 1. its own 4-context compiled flat table (`RoutingTables::Flat` vs
//!    `Algorithmic` vs `Dyn`),
//! 2. the materialized-path [`SourceRouted::dsn_custom`] scheme it
//!    replaces (same candidate sequence by construction), and
//! 3. itself across engines and mid-run fault rebuilds (where it falls
//!    back gracefully to the ring-detour scheme on the EdgeMask
//!    survivors).
//!
//! Plus the large-n scale smoke: a dense (short-horizon) vs event
//! bit-equality run on DSN-9-1020, the first rung of the paper's full
//! Fig. 7 size range.

use dsn_core::dsn::Dsn;
use dsn_core::graph::Graph;
use dsn_sim::{
    DsnAlgorithmic, EngineKind, FaultPlan, RetryPolicy, RoutingTables, RunStats, SimConfig,
    SimRouting, Simulator, SourceRouted, TrafficPattern, Workload, ALGORITHMIC_AUTO_THRESHOLD,
};
use std::sync::Arc;

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
    tables: RoutingTables,
    routing: Arc<dyn SimRouting>,
    workload: &Workload,
    seed: u64,
) -> RunStats {
    Simulator::with_workload(
        g.clone(),
        SimConfig {
            engine,
            routing_tables: tables,
            ..cfg.clone()
        },
        routing,
        workload.clone(),
        seed,
    )
    .run()
}

/// Run the identical scenario under all three table modes (dynamic,
/// compiled 4-context flat, table-free algorithmic) on both engines and
/// demand bit-identical stats.
fn assert_all_modes_agree(
    g: Arc<Graph>,
    cfg: SimConfig,
    routing: Arc<dyn SimRouting>,
    workload: Workload,
    seed: u64,
    label: &str,
) -> RunStats {
    let mut last = None;
    for engine in [EngineKind::Dense, EngineKind::Event] {
        let dynamic = run_one(
            &g,
            &cfg,
            engine,
            RoutingTables::Dyn,
            routing.clone(),
            &workload,
            seed,
        );
        assert!(
            dynamic.total_packets_all_time > 0,
            "{label} [{}]: vacuous scenario",
            engine.name()
        );
        for tables in [RoutingTables::Flat, RoutingTables::Algorithmic] {
            let other = run_one(&g, &cfg, engine, tables, routing.clone(), &workload, seed);
            assert_eq!(
                dynamic,
                other,
                "{label} [{} / {}]: diverged from the dynamic path",
                engine.name(),
                tables.name()
            );
        }
        last = Some(dynamic);
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
        assert_all_modes_agree(
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
fn algorithmic_matches_source_routed_paths() {
    // The table-free scheme must emit the exact candidate sequence of the
    // materialized DSN-V source routes: identical stats, hop for hop.
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let algorithmic: Arc<dyn SimRouting> = Arc::new(DsnAlgorithmic::new(dsn.clone()));
    let source: Arc<dyn SimRouting> = Arc::new(SourceRouted::dsn_custom(dsn));
    let cfg = cfg();
    let workload = open(0.008);
    for engine in [EngineKind::Dense, EngineKind::Event] {
        let a = run_one(
            &g,
            &cfg,
            engine,
            RoutingTables::Dyn,
            algorithmic.clone(),
            &workload,
            31,
        );
        let s = run_one(
            &g,
            &cfg,
            engine,
            RoutingTables::Dyn,
            source.clone(),
            &workload,
            31,
        );
        assert_eq!(
            a,
            s,
            "[{}] algorithmic diverged from materialized source routes",
            engine.name()
        );
        assert!(a.delivered_packets > 0);
    }
}

#[test]
fn fault_rebuild_falls_back_gracefully() {
    // Mid-run link death: the rebuild swaps in the ring-detour scheme
    // (EdgeMask survivors), which is not algorithmic — all three table
    // modes must converge on the same dynamic fallback, bit-identically.
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let mut cfg = cfg();
    cfg.fault_plan = FaultPlan::single_link(5, 900).with_retry(RetryPolicy::new(2, 150, 50));
    let routing = Arc::new(DsnAlgorithmic::new(dsn));
    let stats = assert_all_modes_agree(
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
    assert_all_modes_agree(
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

    // Below the threshold, Flat mode compiles the table...
    let sim = Simulator::with_workload(
        g.clone(),
        SimConfig {
            routing_tables: RoutingTables::Flat,
            ..cfg()
        },
        routing.clone(),
        open(0.004),
        1,
    );
    assert_eq!(
        sim.routing_table_bytes(),
        flat.table_bytes() + routing.table_bytes()
    );
    // ...and explicit Algorithmic mode never does.
    let sim = Simulator::with_workload(
        g.clone(),
        SimConfig {
            routing_tables: RoutingTables::Algorithmic,
            ..cfg()
        },
        routing.clone(),
        open(0.004),
        1,
    );
    assert_eq!(sim.routing_table_bytes(), routing.table_bytes());

    // Above the threshold, plain Flat auto-degrades to table-free.
    let dsn = Arc::new(Dsn::new_clean(1024).unwrap());
    let n = dsn.n();
    assert!(n > ALGORITHMIC_AUTO_THRESHOLD);
    let g = Arc::new(dsn.graph().clone());
    let routing = Arc::new(DsnAlgorithmic::new(dsn));
    let sim = Simulator::with_workload(
        g,
        SimConfig {
            routing_tables: RoutingTables::Flat,
            ..cfg()
        },
        routing.clone(),
        open(0.001),
        1,
    );
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
        routing_tables: RoutingTables::Algorithmic,
        ..SimConfig::test_small()
    };
    let workload = open(0.004);
    let seed = 0x1020;
    let dense = run_one(
        &g,
        &cfg,
        EngineKind::Dense,
        RoutingTables::Algorithmic,
        routing.clone(),
        &workload,
        seed,
    );
    assert!(dense.delivered_packets > 0, "vacuous 1020 smoke");
    let event = run_one(
        &g,
        &cfg,
        EngineKind::Event,
        RoutingTables::Algorithmic,
        routing,
        &workload,
        seed,
    );
    assert_eq!(dense, event, "dsn1020: event diverged from dense");
}
