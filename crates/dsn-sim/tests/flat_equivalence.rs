//! Bit-equivalence gate for the flattened routing tables: the engine
//! serves allocation candidates from the compiled CSR arena instead of
//! calling the `SimRouting` trait object (which the [`NoTables`] oracle
//! forces), and the two paths must produce *identical* `RunStats` — every counter
//! and every float — across topologies, schemes (including the
//! adaptive-with-escape-residue one and the 4-context DSN-V table),
//! both engines, and mid-run fault rebuilds. Any divergence means a
//! compiled row disagrees with what the scheme would have answered
//! dynamically, so the comparison is `assert_eq!` on the whole struct.

use dsn_core::dln::Dln;
use dsn_core::dsn::Dsn;
use dsn_core::graph::Graph;
use dsn_core::torus::Torus;
use dsn_sim::{
    AdaptiveEscape, DsnAlgorithmic, EngineKind, FaultPlan, MinimalAdaptiveDsn, RetryPolicy,
    RunStats, SimConfig, SimRouting, Simulator, TrafficPattern, UpDownRouting, Workload,
};
use std::sync::Arc;

mod common;
use common::NoTables;

/// Short-horizon config so the dense engine stays fast in debug builds.
fn cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 300,
        measure_cycles: 2_500,
        drain_cycles: 2_500,
        ..SimConfig::test_small()
    }
}

fn open(pattern: TrafficPattern, rate: f64) -> Workload {
    Workload::Open {
        pattern,
        packets_per_cycle_per_host: rate,
    }
}

/// Run the identical scenario with flat and dynamic candidate sourcing,
/// under **both** engines, and demand bit-identical stats per engine.
fn assert_flat_matches_dyn(
    g: Arc<Graph>,
    cfg: SimConfig,
    routing: Arc<dyn SimRouting>,
    workload: Workload,
    seed: u64,
    label: &str,
) -> RunStats {
    let mut last = None;
    for engine in [EngineKind::Dense, EngineKind::Event] {
        let run = |routing: Arc<dyn SimRouting>| {
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
        };
        let dynamic = run(NoTables::wrap(routing.clone()));
        let flat = run(routing.clone());
        assert_eq!(
            dynamic,
            flat,
            "{label} [{}]: flat tables diverged from the dynamic path",
            engine.name()
        );
        assert!(
            flat.total_packets_all_time > 0,
            "{label} [{}]: vacuous scenario",
            engine.name()
        );
        last = Some(flat);
    }
    last.unwrap()
}

#[test]
fn dsn_adaptive_escape_low_and_high_load() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    for (rate, label) in [(0.002, "low"), (0.04, "near-saturation")] {
        let stats = assert_flat_matches_dyn(
            g.clone(),
            cfg.clone(),
            routing.clone(),
            open(TrafficPattern::Uniform, rate),
            42,
            &format!("dsn64 adaptive uniform {label}"),
        );
        assert!(stats.delivered_packets > 0);
    }
}

#[test]
fn dsn_updown_transpose() {
    // Pure phase-table scheme: both contexts (Up / Down) of the compiled
    // arena are exercised, including rows left empty for unreachable
    // Down-phase states.
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = cfg();
    let routing = Arc::new(UpDownRouting::new(g.clone(), cfg.vcs));
    assert_flat_matches_dyn(
        g,
        cfg,
        routing,
        open(TrafficPattern::Transpose, 0.004),
        7,
        "dsn64 up*/down* transpose",
    );
}

#[test]
fn dln_adaptive_uniform() {
    let g = Arc::new(Dln::new(64, 2).unwrap().into_graph());
    let cfg = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    assert_flat_matches_dyn(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.004),
        17,
        "dln64 adaptive uniform",
    );
}

#[test]
fn torus_updown_transpose() {
    let g = Arc::new(Torus::new(&[4, 4]).unwrap().into_graph());
    let cfg = cfg();
    let routing = Arc::new(UpDownRouting::new(g.clone(), cfg.vcs));
    assert_flat_matches_dyn(
        g,
        cfg,
        routing,
        open(TrafficPattern::Transpose, 0.006),
        13,
        "torus4x4 up*/down* transpose",
    );
}

#[test]
fn dsn_custom_dsnv_uniform() {
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let routing = Arc::new(DsnAlgorithmic::new(dsn));
    // DSN-V levels need the paper's 4 VCs; keep the short test horizon.
    let cfg = SimConfig { vcs: 4, ..cfg() };
    assert_flat_matches_dyn(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.004),
        11,
        "dsn64 DSN-V custom uniform",
    );
}

#[test]
fn minimal_adaptive_dsn_escape_residue() {
    // Adaptive candidates come from the compiled table; the DSN-V escape
    // layer stays a dynamic residue (`HopRule::Dyn` + `dyn_escape`), so
    // this row covers the mixed table-plus-escape allocation path.
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let routing = Arc::new(MinimalAdaptiveDsn::new(dsn, 8));
    let cfg = SimConfig { vcs: 8, ..cfg() };
    let stats = assert_flat_matches_dyn(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.02),
        23,
        "dsn64 minimal-adaptive + dsnv escape",
    );
    assert!(stats.delivered_packets > 0);
}

#[test]
fn fault_rebuild_refreshes_flat_tables() {
    // Mid-run link death: the online reroute rebuilds the scheme and the
    // engine must recompile (and re-serve) the flat arena for the survivor,
    // bit-identically to the dynamic rebuild.
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let mut cfg = cfg();
    cfg.fault_plan = FaultPlan::single_link(5, 900).with_retry(RetryPolicy::new(2, 150, 50));
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    // The oracle must stay table-free across the rebuild, or the post-fault
    // half of the run would compare flat against flat.
    let mut mask = dsn_core::EdgeMask::fully_alive(&g);
    mask.set_edge_admin(&g, 5, false);
    let rebuilt = NoTables::wrap(routing.clone())
        .rebuild(&g, &mask)
        .expect("adaptive escape reroutes");
    assert!(rebuilt.compiled_flat().is_none());
    assert!(routing
        .rebuild(&g, &mask)
        .unwrap()
        .compiled_flat()
        .is_some());
    let stats = assert_flat_matches_dyn(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.01),
        0xFA11,
        "dsn64 adaptive single-link fault",
    );
    assert!(stats.dropped_packets_all_time + stats.delivered_packets > 0);
}

#[test]
fn fault_flap_updown() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let mut cfg = cfg();
    cfg.fault_plan = FaultPlan::flap(6, 600, 400, 3).with_retry(RetryPolicy::new(4, 100, 50));
    let routing = Arc::new(UpDownRouting::new(g.clone(), cfg.vcs));
    assert_flat_matches_dyn(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.008),
        0xF1A9,
        "dsn64 up*/down* flapping link",
    );
}
