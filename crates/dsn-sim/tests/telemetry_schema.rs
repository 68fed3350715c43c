//! Golden-file pin for the telemetry JSON export: the schema (key order,
//! float formatting, series/phase/link layout) and — thanks to the
//! simulator's determinism — the exact values of a tiny fixed scenario must
//! never drift silently. Regenerate by running with
//! `UPDATE_GOLDEN=1 cargo test -p dsn-sim --test telemetry_schema`.

use dsn_core::dsn::Dsn;
use dsn_sim::{AdaptiveEscape, SimConfig, Simulator, TrafficPattern, Workload};
use dsn_telemetry::SCHEMA;
use std::sync::Arc;

const GOLDEN_PATH: &str = "tests/golden/telemetry_schema.json";
const GOLDEN: &str = include_str!("golden/telemetry_schema.json");

/// Tiny fixed scenario: DSN with 16 switches, short warmup/measure/drain
/// phases, 256-cycle windows, fixed seed.
fn tiny_report() -> String {
    let mut cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 1_500,
        drain_cycles: 1_500,
        ..SimConfig::test_small()
    };
    cfg.telemetry = Some(cfg.standard_telemetry(256));
    let g = Arc::new(Dsn::new(16, 3).unwrap().into_graph());
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let workload = Workload::Open {
        pattern: TrafficPattern::Uniform,
        packets_per_cycle_per_host: 0.01,
    };
    let (_, report) =
        Simulator::with_workload(g, cfg, routing, workload, 0x7e1e).run_with_telemetry();
    report.expect("telemetry enabled").to_json()
}

#[test]
fn json_schema_is_pinned() {
    let actual = tiny_report();
    assert!(actual.contains(SCHEMA), "schema tag missing");
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("update golden");
        return;
    }
    assert_eq!(
        actual, GOLDEN,
        "telemetry JSON drifted from {GOLDEN_PATH}; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
