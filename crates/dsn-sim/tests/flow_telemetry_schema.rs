//! Golden-file pin for the telemetry export of a *flow* workload: unlike
//! the open-loop pin in `telemetry_schema.rs` (whose `"fct"` array is
//! empty), this scenario completes flows, so the per-class FCT section's
//! layout and exact values are locked. Regenerate by running with
//! `UPDATE_GOLDEN=1 cargo test -p dsn-sim --test flow_telemetry_schema`.

use dsn_core::dsn::Dsn;
use dsn_sim::{
    AdaptiveEscape, FlowArrivals, FlowSizeDist, SimConfig, Simulator, TrafficPattern, Workload,
};
use dsn_telemetry::SCHEMA;
use std::sync::Arc;

const GOLDEN_PATH: &str = "tests/golden/flow_telemetry_schema.json";
const GOLDEN: &str = include_str!("golden/flow_telemetry_schema.json");

/// Tiny fixed scenario: DSN with 16 switches, web-search flows at a low
/// Poisson rate, 256-cycle windows, fixed seed.
fn tiny_report() -> String {
    let mut cfg = SimConfig {
        warmup_cycles: 200,
        measure_cycles: 1_500,
        drain_cycles: 4_000,
        ..SimConfig::test_small()
    };
    cfg.telemetry = Some(cfg.standard_telemetry(256));
    let g = Arc::new(Dsn::new(16, 3).unwrap().into_graph());
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let workload = Workload::Flows {
        pattern: TrafficPattern::Uniform,
        sizes: FlowSizeDist::websearch(),
        arrivals: FlowArrivals::Poisson {
            flows_per_cycle: 0.002,
        },
    };
    let (stats, report) =
        Simulator::with_workload(g, cfg, routing, workload, 0xF1_07).run_with_telemetry();
    assert!(stats.flows_completed > 0, "scenario must complete flows");
    report.expect("telemetry enabled").to_json()
}

#[test]
fn fct_section_is_pinned() {
    let actual = tiny_report();
    assert!(actual.contains(SCHEMA), "schema tag missing");
    assert!(
        actual.contains("\"fct\": ["),
        "fct section missing from flow-run telemetry"
    );
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(GOLDEN_PATH, &actual).expect("update golden");
        return;
    }
    assert_eq!(
        actual, GOLDEN,
        "flow telemetry JSON drifted from {GOLDEN_PATH}; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
