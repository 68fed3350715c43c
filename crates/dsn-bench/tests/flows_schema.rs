//! Golden-file pin for the `flow_suite` JSON report: the schema (key
//! order, float formatting, null makespans for open rows) and — thanks to
//! the simulator's determinism — the exact values of a tiny fixed
//! scenario must never drift silently. Regenerate by running with
//! `UPDATE_GOLDEN=1 cargo test -p dsn-bench --test flows_schema`.

use dsn_bench::flows::{run_suite, FlowReport, SCHEMA};
use dsn_bench::trio;
use dsn_sim::EngineKind;

const GOLDEN_PATH: &str = "tests/golden/flows_schema.json";
const GOLDEN: &str = include_str!("golden/flows_schema.json");

/// Tiny fixed scenario: the DSN of the 16-switch trio only, quick
/// horizons, event engine, one flap — covers the web-search, incast and
/// allreduce rows, the faulted variants, and the null makespan encoding.
fn tiny_report() -> String {
    let specs = &trio(16)[..1];
    let rows = run_suite(EngineKind::Event, specs, 16, 1, true);
    FlowReport {
        engine: EngineKind::Event,
        rows,
    }
    .to_json()
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
        "flow_suite JSON drifted from {GOLDEN_PATH}; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
