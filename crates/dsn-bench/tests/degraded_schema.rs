//! Golden-file pin for the `degraded_performance` JSON report: the schema
//! (key order, float formatting, split/saturated flags) and — thanks to the
//! simulator's determinism — the exact values of a tiny fixed scenario must
//! never drift silently. Regenerate by running with
//! `UPDATE_GOLDEN=1 cargo test -p dsn-bench --test degraded_schema`.

use dsn_bench::degraded::{run_dynamic, run_static, SCHEMA};
use dsn_core::topology::TopologySpec;
use dsn_sim::SimConfig;

const GOLDEN_PATH: &str = "tests/golden/degraded_schema.json";
const GOLDEN: &str = include_str!("golden/degraded_schema.json");

/// Tiny fixed scenario: a ring of 8 switches, short windows.
/// Static dead counts {0, 1, 2} cover the healthy, degraded-but-connected
/// and split rows (a ring minus two edges always disconnects); one dynamic
/// fault covers the online-reroute row.
fn tiny_report() -> String {
    let cfg = SimConfig {
        warmup_cycles: 100,
        measure_cycles: 1_000,
        drain_cycles: 2_000,
        ..SimConfig::test_small()
    };
    let specs = [TopologySpec::Ring { n: 8 }];
    let stat = run_static(&cfg, &specs, &[0, 1, 2], 1.0);
    let dyn_ = run_dynamic(&cfg, &specs, 1, 1.0);
    format!("{}{}", stat.to_json(), dyn_.to_json())
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
        "degraded_performance JSON drifted from {GOLDEN_PATH}; \
         rerun with UPDATE_GOLDEN=1 if the change is intentional"
    );
}
