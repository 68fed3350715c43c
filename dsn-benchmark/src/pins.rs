//! Seed-0 expectations: the output digest of every operation at bench
//! scale, and the rows of the committed `BENCH_sim.json`,
//! `BENCH_flows.json` and `BENCH_opt.json` that `verify` must reproduce at
//! the scale those files were recorded at.
//!
//! The digests were recorded by this benchmark and exist nowhere else;
//! they pin every `RunStats` field and search trace bit for bit. A library
//! change that moves any simulated or searched result fails the affected
//! operations until it is re-pinned. The BENCH rows are read from the
//! files themselves, so regenerating a file moves what `verify` expects.

use crate::json::Json;
use dsn_sim::RunStats;

/// Output digest of every operation at seed 0, bench scale.
const DIGESTS: &[(&str, &str, u64)] = &[
    ("fig10-sweep", "uniform/dsn", 0x2e26_9dff_7072_6e56),
    ("fig10-sweep", "uniform/torus", 0x783a_3049_3b90_5407),
    ("fig10-sweep", "uniform/dln", 0xc856_12d5_5087_5ddd),
    ("fig10-sweep", "bit-reversal/dsn", 0x47f0_d0ea_0a06_54ff),
    ("fig10-sweep", "bit-reversal/torus", 0xcb10_8061_a43d_f828),
    ("fig10-sweep", "bit-reversal/dln", 0x3480_6927_4486_fc27),
    ("fig10-sweep", "neighboring/dsn", 0xb852_2ed9_ebf3_38fa),
    ("fig10-sweep", "neighboring/torus", 0x1c7e_d004_50a9_aac9),
    ("fig10-sweep", "neighboring/dln", 0x4640_c816_81db_c4fe),
    ("saturated", "dsn256", 0xcee8_1795_c2c3_6f6c),
    ("saturated", "torus256", 0xf26d_38a4_362d_2459),
    ("saturated", "dln256", 0x3856_dd37_ba88_0834),
    ("saturated", "dln1020", 0x9250_2b92_dbd9_1cc6),
    ("saturated", "dsn2046", 0xe676_0edb_6017_7a26),
    ("flows-flaps", "dsn/websearch/clean", 0x6bdf_f73c_8ce9_f953),
    ("flows-flaps", "dsn/websearch/flaps", 0x80ef_87f5_2a31_d487),
    ("flows-flaps", "dsn/incast/clean", 0x2fd4_d284_88a4_792c),
    ("flows-flaps", "dsn/incast/flaps", 0x1bd4_0f0b_0db7_090f),
    ("flows-flaps", "dsn/allreduce/clean", 0x8828_5ed5_c91e_b9d6),
    ("flows-flaps", "dsn/allreduce/flaps", 0x1eef_6ee3_1f20_680e),
    (
        "flows-flaps",
        "torus/websearch/clean",
        0xbd87_4c26_89ae_c6ed,
    ),
    (
        "flows-flaps",
        "torus/websearch/flaps",
        0x81a7_ad92_76a0_a6d3,
    ),
    ("flows-flaps", "torus/incast/clean", 0xa4fd_9210_8da2_b6f2),
    ("flows-flaps", "torus/incast/flaps", 0x775d_f47d_bdf6_d681),
    (
        "flows-flaps",
        "torus/allreduce/clean",
        0x93fc_2513_8f2e_5f8a,
    ),
    (
        "flows-flaps",
        "torus/allreduce/flaps",
        0x9837_7629_dcbd_53ae,
    ),
    ("flows-flaps", "dln/websearch/clean", 0xeab4_1838_e2b7_3fe9),
    ("flows-flaps", "dln/websearch/flaps", 0x2a8c_1be8_9be3_b3b1),
    ("flows-flaps", "dln/incast/clean", 0xa4fd_9210_8da2_b6f2),
    ("flows-flaps", "dln/incast/flaps", 0x775d_f47d_bdf6_d681),
    ("flows-flaps", "dln/allreduce/clean", 0x74d7_718f_b4cf_aa01),
    ("flows-flaps", "dln/allreduce/flaps", 0x7d1a_fa10_5856_6d0a),
    ("opt-search", "sa", 0x4594_7eae_db25_ac4c),
    ("opt-search", "es", 0x5d0b_1b20_1449_1114),
];

/// The pinned digest of `op` of `workload`, if any.
pub fn digest(workload: &str, op: &str) -> Option<u64> {
    DIGESTS
        .iter()
        .find(|(w, o, _)| *w == workload && *o == op)
        .map(|&(_, _, d)| d)
}

/// A committed BENCH file at the repository root, parsed.
fn committed(file: &str) -> Result<Json, String> {
    let path = format!("{}/../{file}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {file}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{file}: {e}"))
}

/// Check `got` against the row of `file` whose fields equal `key`; a
/// `None` in `got` expects `null`.
fn check_row(
    what: &str,
    file: &str,
    key: &[(&str, Json)],
    got: &[(&str, Option<u64>)],
    failures: &mut Vec<String>,
) {
    let doc = match committed(file) {
        Ok(doc) => doc,
        Err(e) => return failures.push(format!("{what}: {e}")),
    };
    let rows = doc
        .as_arr()
        .or_else(|| doc.get("rows").and_then(Json::as_arr))
        .unwrap_or_default();
    let Some(row) = rows
        .iter()
        .find(|r| key.iter().all(|(k, v)| r.get(k) == Some(v)))
    else {
        return failures.push(format!("{what}: no row {key:?} in {file}"));
    };
    for &(field, v) in got {
        let want = row.get(field).and_then(Json::as_f64).map(|x| x as u64);
        if want != v {
            failures.push(format!("{what}: {field} {v:?} != {file} {want:?}"));
        }
    }
}

/// The event-engine row of `topology` at `gbps` in `BENCH_sim.json`.
pub fn check_saturated(topology: &str, gbps: f64, s: &RunStats, failures: &mut Vec<String>) {
    check_row(
        topology,
        "BENCH_sim.json",
        &[
            ("topology", Json::str(topology)),
            ("engine", Json::str("event")),
            ("load_gbps", Json::Num(gbps)),
        ],
        &[
            ("delivered_packets", Some(s.delivered_packets)),
            ("peak_in_flight_packets", Some(s.peak_in_flight_packets)),
        ],
        failures,
    );
}

/// The row of `topology` x `workload` x `flapped_links` in
/// `BENCH_flows.json`; only a `closed` workload has a makespan.
pub fn check_flows(
    topology: &str,
    workload: &str,
    flapped_links: usize,
    closed: bool,
    s: &RunStats,
    failures: &mut Vec<String>,
) {
    check_row(
        &format!("{topology} {workload} flapped_links={flapped_links}"),
        "BENCH_flows.json",
        &[
            ("topology", Json::str(topology)),
            ("workload", Json::str(workload)),
            ("flapped_links", Json::from(flapped_links as u64)),
        ],
        &[
            ("flows_started", Some(s.flows_started)),
            ("flows_completed", Some(s.flows_completed)),
            ("flow_packets_delivered", Some(s.flow_packets_delivered)),
            ("fct_p50_cycles", Some(s.fct_p50_cycles)),
            ("fct_p99_cycles", Some(s.fct_p99_cycles)),
            ("fct_p999_cycles", Some(s.fct_p999_cycles)),
            ("makespan_cycles", s.completion_cycle.filter(|_| closed)),
            ("dropped", Some(s.dropped_packets_all_time)),
            ("retried", Some(s.retried_packets)),
        ],
        failures,
    );
}

/// The best placement's fingerprint of row `topology` in `BENCH_opt.json`.
pub fn check_opt(topology: &str, fingerprint: u64, failures: &mut Vec<String>) {
    check_row(
        topology,
        "BENCH_opt.json",
        &[
            ("topology", Json::str(topology)),
            ("fingerprint", Json::str(format!("{fingerprint:#018x}"))),
        ],
        &[],
        failures,
    );
}
