//! Every workload at smoke scale (64 switches, 3k-cycle simulations, 20
//! annealing steps), through the same command line as a measured run:
//! every declared metric is emitted, nothing fails, and two runs of one
//! seed produce the same digest.

use dsn_benchmark::json::Json;
use dsn_benchmark::metrics::{self, Better, Metric};
use dsn_benchmark::workloads::Kind;
use std::process::Command;

fn manifest() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json next to the benchmark directory");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

/// `(name, unit, better, bound)` of a metric list in BENCHMARK.json.
fn declared(doc: &Json, key: &str) -> Vec<(String, String, String, Option<f64>)> {
    doc.get(key)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let s = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .expect("string field")
                    .to_string()
            };
            (
                s("name"),
                s("unit"),
                s("better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect()
}

fn catalogue(ms: Vec<Metric>) -> Vec<(String, String, String, Option<f64>)> {
    ms.into_iter()
        .map(|m| {
            (
                m.name,
                m.unit.to_string(),
                m.better.name().to_string(),
                m.bound,
            )
        })
        .collect()
}

#[test]
fn manifest_matches_the_metric_catalogue() {
    let doc = manifest();
    assert_eq!(
        declared(&doc, "end_to_end"),
        catalogue(metrics::end_to_end())
    );
    assert_eq!(declared(&doc, "per_layer"), catalogue(metrics::per_layer()));
    let names: Vec<&str> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(names, Kind::ALL.map(Kind::name));
    assert!(metrics::end_to_end()
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == Better::Lower));
}

/// One measured run: the comment line and the result object.
fn measure(workload: &str, trace: u8) -> (String, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_dsn-benchmark"))
        .args(["--workload", workload, "--seed", "0", "--seconds", "0"])
        .args(["--trace", &trace.to_string(), "--smoke"])
        .output()
        .expect("benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let result = Json::parse(lines[lines.len() - 1]).expect("last line is JSON");
    (lines[lines.len() - 2].to_string(), result)
}

fn digest(comment: &str) -> &str {
    comment
        .split_whitespace()
        .find_map(|t| t.strip_prefix("digest="))
        .expect("comment line carries the digest")
}

#[test]
fn every_workload_emits_every_metric_and_repeats_exactly() {
    for kind in Kind::ALL {
        let w = kind.name();
        let (c1, r1) = measure(w, 0);
        let (c2, _) = measure(w, 0);
        let (_, traced) = measure(w, 1);
        assert_eq!(digest(&c1), digest(&c2), "{w}: two smoke runs differ");
        for (r, expected) in [
            (&r1, metrics::end_to_end()),
            (&traced, metrics::per_layer()),
        ] {
            let keys: Vec<(&str, f64)> = r
                .get("metrics")
                .and_then(Json::as_obj)
                .expect("metrics object")
                .iter()
                .map(|(k, v)| {
                    (
                        k.as_str(),
                        v.get("value").and_then(Json::as_f64).expect("value"),
                    )
                })
                .collect();
            let names: Vec<&str> = keys.iter().map(|(k, _)| *k).collect();
            let want: Vec<&str> = expected.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(
                names, want,
                "{w}: emitted metrics differ from the catalogue"
            );
            assert_eq!(
                r.get("correct").and_then(Json::as_bool),
                Some(true),
                "{w}: incorrect"
            );
            assert_eq!(
                r.get("failed").and_then(Json::as_f64),
                Some(0.0),
                "{w}: ops_failed"
            );
            assert!(r.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
        }
        for (name, v) in r1.get("metrics").and_then(Json::as_obj).unwrap() {
            let v = v.get("value").and_then(Json::as_f64).unwrap();
            assert!(v > 0.0, "{w}: end-to-end {name} = {v}");
        }
    }
}
