//! Every bench binary rejects input it does not consume: an unknown flag,
//! a value flag with no value, a malformed value or a stray positional
//! argument exits with status 2 and the usage line before any work starts.

use std::path::Path;
use std::process::Command;

const BINARIES: [&str; 17] = [
    env!("CARGO_BIN_EXE_ablation_extensions"),
    env!("CARGO_BIN_EXE_collective_exchange"),
    env!("CARGO_BIN_EXE_custom_vs_agnostic"),
    env!("CARGO_BIN_EXE_deadlock_in_vivo"),
    env!("CARGO_BIN_EXE_degraded_performance"),
    env!("CARGO_BIN_EXE_fig10_simulation"),
    env!("CARGO_BIN_EXE_flow_suite"),
    env!("CARGO_BIN_EXE_layout_conscious"),
    env!("CARGO_BIN_EXE_netanalyze"),
    env!("CARGO_BIN_EXE_opt_frontier"),
    env!("CARGO_BIN_EXE_paper_figures"),
    env!("CARGO_BIN_EXE_related_work"),
    env!("CARGO_BIN_EXE_routing_cost"),
    env!("CARGO_BIN_EXE_saturation_search"),
    env!("CARGO_BIN_EXE_switching_ablation"),
    env!("CARGO_BIN_EXE_theory_validation"),
    env!("CARGO_BIN_EXE_traffic_balance"),
];

/// Bad command lines beyond the unknown flag every binary gets.
const BAD: &[(&str, &[&str])] = &[
    ("paper_figures", &["7", "--threads", "abc"]),
    ("paper_figures", &["10"]),
    ("deadlock_in_vivo", &["--bogus"]),
    ("opt_frontier", &["--quick", "--sizes"]),
    ("opt_frontier", &["--quick", "--sizes", "4"]),
    ("netanalyze", &["dsn:64", "--dot"]),
    ("netanalyze", &[]),
    ("layout_conscious", &["abc"]),
    ("flow_suite", &["--quick", "--sizes"]),
    ("flow_suite", &["--quick", "--flaps"]),
    ("degraded_performance", &["--quick", "--faults", "x"]),
    ("fig10_simulation", &["--engine", "event"]),
    ("fig10_simulation", &["uniform", "bitrev"]),
    ("saturation_search", &["--telemetry=0"]),
    ("switching_ablation", &["--routing-tables", "flat"]),
    ("theory_validation", &["--serial", "extra"]),
];

fn stem(exe: &str) -> &str {
    Path::new(exe)
        .file_stem()
        .and_then(|s| s.to_str())
        .expect("binary name")
}

#[test]
fn bad_input_exits_2_with_usage_before_any_work() {
    let unknown: Vec<(&str, &[&str])> = BINARIES
        .iter()
        .map(|exe| (stem(exe), &["--no-such-flag"][..]))
        .collect();
    for &(name, args) in unknown.iter().chain(BAD) {
        let exe = BINARIES
            .iter()
            .find(|exe| stem(exe) == name)
            .expect("listed");
        let out = Command::new(exe).args(args).output().expect("run binary");
        assert_eq!(out.status.code(), Some(2), "{name} {args:?}");
        assert!(out.stdout.is_empty(), "{name} {args:?} printed output");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!("usage: {name}")),
            "{name} {args:?}: {stderr}"
        );
    }
}

/// `--threads N` is the worker count the binary's fan-outs run on, and
/// the `# parallelism:` line names it.
#[test]
fn threads_flag_sets_the_live_worker_count() {
    let exe = env!("CARGO_BIN_EXE_opt_frontier");
    let args = ["--quick", "--sizes", "8", "--threads", "3"];
    let out = Command::new(exe).args(args).output().expect("run binary");
    assert!(out.status.success(), "opt_frontier {args:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let line = stdout
        .lines()
        .find(|l| l.starts_with("# parallelism:"))
        .unwrap_or_else(|| panic!("no parallelism line in {stdout}"));
    assert!(
        line.starts_with("# parallelism: 3 threads;"),
        "opt_frontier {args:?}: {line}"
    );
}
