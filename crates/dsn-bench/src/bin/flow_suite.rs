//! Datacenter flow-level suite: flow-completion time on DSN, torus and
//! RANDOM under the three workload classes datacenter evaluations are
//! judged on — heavy-tailed open-loop flows (web-search sizes, Poisson
//! arrivals), synchronized incast waves, and a recursive-doubling
//! allreduce — fault-free and with links flapping mid-run.
//!
//! Run: `cargo run --release -p dsn-bench --bin flow_suite \
//!       [--quick] [--sizes 64,256] [--flaps N] [--json] [--telemetry[=WINDOW]]`
//!
//! `--json` additionally writes the report to `BENCH_flows.json` (schema
//! pinned by `tests/flows_schema.rs`). `--telemetry[=WINDOW]` adds an
//! instrumented web-search run on DSN whose export carries the per-class
//! `"fct"` section; exports go to `telemetry_flows_dsn.{json,csv}`.

use dsn_bench::flows::{flow_config, run_suite, FlowReport, FlowRow, FlowWorkloadKind, FLOW_SEED};
use dsn_bench::{emit_telemetry, trio, RunArgs};
use dsn_sim::{AdaptiveEscape, Simulator, TelemetryConfig};
use std::sync::Arc;

const USAGE: &str =
    "flow_suite [--quick] [--sizes 64,256] [--flaps N] [--json] [--telemetry[=WINDOW]]";

fn main() {
    let args = RunArgs::parse(USAGE, "--quick --sizes --flaps --json --telemetry");
    let quick = args.quick;
    let flaps: usize = args.value("--flaps").unwrap_or(3);
    let sizes = args
        .sizes
        .clone()
        .unwrap_or_else(|| if quick { vec![64] } else { vec![64, 256] });

    let mut rows: Vec<FlowRow> = Vec::new();
    for &n in &sizes {
        rows.extend(run_suite(&trio(n), n, flaps, quick));
    }
    let report = FlowReport { rows };
    print_report(&report);
    if args.json {
        let path = "BENCH_flows.json";
        std::fs::write(path, report.to_json()).expect("write JSON report");
        println!("\n# wrote {path}");
    }
    if let Some(window) = args.telemetry {
        // Instrumented web-search run on DSN at the first size.
        let n = sizes[0];
        let spec = &trio(n)[0];
        let built = spec.build().expect("topology");
        let g = Arc::new(built.graph);
        let cfg = flow_config(FlowWorkloadKind::Websearch, quick);
        let hosts = n * cfg.hosts_per_switch;
        let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
        let (stats, tel) = Simulator::with_workload(
            g,
            cfg,
            routing,
            FlowWorkloadKind::Websearch.build(hosts),
            FLOW_SEED,
        )
        .with_telemetry(TelemetryConfig::windowed(window))
        .run_with_telemetry();
        emit_telemetry("flows_dsn", &tel.expect("telemetry enabled"));
        println!(
            "# RunStats cross-check: flows started {} / completed {}, FCT avg {:.0}cy p99 {}cy",
            stats.flows_started, stats.flows_completed, stats.fct_avg_cycles, stats.fct_p99_cycles
        );
    }
}

fn print_report(report: &FlowReport) {
    println!("Flow-completion time, web-search / incast / allreduce (cycles; lower is better)");
    println!(
        "  {:<14} {:<10} {:>5} {:>6} {:>9} {:>9} {:>10} {:>8} {:>8} {:>10}",
        "topology",
        "workload",
        "sw",
        "flaps",
        "started",
        "completed",
        "fct-avg",
        "fct-p50",
        "fct-p99",
        "makespan"
    );
    for r in &report.rows {
        let makespan = match r.makespan_cycles {
            Some(c) => format!("{c}"),
            None if r.workload == "allreduce" => "DNF".to_string(),
            None => "-".to_string(),
        };
        println!(
            "  {:<14} {:<10} {:>5} {:>6} {:>9} {:>9} {:>8.0}cy {:>6}cy {:>6}cy {:>10}",
            r.topology,
            r.workload,
            r.switches,
            r.flapped_links,
            r.flows_started,
            r.flows_completed,
            r.fct_avg_cycles,
            r.fct_p50_cycles,
            r.fct_p99_cycles,
            makespan
        );
    }
    println!(
        "\n(FCT measured first-enqueue to last-tail-delivery; flows count when they *start*\n \
         in the measurement window; heavy-tail flows past the drain horizon never complete\n \
         and are visible as started-minus-completed)"
    );
}
