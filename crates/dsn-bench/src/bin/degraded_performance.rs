//! Performance under link failures: run the Figure 10 setup on degraded
//! topologies — statically (random links removed before the run; adaptive +
//! up*/down* escape recomputed on the survivor graph) or dynamically
//! (`--faults N`: links die *mid-run* and the simulator reroutes online,
//! dropping in-flight packets and retrying at the hosts) — the
//! fault-tolerance angle the paper's related work (Jellyfish, small-world
//! datacenters) emphasizes.
//!
//! Run: `cargo run --release -p dsn-bench --bin degraded_performance \
//!       [--quick] [--faults N] [--json] [--telemetry[=WINDOW]]`
//!
//! `--json` additionally writes the report to `BENCH_degraded.json`
//! (schema pinned by `tests/degraded_schema.rs`). `--telemetry[=WINDOW]`
//! adds an instrumented dynamic-fault run on DSN whose telemetry windows
//! are tagged **pre-fault / post-fault**, so the decomposition table shows
//! exactly how rerouting shifts latency from wire to queueing; exports go
//! to `telemetry_degraded_dsn.{json,csv}`.

use dsn_bench::degraded::{
    base_config, run_dynamic, run_dynamic_telemetry, run_static, DegradedMode, DegradedReport,
};
use dsn_bench::{emit_telemetry, trio, RunArgs};

const USAGE: &str = "degraded_performance [--quick] [--faults N] [--json] [--telemetry[=WINDOW]]";

fn main() {
    // Parse the CLI exactly once into one shared `SimConfig`; every trial
    // below reuses it.
    let args = RunArgs::parse(USAGE, "--quick --faults --json --telemetry");
    let faults: Option<usize> = args.value("--faults");
    let cfg = base_config(args.quick);
    let gbps = 4.0;
    let specs = trio(64);

    let report = match faults {
        Some(n) => run_dynamic(&cfg, &specs, n, gbps),
        None => run_static(&cfg, &specs, &[0, 2, 5, 10], gbps),
    };
    print_report(&report);
    if args.json {
        let path = "BENCH_degraded.json";
        std::fs::write(path, report.to_json()).expect("write JSON report");
        println!("\n# wrote {path}");
    }
    if let Some(window) = args.telemetry {
        // Instrumented dynamic-fault run on DSN (first trio entry), windows
        // tagged pre-fault / post-fault.
        let (stats, tel) =
            run_dynamic_telemetry(&cfg, &specs[0], faults.unwrap_or(2), gbps, window);
        emit_telemetry("degraded_dsn", &tel);
        println!(
            "# RunStats cross-check: dropped {}, retried {}, post-fault delivered {}",
            stats.dropped_packets_all_time, stats.retried_packets, stats.post_fault_delivered
        );
    }
}

fn print_report(report: &DegradedReport) {
    match report.mode {
        DegradedMode::Static => {
            println!(
                "Latency under link failures (uniform traffic at {} Gbit/s/host, 64 switches)",
                report.gbps_per_host
            );
            println!(
                "  {:<14} {:>10} {:>10} {:>10} {:>10}",
                "topology", "0 dead", "2 dead", "5 dead", "10 dead"
            );
            let mut row = String::new();
            let mut current = None;
            for r in &report.rows {
                if current.as_deref() != Some(r.topology.as_str()) {
                    if current.is_some() {
                        println!("{row}");
                    }
                    row = format!("  {:<14}", r.topology);
                    current = Some(r.topology.clone());
                }
                if r.split {
                    row.push_str(&format!("{:>11}", "split"));
                } else if r.saturated {
                    row.push_str(&format!("{:>11}", "saturated"));
                } else {
                    row.push_str(&format!("{:>9.0}ns", r.avg_latency_ns));
                }
            }
            if current.is_some() {
                println!("{row}");
            }
            println!(
                "\n(failed links chosen uniformly; the topology-agnostic escape routing is\n \
                 recomputed on the survivor graph, as an operator would after a failure)"
            );
        }
        DegradedMode::Dynamic => {
            println!(
                "Latency under mid-run link deaths (uniform traffic at {} Gbit/s/host, \
                 64 switches)",
                report.gbps_per_host
            );
            println!(
                "  {:<14} {:>6} {:>10} {:>9} {:>8} {:>8} {:>10} {:>10}",
                "topology",
                "deaths",
                "latency",
                "delivery",
                "dropped",
                "retried",
                "pf-avg",
                "pf-p99"
            );
            for r in &report.rows {
                println!(
                    "  {:<14} {:>6} {:>8.0}ns {:>9.4} {:>8} {:>8} {:>8.0}cy {:>8}cy",
                    r.topology,
                    r.dead_links,
                    r.avg_latency_ns,
                    r.delivery_ratio,
                    r.dropped,
                    r.retried,
                    r.post_fault_avg_latency_cycles,
                    r.post_fault_p99_latency_cycles
                );
            }
            println!(
                "\n(seeded connectivity-preserving schedule: links die during the measurement\n \
                 window, routing is rebuilt online, dropped packets are retried by hosts)"
            );
        }
    }
}
