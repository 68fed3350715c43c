//! Collective-communication completion time — the workload class that
//! makes HPC applications latency-sensitive (the paper's opening
//! motivation). A closed batch (all-to-all, or stencil-style ring shifts)
//! is injected at cycle 0 and we measure the *makespan* (cycle of the last
//! delivery) on DSN, torus and RANDOM, at 64 switches x 4 hosts with the
//! paper's router parameters.
//!
//! Run: `cargo run --release -p dsn-bench --bin collective_exchange \
//!       [--telemetry[=WINDOW]]`
//!
//! `--telemetry[=WINDOW]` instruments the all-to-all run on DSN; exports
//! go to `telemetry_collective_dsn.{json,csv}`.

use dsn_bench::{emit_telemetry, trio, RunArgs};
use dsn_sim::{AdaptiveEscape, RoutingCache, SimConfig, Simulator, TelemetryConfig, Workload};
use std::sync::Arc;

fn main() {
    let args = RunArgs::parse("collective_exchange [--telemetry[=WINDOW]]", "--telemetry");
    let mut cfg = SimConfig {
        warmup_cycles: 0,
        measure_cycles: 10_000,
        drain_cycles: 3_000_000, // horizon; batches end much earlier
        ..SimConfig::default()
    };
    let hosts = 64 * cfg.hosts_per_switch;

    println!(
        "Collective exchange makespan, 64 switches x {} hosts (lower is better)",
        cfg.hosts_per_switch
    );
    println!(
        "  {:<14} {:>16} {:>16} {:>16}",
        "topology", "all-to-all [us]", "shift+1 x32 [us]", "shift+n/2 x32 [us]"
    );
    let workloads = [
        Workload::all_to_all(hosts),
        Workload::ring_shift(hosts, 1, 32),
        Workload::ring_shift(hosts, hosts / 2, 32),
    ];
    // One cache across every workload of a topology: the adaptive tables
    // are built once per graph instead of once per (topology, workload).
    let cache = Arc::new(RoutingCache::new());
    for spec in trio(64) {
        let built = spec.build().expect("topology");
        let graph = Arc::new(built.graph);
        let mut row = format!("  {:<14}", built.name);
        for w in &workloads {
            let routing = cache.get_or_build(&graph, &AdaptiveEscape::key_for(cfg.vcs), || {
                Arc::new(AdaptiveEscape::new(graph.clone(), cfg.vcs))
            });
            let stats =
                Simulator::with_workload(graph.clone(), cfg.clone(), routing, w.clone(), 0xC0_11)
                    .with_routing_cache(cache.clone())
                    .run();
            match stats.completion_cycle {
                Some(c) => row.push_str(&format!("{:>17.1}", c as f64 * cfg.cycle_ns / 1000.0)),
                None => row.push_str(&format!("{:>17}", "DNF")),
            }
        }
        println!("{row}");
    }
    println!(
        "\n(batch enqueued at cycle 0; makespan = last tail-flit delivery; DNF = horizon hit)"
    );

    if let Some(window) = args.telemetry {
        let spec = &trio(64)[0];
        let built = spec.build().expect("topology");
        let graph = Arc::new(built.graph);
        let routing = cache.get_or_build(&graph, &AdaptiveEscape::key_for(cfg.vcs), || {
            Arc::new(AdaptiveEscape::new(graph.clone(), cfg.vcs))
        });
        cfg.telemetry = Some(TelemetryConfig::windowed(window));
        let (stats, tel) =
            Simulator::with_workload(graph, cfg, routing, Workload::all_to_all(hosts), 0xC0_11)
                .with_routing_cache(cache)
                .run_with_telemetry();
        emit_telemetry("collective_dsn", &tel.expect("telemetry enabled"));
        println!(
            "# RunStats cross-check: makespan {:?}, delivered {}",
            stats.completion_cycle, stats.delivered_packets
        );
    }
}
