//! Targeted single-row perf probe: run exactly one (topology, engine,
//! load) cell of the BENCH_sim matrix and print cycles/s — the quickest
//! way to iterate on hot-path changes or read a `DSN_PHASE_TIMING=1`
//! breakdown without sweeping the whole `fig10_simulation --json` matrix.
//!
//! Run: `cargo run --release -p dsn-bench --example perf_probe -- \
//!       [--n 64|256] [--topo dsn|torus|random] [--gbps F] \
//!       [--engine dense|event] [--pre dense|event]`

use dsn_bench::{trio, RunArgs};
use dsn_sim::{AdaptiveEscape, EngineKind, SimConfig, SimRouting, Simulator, TrafficPattern};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let args = RunArgs::parse(
        "perf_probe [--n 64|256] [--topo dsn|torus|random] [--gbps F] \
         [--engine dense|event] [--pre dense|event]",
        "--n --topo --gbps --engine --pre",
    );
    let n: usize = args.value("--n").unwrap_or(256);
    let gbps: f64 = args.value("--gbps").unwrap_or(11.0);
    let engine = args.engine;
    let pre = args.value::<String>("--pre").map(|v| {
        EngineKind::parse(&v).unwrap_or_else(|| {
            args.fail(format!(
                "unknown --pre engine `{v}` (expected dense | event)"
            ))
        })
    });
    let idx = match args.value::<String>("--topo").as_deref().unwrap_or("dsn") {
        "dsn" => 0,
        "torus" => 1,
        "random" => 2,
        other => args.fail(format!(
            "unknown --topo `{other}` (expected dsn | torus | random)"
        )),
    };
    let built = trio(n)
        .into_iter()
        .nth(idx)
        .unwrap()
        .build()
        .expect("topology");
    let graph = Arc::new(built.graph);
    let cfg = SimConfig {
        engine,
        warmup_cycles: 5_000,
        measure_cycles: 15_000,
        drain_cycles: 15_000,
        ..SimConfig::default()
    };
    let rate = cfg.packets_per_cycle_for_gbps(gbps);
    let routing = Arc::new(AdaptiveEscape::new(graph.clone(), cfg.vcs));
    routing.compiled_flat();
    if let Some(pre_engine) = pre {
        // Warm (dirty) the process heap with a full run of another engine
        // first, reproducing the allocator state a row sees mid-way
        // through the `fig10_simulation --json` matrix.
        let pre_cfg = SimConfig {
            engine: pre_engine,
            ..cfg.clone()
        };
        let pre_start = Instant::now();
        let s = Simulator::new(
            graph.clone(),
            pre_cfg,
            Arc::new(AdaptiveEscape::new(graph.clone(), cfg.vcs)),
            TrafficPattern::Uniform,
            rate,
            0x000F_1610,
        )
        .run();
        println!(
            "  (pre {} run: {:.3}s, delivered {})",
            pre_engine.name(),
            pre_start.elapsed().as_secs_f64(),
            s.delivered_packets
        );
    }
    let sim = Simulator::new(
        graph.clone(),
        cfg.clone(),
        routing,
        TrafficPattern::Uniform,
        rate,
        0x000F_1610,
    );
    let start = Instant::now();
    let stats = sim.run();
    let wall = start.elapsed().as_secs_f64();
    let cycles = cfg.total_cycles();
    println!(
        "{} n={n} {} {gbps}G: {:.0} cycles/s ({cycles} cycles, {wall:.3}s, delivered {})",
        built.name,
        engine.name(),
        cycles as f64 / wall,
        stats.delivered_packets,
    );
    println!(
        "  mean/max util {:.3}/{:.3}, peak in-flight {}, peak buffered {}",
        stats.mean_channel_utilization,
        stats.max_channel_utilization,
        stats.peak_in_flight_packets,
        stats.peak_buffered_flits,
    );
}
