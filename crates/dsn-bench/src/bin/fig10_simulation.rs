//! Regenerates **Figure 10 (a/b/c)**: average packet latency vs accepted
//! traffic for DSN, 2-D torus and RANDOM (DLN-2-2), 64 switches with 4
//! hosts each, under uniform / bit-reversal / neighboring traffic, using
//! the paper's simulator parameters (virtual cut-through, 4 VCs, ~100 ns
//! header latency, 20 ns link delay, 33-flit packets, 96 Gbps links,
//! topology-agnostic adaptive routing with up*/down* escape). Also prints
//! the T3 summary row (DSN latency improvement vs torus).
//!
//! Run: `cargo run --release -p dsn-bench --bin fig10_simulation \
//!       [uniform|bitrev|neighbor|all] [--quick] [--telemetry[=WINDOW]] \
//!       [--opt] [--sizes N,M,...] [--json]`
//!
//! `--opt` adds the frontier study's searched placements (Opt-SA, Opt-ES
//! at 64 switches, same seeds and budgets as `opt_frontier`) to the
//! figure sweeps, closing the loop between the placement search and the
//! full latency-vs-load evaluation.
//!
//! `--sizes N,M,...` runs the large-n scale rows: the saturated trio at
//! each size (snapped down to the nearest clean DSN size, e.g. 1024 →
//! DSN-9-1020, 2048 → DSN-10-2046), with DSN routed
//! by the algorithmic DSN-V scheme, which runs table-free (O(n) bytes of
//! channel LUTs instead of O(n²) port masks).
//! Without `--json` the rows print to stdout and exit (the CI smoke);
//! with `--json` they are appended to `BENCH_sim.json`, which includes
//! sizes 1024 and 2048 by default.
//!
//! `--telemetry[=WINDOW]` adds an instrumented pass per topology at the
//! low-load point: per-phase latency decomposition, the link-utilization
//! heatmap, and `telemetry_fig10_<topology>.{json,csv}` exports.
//!
//! `--json` switches to benchmark mode: instead of the figure sweeps it
//! times the engine on the trio at 64 and 256 switches (256 and 1024
//! hosts) at a low and a near-saturation load point and writes
//! machine-readable rows to `BENCH_sim.json`, so CI can track the
//! engine's perf trajectory. Every row runs in its own child
//! process (`--bench-row N` re-exec): a fresh heap per row keeps
//! allocator state from one row from skewing the next (in-process, late
//! rows measurably degrade), and the child's peak-RSS high-water mark
//! covers that row alone. Routing is (re)built inside each child: the
//! scheme constructor, where its port masks are built, is reported
//! separately as `routing_build_s` — `wall_s` times only the simulation
//! proper. Inside the child the RSS mark is additionally reset after
//! construction; where the reset is impossible the row carries
//! `"rss_is_cumulative": true` instead of a stale figure.
//!
//! `DSN_PHASE_TIMING=1` (with `--json` or the figure sweeps) turns on the
//! engine's per-phase wall-clock breakdown (wheel-drain / inject / route
//! / arbitrate / eject, reported to stderr at the end of each run); the
//! `--bench-row` children inherit it.

use dsn_bench::opt::searched_placements;
use dsn_bench::{
    emit_telemetry, json_row, peak_rss_kb, reset_peak_rss, trio, trio_graphs, Json, RunArgs,
};
use dsn_core::dsn::Dsn;
use dsn_core::graph::Graph;
use dsn_core::parallel::Parallelism;
use dsn_sim::sweep::{format_sweep, load_sweep_cached, paper_load_grid, SweepResult};
use dsn_sim::{
    AdaptiveEscape, DsnAlgorithmic, RoutingCache, SimConfig, SimRouting, Simulator, TrafficPattern,
};
use std::sync::Arc;
use std::time::Instant;

fn run_pattern(
    pattern: &TrafficPattern,
    cfg: &SimConfig,
    loads: &[f64],
    topos: &[(String, Arc<Graph>)],
    cache: &Arc<RoutingCache>,
) -> Vec<SweepResult> {
    let key = AdaptiveEscape::key_for(cfg.vcs);
    let mut results = Vec::new();
    for (name, graph) in topos {
        let g2 = graph.clone();
        let vcs = cfg.vcs;
        let sweep = load_sweep_cached(
            name.clone(),
            graph.clone(),
            cfg,
            cache,
            &key,
            move || Arc::new(AdaptiveEscape::new(g2, vcs)),
            pattern,
            loads,
            0x000F_1610,
            &Parallelism::auto(),
        );
        println!("{}", format_sweep(&sweep));
        results.push(sweep);
    }
    results
}

fn summarize(results: &[SweepResult]) {
    // results order matches trio(): [DSN, torus, RANDOM]
    let (dsn, torus, random) = (&results[0], &results[1], &results[2]);
    let imp_torus = 100.0 * (torus.low_load_latency_ns() - dsn.low_load_latency_ns())
        / torus.low_load_latency_ns();
    println!(
        "  low-load latency: DSN {:.0} ns, torus {:.0} ns, RANDOM {:.0} ns -> DSN vs torus: {imp_torus:+.1}%",
        dsn.low_load_latency_ns(),
        torus.low_load_latency_ns(),
        random.low_load_latency_ns()
    );
    println!(
        "  saturation throughput [Gbit/s/host]: DSN {:.1}, torus {:.1}, RANDOM {:.1}",
        dsn.saturation_throughput_gbps(),
        torus.saturation_throughput_gbps(),
        random.saturation_throughput_gbps()
    );
}

/// One cell of the benchmark matrix, identified by its index in
/// [`bench_rows`] so a re-exec'd child resolves the same cell.
struct BenchRow {
    /// Switch count (64/256 for the classic matrix; clean DSN sizes for
    /// the `--sizes` scale rows).
    n: usize,
    /// Index into the paper trio at `n`: 0 = DSN, 1 = torus, 2 = DLN.
    topo_idx: usize,
    gbps: f64,
    /// Route DSN with the table-free algorithmic DSN-V scheme (scale
    /// rows) instead of the trio's adaptive + escape routing.
    algorithmic: bool,
}

/// The full matrix in emission order: (trio @ 64, trio @ 256) × (low
/// load, near-saturation load), then the `--sizes` scale rows — per size,
/// the saturated trio, with DSN routed table-free.
fn bench_rows(sizes: &[usize]) -> Vec<BenchRow> {
    let mut rows = Vec::new();
    for n in [64, 256] {
        for topo_idx in 0..3 {
            for gbps in [1.0f64, 11.0] {
                rows.push(BenchRow {
                    n,
                    topo_idx,
                    gbps,
                    algorithmic: false,
                });
            }
        }
    }
    for &size in sizes {
        // Snap to the largest clean DSN size (p | n) at or below the
        // request — the sizes DSN-V's deadlock-freedom argument covers —
        // and hold the whole trio to it so the rows stay comparable.
        let n = Dsn::new_clean(size).expect("clean DSN size").n();
        for topo_idx in 0..3 {
            rows.push(BenchRow {
                n,
                topo_idx,
                gbps: 11.0,
                algorithmic: topo_idx == 0,
            });
        }
    }
    rows
}

/// Topology + routing choices for one matrix cell.
struct RowSetup {
    graph: Arc<Graph>,
    name: String,
    /// The scheme constructor, timed as `routing_build_s`.
    build: Box<dyn FnOnce() -> Arc<dyn SimRouting>>,
    scheme: &'static str,
}

/// Run one matrix cell in this process and return its JSON object (no
/// trailing separator). The human-readable progress line goes to stderr
/// so a parent process can pass it through.
fn run_bench_row(cfg: &SimConfig, row: &BenchRow) -> String {
    let RowSetup {
        graph,
        name,
        build,
        scheme,
    } = if row.algorithmic {
        let p = dsn_core::util::ceil_log2(row.n);
        let dsn = Arc::new(Dsn::new(row.n, p - 1).expect("clean DSN"));
        let graph = Arc::new(dsn.graph().clone());
        let name = format!("DSN-{}-{}", p - 1, row.n);
        RowSetup {
            graph,
            name,
            build: Box::new(move || Arc::new(DsnAlgorithmic::new(dsn))),
            scheme: "dsn-v-algorithmic",
        }
    } else {
        let built = trio(row.n)
            .into_iter()
            .nth(row.topo_idx)
            .unwrap()
            .build()
            .expect("topology");
        let graph = Arc::new(built.graph);
        let (g, vcs) = (graph.clone(), cfg.vcs);
        RowSetup {
            graph,
            name: built.name,
            build: Box::new(move || Arc::new(AdaptiveEscape::new(g, vcs))),
            scheme: "adaptive-escape",
        }
    };
    let rate = cfg.packets_per_cycle_for_gbps(row.gbps);
    let build_start = Instant::now();
    let routing = build();
    let routing_build_s = build_start.elapsed().as_secs_f64();
    let sim = Simulator::new(
        graph.clone(),
        cfg.clone(),
        routing,
        TrafficPattern::Uniform,
        rate,
        0x000F_1610,
    );
    let table_bytes = sim.routing_table_bytes();
    // VmHWM is a process-lifetime high-water mark; reset it so this row's
    // reading covers only the run below (not topology/routing build).
    let rss_fresh = reset_peak_rss();
    let start = Instant::now();
    let stats = sim.run();
    let wall = start.elapsed().as_secs_f64();
    let cycles = cfg.total_cycles();
    eprintln!(
        "  {:<14} {:>5.1}G  {:>10.0} cycles/s  (routing build {:.3}s, tables {} B)",
        name,
        row.gbps,
        cycles as f64 / wall,
        routing_build_s,
        table_bytes,
    );
    let mut fields: Vec<(&str, Json)> = vec![
        // A constant since the library has one engine; `dsn-benchmark`
        // still selects the rows it pins by this key.
        ("engine", "event".into()),
        ("topology", name.as_str().into()),
        ("pattern", "uniform".into()),
        ("routing", scheme.into()),
        ("load_gbps", row.gbps.into()),
        ("cycles", cycles.into()),
        ("wall_s", Json::fixed(wall, 6)),
        ("routing_build_s", Json::fixed(routing_build_s, 6)),
        ("cycles_per_sec", Json::fixed(cycles as f64 / wall, 0)),
        ("delivered_packets", stats.delivered_packets.into()),
        (
            "peak_in_flight_packets",
            stats.peak_in_flight_packets.into(),
        ),
        ("routing_table_bytes", table_bytes.into()),
    ];
    fields.push(("peak_rss_kb", peak_rss_kb().unwrap_or(0).into()));
    if !rss_fresh {
        fields.push(("rss_is_cumulative", true.into()));
    }
    format!("  {}", json_row(&fields))
}

/// Benchmark mode: run every [`bench_rows`] cell in its own child process
/// (`--bench-row N` re-exec of this binary) and write `BENCH_sim.json`
/// (hand-rolled — the workspace carries no JSON dependency). Process
/// isolation keeps one row's allocator state from skewing the next and
/// gives every row its own peak-RSS reading.
/// Falls back to in-process rows if the binary cannot re-exec itself.
fn emit_bench_json(cfg: &SimConfig, sizes: &[usize]) {
    let exe = std::env::current_exe().ok();
    let sizes_arg = sizes
        .iter()
        .map(|n| n.to_string())
        .collect::<Vec<_>>()
        .join(",");
    let mut rows = Vec::new();
    for (i, row) in bench_rows(sizes).iter().enumerate() {
        let json = exe
            .as_deref()
            .and_then(|exe| {
                let mut args = vec![
                    "--json".to_string(),
                    "--bench-row".to_string(),
                    i.to_string(),
                ];
                if !sizes_arg.is_empty() {
                    args.push("--sizes".to_string());
                    args.push(sizes_arg.clone());
                }
                let out = std::process::Command::new(exe)
                    .args(&args)
                    .stderr(std::process::Stdio::inherit())
                    .output()
                    .ok()?;
                if !out.status.success() {
                    return None;
                }
                let line = String::from_utf8(out.stdout).ok()?;
                let line = line.trim_end().to_string();
                if line.is_empty() {
                    None
                } else {
                    Some(line)
                }
            })
            .unwrap_or_else(|| run_bench_row(cfg, row));
        rows.push(json);
    }
    let json = format!("[\n{}\n]\n", rows.join(",\n"));
    std::fs::write("BENCH_sim.json", &json).expect("write BENCH_sim.json");
    println!("wrote BENCH_sim.json");
}

/// Telemetry pass: one instrumented run per trio topology at the
/// Figure 10 low-load point (1 Gbit/s/host, uniform traffic).
fn run_telemetry_pass(
    cfg: &SimConfig,
    window: u64,
    topos: &[(String, Arc<Graph>)],
    cache: &Arc<RoutingCache>,
) {
    let rate = cfg.packets_per_cycle_for_gbps(1.0);
    let key = AdaptiveEscape::key_for(cfg.vcs);
    for (name, graph) in topos {
        let routing = {
            let g2 = graph.clone();
            let vcs = cfg.vcs;
            cache.get_or_build(graph, &key, move || Arc::new(AdaptiveEscape::new(g2, vcs)))
        };
        let (stats, report) = Simulator::new(
            graph.clone(),
            cfg.clone(),
            routing,
            TrafficPattern::Uniform,
            rate,
            0x000F_1610,
        )
        .with_telemetry(cfg.standard_telemetry(window))
        .run_with_telemetry();
        let report = report.expect("telemetry enabled");
        let tag = format!("fig10_{}", name.replace(['-', ' '], "_").to_lowercase());
        emit_telemetry(&tag, &report);
        println!(
            "# RunStats cross-check: mean util {:.3} (telemetry {:.3}), delivered {}",
            stats.mean_channel_utilization,
            report.mean_measured_utilization(),
            stats.delivered_packets
        );
    }
}

const USAGE: &str = "fig10_simulation [uniform|bitrev|neighbor|all] [--quick] \
                     [--telemetry[=WINDOW]] [--opt] [--sizes N,M,...] [--json]";

fn main() {
    let args = RunArgs::parse_with_positionals(
        USAGE,
        "--quick --json --opt --telemetry --sizes --bench-row",
    );
    let (quick, json, telemetry) = (args.quick, args.json, args.telemetry);
    let bench_row: Option<usize> = args.value("--bench-row");
    let which = match args.positionals.as_slice() {
        [] => "all",
        [which] => which.as_str(),
        _ => args.fail("at most one pattern"),
    };
    let patterns: Vec<TrafficPattern> = match which {
        "uniform" => vec![TrafficPattern::Uniform],
        "bitrev" => vec![TrafficPattern::BitReversal],
        "neighbor" => vec![TrafficPattern::neighboring_paper()],
        "all" => vec![
            TrafficPattern::Uniform,
            TrafficPattern::BitReversal,
            TrafficPattern::neighboring_paper(),
        ],
        other => args.fail(format!("unknown pattern `{other}`")),
    };

    let mut cfg = SimConfig::default();
    let loads = if quick || json {
        cfg.warmup_cycles = 5_000;
        cfg.measure_cycles = 15_000;
        cfg.drain_cycles = 15_000;
        vec![1.0, 4.0, 8.0, 11.0]
    } else {
        paper_load_grid()
    };

    // Scale sizes: explicit `--sizes` wins; `--json` without it defaults
    // to the first large-n rungs (snapped to DSN-9-1020 / DSN-10-2046).
    let sizes = args
        .sizes
        .clone()
        .unwrap_or_else(|| if json { vec![1024, 2048] } else { Vec::new() });

    // Child of a `--json` parent: run exactly one matrix cell, print its
    // JSON object to stdout and exit.
    if let Some(i) = bench_row {
        let rows = bench_rows(&sizes);
        let row = rows.get(i).unwrap_or_else(|| {
            eprintln!("--bench-row {i} is out of range (0..{})", rows.len());
            std::process::exit(2);
        });
        println!("{}", run_bench_row(&cfg, row));
        return;
    }

    if json {
        emit_bench_json(&cfg, &sizes);
        if let Some(window) = telemetry {
            let topos = trio_graphs(64);
            let cache = Arc::new(RoutingCache::new());
            run_telemetry_pass(&cfg, window, &topos, &cache);
        }
        return;
    }

    // `--sizes` without `--json`: run just the scale rows in-process (the
    // CI large-n smoke) and exit.
    if let Some(sizes) = &args.sizes {
        let base = bench_rows(&[]).len();
        for row in &bench_rows(sizes)[base..] {
            println!("{}", run_bench_row(&cfg, row));
        }
        return;
    }

    let mut topos = trio_graphs(64);
    if args.flag("--opt") {
        // The frontier study's searched placements, swept like any other
        // topology (ROADMAP item 2's missing last step).
        for (name, g) in searched_placements(64, quick, Parallelism::auto()) {
            topos.push((name, Arc::new(g)));
        }
    }
    let cache = Arc::new(RoutingCache::new());

    for pattern in &patterns {
        let fig = match pattern {
            TrafficPattern::Uniform => "10(a)",
            TrafficPattern::BitReversal => "10(b)",
            _ => "10(c)",
        };
        println!(
            "=== Figure {fig}: latency vs accepted traffic, {} traffic ===",
            pattern.name()
        );
        let results = run_pattern(pattern, &cfg, &loads, &topos, &cache);
        summarize(&results);
        println!();
    }
    println!("(paper T3: DSN improves latency vs torus by 15% on uniform, 4.3% on bit reversal;\n throughput of all three topologies is similar)");
    println!(
        "# routing cache: {} build(s), {} hit(s)",
        cache.misses(),
        cache.hits()
    );
    if let Some(window) = telemetry {
        run_telemetry_pass(&cfg, window, &topos, &cache);
    }
}
