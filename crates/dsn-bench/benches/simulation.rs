//! Criterion bench: simulator throughput behind Figure 10 — a shortened
//! 64-switch run per topology under uniform traffic at 4 Gbit/s/host,
//! plus dense-vs-event engine rows on the 256-switch trio at the lowest
//! and a near-saturation fig10 load point (the event core's headline is
//! low-load speedup: idle units cost it nothing), plus a `high_load`
//! group isolating the allocation hot path (64-switch trio at
//! 11 Gbit/s/host, event engine, prebuilt routing and flat tables), plus
//! a `telemetry_overhead` group pinning the zero-cost-when-off claim:
//! `Telemetry::Off` must sit within noise of the pre-telemetry event
//! engine, with the telemetry-on row alongside for the enabled cost.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use dsn_bench::trio;
use dsn_sim::{AdaptiveEscape, EngineKind, SimConfig, SimRouting, Simulator, TrafficPattern};
use std::hint::black_box;
use std::sync::Arc;

fn run_once(graph: &Arc<dsn_core::graph::Graph>, cfg: &SimConfig, gbps: f64) -> dsn_sim::RunStats {
    let rate = cfg.packets_per_cycle_for_gbps(gbps);
    let routing = Arc::new(AdaptiveEscape::new(graph.clone(), cfg.vcs));
    Simulator::new(
        graph.clone(),
        cfg.clone(),
        routing,
        TrafficPattern::Uniform,
        rate,
        7,
    )
    .run()
}

fn bench_sim(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_simulation");
    group.sample_size(10);
    let cfg = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 4_000,
        drain_cycles: 2_000,
        ..SimConfig::default()
    };
    for spec in trio(64) {
        let built = spec.build().unwrap();
        let graph = Arc::new(built.graph);
        group.bench_with_input(
            BenchmarkId::new("7k_cycles_4gbps", &built.name),
            &graph,
            |b, graph| b.iter(|| black_box(run_once(graph, &cfg, 4.0))),
        );
    }
    group.finish();

    // Engine comparison on the 256-switch trio: the dense reference pays
    // O(network) per cycle regardless of load, the event core O(work).
    let mut group = c.benchmark_group("engine_dense_vs_event");
    group.sample_size(10);
    for (gbps, point) in [(0.5f64, "low_0.5gbps"), (11.0, "sat_11gbps")] {
        for spec in trio(256) {
            let built = spec.build().unwrap();
            let graph = Arc::new(built.graph);
            for engine in [EngineKind::Dense, EngineKind::Event] {
                let cfg = SimConfig {
                    engine,
                    warmup_cycles: 1_000,
                    measure_cycles: 4_000,
                    drain_cycles: 2_000,
                    ..SimConfig::default()
                };
                group.bench_with_input(
                    BenchmarkId::new(
                        format!("{point}_{}", engine.name()),
                        format!("{}_n256", built.name),
                    ),
                    &graph,
                    |b, graph| b.iter(|| black_box(run_once(graph, &cfg, gbps))),
                );
            }
        }
    }
    group.finish();

    // Hot-path isolation at saturation load: 64-switch trio at
    // 11 Gbit/s/host on the event engine with the routing *prebuilt* (and
    // the flat arena precompiled) outside the timed loop, so the rows
    // time purely the per-allocation work.
    let mut group = c.benchmark_group("high_load");
    group.sample_size(10);
    for spec in trio(64) {
        let built = spec.build().unwrap();
        let graph = Arc::new(built.graph);
        let cfg = SimConfig {
            engine: EngineKind::Event,
            warmup_cycles: 1_000,
            measure_cycles: 4_000,
            drain_cycles: 2_000,
            ..SimConfig::default()
        };
        let routing: Arc<dyn SimRouting> = Arc::new(AdaptiveEscape::new(graph.clone(), cfg.vcs));
        routing.compiled_flat();
        let rate = cfg.packets_per_cycle_for_gbps(11.0);
        group.bench_with_input(
            BenchmarkId::new("event_11gbps_flat", &built.name),
            &graph,
            |b, graph| {
                b.iter(|| {
                    black_box(
                        Simulator::new(
                            graph.clone(),
                            cfg.clone(),
                            routing.clone(),
                            TrafficPattern::Uniform,
                            rate,
                            7,
                        )
                        .run(),
                    )
                })
            },
        );
    }
    // Saturated steady state at scale: the 256-switch trio at
    // 11 Gbit/s/host (the BENCH_sim near-saturation point) on the event
    // engine, flat tables, routing prebuilt. This is the row the
    // cache-conscious SoA layout, the ring arena and the zero-alloc steady
    // state target.
    for spec in trio(256) {
        let built = spec.build().unwrap();
        let graph = Arc::new(built.graph);
        let cfg = SimConfig {
            engine: EngineKind::Event,
            warmup_cycles: 1_000,
            measure_cycles: 4_000,
            drain_cycles: 2_000,
            ..SimConfig::default()
        };
        let routing: Arc<dyn SimRouting> = Arc::new(AdaptiveEscape::new(graph.clone(), cfg.vcs));
        routing.compiled_flat();
        let rate = cfg.packets_per_cycle_for_gbps(11.0);
        group.bench_with_input(
            BenchmarkId::new("sat_11gbps_event", format!("{}_n256", built.name)),
            &graph,
            |b, graph| {
                b.iter(|| {
                    black_box(
                        Simulator::new(
                            graph.clone(),
                            cfg.clone(),
                            routing.clone(),
                            TrafficPattern::Uniform,
                            rate,
                            7,
                        )
                        .run(),
                    )
                })
            },
        );
    }
    group.finish();

    // Telemetry overhead on a 256-switch DSN at 0.5 Gbit/s/host, event
    // engine: the `off` row is the acceptance gate (hooks must compile to
    // no-ops), the `on` row documents the cost of recording.
    let mut group = c.benchmark_group("telemetry_overhead");
    group.sample_size(10);
    let built = trio(256)[0].build().unwrap();
    let graph = Arc::new(built.graph);
    let cfg = SimConfig {
        engine: EngineKind::Event,
        warmup_cycles: 1_000,
        measure_cycles: 4_000,
        drain_cycles: 2_000,
        ..SimConfig::default()
    };
    group.bench_with_input(
        BenchmarkId::new("event_n256_0.5gbps", "off"),
        &graph,
        |b, graph| b.iter(|| black_box(run_once(graph, &cfg, 0.5))),
    );
    let mut cfg_on = cfg.clone();
    cfg_on.telemetry = Some(cfg_on.standard_telemetry(1_000));
    group.bench_with_input(
        BenchmarkId::new("event_n256_0.5gbps", "on_w1000"),
        &graph,
        |b, graph| b.iter(|| black_box(run_once(graph, &cfg_on, 0.5))),
    );
    group.finish();
}

/// Flow-layer overhead: one quick-horizon run per workload class of the
/// flow suite (web-search open-loop flows, incast waves, recursive-
/// doubling allreduce) on the 64-switch DSN, event engine, prebuilt
/// routing — the cost of per-flow pacing, tagging and FCT accounting on
/// top of the packet engine.
fn bench_flows(c: &mut Criterion) {
    use dsn_bench::flows::{flow_config, FlowWorkloadKind, FLOW_SEED};

    let mut group = c.benchmark_group("flow_workloads");
    group.sample_size(10);
    let built = trio(64)[0].build().unwrap();
    let graph = Arc::new(built.graph);
    for kind in FlowWorkloadKind::all() {
        let cfg = flow_config(EngineKind::Event, kind, true);
        let routing: Arc<dyn SimRouting> = Arc::new(AdaptiveEscape::new(graph.clone(), cfg.vcs));
        let workload = kind.build(64 * cfg.hosts_per_switch);
        group.bench_with_input(
            BenchmarkId::new("dsn64_event_quick", kind.name()),
            &graph,
            |b, graph| {
                b.iter(|| {
                    black_box(
                        Simulator::with_workload(
                            graph.clone(),
                            cfg.clone(),
                            routing.clone(),
                            workload.clone(),
                            FLOW_SEED,
                        )
                        .run(),
                    )
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_sim, bench_flows);
criterion_main!(benches);
