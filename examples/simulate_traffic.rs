//! Drive the cycle-level simulator on a small network: compare DSN, torus
//! and RANDOM under one traffic pattern and a few load points, and compare
//! the topology-agnostic adaptive routing against DSN's custom routing
//! (the Section VII.B discussion).
//!
//! Run: `cargo run --release --example simulate_traffic [uniform|bitrev|neighbor]`

use dsn::core::dsn::Dsn;
use dsn::core::graph::Graph;
use dsn::core::parallel::Parallelism;
use dsn::core::topology::TopologySpec;
use dsn::sim::sweep::{format_sweep, load_sweep_cached, SweepResult};
use dsn::sim::{
    AdaptiveEscape, DsnAlgorithmic, RoutingCache, SimConfig, SimRouting, TrafficPattern,
};
use std::sync::Arc;

/// One load sweep of `routing` on `graph`, fanned out over every core.
fn sweep(
    label: &str,
    graph: Arc<Graph>,
    cfg: &SimConfig,
    routing: Arc<dyn SimRouting>,
    pattern: &TrafficPattern,
    loads: &[f64],
    seed: u64,
) -> SweepResult {
    let key = routing.scheme_key();
    load_sweep_cached(
        label,
        graph,
        cfg,
        &Arc::new(RoutingCache::new()),
        &key,
        || routing,
        pattern,
        loads,
        seed,
        &Parallelism::auto(),
    )
}

fn main() {
    let pattern = match std::env::args().nth(1).as_deref() {
        Some("bitrev") => TrafficPattern::BitReversal,
        Some("neighbor") => TrafficPattern::neighboring_paper(),
        _ => TrafficPattern::Uniform,
    };

    // Shortened windows keep this example interactive (~seconds).
    let cfg = SimConfig {
        warmup_cycles: 5_000,
        measure_cycles: 15_000,
        drain_cycles: 15_000,
        ..SimConfig::default()
    };
    let loads = [1.0, 4.0, 8.0, 11.0];

    println!(
        "=== topology comparison, {} traffic, adaptive + up*/down* escape ===\n",
        pattern.name()
    );
    for spec in TopologySpec::paper_trio(64, 0xD5B0_2013) {
        let built = spec.build().expect("topology");
        let graph = Arc::new(built.graph);
        let routing = Arc::new(AdaptiveEscape::new(graph.clone(), cfg.vcs));
        let result = sweep(&built.name, graph, &cfg, routing, &pattern, &loads, 1);
        println!("{}", format_sweep(&result));
    }

    println!("=== routing comparison on DSN-5-64: agnostic vs custom ===\n");
    let dsn = Arc::new(Dsn::new(64, 5).expect("dsn"));
    let graph = Arc::new(dsn.graph().clone());
    let agnostic = Arc::new(AdaptiveEscape::new(graph.clone(), cfg.vcs));
    let result = sweep(
        "DSN-5-64 / adaptive",
        graph.clone(),
        &cfg,
        agnostic,
        &pattern,
        &loads,
        2,
    );
    println!("{}", format_sweep(&result));
    let custom = Arc::new(DsnAlgorithmic::new(dsn));
    let label = "DSN-5-64 / custom (3-phase, DSN-V VCs)";
    let result = sweep(label, graph, &cfg, custom, &pattern, &loads, 2);
    println!("{}", format_sweep(&result));
}
