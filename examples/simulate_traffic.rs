//! Drive the cycle-level simulator on a small network: compare DSN, torus
//! and RANDOM under one traffic pattern and a few load points, and compare
//! the topology-agnostic adaptive routing against DSN's custom routing
//! (the Section VII.B discussion).
//!
//! Run: `cargo run --release --example simulate_traffic [uniform|bitrev|neighbor]`

use dsn::core::dsn::Dsn;
use dsn::core::topology::TopologySpec;
use dsn::sim::sweep::{format_sweep, load_sweep};
use dsn::sim::{AdaptiveEscape, DsnAlgorithmic, SimConfig, TrafficPattern};
use std::sync::Arc;

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
        let vcs = cfg.vcs;
        let g2 = graph.clone();
        let sweep = load_sweep(
            built.name,
            graph,
            &cfg,
            move || Arc::new(AdaptiveEscape::new(g2.clone(), vcs)),
            &pattern,
            &loads,
            1,
        );
        println!("{}", format_sweep(&sweep));
    }

    println!("=== routing comparison on DSN-5-64: agnostic vs custom ===\n");
    let dsn = Arc::new(Dsn::new(64, 5).expect("dsn"));
    let graph = Arc::new(dsn.graph().clone());
    let vcs = cfg.vcs;
    let g2 = graph.clone();
    let agnostic = load_sweep(
        "DSN-5-64 / adaptive",
        graph.clone(),
        &cfg,
        move || Arc::new(AdaptiveEscape::new(g2.clone(), vcs)),
        &pattern,
        &loads,
        2,
    );
    println!("{}", format_sweep(&agnostic));
    let dsn2 = dsn.clone();
    let custom = load_sweep(
        "DSN-5-64 / custom (3-phase, DSN-V VCs)",
        graph,
        &cfg,
        move || Arc::new(DsnAlgorithmic::new(dsn2.clone())),
        &pattern,
        &loads,
        2,
    );
    println!("{}", format_sweep(&custom));
}
