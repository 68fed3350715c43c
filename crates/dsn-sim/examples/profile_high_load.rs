//! Profiling driver for the allocation hot path: repeats the CI high-load
//! fingerprint row (DSN-5-64, uniform, 11 Gbit/s/host)
//! enough times for a sampling profiler to see it.
//!
//! Usage: `cargo build --release -p dsn-sim --example profile_high_load`
//! then point your profiler at the binary, e.g.
//! `gprofng collect app target/release/examples/profile_high_load [reps]`.

use dsn_core::dsn::Dsn;
use dsn_sim::{AdaptiveEscape, SimConfig, SimRouting, Simulator, TrafficPattern};
use std::sync::Arc;

fn main() {
    let reps: u32 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = SimConfig {
        warmup_cycles: 5_000,
        measure_cycles: 15_000,
        drain_cycles: 10_000,
        ..SimConfig::default()
    };
    let rate = cfg.packets_per_cycle_for_gbps(11.0);
    let routing: Arc<dyn SimRouting> = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let mut delivered = 0u64;
    let start = std::time::Instant::now();
    for _ in 0..reps {
        let stats = Simulator::new(
            g.clone(),
            cfg.clone(),
            routing.clone(),
            TrafficPattern::Uniform,
            rate,
            2024,
        )
        .run();
        delivered += stats.delivered_packets;
    }
    let wall = start.elapsed().as_secs_f64();
    println!(
        "{reps} reps: {delivered} delivered, {:.0} cycles/s",
        reps as f64 * cfg.total_cycles() as f64 / wall
    );
}
