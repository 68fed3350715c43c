//! Extension experiment: exact saturation throughput of each topology.
//!
//! The paper's Figure 10 x-axis stops at 12 Gbit/s/host with none of the
//! three topologies saturated ("all the topologies have similar
//! throughput"). This binary pushes past the plotted range with a bisection
//! search and reports the actual saturation point plus hotspot-channel
//! utilization per topology and traffic pattern.
//!
//! Run: `cargo run --release -p dsn-bench --bin saturation_search \
//!       [--quick] [--threads N | --serial] [--telemetry[=WINDOW]]`
//!
//! `DSN_PHASE_TIMING=1` turns on the engine's per-phase wall-clock
//! breakdown (wheel-drain / inject / route / arbitrate / eject, reported
//! to stderr at the end of each run).
//!
//! `--telemetry[=WINDOW]` instruments the near-saturation re-run (90% of
//! the found saturation point) and prints where the cycles go — queueing
//! vs credit-stall decomposition and the hotspot links on the heatmap —
//! plus `telemetry_sat_<topology>_<pattern>.{json,csv}` exports.

use dsn_bench::{emit_telemetry, search_horizons, trio_graphs, RunArgs};
use dsn_sim::sweep::find_saturation_cached;
use dsn_sim::{AdaptiveEscape, RoutingCache, SimConfig, Simulator, TrafficPattern};
use std::sync::Arc;

fn main() {
    let args = RunArgs::parse(
        "saturation_search [--quick] [--threads N | --serial] [--telemetry[=WINDOW]]",
        "--quick --serial --threads --telemetry",
    );
    let (par, quick, telemetry) = (args.par, args.quick, args.telemetry);
    let mut cfg = SimConfig::default();
    let tol = search_horizons(&mut cfg, quick);

    // Build each topology once, outside the pattern loop: the routing cache
    // keys on the Arc<Graph> identity, so all three patterns' searches (and
    // the near-saturation re-runs) share one routing build per topology.
    let topos = trio_graphs(64);
    let cache = Arc::new(RoutingCache::new());
    let key = AdaptiveEscape::key_for(cfg.vcs);

    println!("Saturation search (beyond the paper's 12 Gbit/s/host axis)");
    println!("# parallelism: {par}");
    println!(
        "  {:<14} {:<14} {:>12} {:>10} {:>10}",
        "topology", "pattern", "sat [Gbps]", "mean-util", "max-util"
    );
    for pattern in [
        TrafficPattern::Uniform,
        TrafficPattern::BitReversal,
        TrafficPattern::neighboring_paper(),
    ] {
        for (name, graph) in &topos {
            let vcs = cfg.vcs;
            let g2 = graph.clone();
            let make =
                move || -> Arc<dyn dsn_sim::SimRouting> { Arc::new(AdaptiveEscape::new(g2, vcs)) };
            let sat = find_saturation_cached(
                graph.clone(),
                &cfg,
                &cache,
                &key,
                make,
                &pattern,
                2.0,
                40.0,
                tol,
                0x5A7,
                &par,
            );
            // Re-run near saturation to report channel utilization (and,
            // with --telemetry, where the cycles go at that load). The
            // routing is a guaranteed cache hit by now.
            let g2 = graph.clone();
            let routing =
                cache.get_or_build(graph, &key, move || Arc::new(AdaptiveEscape::new(g2, vcs)));
            let rate = cfg.packets_per_cycle_for_gbps(sat * 0.9);
            let mut sim = Simulator::new(
                graph.clone(),
                cfg.clone(),
                routing,
                pattern.clone(),
                rate,
                0x5A7,
            );
            if let Some(window) = telemetry {
                sim = sim.with_telemetry(cfg.standard_telemetry(window));
            }
            let (stats, report) = sim.run_with_telemetry();
            println!(
                "  {:<14} {:<14} {:>12.1} {:>10.3} {:>10.3}",
                name,
                pattern.name(),
                sat,
                stats.mean_channel_utilization,
                stats.max_channel_utilization
            );
            if let Some(report) = report {
                let tag = format!(
                    "sat_{}_{}",
                    name.replace(['-', ' '], "_").to_lowercase(),
                    pattern.name().replace(' ', "_")
                );
                emit_telemetry(&tag, &report);
            }
        }
    }
    println!(
        "# routing cache: {} build(s), {} hit(s)",
        cache.misses(),
        cache.hits()
    );
}
