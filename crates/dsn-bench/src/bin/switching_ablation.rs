//! Switching-mode ablation: virtual cut-through (the paper's choice) versus
//! wormhole, across buffer sizes. VCT decouples routers (a blocked packet
//! fits entirely in one buffer) at the cost of one-packet buffers; wormhole
//! gets away with tiny buffers but lets blocked packets straddle routers,
//! so it saturates earlier — this quantifies why the paper picked VCT.
//!
//! Run: `cargo run --release -p dsn-bench --bin switching_ablation \
//!       [--quick] [--engine dense|event]`

use dsn_bench::{search_horizons, RunArgs};
use dsn_core::dsn::Dsn;
use dsn_core::parallel::Parallelism;
use dsn_sim::sweep::find_saturation_cached;
use dsn_sim::{AdaptiveEscape, RoutingCache, SimConfig, Simulator, Switching, TrafficPattern};
use std::sync::Arc;

fn main() {
    let args = RunArgs::parse(
        "switching_ablation [--quick] [--engine dense|event]",
        "--quick --engine",
    );
    let quick = args.quick;
    let dsn = Dsn::new(64, 5).expect("dsn");
    let graph = Arc::new(dsn.into_graph());
    let mut base = SimConfig {
        engine: args.engine,
        ..SimConfig::default()
    };
    let tol = search_horizons(&mut base, quick);

    // Routing is independent of the switching mode and buffer size, so one
    // cached build serves all six cases (and every probe inside each
    // saturation search).
    let cache = Arc::new(RoutingCache::new());
    let key = AdaptiveEscape::key_for(base.vcs);

    println!("Switching ablation on DSN-5-64, uniform traffic, adaptive + escape routing");
    println!("# engine: {}", base.engine.name());
    println!(
        "  {:<22} {:>12} {:>14} {:>12}",
        "mode", "buffer[flit]", "low-load [ns]", "sat [Gbps]"
    );
    let cases = [
        (Switching::VirtualCutThrough, 40usize),
        (Switching::VirtualCutThrough, 66),
        (Switching::Wormhole, 4),
        (Switching::Wormhole, 8),
        (Switching::Wormhole, 16),
        (Switching::Wormhole, 40),
    ];
    for (mode, buffer) in cases {
        let cfg = SimConfig {
            switching: mode,
            buffer_flits: buffer,
            ..base.clone()
        };
        let vcs = cfg.vcs;
        let g2 = graph.clone();
        let routing =
            cache.get_or_build(&graph, &key, move || Arc::new(AdaptiveEscape::new(g2, vcs)));
        let rate = cfg.packets_per_cycle_for_gbps(1.0);
        let low = Simulator::new(
            graph.clone(),
            cfg.clone(),
            routing,
            TrafficPattern::Uniform,
            rate,
            0x5317,
        )
        .run();
        let g2 = graph.clone();
        let sat = find_saturation_cached(
            graph.clone(),
            &cfg,
            &cache,
            &key,
            move || Arc::new(AdaptiveEscape::new(g2, vcs)),
            &TrafficPattern::Uniform,
            2.0,
            40.0,
            tol,
            0x5317,
            &Parallelism::auto(),
        );
        let name = match mode {
            Switching::VirtualCutThrough => "virtual cut-through",
            Switching::Wormhole => "wormhole",
        };
        println!(
            "  {:<22} {:>12} {:>14.0} {:>12.1}",
            name, buffer, low.avg_latency_ns, sat
        );
    }
    println!(
        "# routing cache: {} build(s), {} hit(s)",
        cache.misses(),
        cache.hits()
    );
}
