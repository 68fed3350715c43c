//! Section VII.B's closing experiment, fleshed out: DSN custom routing
//! versus the topology-agnostic adaptive/up*/down* scheme in full
//! simulation — latency at low load and saturation throughput under
//! uniform, bit-reversal and tornado traffic. The paper reports only that
//! "our custom routing makes traffic significantly more balanced ... can
//! lead to better throughput for heavier traffic"; this binary puts
//! numbers on it.
//!
//! Run: `cargo run --release -p dsn-bench --bin custom_vs_agnostic [--quick]`

use dsn_bench::{search_horizons, RunArgs};
use dsn_core::dsn::Dsn;
use dsn_core::parallel::Parallelism;
use dsn_sim::sweep::{find_saturation_cached, load_sweep_cached};
use dsn_sim::{
    AdaptiveEscape, DsnAlgorithmic, MinimalAdaptiveDsn, RoutingCache, SimConfig, SimRouting,
    TrafficPattern, UpDownRouting,
};
use std::sync::Arc;

fn main() {
    let args = RunArgs::parse("custom_vs_agnostic [--quick]", "--quick");
    let (quick, par) = (args.quick, args.par);
    let mut cfg = SimConfig::default();
    let tol = search_horizons(&mut cfg, quick);

    let dsn = Arc::new(Dsn::new(64, 5).expect("dsn"));
    let graph = Arc::new(dsn.graph().clone());
    let vcs = cfg.vcs;

    println!("DSN-5-64: custom (3-phase, DSN-V VCs) vs agnostic (adaptive + up*/down* escape)");
    println!(
        "  {:<14} {:<22} {:>14} {:>12}",
        "pattern", "routing", "low-load [ns]", "sat [Gbps]"
    );
    fn report(
        name: &str,
        pattern: &TrafficPattern,
        graph: &Arc<dsn_core::Graph>,
        cfg: &SimConfig,
        tol: f64,
        routing: &Arc<dyn SimRouting>,
        par: &Parallelism,
    ) {
        let cache = Arc::new(RoutingCache::new());
        let key = routing.scheme_key();
        let r = || routing.clone();
        let sweep = load_sweep_cached(
            name,
            graph.clone(),
            cfg,
            &cache,
            &key,
            r,
            pattern,
            &[1.0],
            0xC05,
            par,
        );
        let sat = find_saturation_cached(
            graph.clone(),
            cfg,
            &cache,
            &key,
            r,
            pattern,
            2.0,
            40.0,
            tol,
            0xC05,
            par,
        );
        println!(
            "  {:<14} {:<22} {:>14.0} {:>12.1}",
            pattern.name(),
            name,
            sweep.low_load_latency_ns(),
            sat
        );
    }

    // Each scheme is immutable during a run, so one build serves every
    // pattern's sweep and saturation search.
    let agnostic: Arc<dyn SimRouting> = Arc::new(AdaptiveEscape::new(graph.clone(), vcs));
    // The paper's actual comparison target: plain up*/down*.
    let ud_only: Arc<dyn SimRouting> = Arc::new(UpDownRouting::new(graph.clone(), vcs));
    let custom4: Arc<dyn SimRouting> = Arc::new(DsnAlgorithmic::new(dsn.clone()));
    // 2 lanes per VC class needs 8 VCs; same deadlock-freedom proofs.
    let mut cfg8 = cfg.clone();
    cfg8.vcs = 8;
    let custom8: Arc<dyn SimRouting> = Arc::new(DsnAlgorithmic::new(dsn.clone()).with_lanes(2));
    // The paper's stated future work: minimal-adaptive custom routing
    // with the DSN-V discipline as the (balanced) escape layer.
    let min_adaptive: Arc<dyn SimRouting> = Arc::new(MinimalAdaptiveDsn::new(dsn.clone(), 8));

    for pattern in [
        TrafficPattern::Uniform,
        TrafficPattern::BitReversal,
        TrafficPattern::Tornado,
    ] {
        for (name, cfg, routing) in [
            ("adaptive+escape", &cfg, &agnostic),
            ("up*/down* only", &cfg, &ud_only),
            ("custom 4vc", &cfg, &custom4),
            ("custom 8vc (2 lanes)", &cfg8, &custom8),
            ("min-adaptive+dsnv 8vc", &cfg8, &min_adaptive),
        ] {
            report(name, &pattern, &graph, cfg, tol, routing, &par);
        }
    }
    println!();
    println!(
        "Reading: with the same 4 VCs, DSN-V custom routing spends them on\n\
         deadlock classes (one lane each) and saturates at or below plain\n\
         up*/down*; with a second lane per class (8 VCs) it saturates at or\n\
         above up*/down* — the paper's Section VII.B claim (its static balance\n\
         advantage pays off under heavy load) needs that VC budget. Fully\n\
         adaptive routing dominates both by avoiding congestion dynamically; its\n\
         cost is O(n)-entry tables per switch vs custom's O(log n) bits\n\
         (see routing_cost), plus the traffic_balance static analysis."
    );
}
