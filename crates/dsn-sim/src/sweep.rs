//! Load-sweep harness: run the simulator across a range of offered loads
//! (fanned out over the vendored rayon's workers) and produce the
//! latency-vs-accepted-traffic curves of the paper's Figure 10.
//!
//! Every sweep point of one invocation shares a single routing instance,
//! pulled from a [`RoutingCache`] before the fan-out so no rayon worker
//! pays for its port-mask tables: `make_routing` runs at most once per
//! `(topology, scheme)` in the cache's life (the schemes are immutable
//! during a run). The cache also deduplicates builds across *separate*
//! sweeps of the same topology, and across the fault rebuilds inside
//! degraded sweeps. A caller with nothing to share passes a fresh cache.
//!
//! Sweeps parallelize *across* points: each simulation is single-threaded,
//! so independent load points and probes are what fill the workers. Each
//! sweep and search has one code path for every worker count: one worker
//! runs the same fan-out inline on the calling thread, and both entry
//! points open the [`Parallelism`] scope they are given.

use crate::cache::RoutingCache;
use crate::config::SimConfig;
use crate::engine::Simulator;
use crate::routing::SimRouting;
use crate::stats::RunStats;
use crate::traffic::TrafficPattern;
use dsn_core::graph::Graph;
use dsn_core::parallel::Parallelism;
use rayon::prelude::*;
use std::sync::Arc;

/// One point of a load sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// Offered load for this run, in Gbit/s/host.
    pub offered_gbps: f64,
    /// Full run statistics.
    pub stats: RunStats,
}

/// Latency-vs-load curve for one topology + routing + pattern.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Display label (topology + routing).
    pub label: String,
    /// Traffic pattern name.
    pub pattern: String,
    /// Points in increasing offered load.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// Accepted throughput at the last non-saturated point (the paper's
    /// "largest amount of traffic accepted before the network saturates"),
    /// in Gbit/s/host. Falls back to the highest accepted value measured.
    pub fn saturation_throughput_gbps(&self) -> f64 {
        let last_ok = self
            .points
            .iter()
            .filter(|p| !p.stats.saturated())
            .map(|p| p.stats.accepted_gbps_per_host)
            .fold(0.0f64, f64::max);
        if last_ok > 0.0 {
            last_ok
        } else {
            self.points
                .iter()
                .map(|p| p.stats.accepted_gbps_per_host)
                .fold(0.0f64, f64::max)
        }
    }

    /// Mean latency (ns) at the lowest offered load — the paper's
    /// "latency under low-traffic load".
    pub fn low_load_latency_ns(&self) -> f64 {
        self.points
            .first()
            .map(|p| p.stats.avg_latency_ns)
            .unwrap_or(0.0)
    }
}

/// Run a load sweep: one simulation per offered load (Gbit/s/host), fanned
/// out over `par`'s workers. The scheme for `(graph, scheme_key)` is
/// fetched from (or built into) `cache` once, before the fan-out, and the
/// cache is threaded into every simulation so fault rebuilds reaching the
/// same survivor state are also built only once across the sweep. Each
/// point is seeded as `seed ^ offered.to_bits()`, so the curve is
/// identical no matter how many points run concurrently.
#[allow(clippy::too_many_arguments)]
pub fn load_sweep_cached(
    label: impl Into<String>,
    graph: Arc<Graph>,
    cfg: &SimConfig,
    cache: &Arc<RoutingCache>,
    scheme_key: &str,
    make_routing: impl FnOnce() -> Arc<dyn SimRouting>,
    pattern: &TrafficPattern,
    offered_gbps: &[f64],
    seed: u64,
    par: &Parallelism,
) -> SweepResult {
    let routing = cache.get_or_build(&graph, scheme_key, make_routing);
    par.run(|| {
        run_sweep_points(
            label.into(),
            graph,
            cfg,
            routing,
            cache,
            pattern,
            offered_gbps,
            seed,
        )
    })
}

#[allow(clippy::too_many_arguments)]
fn run_sweep_points(
    label: String,
    graph: Arc<Graph>,
    cfg: &SimConfig,
    routing: Arc<dyn SimRouting>,
    cache: &Arc<RoutingCache>,
    pattern: &TrafficPattern,
    offered_gbps: &[f64],
    seed: u64,
) -> SweepResult {
    let run_point = |gbps: f64| -> SweepPoint {
        let rate = cfg.packets_per_cycle_for_gbps(gbps);
        let sim = Simulator::new(
            graph.clone(),
            cfg.clone(),
            routing.clone(),
            pattern.clone(),
            rate,
            seed ^ gbps.to_bits(),
        )
        .with_routing_cache(cache.clone());
        SweepPoint {
            offered_gbps: gbps,
            stats: sim.run(),
        }
    };
    let points: Vec<SweepPoint> = offered_gbps
        .par_iter()
        .map(|&gbps| run_point(gbps))
        .collect();
    SweepResult {
        label,
        pattern: pattern.name().to_string(),
        points,
    }
}

/// Interior probe loads per refinement round of [`find_saturation_cached`]:
/// the bracket shrinks by `SECTION_PROBES + 1` per round, and all probes
/// of a round are independent simulations that can run concurrently.
const SECTION_PROBES: usize = 4;

/// Find the saturation throughput (Gbit/s/host) by a sectioned search on
/// offered load: the largest load in `[lo, hi]` the network accepts
/// without saturating, to within `tol`. Returns `hi` when even the top of
/// the range is absorbed (the true saturation point lies above the probe
/// range). One simulation per probe.
///
/// The `probe(hi)` / `probe(lo)` bracket runs both probes under
/// `rayon::join` (both verdicts are needed unless the top of the range is
/// absorbed, the common case when searching); each refinement round then
/// places `SECTION_PROBES` evenly spaced loads inside the bracket and
/// simulates them as one fan-out, narrowing to the gap around the lowest
/// saturated probe. Every probe is seeded as `seed ^ load.to_bits()`, and
/// the bracketing decision depends only on the probe verdicts, so the
/// result is identical for every worker count. The fan-outs run under
/// `par`; see [`load_sweep_cached`] for the caching contract.
#[allow(clippy::too_many_arguments)]
pub fn find_saturation_cached(
    graph: Arc<Graph>,
    cfg: &SimConfig,
    cache: &Arc<RoutingCache>,
    scheme_key: &str,
    make_routing: impl FnOnce() -> Arc<dyn SimRouting>,
    pattern: &TrafficPattern,
    lo: f64,
    hi: f64,
    tol: f64,
    seed: u64,
    par: &Parallelism,
) -> f64 {
    let routing = cache.get_or_build(&graph, scheme_key, make_routing);
    par.run(|| saturation_search(graph, cfg, routing, cache, pattern, lo, hi, tol, seed))
}

#[allow(clippy::too_many_arguments)]
fn saturation_search(
    graph: Arc<Graph>,
    cfg: &SimConfig,
    routing: Arc<dyn SimRouting>,
    cache: &Arc<RoutingCache>,
    pattern: &TrafficPattern,
    mut lo: f64,
    mut hi: f64,
    tol: f64,
    seed: u64,
) -> f64 {
    assert!(lo > 0.0 && hi > lo && tol > 0.0, "invalid search range");
    let probe = |gbps: f64| -> bool {
        let rate = cfg.packets_per_cycle_for_gbps(gbps);
        Simulator::new(
            graph.clone(),
            cfg.clone(),
            routing.clone(),
            pattern.clone(),
            rate,
            seed ^ gbps.to_bits(),
        )
        .with_routing_cache(cache.clone())
        .run()
        .saturated()
    };
    // Both bracket verdicts at once: the lo verdict is needed in every
    // case that continues.
    let (hi_sat, lo_sat) = rayon::join(|| probe(hi), || probe(lo));
    if !hi_sat {
        return hi;
    }
    if lo_sat {
        return lo; // saturated everywhere in range; report the floor
    }
    // Invariant: probe(lo) is absorbed, probe(hi) saturated.
    while hi - lo > tol {
        let step = (hi - lo) / (SECTION_PROBES + 1) as f64;
        let mids: Vec<f64> = (1..=SECTION_PROBES).map(|i| lo + step * i as f64).collect();
        let verdicts: Vec<bool> = mids.par_iter().map(|&m| probe(m)).collect();
        match verdicts.iter().position(|&saturated| saturated) {
            Some(0) => hi = mids[0],
            Some(i) => {
                lo = mids[i - 1];
                hi = mids[i];
            }
            None => lo = mids[SECTION_PROBES - 1],
        }
    }
    lo
}

/// The offered-load grid of the paper's Figure 10 (0.5 – 12 Gbit/s/host).
pub fn paper_load_grid() -> Vec<f64> {
    vec![
        0.5, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0, 12.0,
    ]
}

/// Render a sweep as aligned text rows (offered, accepted, latency-ns,
/// delivery ratio) for the figure binaries.
pub fn format_sweep(result: &SweepResult) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "# {} / {} traffic\n# {:>8} {:>10} {:>12} {:>9} {:>6}\n",
        result.label, result.pattern, "offered", "accepted", "latency[ns]", "delivered", "sat"
    ));
    for p in &result.points {
        out.push_str(&format!(
            "  {:>8.2} {:>10.3} {:>12.1} {:>9.3} {:>6}\n",
            p.offered_gbps,
            p.stats.accepted_gbps_per_host,
            p.stats.avg_latency_ns,
            p.stats.delivery_ratio(),
            if p.stats.saturated() { "yes" } else { "no" },
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::AdaptiveEscape;
    use dsn_core::ring::Ring;

    /// A ring-8 sweep on a fresh cache.
    fn ring_sweep(cfg: &SimConfig, grid: &[f64], seed: u64) -> SweepResult {
        let g = Arc::new(Ring::new(8).unwrap().into_graph());
        let vcs = cfg.vcs;
        load_sweep_cached(
            "ring-8",
            g.clone(),
            cfg,
            &Arc::new(RoutingCache::new()),
            &AdaptiveEscape::key_for(vcs),
            || Arc::new(AdaptiveEscape::new(g.clone(), vcs)),
            &TrafficPattern::Uniform,
            grid,
            seed,
            &Parallelism::auto(),
        )
    }

    #[test]
    fn sweep_produces_monotone_accepted_until_saturation() {
        // test_small has cycle_ns = 1 and 256-bit flits: x Gbps/host ->
        // x/256 flits per cycle per host... keep loads tiny.
        let res = ring_sweep(&SimConfig::test_small(), &[0.5, 2.0, 8.0], 1);
        assert_eq!(res.points.len(), 3);
        assert!(res.points[0].stats.delivered_packets > 0);
        // offered recorded in order
        assert!(res
            .points
            .windows(2)
            .all(|w| w[0].offered_gbps < w[1].offered_gbps));
        let text = format_sweep(&res);
        assert!(text.contains("ring-8"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn find_saturation_brackets() {
        // A ring of 8 with tiny packets saturates somewhere; bisection must
        // return a value inside the probe range, and the point just below
        // must actually be absorbable.
        let g = Arc::new(Ring::new(8).unwrap().into_graph());
        let cfg = SimConfig::test_small();
        let vcs = cfg.vcs;
        let sat = find_saturation_cached(
            g.clone(),
            &cfg,
            &Arc::new(RoutingCache::new()),
            &AdaptiveEscape::key_for(vcs),
            || Arc::new(AdaptiveEscape::new(g.clone(), vcs)),
            &TrafficPattern::Uniform,
            1.0,
            200.0,
            10.0,
            3,
            &Parallelism::auto(),
        );
        assert!((1.0..=200.0).contains(&sat), "saturation {sat}");
    }

    #[test]
    fn channel_utilization_reported() {
        let res = ring_sweep(&SimConfig::test_small(), &[4.0], 9);
        let s = &res.points[0].stats;
        assert!(s.mean_channel_utilization > 0.0);
        assert!(s.max_channel_utilization >= s.mean_channel_utilization);
        assert!(s.max_channel_utilization <= 1.0 + 1e-9);
    }

    #[test]
    fn cached_sweep_is_bit_identical_and_builds_once() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let g = Arc::new(Ring::new(8).unwrap().into_graph());
        let cfg = SimConfig::test_small();
        let vcs = cfg.vcs;
        let grid = [0.5, 2.0, 8.0];
        let baseline = ring_sweep(&cfg, &grid, 1);
        let cache = Arc::new(RoutingCache::new());
        let builds = AtomicUsize::new(0);
        let key = AdaptiveEscape::key_for(vcs);
        for round in 0..2 {
            let cached = load_sweep_cached(
                "ring-8",
                g.clone(),
                &cfg,
                &cache,
                &key,
                || {
                    builds.fetch_add(1, Ordering::Relaxed);
                    Arc::new(AdaptiveEscape::new(g.clone(), vcs))
                },
                &TrafficPattern::Uniform,
                &grid,
                1,
                &Parallelism::auto(),
            );
            for (a, b) in baseline.points.iter().zip(&cached.points) {
                assert_eq!(
                    a.stats, b.stats,
                    "shared-cache sweep diverged at {} Gbps (round {round})",
                    a.offered_gbps
                );
            }
        }
        assert_eq!(
            builds.load(Ordering::Relaxed),
            1,
            "routing must be built exactly once per (topology, scheme)"
        );
        assert_eq!(cache.misses(), 1);
        assert!(cache.hits() >= 1, "second sweep must hit the cache");
    }

    #[test]
    fn saturation_throughput_positive() {
        let res = ring_sweep(&SimConfig::test_small(), &[0.5, 1.0], 2);
        assert!(res.saturation_throughput_gbps() > 0.0);
        assert!(res.low_load_latency_ns() > 0.0);
    }
}
