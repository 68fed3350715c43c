//! Shared core of the `degraded_performance` binary: one `SimConfig`
//! builder reused across every trial, the static (pre-removed links) and
//! dynamic (mid-run [`FaultPlan`]) measurement loops, and a hand-rolled
//! JSON serializer whose schema is pinned by a golden-file test
//! (`tests/degraded_schema.rs`).

use dsn_core::topology::TopologySpec;
use dsn_sim::{
    AdaptiveEscape, FaultPlan, RetryPolicy, RoutingCache, RunStats, SimConfig, Simulator,
    TelemetryConfig, TelemetryReport, TrafficPattern,
};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::sync::Arc;

use crate::{json_report, json_row, Json};

/// Schema tag written into the JSON report; bump on breaking changes.
pub const SCHEMA: &str = "dsn-bench/degraded/v1";

/// Seed for link selection (static removal and dynamic schedules alike).
pub const FAULT_SEED: u64 = 0xFA11;

/// How links are lost during a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradedMode {
    /// Links removed from the graph before the run (`Graph::without_edges`),
    /// routing built directly on the survivor — the paper's Section V view.
    Static,
    /// Links die mid-run via a seeded connectivity-preserving
    /// [`FaultPlan`]; the simulator reroutes online and hosts retry drops.
    Dynamic,
}

impl DegradedMode {
    /// Stable display name (`static` | `dynamic`).
    pub fn name(&self) -> &'static str {
        match self {
            DegradedMode::Static => "static",
            DegradedMode::Dynamic => "dynamic",
        }
    }
}

/// The one `SimConfig` built from CLI flags and reused for every trial.
pub fn base_config(quick: bool) -> SimConfig {
    let mut cfg = SimConfig::default();
    if quick {
        cfg.warmup_cycles = 3_000;
        cfg.measure_cycles = 8_000;
        cfg.drain_cycles = 8_000;
    } else {
        cfg.warmup_cycles = 8_000;
        cfg.measure_cycles = 20_000;
        cfg.drain_cycles = 20_000;
    }
    cfg
}

/// One measured cell of the degraded-performance table.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedRow {
    /// Topology display name.
    pub topology: String,
    /// Links removed (static) or scheduled to die (dynamic).
    pub dead_links: usize,
    /// Static removal disconnected the graph; no run was attempted.
    pub split: bool,
    /// Delivery ratio fell below 0.95 — the latency figure is meaningless.
    pub saturated: bool,
    /// Mean end-to-end latency in nanoseconds.
    pub avg_latency_ns: f64,
    /// Fraction of measured packets delivered.
    pub delivery_ratio: f64,
    /// Fault-dropped packets over the whole run (dynamic mode only).
    pub dropped: u64,
    /// Host retransmissions after drops (dynamic mode only).
    pub retried: u64,
    /// Drops whose retry budget ran out (dynamic mode only).
    pub abandoned: u64,
    /// Measured packets created after the first fault and delivered.
    pub post_fault_delivered: u64,
    /// Mean latency (cycles) of the post-fault population.
    pub post_fault_avg_latency_cycles: f64,
    /// p99 latency (cycles) of the post-fault population.
    pub post_fault_p99_latency_cycles: u64,
}

impl DegradedRow {
    fn from_stats(topology: &str, dead_links: usize, stats: &RunStats) -> Self {
        DegradedRow {
            topology: topology.to_string(),
            dead_links,
            split: false,
            saturated: stats.delivery_ratio() <= 0.95,
            avg_latency_ns: stats.avg_latency_ns,
            delivery_ratio: stats.delivery_ratio(),
            dropped: stats.dropped_packets_all_time,
            retried: stats.retried_packets,
            abandoned: stats.abandoned_packets,
            post_fault_delivered: stats.post_fault_delivered,
            post_fault_avg_latency_cycles: stats.post_fault_avg_latency_cycles,
            post_fault_p99_latency_cycles: stats.post_fault_p99_latency_cycles,
        }
    }

    fn split(topology: &str, dead_links: usize) -> Self {
        DegradedRow {
            topology: topology.to_string(),
            dead_links,
            split: true,
            saturated: false,
            avg_latency_ns: 0.0,
            delivery_ratio: 0.0,
            dropped: 0,
            retried: 0,
            abandoned: 0,
            post_fault_delivered: 0,
            post_fault_avg_latency_cycles: 0.0,
            post_fault_p99_latency_cycles: 0,
        }
    }
}

/// The full report: one row per (topology, dead-link count) trial.
#[derive(Debug, Clone, PartialEq)]
pub struct DegradedReport {
    /// Offered load per host.
    pub gbps_per_host: f64,
    /// Static removal or dynamic mid-run faults.
    pub mode: DegradedMode,
    /// Measured cells in trial order.
    pub rows: Vec<DegradedRow>,
}

/// Static mode: remove `dead` random links up front, rebuild routing on the
/// survivor, run the standard open-loop measurement. `cfg` is built once by
/// the caller ([`base_config`]) and cloned per trial.
pub fn run_static(
    cfg: &SimConfig,
    specs: &[TopologySpec],
    dead_counts: &[usize],
    gbps: f64,
) -> DegradedReport {
    let mut rng = SmallRng::seed_from_u64(FAULT_SEED);
    let rate = cfg.packets_per_cycle_for_gbps(gbps);
    let mut rows = Vec::new();
    for spec in specs {
        let built = spec.build().expect("topology");
        let mut ids: Vec<usize> = (0..built.graph.edge_count()).collect();
        ids.shuffle(&mut rng);
        for &dead in dead_counts {
            let g = built.graph.without_edges(&ids[..dead]);
            if !g.is_connected() {
                rows.push(DegradedRow::split(&built.name, dead));
                continue;
            }
            let g = Arc::new(g);
            let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
            let stats = Simulator::new(
                g,
                cfg.clone(),
                routing,
                TrafficPattern::Uniform,
                rate,
                FAULT_SEED,
            )
            .run();
            rows.push(DegradedRow::from_stats(&built.name, dead, &stats));
        }
    }
    DegradedReport {
        gbps_per_host: gbps,
        mode: DegradedMode::Static,
        rows,
    }
}

/// Dynamic mode: the full topology starts healthy and `faults` seeded
/// links (chosen to keep the survivor connected) die one by one during the
/// measurement window; routing is rebuilt online and hosts retry drops.
pub fn run_dynamic(
    cfg: &SimConfig,
    specs: &[TopologySpec],
    faults: usize,
    gbps: f64,
) -> DegradedReport {
    let rate = cfg.packets_per_cycle_for_gbps(gbps);
    let first_cycle = cfg.warmup_cycles + cfg.measure_cycles / 4;
    let spacing = (cfg.measure_cycles / (2 * faults.max(1) as u64)).max(1);
    // One cache across every trial: pristine tables are built once per
    // topology and mid-run fault rebuilds are memoized by survivor epoch,
    // all without changing a single RunStats bit (rebuilds are pure).
    let cache = Arc::new(RoutingCache::new());
    let mut rows = Vec::new();
    for spec in specs {
        let built = spec.build().expect("topology");
        let g = Arc::new(built.graph);
        let mut cfg = cfg.clone();
        cfg.fault_plan = FaultPlan::random_connected(&g, FAULT_SEED, faults, first_cycle, spacing)
            .with_retry(RetryPolicy::new(3, 500, 250));
        let scheduled = cfg.fault_plan.events.len();
        let routing = cache.get_or_build(&g, &AdaptiveEscape::key_for(cfg.vcs), || {
            Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs))
        });
        let stats = Simulator::new(g, cfg, routing, TrafficPattern::Uniform, rate, FAULT_SEED)
            .with_routing_cache(cache.clone())
            .run();
        rows.push(DegradedRow::from_stats(&built.name, scheduled, &stats));
    }
    DegradedReport {
        gbps_per_host: gbps,
        mode: DegradedMode::Dynamic,
        rows,
    }
}

/// Dynamic-mode telemetry pass: rebuild the same seeded fault plan as
/// [`run_dynamic`] for one topology and run it instrumented, with
/// telemetry windows tagged by **pre-fault / post-fault** phase (the
/// boundary is [`FaultPlan::first_fault_cycle`]) so the post-fault latency
/// decomposition and the rerouted hotspot links are directly visible.
pub fn run_dynamic_telemetry(
    cfg: &SimConfig,
    spec: &TopologySpec,
    faults: usize,
    gbps: f64,
    window: u64,
) -> (RunStats, TelemetryReport) {
    let rate = cfg.packets_per_cycle_for_gbps(gbps);
    let first_cycle = cfg.warmup_cycles + cfg.measure_cycles / 4;
    let spacing = (cfg.measure_cycles / (2 * faults.max(1) as u64)).max(1);
    let built = spec.build().expect("topology");
    let g = Arc::new(built.graph);
    let mut cfg = cfg.clone();
    cfg.fault_plan = FaultPlan::random_connected(&g, FAULT_SEED, faults, first_cycle, spacing)
        .with_retry(RetryPolicy::new(3, 500, 250));
    let fault_cycle = cfg.fault_plan.first_fault_cycle().unwrap_or(first_cycle);
    cfg.telemetry = Some(
        TelemetryConfig::windowed(window)
            .with_phases(&[(0, "pre-fault"), (fault_cycle, "post-fault")]),
    );
    let cache = Arc::new(RoutingCache::new());
    let routing = cache.get_or_build(&g, &AdaptiveEscape::key_for(cfg.vcs), || {
        Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs))
    });
    let (stats, report) =
        Simulator::new(g, cfg, routing, TrafficPattern::Uniform, rate, FAULT_SEED)
            .with_routing_cache(cache)
            .run_with_telemetry();
    (stats, report.expect("telemetry enabled"))
}

impl DegradedReport {
    /// Serialize with a fixed key order and fixed float formatting — the
    /// golden-file test compares this string byte for byte.
    pub fn to_json(&self) -> String {
        json_report(
            SCHEMA,
            &[
                ("gbps_per_host", Json::fixed(self.gbps_per_host, 3)),
                ("mode", self.mode.name().into()),
            ],
            self.rows.iter().map(|r| {
                json_row(&[
                    ("topology", r.topology.as_str().into()),
                    ("dead_links", r.dead_links.into()),
                    ("split", r.split.into()),
                    ("saturated", r.saturated.into()),
                    ("avg_latency_ns", Json::fixed(r.avg_latency_ns, 3)),
                    ("delivery_ratio", Json::fixed(r.delivery_ratio, 4)),
                    ("dropped", r.dropped.into()),
                    ("retried", r.retried.into()),
                    ("abandoned", r.abandoned.into()),
                    ("post_fault_delivered", r.post_fault_delivered.into()),
                    (
                        "post_fault_avg_latency_cycles",
                        Json::fixed(r.post_fault_avg_latency_cycles, 3),
                    ),
                    (
                        "post_fault_p99_latency_cycles",
                        r.post_fault_p99_latency_cycles.into(),
                    ),
                ])
            }),
        )
    }
}
