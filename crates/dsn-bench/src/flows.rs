//! Shared core of the `flow_suite` binary: datacenter flow-level
//! workloads (heavy-tailed open-loop flows, synchronized incast,
//! recursive-doubling allreduce) scored on flow-completion time, on the
//! paper's trio of degree-4 topologies — fault-free and under link flaps.
//! The JSON schema is pinned by a golden-file test
//! (`tests/flows_schema.rs`).

use dsn_core::topology::TopologySpec;
use dsn_sim::{
    AdaptiveEscape, FaultPlan, FlowArrivals, FlowSizeDist, RetryPolicy, RoutingCache, RunStats,
    SimConfig, StagedSpec, TrafficPattern, Workload,
};
use std::sync::Arc;

use crate::{json_report, json_row, Json};

/// Schema tag written into the JSON report; bump on breaking changes.
pub const SCHEMA: &str = "dsn-bench/flows/v1";

/// Seed for every flow-suite trial (flow arrivals, sizes, destinations).
pub const FLOW_SEED: u64 = 0xF10E;

/// Flow-arrival probability per host per cycle for the web-search rows
/// (~0.3 offered load at the paper's packet size and line rate).
pub const WEBSEARCH_RATE: f64 = 2.0e-5;

/// The three flow-level workload classes of the suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowWorkloadKind {
    /// Open-loop uniform flows with web-search-style sizes, Poisson
    /// arrivals.
    Websearch,
    /// Synchronized N-to-1 incast waves.
    Incast,
    /// Recursive-doubling allreduce (dependency-staged, closed).
    Allreduce,
}

impl FlowWorkloadKind {
    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            FlowWorkloadKind::Websearch => "websearch",
            FlowWorkloadKind::Incast => "incast",
            FlowWorkloadKind::Allreduce => "allreduce",
        }
    }

    /// All three kinds in report order.
    pub fn all() -> [FlowWorkloadKind; 3] {
        [
            FlowWorkloadKind::Websearch,
            FlowWorkloadKind::Incast,
            FlowWorkloadKind::Allreduce,
        ]
    }

    /// Build the workload for `hosts` hosts.
    pub fn build(&self, hosts: usize) -> Workload {
        match self {
            FlowWorkloadKind::Websearch => Workload::Flows {
                pattern: TrafficPattern::Uniform,
                sizes: FlowSizeDist::websearch(),
                arrivals: FlowArrivals::Poisson {
                    flows_per_cycle: WEBSEARCH_RATE,
                },
            },
            FlowWorkloadKind::Incast => Workload::Incast {
                fanin: 16.min(hosts as u32 - 1),
                request_packets: 4,
                wave_period: 2_000,
            },
            FlowWorkloadKind::Allreduce => {
                Workload::Staged(StagedSpec::recursive_doubling_allreduce(hosts, 1))
            }
        }
    }

    /// True for closed (staged) workloads scored on makespan.
    pub fn closed(&self) -> bool {
        matches!(self, FlowWorkloadKind::Allreduce)
    }
}

/// The one `SimConfig` for a trial of `kind`, built from CLI flags.
///
/// Open-loop rows use a warmup/measure/drain split with a long drain so
/// heavy-tailed flows started late in the window can still complete (the
/// web-search tail is longer than any affordable run; flows that do not
/// finish simply never enter the FCT aggregates, and the report exposes
/// `flows_started` vs `flows_completed` so the truncation is visible).
/// Closed rows measure from cycle 0 and treat drain as the horizon.
pub fn flow_config(kind: FlowWorkloadKind, quick: bool) -> SimConfig {
    let mut cfg = SimConfig::default();
    if kind.closed() {
        cfg.warmup_cycles = 0;
        cfg.measure_cycles = 20_000;
        cfg.drain_cycles = if quick { 200_000 } else { 1_000_000 };
    } else if quick {
        // Measure window [500, 2500) so the incast wave at cycle 2000
        // (wave period 2000) still lands inside it.
        cfg.warmup_cycles = 500;
        cfg.measure_cycles = 2_000;
        cfg.drain_cycles = 8_000;
    } else {
        cfg.warmup_cycles = 2_000;
        cfg.measure_cycles = 6_000;
        cfg.drain_cycles = 42_000;
    }
    cfg
}

/// Link-flap plan for the faulted rows: `flaps` down/up cycles on one
/// seeded-random link each, with host retries, starting inside the
/// measurement window (or shortly after injection for closed rows).
pub fn flap_plan(cfg: &SimConfig, edges: usize, flaps: usize) -> FaultPlan {
    let first = if cfg.warmup_cycles == 0 {
        1_000
    } else {
        cfg.warmup_cycles + cfg.measure_cycles / 4
    };
    let half_period = (cfg.measure_cycles / 4).max(200);
    let mut plan = FaultPlan::flap(FLOW_SEED as usize % edges, first, half_period, flaps as u32);
    if flaps > 1 {
        // A second flapping link elsewhere in the id space, phase-shifted
        // by half a period so down intervals interleave.
        let other = (FLOW_SEED as usize / 7) % edges;
        if other != FLOW_SEED as usize % edges {
            for e in FaultPlan::flap(
                other,
                first + half_period / 2,
                half_period,
                flaps as u32 - 1,
            )
            .events
            {
                plan.events.push(e);
            }
        }
    }
    plan.with_retry(RetryPolicy::new(3, 500, 250))
}

/// One measured cell of the flow suite.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowRow {
    /// Topology display name.
    pub topology: String,
    /// Workload class name (`websearch` | `incast` | `allreduce`).
    pub workload: String,
    /// Switch count of the trial.
    pub switches: usize,
    /// Links scheduled to flap (0 = fault-free row).
    pub flapped_links: usize,
    /// Flows started in the measurement window.
    pub flows_started: u64,
    /// Measured flows completed before run end.
    pub flows_completed: u64,
    /// Flow-tagged packets delivered over the whole run.
    pub flow_packets_delivered: u64,
    /// Mean FCT over measured completed flows (cycles).
    pub fct_avg_cycles: f64,
    /// Median FCT (cycles).
    pub fct_p50_cycles: u64,
    /// 99th-percentile FCT (cycles).
    pub fct_p99_cycles: u64,
    /// 99.9th-percentile FCT (cycles).
    pub fct_p999_cycles: u64,
    /// Collective makespan (cycles) for closed rows; `None` for open rows
    /// or when the collective missed the horizon.
    pub makespan_cycles: Option<u64>,
    /// Fraction of measured packets delivered.
    pub delivery_ratio: f64,
    /// Fault-dropped packets over the whole run.
    pub dropped: u64,
    /// Host retransmissions after drops.
    pub retried: u64,
}

impl FlowRow {
    fn from_stats(
        topology: &str,
        kind: FlowWorkloadKind,
        switches: usize,
        flapped_links: usize,
        stats: &RunStats,
    ) -> Self {
        FlowRow {
            topology: topology.to_string(),
            workload: kind.name().to_string(),
            switches,
            flapped_links,
            flows_started: stats.flows_started,
            flows_completed: stats.flows_completed,
            flow_packets_delivered: stats.flow_packets_delivered,
            fct_avg_cycles: stats.fct_avg_cycles,
            fct_p50_cycles: stats.fct_p50_cycles,
            fct_p99_cycles: stats.fct_p99_cycles,
            fct_p999_cycles: stats.fct_p999_cycles,
            makespan_cycles: if kind.closed() {
                stats.completion_cycle
            } else {
                None
            },
            delivery_ratio: stats.delivery_ratio(),
            dropped: stats.dropped_packets_all_time,
            retried: stats.retried_packets,
        }
    }
}

/// The full report: one row per (topology, workload, fault-mode) trial.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// Measured cells in trial order.
    pub rows: Vec<FlowRow>,
}

/// Run the suite over `specs` at `switches` switches: every workload
/// class, fault-free plus (when `flaps > 0`) a link-flap variant. One
/// [`RoutingCache`] is shared across all trials of a topology, so the
/// adaptive tables are built once per graph.
pub fn run_suite(
    specs: &[TopologySpec],
    switches: usize,
    flaps: usize,
    quick: bool,
) -> Vec<FlowRow> {
    let cache = Arc::new(RoutingCache::new());
    let mut rows = Vec::new();
    for spec in specs {
        let built = spec.build().expect("topology");
        let g = Arc::new(built.graph);
        let edges = g.edge_count();
        let mut variants = vec![0usize];
        if flaps > 0 {
            variants.push(flaps);
        }
        for kind in FlowWorkloadKind::all() {
            for &flapped in &variants {
                let mut cfg = flow_config(kind, quick);
                if flapped > 0 {
                    cfg.fault_plan = flap_plan(&cfg, edges, flapped);
                }
                let hosts = switches * cfg.hosts_per_switch;
                let routing = cache.get_or_build(&g, &AdaptiveEscape::key_for(cfg.vcs), || {
                    Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs))
                });
                let stats = dsn_sim::Simulator::with_workload(
                    g.clone(),
                    cfg,
                    routing,
                    kind.build(hosts),
                    FLOW_SEED,
                )
                .with_routing_cache(cache.clone())
                .run();
                rows.push(FlowRow::from_stats(
                    &built.name,
                    kind,
                    switches,
                    flapped,
                    &stats,
                ));
            }
        }
    }
    rows
}

impl FlowReport {
    /// Serialize with a fixed key order and fixed float formatting — the
    /// golden-file test compares this string byte for byte.
    pub fn to_json(&self) -> String {
        json_report(
            SCHEMA,
            &[],
            self.rows.iter().map(|r| {
                json_row(&[
                    ("topology", r.topology.as_str().into()),
                    ("workload", r.workload.as_str().into()),
                    ("switches", r.switches.into()),
                    ("flapped_links", r.flapped_links.into()),
                    ("flows_started", r.flows_started.into()),
                    ("flows_completed", r.flows_completed.into()),
                    ("flow_packets_delivered", r.flow_packets_delivered.into()),
                    ("fct_avg_cycles", Json::fixed(r.fct_avg_cycles, 3)),
                    ("fct_p50_cycles", r.fct_p50_cycles.into()),
                    ("fct_p99_cycles", r.fct_p99_cycles.into()),
                    ("fct_p999_cycles", r.fct_p999_cycles.into()),
                    ("makespan_cycles", r.makespan_cycles.into()),
                    ("delivery_ratio", Json::fixed(r.delivery_ratio, 4)),
                    ("dropped", r.dropped.into()),
                    ("retried", r.retried.into()),
                ])
            }),
        )
    }
}
