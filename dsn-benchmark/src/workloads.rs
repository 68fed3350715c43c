//! The four workloads, their operations, output digests and invariants.
//!
//! Every parameter is copied here rather than imported from `dsn-bench`,
//! so a refactor of the figure binaries cannot silently change what this
//! benchmark measures. Only public library calls are used, with the
//! library's default engine and routing-table mode.
//!
//! Each workload has three scales: `Smoke` (64 switches, seconds in a
//! debug build), `Bench` (what a timed run repeats; short enough that
//! every operation runs several times per run) and `Full` (the committed
//! `BENCH_*.json` configuration, checked by `verify`). `verify` does not
//! run `fig10-sweep`, whose `Full` is its `Bench`, and `opt-search` is
//! already at the committed configuration in `Bench`.
//!
//! `--seed` changes traffic and search random streams only; topologies,
//! load grids and horizons stay fixed, so every seed does comparable work.
//! Seed 0 is the committed configuration.

use crate::exec::PROBE_MARKER;
use crate::pins;
use dsn_core::dsn::Dsn;
use dsn_core::graph::Graph;
use dsn_core::topology::TopologySpec;
use dsn_core::Parallelism;
use dsn_layout::{cable_stats, CableModel, LinearPlacement};
use dsn_metrics::apsp::path_stats_with;
use dsn_opt::{anneal_shortcuts, evolve, Candidate, EsConfig, Objective, SaConfig, SearchResult};
use dsn_sim::sweep::{load_sweep_cached, paper_load_grid};
use dsn_sim::{
    AdaptiveEscape, DsnAlgorithmic, FaultPlan, FlowArrivals, FlowSizeDist, RetryPolicy,
    RoutingCache, RunStats, SimConfig, SimRouting, Simulator, StagedSpec, TrafficPattern, Workload,
};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Seed of the DLN-2-2 ("RANDOM") instances, as in every figure binary.
const RANDOM_SEED: u64 = 0xD5B0_2013;
/// Traffic seed of `fig10_simulation` (sweeps and saturated rows).
const SIM_SEED: u64 = 0x000F_1610;
/// Seed of every `flow_suite` trial; also places the flapping links.
const FLOW_SEED: u64 = 0xF10E;
/// Seed of the `opt_frontier` searches.
const OPT_SEED: u64 = 0x0D50_2013;
/// Flow arrivals per host per cycle on the web-search rows.
const WEBSEARCH_RATE: f64 = 2.0e-5;
/// Offered load of the saturated rows, Gbit/s per host.
const SATURATED_GBPS: f64 = 11.0;
/// Links flapped on the faulted `flows-flaps` rows.
const FLAPS: usize = 3;
/// Calls per median in the traced APSP / cable / score probes.
const PROBE_CALLS: usize = 20;

/// Per-row metric suffixes of the `saturated` workload, in row order.
pub const SATURATED_ROWS: [&str; 5] = ["dsn256", "torus256", "dln256", "dln1020", "dsn2046"];

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Fig10Sweep,
    Saturated,
    FlowsFlaps,
    OptSearch,
}

/// How big a workload runs; see the module documentation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Smoke,
    Bench,
    Full,
}

impl Scale {
    pub fn name(self) -> &'static str {
        match self {
            Scale::Smoke => "smoke",
            Scale::Bench => "bench",
            Scale::Full => "full",
        }
    }
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::Fig10Sweep,
        Kind::Saturated,
        Kind::FlowsFlaps,
        Kind::OptSearch,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::Fig10Sweep => "fig10-sweep",
            Kind::Saturated => "saturated",
            Kind::FlowsFlaps => "flows-flaps",
            Kind::OptSearch => "opt-search",
        }
    }

    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The workload at `scale` for `seed`.
    pub fn bench(self, seed: u64, scale: Scale) -> Box<dyn Bench> {
        match self {
            Kind::Fig10Sweep => Box::new(Fig10::new(seed, scale)),
            Kind::Saturated => Box::new(Saturated::new(seed, scale)),
            Kind::FlowsFlaps => Box::new(Flows::new(seed, scale)),
            Kind::OptSearch => Box::new(OptSearch::new(seed, scale)),
        }
    }
}

/// The seed a workload's random streams use: the committed seed at 0,
/// otherwise a SplitMix64 scramble of `seed` folded into it.
fn stream_seed(base: u64, seed: u64) -> u64 {
    if seed == 0 {
        return base;
    }
    let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    base ^ z ^ (z >> 31)
}

/// `SimConfig::default()` (the paper's router) over a custom horizon.
fn horizon(warmup: u64, measure: u64, drain: u64) -> SimConfig {
    SimConfig {
        warmup_cycles: warmup,
        measure_cycles: measure,
        drain_cycles: drain,
        ..SimConfig::default()
    }
}

/// Set-up times of one set-up pass, seconds.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total: f64,
    pub topology: f64,
    pub routing: f64,
    pub engine_new: f64,
}

/// What one operation produced.
#[derive(Debug)]
pub struct OpResult {
    /// Host wall seconds of the operation's timed section.
    pub wall_s: f64,
    /// Process CPU seconds over the same section.
    pub cpu_s: f64,
    /// FNV-1a digest of every output the operation produced.
    pub digest: u64,
    /// Simulated cycles (0 for searches).
    pub sim_cycles: u64,
    /// Broken invariants and pin mismatches.
    pub failures: Vec<String>,
}

/// Per-layer numbers gathered by a traced pass, keyed by metric name.
pub type Layer = BTreeMap<String, f64>;

/// One workload: set-up builds every input the operations share, then
/// the operations run in index order, round after round.
pub trait Bench {
    fn op_names(&self) -> Vec<String>;
    /// Build every shared input; called once, before any operation.
    fn setup(&mut self) -> SetupTimes;
    /// Run operation `i`. With `trace`, also record spans into `layer`.
    fn run_op(&mut self, i: usize, trace: bool, layer: &mut Layer) -> OpResult;
    /// Traced-only probes and totals, after one full round.
    fn finish_trace(&mut self, _layer: &mut Layer) {}
}

/// Time `f`'s wall clock and process CPU clock.
fn timed<T>(f: impl FnOnce() -> T) -> (T, f64, f64) {
    let c0 = crate::host::cpu_seconds();
    let t0 = Instant::now();
    let v = f();
    let wall = t0.elapsed().as_secs_f64();
    (v, wall, crate::host::cpu_seconds() - c0)
}

fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// FNV-1a, 64 bit: order-sensitive, dependency-free, stable across
/// platforms — what the pins in `pins.rs` are computed with.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    pub fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= x as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    pub fn str(&mut self, s: &str) {
        self.u64(s.len() as u64);
        self.bytes(s.as_bytes());
    }
}

impl Default for Fnv {
    fn default() -> Self {
        Fnv::new()
    }
}

/// Fold every field of `s` into `h`, floats by bit pattern. The
/// destructuring has no `..`, so a new `RunStats` field fails to compile
/// here until it is digested too.
fn digest_stats(h: &mut Fnv, s: &RunStats) {
    let RunStats {
        delivered_packets,
        created_packets,
        total_packets_all_time,
        avg_latency_cycles,
        avg_latency_ns,
        p99_latency_cycles,
        max_latency_cycles,
        min_latency_cycles,
        accepted_flits_per_cycle_per_host,
        offered_flits_per_cycle_per_host,
        accepted_gbps_per_host,
        offered_gbps_per_host,
        mean_channel_utilization,
        max_channel_utilization,
        peak_in_flight_packets,
        peak_buffered_flits,
        longest_stall_cycles,
        deadlock_suspected,
        completion_cycle,
        dropped_packets,
        dropped_packets_all_time,
        salvaged_packets,
        retried_packets,
        abandoned_packets,
        post_fault_delivered,
        post_fault_avg_latency_cycles,
        post_fault_p99_latency_cycles,
        flows_started,
        flows_completed,
        flows_started_all_time,
        flows_completed_all_time,
        flow_packets_delivered,
        fct_avg_cycles,
        fct_p50_cycles,
        fct_p99_cycles,
        fct_p999_cycles,
        fct_max_cycles,
        fct_classes,
    } = s;
    for v in [
        delivered_packets,
        created_packets,
        total_packets_all_time,
        p99_latency_cycles,
        max_latency_cycles,
        min_latency_cycles,
        peak_in_flight_packets,
        peak_buffered_flits,
        longest_stall_cycles,
        dropped_packets,
        dropped_packets_all_time,
        salvaged_packets,
        retried_packets,
        abandoned_packets,
        post_fault_delivered,
        post_fault_p99_latency_cycles,
        flows_started,
        flows_completed,
        flows_started_all_time,
        flows_completed_all_time,
        flow_packets_delivered,
        fct_p50_cycles,
        fct_p99_cycles,
        fct_p999_cycles,
        fct_max_cycles,
    ] {
        h.u64(*v);
    }
    for v in [
        avg_latency_cycles,
        avg_latency_ns,
        accepted_flits_per_cycle_per_host,
        offered_flits_per_cycle_per_host,
        accepted_gbps_per_host,
        offered_gbps_per_host,
        mean_channel_utilization,
        max_channel_utilization,
        post_fault_avg_latency_cycles,
        fct_avg_cycles,
    ] {
        h.f64(*v);
    }
    h.u64(*deadlock_suspected as u64);
    h.u64(completion_cycle.unwrap_or(u64::MAX));
    h.u64(fct_classes.len() as u64);
    for c in fct_classes {
        h.u64(c.min_packets as u64);
        h.u64(c.flows);
        h.f64(c.fct_avg_cycles);
        h.u64(c.fct_p99_cycles);
    }
}

/// Invariants every simulation must keep. For open-loop runs (`open` =
/// their config and host count) this adds conservation of throughput:
/// packets delivered inside the measurement window were created in it or
/// were already in flight when it opened, so accepted throughput exceeds
/// offered by at most the peak in-flight population spread over the
/// window. (A fixed 1% slack fails at 0.5 Gbit/s on short windows, where
/// warmup stragglers alone are worth 1.2%.)
fn check_stats(
    what: &str,
    s: &RunStats,
    open: Option<(&SimConfig, usize)>,
    failures: &mut Vec<String>,
) {
    if s.delivered_packets > s.created_packets {
        failures.push(format!(
            "{what}: delivered {} > created {}",
            s.delivered_packets, s.created_packets
        ));
    }
    if let Some((cfg, hosts)) = open {
        let stragglers = (s.peak_in_flight_packets * cfg.packet_flits as u64) as f64
            / cfg.measure_cycles.max(1) as f64
            / hosts as f64;
        let bound = (s.offered_flits_per_cycle_per_host + stragglers) * (1.0 + 1e-9);
        if s.accepted_flits_per_cycle_per_host > bound {
            failures.push(format!(
                "{what}: accepted {} > offered {} + in-flight {stragglers}",
                s.accepted_flits_per_cycle_per_host, s.offered_flits_per_cycle_per_host
            ));
        }
    }
    if s.flows_completed > s.flows_started {
        failures.push(format!(
            "{what}: flows completed {} > started {}",
            s.flows_completed, s.flows_started
        ));
    }
    if s.deadlock_suspected {
        failures.push(format!("{what}: deadlock suspected"));
    }
}

fn build(spec: &TopologySpec) -> (String, Arc<Graph>) {
    let built = spec.build().expect("benchmark topologies are valid");
    (built.name, Arc::new(built.graph))
}

/// Adaptive routing with up*/down* escape, flat table compiled — the
/// routing every trio row uses.
fn adaptive(g: &Arc<Graph>, vcs: u8) -> Arc<dyn SimRouting> {
    let r: Arc<dyn SimRouting> = Arc::new(AdaptiveEscape::new(g.clone(), vcs));
    r.compiled_flat();
    r
}

// ---------------------------------------------------------------- fig10

/// Fig. 10: the paper trio at 64 switches, three traffic patterns, the
/// 13-point load grid; one `load_sweep_cached` call per (pattern,
/// topology), sharing one routing cache.
struct Fig10 {
    cfg: SimConfig,
    seed: u64,
    loads: Vec<f64>,
    patterns: Vec<TrafficPattern>,
    topos: Vec<(String, Arc<Graph>)>,
    cache: Arc<RoutingCache>,
    call_s: Vec<f64>,
    cpu_s: f64,
}

impl Fig10 {
    fn new(seed: u64, scale: Scale) -> Self {
        let (cfg, loads) = match scale {
            Scale::Smoke => (horizon(500, 1_500, 1_000), vec![1.0, 6.0, 12.0]),
            Scale::Bench | Scale::Full => (horizon(2_000, 5_000, 5_000), paper_load_grid()),
        };
        Fig10 {
            cfg,
            seed: stream_seed(SIM_SEED, seed),
            loads,
            patterns: vec![
                TrafficPattern::Uniform,
                TrafficPattern::BitReversal,
                TrafficPattern::neighboring_paper(),
            ],
            topos: Vec::new(),
            cache: Arc::new(RoutingCache::new()),
            call_s: Vec::new(),
            cpu_s: 0.0,
        }
    }
}

impl Bench for Fig10 {
    fn op_names(&self) -> Vec<String> {
        let topos = ["dsn", "torus", "dln"];
        self.patterns
            .iter()
            .flat_map(|p| topos.iter().map(move |t| format!("{}/{t}", p.name())))
            .collect()
    }

    fn setup(&mut self) -> SetupTimes {
        let t0 = Instant::now();
        self.topos = TopologySpec::paper_trio(64, RANDOM_SEED)
            .iter()
            .map(build)
            .collect();
        let topology = secs_since(t0);
        let t1 = Instant::now();
        let key = AdaptiveEscape::key_for(self.cfg.vcs);
        for (_, g) in &self.topos {
            self.cache
                .get_or_build(g, &key, || adaptive(g, self.cfg.vcs));
        }
        SetupTimes {
            total: secs_since(t0),
            topology,
            routing: secs_since(t1),
            engine_new: 0.0,
        }
    }

    fn run_op(&mut self, i: usize, trace: bool, _layer: &mut Layer) -> OpResult {
        let pattern = &self.patterns[i / self.topos.len()];
        let (name, g) = &self.topos[i % self.topos.len()];
        let key = AdaptiveEscape::key_for(self.cfg.vcs);
        let vcs = self.cfg.vcs;
        let g2 = g.clone();
        let (sweep, wall_s, cpu_s) = timed(|| {
            load_sweep_cached(
                name.clone(),
                g.clone(),
                &self.cfg,
                &self.cache,
                &key,
                move || adaptive(&g2, vcs),
                pattern,
                &self.loads,
                self.seed,
                &Parallelism::auto(),
            )
        });
        let hosts = g.node_count() * self.cfg.hosts_per_switch;
        let mut h = Fnv::new();
        let mut failures = Vec::new();
        h.str(&sweep.label);
        h.str(&sweep.pattern);
        for p in &sweep.points {
            h.f64(p.offered_gbps);
            digest_stats(&mut h, &p.stats);
            let what = format!("{name} {} {} Gbps", sweep.pattern, p.offered_gbps);
            check_stats(&what, &p.stats, Some((&self.cfg, hosts)), &mut failures);
        }
        if trace {
            self.call_s.push(wall_s);
            self.cpu_s += cpu_s;
        }
        OpResult {
            wall_s,
            cpu_s,
            digest: h.0,
            sim_cycles: sweep.points.len() as u64 * self.cfg.total_cycles(),
            failures,
        }
    }

    fn finish_trace(&mut self, layer: &mut Layer) {
        let calls = &self.call_s;
        layer.insert(
            "sweep.call_s_max".into(),
            calls.iter().copied().fold(0.0, f64::max),
        );
        layer.insert("sweep.call_s_p50".into(), crate::metrics::median(calls));
        let wall: f64 = calls.iter().sum();
        layer.insert("sweep.cpu_util".into(), self.cpu_s / wall);
        layer.insert("routing.cache_hits".into(), self.cache.hits() as f64);
        layer.insert("routing.cache_misses".into(), self.cache.misses() as f64);
    }
}

// ------------------------------------------------------------ saturated

/// One saturated row: a topology with its routing.
struct SatRow {
    name: String,
    graph: Arc<Graph>,
    routing: Arc<dyn SimRouting>,
}

/// 11 Gbit/s/host uniform traffic far past saturation, one simulation per
/// row: the 256-switch trio, DLN-2-2-1020 on a flat CSR table and
/// DSN-10-2046 on table-free DSN-V routing. `Bench` runs a tenth of the
/// committed 5k/15k/15k-cycle horizon, so that every row repeats several
/// times in a run; the source queues, and with them memory, grow in
/// proportion to the horizon.
struct Saturated {
    cfg: SimConfig,
    seed: u64,
    scale: Scale,
    pinned: bool,
    rows: Vec<SatRow>,
}

impl Saturated {
    fn new(seed: u64, scale: Scale) -> Self {
        let cfg = match scale {
            Scale::Smoke => horizon(500, 1_500, 1_000),
            Scale::Bench => horizon(500, 1_500, 1_500),
            Scale::Full => horizon(5_000, 15_000, 15_000),
        };
        Saturated {
            cfg,
            seed: stream_seed(SIM_SEED, seed),
            scale,
            pinned: seed == 0 && scale == Scale::Full,
            rows: Vec::new(),
        }
    }

    fn sim(&self, row: &SatRow, cfg: SimConfig) -> Simulator {
        let rate = cfg.packets_per_cycle_for_gbps(SATURATED_GBPS);
        Simulator::new(
            row.graph.clone(),
            cfg,
            row.routing.clone(),
            TrafficPattern::Uniform,
            rate,
            self.seed,
        )
    }
}

impl Bench for Saturated {
    fn op_names(&self) -> Vec<String> {
        SATURATED_ROWS.iter().map(|s| s.to_string()).collect()
    }

    fn setup(&mut self) -> SetupTimes {
        let (small, large, huge) = match self.scale {
            Scale::Smoke => (64, 64, 64),
            Scale::Bench | Scale::Full => (256, 1020, 2046),
        };
        let t0 = Instant::now();
        let mut graphs: Vec<(String, Arc<Graph>)> = TopologySpec::paper_trio(small, RANDOM_SEED)
            .iter()
            .map(build)
            .collect();
        graphs.push(build(&TopologySpec::paper_trio(large, RANDOM_SEED)[2]));
        let x = dsn_core::util::ceil_log2(huge) - 1;
        let dsn = Arc::new(Dsn::new(huge, x).expect("clean DSN size"));
        graphs.push((format!("DSN-{x}-{huge}"), Arc::new(dsn.graph().clone())));
        let topology = secs_since(t0);

        let t1 = Instant::now();
        self.rows = graphs[..4]
            .iter()
            .map(|(name, g)| SatRow {
                name: name.clone(),
                graph: g.clone(),
                routing: adaptive(g, self.cfg.vcs),
            })
            .collect();
        let (name, graph) = graphs[4].clone();
        self.rows.push(SatRow {
            name,
            graph,
            routing: Arc::new(DsnAlgorithmic::new(dsn)),
        });
        let routing = secs_since(t1);

        let t2 = Instant::now();
        for row in &self.rows {
            drop(std::hint::black_box(self.sim(row, self.cfg.clone())));
        }
        SetupTimes {
            total: secs_since(t0),
            topology,
            routing,
            engine_new: secs_since(t2),
        }
    }

    fn run_op(&mut self, i: usize, trace: bool, layer: &mut Layer) -> OpResult {
        let row_name = SATURATED_ROWS[i];
        let row = &self.rows[i];
        let cfg = &self.cfg;
        let (w, m) = (cfg.warmup_cycles, cfg.measure_cycles);
        let mut sim = self.sim(row, cfg.clone());
        let (stats, wall_s, cpu_s) = if trace {
            layer.insert(
                format!("routing.table_bytes.{row_name}"),
                sim.routing_table_bytes() as f64,
            );
            let fresh_hwm = crate::host::reset_peak_rss();
            let (stats, wall, cpu) = timed(|| {
                let t = Instant::now();
                sim.advance_until(w);
                let warmup = secs_since(t);
                let rss_w = crate::host::rss_mb();
                let t = Instant::now();
                sim.advance_until(w + m);
                let measure = secs_since(t);
                let rss_m = crate::host::rss_mb();
                let t = Instant::now();
                let stats = sim.finish();
                let drain = secs_since(t);
                for (k, v) in [
                    ("warmup_s", warmup),
                    ("measure_s", measure),
                    ("drain_s", drain),
                    ("rss_warmup_mb", rss_w),
                    ("rss_measure_mb", rss_m),
                    ("measure_cycles_per_s", m as f64 / measure),
                ] {
                    layer.insert(format!("engine.{k}.{row_name}"), v);
                }
                stats
            });
            layer.insert(
                format!("engine.peak_rss_mb.{row_name}"),
                crate::host::peak_rss_mb(),
            );
            if !fresh_hwm {
                eprintln!(
                    "warning: cannot reset VmHWM; engine.peak_rss_mb.{row_name} is cumulative"
                );
            }
            for (k, v) in [
                ("peak_buffered_flits", stats.peak_buffered_flits as f64),
                (
                    "peak_in_flight_packets",
                    stats.peak_in_flight_packets as f64,
                ),
                (
                    "us_per_packet",
                    wall * 1e6 / stats.total_packets_all_time.max(1) as f64,
                ),
            ] {
                layer.insert(format!("engine.{k}.{row_name}"), v);
            }
            // Two untimed probes stop the same trajectory at the end of
            // warmup and of the measurement window; the difference of their
            // phase-timing blocks is the engine's time inside the window.
            // The window's flits come from its channel utilization.
            for (label, measure) in [("warmup", 0), ("window", m)] {
                eprintln!("{PROBE_MARKER}{row_name}/{label}");
                let probe_cfg = SimConfig {
                    measure_cycles: measure,
                    drain_cycles: 0,
                    ..cfg.clone()
                };
                let probe = self.sim(row, probe_cfg).run();
                if measure > 0 {
                    let channels = row.graph.channel_count() as f64;
                    let flits = probe.mean_channel_utilization * m as f64 * channels;
                    layer.insert(format!("raw.window_flits.{row_name}"), flits.round());
                }
            }
            (stats, wall, cpu)
        } else {
            timed(|| sim.run())
        };
        let mut h = Fnv::new();
        digest_stats(&mut h, &stats);
        let mut failures = Vec::new();
        let hosts = row.graph.node_count() * cfg.hosts_per_switch;
        check_stats(row_name, &stats, Some((cfg, hosts)), &mut failures);
        if self.pinned {
            pins::check_saturated(&row.name, SATURATED_GBPS, &stats, &mut failures);
        }
        OpResult {
            wall_s,
            cpu_s,
            digest: h.0,
            sim_cycles: cfg.total_cycles(),
            failures,
        }
    }
}

// ---------------------------------------------------------- flows-flaps

/// The flow-level workload classes of the flow suite.
#[derive(Debug, Clone, Copy, PartialEq)]
enum FlowKind {
    Websearch,
    Incast,
    Allreduce,
}

impl FlowKind {
    const ALL: [FlowKind; 3] = [FlowKind::Websearch, FlowKind::Incast, FlowKind::Allreduce];

    fn name(self) -> &'static str {
        match self {
            FlowKind::Websearch => "websearch",
            FlowKind::Incast => "incast",
            FlowKind::Allreduce => "allreduce",
        }
    }

    fn workload(self, hosts: usize) -> Workload {
        match self {
            FlowKind::Websearch => Workload::Flows {
                pattern: TrafficPattern::Uniform,
                sizes: FlowSizeDist::websearch(),
                arrivals: FlowArrivals::Poisson {
                    flows_per_cycle: WEBSEARCH_RATE,
                },
            },
            FlowKind::Incast => Workload::Incast {
                fanin: 16.min(hosts as u32 - 1),
                request_packets: 4,
                wave_period: 2_000,
            },
            FlowKind::Allreduce => {
                Workload::Staged(StagedSpec::recursive_doubling_allreduce(hosts, 1))
            }
        }
    }

    /// The flow suite's run shape: open rows warm up, measure and drain
    /// long enough for late heavy-tailed flows; the closed collective
    /// measures from cycle 0 with the drain as its horizon. `Bench` is the
    /// suite's `--quick` shape, `Full` its committed one.
    fn config(self, scale: Scale) -> SimConfig {
        match (self == FlowKind::Allreduce, scale) {
            (true, Scale::Smoke) => horizon(0, 3_000, 20_000),
            (true, Scale::Bench) => horizon(0, 20_000, 200_000),
            (true, Scale::Full) => horizon(0, 20_000, 1_000_000),
            (false, Scale::Smoke) => horizon(500, 1_500, 1_000),
            (false, Scale::Bench) => horizon(500, 2_000, 8_000),
            (false, Scale::Full) => horizon(2_000, 6_000, 42_000),
        }
    }
}

/// `flaps` down/up cycles on one link plus a phase-shifted second link,
/// with host retries — the flow suite's fault schedule, placed by `seed`.
fn flap_plan(cfg: &SimConfig, edges: usize, flaps: usize, seed: u64) -> FaultPlan {
    let first = if cfg.warmup_cycles == 0 {
        1_000
    } else {
        cfg.warmup_cycles + cfg.measure_cycles / 4
    };
    let half_period = (cfg.measure_cycles / 4).max(200);
    let link = seed as usize % edges;
    let mut plan = FaultPlan::flap(link, first, half_period, flaps as u32);
    let other = (seed as usize / 7) % edges;
    if other != link {
        let second = FaultPlan::flap(
            other,
            first + half_period / 2,
            half_period,
            flaps as u32 - 1,
        );
        plan.events.extend(second.events);
    }
    plan.with_retry(RetryPolicy::new(3, 500, 250))
}

/// One flow-suite row.
struct FlowRow {
    topo: usize,
    kind: FlowKind,
    flapped: bool,
}

/// The flow suite at 256 switches: {websearch, incast, allreduce} x trio
/// x {fault-free, 3 flapping links}. `--seed` moves the incast and
/// allreduce traffic and which links flap; the web-search rows keep the
/// suite's seed, because their heavy-tailed flow sizes make the simulated
/// work vary 1.8x from seed to seed. Each round starts a fresh routing
/// cache, so fault reroutes are rebuilt the same way every round.
struct Flows {
    scale: Scale,
    seed: u64,
    pinned: bool,
    topos: Vec<(String, Arc<Graph>)>,
    routings: Vec<Arc<dyn SimRouting>>,
    rows: Vec<FlowRow>,
    cache: Arc<RoutingCache>,
    kind_s: [f64; 3],
    flapped_websearch_s: f64,
    rebuilds: u64,
    dropped: u64,
    retried: u64,
}

impl Flows {
    fn new(seed: u64, scale: Scale) -> Self {
        let rows = (0..3)
            .flat_map(|topo| {
                FlowKind::ALL.into_iter().flat_map(move |kind| {
                    [false, true].map(|flapped| FlowRow {
                        topo,
                        kind,
                        flapped,
                    })
                })
            })
            .collect();
        Flows {
            scale,
            seed: stream_seed(FLOW_SEED, seed),
            pinned: seed == 0 && scale == Scale::Full,
            topos: Vec::new(),
            routings: Vec::new(),
            rows,
            cache: Arc::new(RoutingCache::new()),
            kind_s: [0.0; 3],
            flapped_websearch_s: 0.0,
            rebuilds: 0,
            dropped: 0,
            retried: 0,
        }
    }

    fn sim(&self, row: &FlowRow) -> Simulator {
        let (_, g) = &self.topos[row.topo];
        let mut cfg = row.kind.config(self.scale);
        if row.flapped {
            cfg.fault_plan = flap_plan(&cfg, g.edge_count(), FLAPS, self.seed);
        }
        let hosts = g.node_count() * cfg.hosts_per_switch;
        let seed = match row.kind {
            FlowKind::Websearch => FLOW_SEED,
            _ => self.seed,
        };
        Simulator::with_workload(
            g.clone(),
            cfg,
            self.routings[row.topo].clone(),
            row.kind.workload(hosts),
            seed,
        )
    }
}

impl Bench for Flows {
    fn op_names(&self) -> Vec<String> {
        let topos = ["dsn", "torus", "dln"];
        self.rows
            .iter()
            .map(|r| {
                let fault = if r.flapped { "flaps" } else { "clean" };
                format!("{}/{}/{fault}", topos[r.topo], r.kind.name())
            })
            .collect()
    }

    fn setup(&mut self) -> SetupTimes {
        let n = if self.scale == Scale::Smoke { 64 } else { 256 };
        let vcs = SimConfig::default().vcs;
        let t0 = Instant::now();
        self.topos = TopologySpec::paper_trio(n, RANDOM_SEED)
            .iter()
            .map(build)
            .collect();
        let topology = secs_since(t0);
        let t1 = Instant::now();
        self.routings = self.topos.iter().map(|(_, g)| adaptive(g, vcs)).collect();
        let routing = secs_since(t1);
        let t2 = Instant::now();
        for row in &self.rows {
            drop(std::hint::black_box(self.sim(row)));
        }
        SetupTimes {
            total: secs_since(t0),
            topology,
            routing,
            engine_new: secs_since(t2),
        }
    }

    fn run_op(&mut self, i: usize, trace: bool, _layer: &mut Layer) -> OpResult {
        if i == 0 {
            self.cache = Arc::new(RoutingCache::new());
        }
        let row = &self.rows[i];
        let sim = self.sim(row).with_routing_cache(self.cache.clone());
        let misses = self.cache.misses();
        let (stats, wall_s, cpu_s) = timed(|| sim.run());
        let what = format!(
            "{} {} flapped={}",
            self.topos[row.topo].0,
            row.kind.name(),
            row.flapped
        );
        let mut failures = Vec::new();
        check_stats(&what, &stats, None, &mut failures);
        if row.kind == FlowKind::Allreduce && !row.flapped && stats.completion_cycle.is_none() {
            failures.push(format!("{what}: fault-free allreduce has no makespan"));
        }
        if self.pinned {
            pins::check_flows(
                &self.topos[row.topo].0,
                row.kind.name(),
                if row.flapped { FLAPS } else { 0 },
                row.kind == FlowKind::Allreduce,
                &stats,
                &mut failures,
            );
        }
        let mut h = Fnv::new();
        digest_stats(&mut h, &stats);
        if trace {
            if row.flapped {
                if row.kind == FlowKind::Websearch {
                    self.flapped_websearch_s += wall_s;
                }
                self.rebuilds += self.cache.misses() - misses;
                self.dropped += stats.dropped_packets_all_time;
                self.retried += stats.retried_packets;
            } else {
                self.kind_s[row.kind as usize] += wall_s;
            }
        }
        let horizon = row.kind.config(self.scale).total_cycles();
        OpResult {
            wall_s,
            cpu_s,
            digest: h.0,
            sim_cycles: stats.completion_cycle.unwrap_or(horizon),
            failures,
        }
    }

    fn finish_trace(&mut self, layer: &mut Layer) {
        for k in FlowKind::ALL {
            layer.insert(format!("flow.{}_s", k.name()), self.kind_s[k as usize]);
        }
        layer.insert(
            "fault.websearch_flap_slowdown".into(),
            self.flapped_websearch_s / self.kind_s[FlowKind::Websearch as usize],
        );
        layer.insert("fault.route_rebuilds".into(), self.rebuilds as f64);
        layer.insert("fault.dropped".into(), self.dropped as f64);
        layer.insert("fault.retried".into(), self.retried as f64);
        layer.insert("routing.cache_hits".into(), self.cache.hits() as f64);
        layer.insert("routing.cache_misses".into(), self.cache.misses() as f64);
    }
}

// ----------------------------------------------------------- opt-search

/// Shortcut-placement search: annealing, then (mu+lambda) evolution,
/// both from DSN-7-256 under DSN's own cable budget with the frontier
/// study's budgets, so seed 0 reproduces the `Opt-SA-256` / `Opt-ES-256`
/// rows of `BENCH_opt.json`. APSP, the cable model and the move code; no
/// simulator.
struct OptSearch {
    n: usize,
    sa_iterations: usize,
    es_generations: usize,
    seed: u64,
    pinned: bool,
    par: Parallelism,
    start: Option<Candidate>,
    obj: Option<Objective>,
    sa: Option<(f64, usize)>,
    es_s: f64,
    evaluations: usize,
    accept_ratio: f64,
}

impl OptSearch {
    fn new(seed: u64, scale: Scale) -> Self {
        let (n, sa_iterations, es_generations) = match scale {
            Scale::Smoke => (64, 20, 2),
            Scale::Bench | Scale::Full => (256, 1_500, 60),
        };
        OptSearch {
            n,
            sa_iterations,
            es_generations,
            seed: stream_seed(OPT_SEED, seed),
            pinned: seed == 0 && scale == Scale::Full,
            par: Parallelism::auto(),
            start: None,
            obj: None,
            sa: None,
            es_s: 0.0,
            evaluations: 0,
            accept_ratio: 0.0,
        }
    }
}

fn digest_search(r: &SearchResult) -> u64 {
    let mut h = Fnv::new();
    h.u64(r.trace.len() as u64);
    for s in &r.trace {
        h.u64(s.step as u64);
        h.u64(s.scalar_bits);
        h.u64(s.fingerprint);
        h.u64(s.kept as u64);
    }
    h.u64(r.evaluations as u64);
    h.u64(r.best.fingerprint());
    h.f64(r.best_scalar);
    h.0
}

impl Bench for OptSearch {
    fn op_names(&self) -> Vec<String> {
        vec!["sa".into(), "es".into()]
    }

    fn setup(&mut self) -> SetupTimes {
        let t0 = Instant::now();
        let start = Candidate::from_dsn(self.n).expect("DSN start point");
        let topology = secs_since(t0);
        let budget_m = Objective::aspl_only(self.par).score(start.graph()).cable_m;
        self.obj = Some(Objective::aspl_under_budget(budget_m, self.par));
        self.start = Some(start);
        SetupTimes {
            total: secs_since(t0),
            topology,
            routing: 0.0,
            engine_new: 0.0,
        }
    }

    fn run_op(&mut self, i: usize, trace: bool, _layer: &mut Layer) -> OpResult {
        let start = self.start.as_ref().expect("set up");
        let obj = self.obj.as_ref().expect("set up");
        let (result, wall_s, cpu_s) = if i == 0 {
            let cfg = SaConfig {
                iterations: self.sa_iterations,
                seed: self.seed,
                ..SaConfig::default()
            };
            timed(|| anneal_shortcuts(start, obj, &cfg))
        } else {
            let cfg = EsConfig {
                generations: self.es_generations,
                seed: self.seed,
                ..EsConfig::default()
            };
            timed(|| evolve(start, obj, &cfg))
        };
        let mut failures = Vec::new();
        let which = ["sa", "es"][i];
        if !result.best_score.connected || !result.best_score.within_budget {
            failures.push(format!(
                "{which}: best placement connected={} within_budget={}",
                result.best_score.connected, result.best_score.within_budget
            ));
        }
        if self.pinned {
            let row = format!("Opt-{}-{}", which.to_uppercase(), self.n);
            pins::check_opt(&row, result.best.fingerprint(), &mut failures);
        }
        if trace {
            self.evaluations += result.evaluations;
            if i == 0 {
                self.sa = Some((wall_s, result.evaluations));
                let kept = result.trace.iter().filter(|s| s.kept).count();
                self.accept_ratio = kept as f64 / result.trace.len().max(1) as f64;
            } else {
                self.es_s = wall_s;
            }
        }
        OpResult {
            wall_s,
            cpu_s,
            digest: digest_search(&result),
            sim_cycles: 0,
            failures,
        }
    }

    fn finish_trace(&mut self, layer: &mut Layer) {
        let g = self.start.as_ref().expect("set up").graph();
        let obj = self.obj.as_ref().expect("set up");
        let probe_ms = |f: &dyn Fn()| {
            let v: Vec<f64> = (0..PROBE_CALLS)
                .map(|_| {
                    let t = Instant::now();
                    f();
                    secs_since(t) * 1e3
                })
                .collect();
            crate::metrics::median(&v)
        };
        let placement = LinearPlacement::new(g.node_count(), obj.capacity.max(1));
        let apsp_ms = probe_ms(&|| {
            std::hint::black_box(path_stats_with(g, &self.par));
        });
        let cable_ms = probe_ms(&|| {
            std::hint::black_box(cable_stats(g, &placement, &CableModel::default()));
        });
        let score_ms = probe_ms(&|| {
            std::hint::black_box(obj.score(g));
        });
        let (sa_s, sa_evals) = self.sa.expect("traced round ran the annealer");
        let ms_per_eval = sa_s * 1e3 / sa_evals.max(1) as f64;
        for (m, v) in [
            ("apsp.path_stats_ms", apsp_ms),
            ("cable.stats_ms", cable_ms),
            ("search.sa_s", sa_s),
            ("search.es_s", self.es_s),
            ("search.evaluations", self.evaluations as f64),
            ("search.ms_per_eval", ms_per_eval),
            ("search.non_score_frac", 1.0 - score_ms / ms_per_eval),
            ("search.sa_accept_ratio", self.accept_ratio),
        ] {
            layer.insert(m.into(), v);
        }
    }
}
