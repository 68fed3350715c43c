//! Bit-equivalence and accounting gates for the flow-level workload
//! layer (web-search Poisson flows, synchronized incast waves, the
//! recursive-doubling staged allreduce): the engine must produce the spec
//! simulator's `RunStats` (`common/spec.rs`) bit for bit on every
//! workload class, with telemetry on the two must export byte-identical
//! artifacts (the per-class `"fct"` section included), the size-CDF
//! samplers must converge to their analytic moments, and the per-flow
//! accounting must match hand-computed oracles.

use dsn_core::dsn::Dsn;
use dsn_core::graph::Graph;
use dsn_sim::{
    AdaptiveEscape, FaultPlan, FlowArrivals, FlowSizeDist, RetryPolicy, SimConfig, Simulator,
    StagedSpec, TrafficPattern, Workload,
};
use std::sync::Arc;

mod common;
use common::{assert_engine_matches_spec, spec};

/// Short-horizon config so the spec simulator stays fast in debug builds.
fn cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 300,
        measure_cycles: 2_500,
        drain_cycles: 6_000,
        ..SimConfig::test_small()
    }
}

fn small_dsn() -> Arc<Graph> {
    Arc::new(Dsn::new(16, 3).unwrap().into_graph())
}

fn websearch_flows(rate: f64) -> Workload {
    Workload::Flows {
        pattern: TrafficPattern::Uniform,
        sizes: FlowSizeDist::websearch(),
        arrivals: FlowArrivals::Poisson {
            flows_per_cycle: rate,
        },
    }
}

// ------------------------------------------------------------ spec vs event

#[test]
fn websearch_poisson_flows_match_spec() {
    let g = small_dsn();
    let cfg = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let stats = assert_engine_matches_spec(
        g,
        cfg,
        routing,
        websearch_flows(0.002),
        41,
        "dsn16 websearch poisson flows",
    );
    assert!(stats.flows_started > 0, "window must see flow starts");
    assert!(stats.flows_completed > 0, "some flows must complete");
}

#[test]
fn incast_matches_spec() {
    let g = small_dsn();
    let cfg = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let workload = Workload::Incast {
        fanin: 8,
        request_packets: 3,
        wave_period: 600,
    };
    let stats = assert_engine_matches_spec(g, cfg, routing, workload, 53, "dsn16 incast 8-to-1");
    assert!(stats.flows_completed > 0, "incast waves must complete");
}

#[test]
fn staged_recursive_doubling_matches_spec() {
    let g = small_dsn();
    let mut cfg = cfg();
    cfg.warmup_cycles = 0;
    cfg.drain_cycles = 60_000;
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let hosts = 16 * cfg.hosts_per_switch;
    let spec = StagedSpec::recursive_doubling_allreduce(hosts, 2);
    let total = spec.total_packets();
    let stats = assert_engine_matches_spec(
        g,
        cfg,
        routing,
        Workload::Staged(spec),
        61,
        "dsn16 recursive-doubling allreduce",
    );
    assert!(stats.completion_cycle.is_some(), "collective must finish");
    assert_eq!(stats.total_packets_all_time, total);
}

/// Flow workloads under a link-flap plan with retries: the engine must
/// still match the spec bit for bit.
#[test]
fn faulted_flows_match_spec() {
    let g = small_dsn();
    let mut cfg = cfg();
    cfg.fault_plan = FaultPlan::flap(3, 700, 400, 3).with_retry(RetryPolicy::new(2, 150, 50));
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let stats = assert_engine_matches_spec(
        g,
        cfg,
        routing,
        websearch_flows(0.004),
        71,
        "dsn16 websearch flows under link flaps",
    );
    assert!(stats.flows_started > 0);
}

/// With telemetry on, the engine and the spec must export byte-identical
/// artifacts — including the per-class `"fct"` section fed by the
/// flow-completion hook.
#[test]
fn flow_telemetry_byte_identical_to_spec() {
    let g = small_dsn();
    let mut cfg = cfg();
    cfg.telemetry = Some(cfg.standard_telemetry(512));
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let workload = websearch_flows(0.004);

    let (spec_stats, spec_rep) = spec::run_with_telemetry(
        g.clone(),
        cfg.clone(),
        routing.clone(),
        workload.clone(),
        73,
    );
    let spec_rep = spec_rep.expect("telemetry was configured");
    let json = spec_rep.to_json();
    assert!(
        json.contains("\"fct\": ["),
        "flow run must emit the fct telemetry section"
    );
    assert!(
        spec_stats.flows_completed > 0,
        "scenario must complete flows"
    );

    let (stats, rep) = Simulator::with_workload(g, cfg, routing, workload, 73).run_with_telemetry();
    let rep = rep.expect("telemetry was configured");
    assert_eq!(spec_stats, stats, "engine: stats diverged");
    assert_eq!(json, rep.to_json(), "engine: JSON diverged");
    assert_eq!(spec_rep.to_csv(), rep.to_csv(), "engine: CSV diverged");
}

// ------------------------------------------------------------ accounting

/// Fault-free fixed-size flows with a drain long enough for every flow to
/// finish: the per-flow packet accounting must balance exactly — every
/// created packet is flow-tagged and delivered, and every started flow
/// completes.
#[test]
fn flow_packet_accounting_balances_exactly() {
    let g = small_dsn();
    let mut cfg = cfg();
    cfg.drain_cycles = 30_000;
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let workload = Workload::Flows {
        pattern: TrafficPattern::Uniform,
        sizes: FlowSizeDist::Fixed(4),
        arrivals: FlowArrivals::Poisson {
            flows_per_cycle: 0.001,
        },
    };
    let stats = Simulator::with_workload(g, cfg, routing, workload, 79).run();
    assert!(stats.flows_started > 0);
    // Arrivals run through the drain (open-loop convention), so a flow
    // starting near the horizon may not finish; but every *measured* flow
    // has the whole 30k-cycle drain to complete in.
    assert_eq!(
        stats.flows_completed, stats.flows_started,
        "every measured fixed-size flow must complete within the drain"
    );
    let stragglers = stats.flows_started_all_time - stats.flows_completed_all_time;
    assert!(
        stragglers <= 3,
        "only flows arriving at the very end of the drain may miss it \
         ({stragglers} stragglers)"
    );
    // Delivered flow packets bracket exactly: 4 per completed flow plus
    // at most 4 partial packets per straggler — and every packet in a
    // pure-flow run is flow-tagged.
    assert!(
        stats.flow_packets_delivered >= stats.flows_completed_all_time * 4
            && stats.flow_packets_delivered <= stats.flows_started_all_time * 4,
        "delivered flow packets must equal flows x fixed size (+ partials)"
    );
    assert!(stats.flow_packets_delivered <= stats.total_packets_all_time);
}

/// Single-flow FCT oracle on an otherwise idle network: a `fanin = 1`
/// incast wave with one `k`-packet request. The source paces packets one
/// serialization time apart, so the flow's FCT must scale as
/// `FCT(k) = FCT(1) + (k - 1) * packet_flits` exactly.
#[test]
fn single_flow_fct_scales_with_pacing() {
    let g = small_dsn();
    let mut cfg = cfg();
    cfg.warmup_cycles = 0; // wave 0 fires at cycle 0, inside the window
    cfg.drain_cycles = 30_000;
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let fct = |k: u32| -> u64 {
        let stats = Simulator::with_workload(
            g.clone(),
            cfg.clone(),
            routing.clone(),
            Workload::Incast {
                fanin: 1,
                request_packets: k,
                wave_period: 1_000_000, // only wave 0 fires
            },
            83,
        )
        .run();
        assert_eq!(stats.flows_completed, 1, "exactly one measured flow");
        stats.fct_max_cycles
    };
    let base = fct(1);
    assert!(base > 0, "one-packet flow has a positive FCT");
    // Each extra packet costs one fixed increment: the pacing gap plus
    // the per-packet pipeline overhead (route + serialization of the
    // follow-up head). The increment must be at least the pacing gap and
    // exactly linear in the packet count.
    let step = fct(2) - base;
    assert!(
        step >= cfg.packet_flits as u64,
        "per-packet FCT step {step} below the pacing gap"
    );
    assert_eq!(
        fct(5),
        base + 4 * step,
        "FCT must scale linearly with flow size on an idle network"
    );
}

/// Incast accounting: every wave inside the window starts exactly `fanin`
/// flows of `request_packets` packets each.
#[test]
fn incast_wave_accounting() {
    let g = small_dsn();
    let mut cfg = cfg();
    cfg.warmup_cycles = 0;
    cfg.measure_cycles = 2_000;
    cfg.drain_cycles = 30_000;
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let stats = Simulator::with_workload(
        g,
        cfg,
        routing,
        Workload::Incast {
            fanin: 6,
            request_packets: 2,
            wave_period: 500,
        },
        89,
    )
    .run();
    // Waves at 0, 500, 1000, 1500 are measured: 4 waves x 6 senders.
    assert_eq!(stats.flows_started, 24, "4 measured waves x fanin 6");
    assert_eq!(stats.flows_completed, 24, "idle-network waves all finish");
    assert_eq!(
        stats.flow_packets_delivered,
        stats.flows_started_all_time * 2
    );
}

// ----------------------------------------------------- CDF convergence

/// Empirical moments of the size samplers must converge to the analytic
/// `mean()` / `quantile()` of the same distribution.
fn assert_converges(dist: FlowSizeDist, label: &str, tol: f64) {
    let n = 200_000;
    let samples = dist.samples(0xCDF, n);
    assert_eq!(samples.len(), n);
    let mean = samples.iter().sum::<f64>() / n as f64;
    let analytic = dist.mean();
    assert!(
        (mean - analytic).abs() / analytic < tol,
        "{label}: empirical mean {mean:.1} vs analytic {analytic:.1}"
    );
    let mut sorted = samples;
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    for q in [0.50, 0.99] {
        let emp = sorted[(q * n as f64) as usize];
        let ana = dist.quantile(q);
        assert!(
            (emp - ana).abs() / ana < tol,
            "{label}: empirical p{:.0} {emp:.1} vs analytic {ana:.1}",
            q * 100.0
        );
    }
}

#[test]
fn websearch_cdf_converges() {
    assert_converges(FlowSizeDist::websearch(), "websearch", 0.03);
}

#[test]
fn cdf_sampling_is_seed_deterministic() {
    let d = FlowSizeDist::websearch();
    assert_eq!(
        d.samples(7, 1_000),
        d.samples(7, 1_000),
        "same seed must replay the same stream"
    );
    assert_ne!(
        d.samples(7, 1_000),
        d.samples(8, 1_000),
        "different seeds must decorrelate"
    );
}

// -------------------------------------------------------------- CI smoke

/// CI smoke: a 30k-cycle spec-vs-event check of the flow layer on a
/// paper-sized DSN with the paper's full-size delays, kept as one named
/// test so the workflow can run exactly this gate.
#[test]
fn smoke_30k_flows_spec_vs_event() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = SimConfig {
        warmup_cycles: 5_000,
        measure_cycles: 15_000,
        drain_cycles: 10_000,
        ..SimConfig::default()
    };
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let stats = assert_engine_matches_spec(
        g,
        cfg,
        routing,
        websearch_flows(2.0e-5),
        2024,
        "smoke dsn64-x5 websearch flows 30k cycles",
    );
    assert!(stats.flows_started > 0);
    assert!(stats.flows_completed > 0);
    assert!(!stats.deadlock_suspected);
}
