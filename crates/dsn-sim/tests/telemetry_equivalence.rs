//! Equivalence gates for the telemetry subsystem:
//!
//! 1. **Spec equivalence, telemetry on** — the engine and the spec
//!    simulator (`common/spec.rs`) must produce bit-identical `RunStats`
//!    *and* byte-identical exported telemetry (JSON, CSV, heatmap) across
//!    DSN / torus / DLN topologies and adaptive / up\*down\* / DSN-V
//!    routings. The spec fires each hook where the cycle contract says the
//!    event happens, so any divergence means an engine hook is misplaced,
//!    missing or fires twice.
//! 2. **On/off invariance** — enabling telemetry must not perturb the
//!    simulation: `RunStats` with telemetry on are bit-identical to
//!    telemetry off.
//! 3. **Reconciliation** — telemetry's per-link measured-flit counts must
//!    reproduce `RunStats` channel-utilization fields bit-for-bit, and on
//!    a fault-free closed batch every created flit must be ejected.

use dsn_core::dln::Dln;
use dsn_core::dsn::Dsn;
use dsn_core::graph::Graph;
use dsn_core::torus::Torus;
use dsn_sim::{
    AdaptiveEscape, DsnAlgorithmic, FaultPlan, RetryPolicy, SimConfig, SimRouting, Simulator,
    TelemetryReport, TrafficPattern, UpDownRouting, Workload,
};
use std::sync::Arc;

mod common;
use common::spec;

/// Short-horizon config with telemetry enabled (warmup/measure/drain
/// phases, 512-cycle windows).
fn cfg_on() -> SimConfig {
    let mut cfg = SimConfig {
        warmup_cycles: 300,
        measure_cycles: 2_500,
        drain_cycles: 2_500,
        ..SimConfig::test_small()
    };
    cfg.telemetry = Some(cfg.standard_telemetry(512));
    cfg
}

fn open(pattern: TrafficPattern, rate: f64) -> Workload {
    Workload::Open {
        pattern,
        packets_per_cycle_per_host: rate,
    }
}

fn run_with(
    g: Arc<Graph>,
    cfg: SimConfig,
    routing: Arc<dyn SimRouting>,
    workload: Workload,
    seed: u64,
) -> (dsn_sim::RunStats, Option<TelemetryReport>) {
    Simulator::with_workload(g, cfg, routing, workload, seed).run_with_telemetry()
}

/// The spec and the engine, telemetry on: bit-identical stats AND
/// byte-identical exported artifacts. Returns the (shared) report for
/// extra checks.
fn assert_telemetry_matches_spec(
    g: Arc<Graph>,
    cfg: SimConfig,
    routing: Arc<dyn SimRouting>,
    workload: Workload,
    seed: u64,
    label: &str,
) -> (dsn_sim::RunStats, TelemetryReport) {
    let (spec_stats, spec_rep) = spec::run_with_telemetry(
        g.clone(),
        cfg.clone(),
        routing.clone(),
        workload.clone(),
        seed,
    );
    let (stats, rep) = run_with(g, cfg, routing, workload, seed);
    assert_eq!(spec_stats, stats, "{label}: RunStats diverged");
    let spec_rep = spec_rep.expect("telemetry enabled");
    let rep = rep.expect("telemetry enabled");
    assert_eq!(spec_rep, rep, "{label}: telemetry reports diverged");
    assert_eq!(
        spec_rep.to_json(),
        rep.to_json(),
        "{label}: JSON exports diverged"
    );
    assert_eq!(
        spec_rep.to_csv(),
        rep.to_csv(),
        "{label}: CSV exports diverged"
    );
    assert_eq!(
        spec_rep.heatmap(),
        rep.heatmap(),
        "{label}: heatmaps diverged"
    );
    assert!(
        stats.total_packets_all_time > 0,
        "{label}: vacuous scenario"
    );
    (stats, rep)
}

/// Telemetry's view must reconcile with the engine's own accounting.
fn assert_reconciles(stats: &dsn_sim::RunStats, rep: &TelemetryReport, label: &str) {
    assert_eq!(
        rep.mean_measured_utilization(),
        stats.mean_channel_utilization,
        "{label}: mean utilization must match RunStats bit-for-bit"
    );
    assert_eq!(
        rep.max_measured_utilization(),
        stats.max_channel_utilization,
        "{label}: max utilization must match RunStats bit-for-bit"
    );
    let delivered: u64 = rep.phases.iter().map(|p| p.delivered).sum();
    let created: u64 = rep.phases.iter().map(|p| p.created).sum();
    let dropped: u64 = rep.phases.iter().map(|p| p.dropped).sum();
    assert_eq!(
        created, stats.total_packets_all_time,
        "{label}: created packets"
    );
    assert_eq!(
        dropped, stats.dropped_packets_all_time,
        "{label}: dropped packets"
    );
    assert!(
        delivered + dropped <= created,
        "{label}: delivered + dropped must not exceed created"
    );
    // Per-class histogram counts fold up to the phase delivered counts.
    for p in &rep.phases {
        let class_sum: u64 = p.classes.iter().map(|c| c.count).sum();
        assert_eq!(class_sum, p.delivered, "{label}: phase {} classes", p.name);
        assert_eq!(
            p.queueing_cycles + p.credit_stall_cycles + p.wire_cycles + p.ejection_cycles,
            p.latency_sum_cycles,
            "{label}: phase {} decomposition",
            p.name
        );
    }
}

#[test]
fn dsn_adaptive_uniform_telemetry_matches() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = cfg_on();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let (stats, rep) = assert_telemetry_matches_spec(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.01),
        42,
        "dsn64 adaptive uniform",
    );
    assert_reconciles(&stats, &rep, "dsn64 adaptive uniform");
    assert!(stats.delivered_packets > 0);
    assert!(rep.flits_sent_total > 0);
    assert!(
        rep.links.iter().any(|l| l.ring) && rep.links.iter().any(|l| !l.ring),
        "DSN must expose both ring and shortcut links"
    );
}

#[test]
fn dsn_updown_transpose_telemetry_matches() {
    let g = Arc::new(Dsn::new(128, 6).unwrap().into_graph());
    let cfg = cfg_on();
    let routing = Arc::new(UpDownRouting::new(g.clone(), cfg.vcs));
    let (stats, rep) = assert_telemetry_matches_spec(
        g,
        cfg,
        routing,
        open(TrafficPattern::Transpose, 0.004),
        7,
        "dsn128-x6 up*/down* transpose",
    );
    assert_reconciles(&stats, &rep, "dsn128-x6 up*/down* transpose");
}

#[test]
fn dsn_custom_routing_telemetry_matches() {
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let routing = Arc::new(DsnAlgorithmic::new(dsn));
    let cfg = SimConfig { vcs: 4, ..cfg_on() };
    let (stats, rep) = assert_telemetry_matches_spec(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.004),
        11,
        "dsn64 DSN-V custom uniform",
    );
    assert_reconciles(&stats, &rep, "dsn64 DSN-V custom uniform");
}

#[test]
fn torus_updown_telemetry_matches() {
    let g = Arc::new(Torus::new(&[4, 4]).unwrap().into_graph());
    let cfg = cfg_on();
    let routing = Arc::new(UpDownRouting::new(g.clone(), cfg.vcs));
    let (stats, rep) = assert_telemetry_matches_spec(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.006),
        13,
        "torus4x4 up*/down* uniform",
    );
    assert_reconciles(&stats, &rep, "torus4x4 up*/down* uniform");
}

#[test]
fn dln_adaptive_telemetry_matches() {
    let g = Arc::new(Dln::new(64, 2).unwrap().into_graph());
    let cfg = cfg_on();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let (stats, rep) = assert_telemetry_matches_spec(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.004),
        17,
        "dln64 adaptive uniform",
    );
    assert_reconciles(&stats, &rep, "dln64 adaptive uniform");
}

#[test]
fn telemetry_on_does_not_perturb_runstats() {
    // Same scenario with telemetry off and on, on the spec and on the
    // engine: all four RunStats must be bit-identical, and the two
    // reports equal. The faulted and past-saturation rows are where the
    // engine's allocation walk skips the most blocked heads and reports
    // them itself.
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let flap = FaultPlan::flap(6, 600, 400, 3).with_retry(RetryPolicy::new(4, 100, 50));
    for (plan, rate) in [(FaultPlan::none(), 0.01), (flap.clone(), 0.01), (flap, 0.2)] {
        let label = format!("{} fault events, rate {rate}", plan.events.len());
        let on = SimConfig {
            fault_plan: plan,
            ..cfg_on()
        };
        let off = SimConfig {
            telemetry: None,
            ..on.clone()
        };
        let routing: Arc<dyn SimRouting> = Arc::new(AdaptiveEscape::new(g.clone(), on.vcs));
        let workload = open(TrafficPattern::Uniform, rate);
        let mut all = Vec::new();
        let mut reports = Vec::new();
        for cfg in [&off, &on] {
            let runs = [
                spec::run_with_telemetry(
                    g.clone(),
                    cfg.clone(),
                    routing.clone(),
                    workload.clone(),
                    99,
                ),
                run_with(
                    g.clone(),
                    cfg.clone(),
                    routing.clone(),
                    workload.clone(),
                    99,
                ),
            ];
            for (stats, rep) in runs {
                assert_eq!(rep.is_some(), cfg.telemetry.is_some());
                all.push(stats);
                reports.extend(rep);
            }
        }
        assert!(all[0].delivered_packets > 0, "{label}: vacuous scenario");
        for s in &all[1..] {
            assert_eq!(
                &all[0], s,
                "{label}: telemetry or the spec perturbed RunStats"
            );
        }
        assert_eq!(
            reports[0], reports[1],
            "{label}: telemetry reports diverged"
        );
    }
}

#[test]
fn closed_batch_flits_fully_accounted() {
    // Fault-free closed batch: every created flit must be ejected, and the
    // telemetry totals must say so exactly.
    let g = Arc::new(Dsn::new(16, 3).unwrap().into_graph());
    let mut cfg = cfg_on();
    cfg.drain_cycles = 60_000;
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let hosts = 16 * cfg.hosts_per_switch;
    let (stats, rep) = assert_telemetry_matches_spec(
        g,
        cfg.clone(),
        routing,
        Workload::all_to_all(hosts),
        3,
        "dsn16 all-to-all batch",
    );
    assert_reconciles(&stats, &rep, "dsn16 all-to-all batch");
    assert!(stats.completion_cycle.is_some(), "batch must complete");
    let expected_flits = stats.total_packets_all_time * cfg.packet_flits as u64;
    assert_eq!(rep.flits_ejected_total, expected_flits);
    // Every flit sent on some channel later arrived and was counted there.
    let arrived: u64 = rep.links.iter().map(|l| l.flits).sum();
    assert_eq!(rep.flits_sent_total, arrived);
}

#[test]
fn fault_phases_tag_pre_and_post_packets() {
    // A faulted run with explicit pre/post-fault phases: phase totals must
    // partition the packets, and the engine must still match the spec
    // bit for bit.
    use dsn_sim::{FaultPlan, TelemetryConfig};
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let mut cfg = cfg_on();
    let fault_cycle = cfg.warmup_cycles + cfg.measure_cycles / 4;
    cfg.fault_plan = FaultPlan::random_connected(&g, 0xFA11, 4, fault_cycle, 50);
    cfg.telemetry = Some(
        TelemetryConfig::windowed(512)
            .with_phases(&[(0, "pre-fault"), (fault_cycle, "post-fault")]),
    );
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let (stats, rep) = assert_telemetry_matches_spec(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.01),
        0xFA11,
        "dsn64 faulted pre/post phases",
    );
    assert_eq!(rep.phases.len(), 2);
    assert_eq!(rep.phases[0].name, "pre-fault");
    assert_eq!(rep.phases[1].name, "post-fault");
    assert!(rep.phases[0].created > 0 && rep.phases[1].created > 0);
    let created: u64 = rep.phases.iter().map(|p| p.created).sum();
    assert_eq!(created, stats.total_packets_all_time);
    let dropped: u64 = rep.phases.iter().map(|p| p.dropped).sum();
    assert_eq!(dropped, stats.dropped_packets_all_time);
}

/// CI smoke: a 30k-cycle telemetry-enabled spec-vs-event check on a
/// paper-sized DSN, one named test so the workflow can run exactly this
/// gate next to `smoke_30k_spec_vs_event`.
#[test]
fn smoke_30k_telemetry_spec_vs_event() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let mut cfg = SimConfig {
        warmup_cycles: 5_000,
        measure_cycles: 15_000,
        drain_cycles: 10_000,
        ..SimConfig::default()
    };
    cfg.telemetry = Some(cfg.standard_telemetry(1_000));
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let rate = cfg.packets_per_cycle_for_gbps(1.0);
    let (stats, rep) = assert_telemetry_matches_spec(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, rate),
        2024,
        "smoke dsn64-x5 30k cycles telemetry",
    );
    assert_reconciles(&stats, &rep, "smoke dsn64-x5 30k cycles telemetry");
    assert!(stats.delivered_packets > 0);
    assert!(!stats.deadlock_suspected);
}
