//! Bit-equivalence gate for the port-mask routing tables: every library
//! scheme serves its candidates from per-`(switch, destination)` port
//! masks, and a run of it must produce *identical* `RunStats` — every
//! counter and every float — to a run of its test-side reference
//! (`common/mod.rs`), which computes each hop from its own BFS distances,
//! `UpDown::next_hops` and `dsnv_step` and shares no code with the masks.
//! Covered: the trio and a torus, every scheme (including minimal-adaptive
//! DSN with its DSN-V escape), the spec simulator and the engine, mid-run
//! fault rebuilds, and a
//! graph of degree > 8 whose masks span two bytes. Any divergence means a
//! mask or its decode disagrees with the hop-by-hop definition, so the
//! comparison is `assert_eq!` on the whole struct.

use dsn_core::dln::Dln;
use dsn_core::dsn::Dsn;
use dsn_core::graph::Graph;
use dsn_core::random_regular::RandomRegular;
use dsn_core::torus::Torus;
use dsn_sim::{
    AdaptiveEscape, DsnAlgorithmic, FaultPlan, MinimalAdaptiveDsn, RetryPolicy, RunStats,
    SimConfig, SimRouting, TrafficPattern, UpDownRouting, Workload,
};
use std::sync::Arc;

mod common;
use common::{RefDsnv, RefMinimalDsn, RefPhase, Sim};

/// Short-horizon config so the spec simulator stays fast in debug builds.
fn cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 300,
        measure_cycles: 2_500,
        drain_cycles: 2_500,
        ..SimConfig::test_small()
    }
}

fn open(pattern: TrafficPattern, rate: f64) -> Workload {
    Workload::Open {
        pattern,
        packets_per_cycle_per_host: rate,
    }
}

/// Run the identical scenario with the library scheme and with its
/// reference, on the spec simulator and on the engine, and demand
/// bit-identical stats from all four runs.
fn assert_masks_match_reference(
    g: Arc<Graph>,
    cfg: SimConfig,
    routing: Arc<dyn SimRouting>,
    reference: Arc<dyn SimRouting>,
    workload: Workload,
    seed: u64,
    label: &str,
) -> RunStats {
    let mut runs = Vec::new();
    for sim in Sim::BOTH {
        let expected = sim.run(&g, &cfg, reference.clone(), &workload, seed);
        let got = sim.run(&g, &cfg, routing.clone(), &workload, seed);
        assert_eq!(
            expected,
            got,
            "{label} [{}]: port masks diverged from the reference",
            sim.name()
        );
        assert!(
            got.total_packets_all_time > 0,
            "{label} [{}]: vacuous scenario",
            sim.name()
        );
        runs.push(got);
    }
    assert_eq!(runs[0], runs[1], "{label}: engine diverged from the spec");
    runs.pop().unwrap()
}

#[test]
fn dsn_adaptive_escape_low_and_high_load() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let reference = RefPhase::adaptive(g.clone(), cfg.vcs);
    for (rate, label) in [(0.002, "low"), (0.04, "near-saturation")] {
        let stats = assert_masks_match_reference(
            g.clone(),
            cfg.clone(),
            routing.clone(),
            reference.clone(),
            open(TrafficPattern::Uniform, rate),
            42,
            &format!("dsn64 adaptive uniform {label}"),
        );
        assert!(stats.delivered_packets > 0);
    }
}

#[test]
fn dsn_updown_tornado() {
    // Pure phase scheme: both escape masks (Up / Down) are exercised,
    // including the empty ones of unreachable Down-phase states.
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = cfg();
    assert_masks_match_reference(
        g.clone(),
        cfg.clone(),
        Arc::new(UpDownRouting::new(g.clone(), cfg.vcs)),
        RefPhase::updown(g, cfg.vcs),
        open(TrafficPattern::Tornado, 0.004),
        7,
        "dsn64 up*/down* tornado",
    );
}

#[test]
fn dln_adaptive_uniform() {
    let g = Arc::new(Dln::new(64, 2).unwrap().into_graph());
    let cfg = cfg();
    assert_masks_match_reference(
        g.clone(),
        cfg.clone(),
        Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs)),
        RefPhase::adaptive(g, cfg.vcs),
        open(TrafficPattern::Uniform, 0.004),
        17,
        "dln64 adaptive uniform",
    );
}

#[test]
fn torus_updown_tornado() {
    let g = Arc::new(Torus::new(&[4, 4]).unwrap().into_graph());
    let cfg = cfg();
    assert_masks_match_reference(
        g.clone(),
        cfg.clone(),
        Arc::new(UpDownRouting::new(g.clone(), cfg.vcs)),
        RefPhase::updown(g, cfg.vcs),
        open(TrafficPattern::Tornado, 0.006),
        13,
        "torus4x4 up*/down* tornado",
    );
}

#[test]
fn dsn_custom_dsnv_uniform() {
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    // DSN-V levels need the paper's 4 VCs; keep the short test horizon.
    let cfg = SimConfig { vcs: 4, ..cfg() };
    assert_masks_match_reference(
        g,
        cfg,
        Arc::new(DsnAlgorithmic::new(dsn.clone())),
        RefDsnv::scheme(dsn, 1),
        open(TrafficPattern::Uniform, 0.004),
        11,
        "dsn64 DSN-V custom uniform",
    );
}

#[test]
fn minimal_adaptive_dsn_escape() {
    // Adaptive candidates come from the minimal masks; the DSN-V escape
    // hop follows from the packet's sojourn state, after them.
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let cfg = SimConfig { vcs: 8, ..cfg() };
    let stats = assert_masks_match_reference(
        g,
        cfg,
        Arc::new(MinimalAdaptiveDsn::new(dsn.clone(), 8)),
        RefMinimalDsn::scheme(dsn, 8),
        open(TrafficPattern::Uniform, 0.02),
        23,
        "dsn64 minimal-adaptive + dsnv escape",
    );
    assert!(stats.delivered_packets > 0);
}

#[test]
fn fault_rebuild_adaptive() {
    // Mid-run link death: the online reroute rebuilds the scheme, whose
    // masks are then built over the survivor graph.
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let mut cfg = cfg();
    cfg.fault_plan = FaultPlan::single_link(5, 900).with_retry(RetryPolicy::new(2, 150, 50));
    let stats = assert_masks_match_reference(
        g.clone(),
        cfg.clone(),
        Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs)),
        RefPhase::adaptive(g, cfg.vcs),
        open(TrafficPattern::Uniform, 0.01),
        0xFA11,
        "dsn64 adaptive single-link fault",
    );
    assert!(stats.dropped_packets_all_time + stats.delivered_packets > 0);
}

#[test]
fn fault_flap_updown() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let mut cfg = cfg();
    cfg.fault_plan = FaultPlan::flap(6, 600, 400, 3).with_retry(RetryPolicy::new(4, 100, 50));
    assert_masks_match_reference(
        g.clone(),
        cfg.clone(),
        Arc::new(UpDownRouting::new(g.clone(), cfg.vcs)),
        RefPhase::updown(g, cfg.vcs),
        open(TrafficPattern::Uniform, 0.008),
        0xF1A9,
        "dsn64 up*/down* flapping link",
    );
}

#[test]
fn degree_10_two_byte_masks_with_faults() {
    // Degree 10 > 8: every mask spans two bytes, and ports 8 and 9 decode
    // from the second. Fault-free adaptive and up*/down*, then a flapping
    // link that rebuilds the adaptive masks over the survivors.
    let g = Arc::new(RandomRegular::new(32, 10, 5).unwrap().into_graph());
    assert_eq!(g.max_degree(), 10);
    let cfg = cfg();
    assert_masks_match_reference(
        g.clone(),
        cfg.clone(),
        Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs)),
        RefPhase::adaptive(g.clone(), cfg.vcs),
        open(TrafficPattern::Uniform, 0.02),
        0xD10,
        "rr32-10 adaptive uniform",
    );
    assert_masks_match_reference(
        g.clone(),
        cfg.clone(),
        Arc::new(UpDownRouting::new(g.clone(), cfg.vcs)),
        RefPhase::updown(g.clone(), cfg.vcs),
        open(TrafficPattern::Uniform, 0.01),
        0xD11,
        "rr32-10 up*/down* uniform",
    );
    let mut faulted = cfg;
    faulted.fault_plan = FaultPlan::flap(9, 600, 400, 3).with_retry(RetryPolicy::new(4, 100, 50));
    assert_masks_match_reference(
        g.clone(),
        faulted.clone(),
        Arc::new(AdaptiveEscape::new(g.clone(), faulted.vcs)),
        RefPhase::adaptive(g, faulted.vcs),
        open(TrafficPattern::Uniform, 0.01),
        0xD12,
        "rr32-10 adaptive flapping link",
    );
}
