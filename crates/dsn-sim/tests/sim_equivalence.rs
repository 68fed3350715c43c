//! Bit-equivalence gate for the engine against the spec simulator
//! (`common/spec.rs`, written from the cycle contract and sharing no
//! mutation code with the engine): the engine must reproduce the spec's
//! `RunStats` *exactly* — every counter and every float — across
//! topologies, routings, traffic patterns, open and closed workloads, and
//! a seeded deadlock case. Any divergence means one of them reordered an
//! arbitration or mistimed an event, so the comparison is `assert_eq!` on
//! the whole struct, not a tolerance check.

use dsn_core::dln::Dln;
use dsn_core::dsn::Dsn;
use dsn_core::torus::Torus;
use dsn_sim::{
    AdaptiveEscape, DsnAlgorithmic, SimConfig, SimRouting, Switching, TrafficPattern,
    UpDownRouting, Workload,
};
use std::sync::Arc;

mod common;
use common::assert_engine_matches_spec;

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

#[test]
fn dsn_adaptive_uniform_low_and_high_load() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    for (rate, label) in [(0.002, "low"), (0.04, "near-saturation")] {
        let stats = assert_engine_matches_spec(
            g.clone(),
            cfg.clone(),
            routing.clone(),
            open(TrafficPattern::Uniform, rate),
            42,
            &format!("dsn64 adaptive uniform {label}"),
        );
        assert!(stats.delivered_packets > 0);
    }
}

#[test]
fn dsn_updown_tornado() {
    // DSN-6-128: p = 7, so x = 6 is the densest shortcut set.
    let g = Arc::new(Dsn::new(128, 6).unwrap().into_graph());
    let cfg = cfg();
    let routing = Arc::new(UpDownRouting::new(g.clone(), cfg.vcs));
    assert_engine_matches_spec(
        g,
        cfg,
        routing,
        open(TrafficPattern::Tornado, 0.004),
        7,
        "dsn128-x6 up*/down* tornado",
    );
}

#[test]
fn dsn_custom_routing_uniform() {
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let routing = Arc::new(DsnAlgorithmic::new(dsn));
    // DSN-V levels need the paper's 4 VCs; keep the short test horizon.
    let cfg = SimConfig { vcs: 4, ..cfg() };
    assert_engine_matches_spec(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.004),
        11,
        "dsn64 DSN-V custom uniform",
    );
}

#[test]
fn torus_updown_uniform_and_tornado() {
    let g = Arc::new(Torus::new(&[4, 4]).unwrap().into_graph());
    let cfg = cfg();
    for (pattern, label) in [
        (TrafficPattern::Uniform, "uniform"),
        (TrafficPattern::Tornado, "tornado"),
    ] {
        let routing = Arc::new(UpDownRouting::new(g.clone(), cfg.vcs));
        assert_engine_matches_spec(
            g.clone(),
            cfg.clone(),
            routing,
            open(pattern, 0.006),
            13,
            &format!("torus4x4 up*/down* {label}"),
        );
    }
}

#[test]
fn dln_adaptive_uniform() {
    let g = Arc::new(Dln::new(64, 2).unwrap().into_graph());
    let cfg = cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    assert_engine_matches_spec(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.004),
        17,
        "dln64 adaptive uniform",
    );
}

#[test]
fn closed_all_to_all_batch() {
    let g = Arc::new(Dsn::new(16, 3).unwrap().into_graph());
    let mut cfg = cfg();
    cfg.drain_cycles = 60_000; // room for the batch to finish
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let hosts = 16 * cfg.hosts_per_switch;
    let stats = assert_engine_matches_spec(
        g,
        cfg,
        routing,
        Workload::all_to_all(hosts),
        3,
        "dsn16 all-to-all batch",
    );
    assert!(stats.completion_cycle.is_some(), "batch must complete");
}

#[test]
fn seeded_deadlock_watchdog_case() {
    // The provably-cyclic single-VC basic routing wedges under load; the
    // engine and the spec must agree on the whole wedged-run fingerprint, watchdog
    // verdict included.
    let dsn = Arc::new(Dsn::new(60, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let cfg = SimConfig {
        warmup_cycles: 500,
        measure_cycles: 5_000,
        drain_cycles: 5_000,
        ..SimConfig::default()
    };
    let rate = cfg.packets_per_cycle_for_gbps(4.0);
    let routing = Arc::new(DsnAlgorithmic::basic_single_vc(dsn));
    let stats = assert_engine_matches_spec(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, rate),
        0xDEAD,
        "dsn60 unsafe 1-VC routing at 4 Gbps",
    );
    assert!(
        stats.deadlock_suspected,
        "expected the watchdog to fire (longest stall {})",
        stats.longest_stall_cycles
    );
}

/// Wormhole with the paper's 33-flit packets in 4- and 8-flit buffers: a
/// packet spans several switches, so an input VC's packet ring holds the
/// tail of one packet and the head of the next, and drains to zero flits
/// while its front packet is still streaming in.
#[test]
fn wormhole_small_buffers_under_long_packets() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let base = SimConfig {
        switching: Switching::Wormhole,
        ..SimConfig::default()
    };
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), base.vcs));
    for buffer_flits in [4, 8] {
        let cfg = SimConfig {
            buffer_flits,
            warmup_cycles: 300,
            measure_cycles: 3_000,
            drain_cycles: 3_000,
            ..base.clone()
        };
        let rate = cfg.packets_per_cycle_for_gbps(6.0);
        let stats = assert_engine_matches_spec(
            g.clone(),
            cfg,
            routing.clone(),
            open(TrafficPattern::Uniform, rate),
            53,
            &format!("dsn64 adaptive wormhole {buffer_flits}-flit buffers, 33-flit packets"),
        );
        assert!(stats.delivered_packets > 0);
    }
}

/// One-flit packets: every flit is a head and a tail, so a network ring
/// needs one id slot per buffered flit.
#[test]
fn single_flit_packets_fill_every_ring_slot() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    for switching in [Switching::VirtualCutThrough, Switching::Wormhole] {
        let cfg = SimConfig {
            switching,
            packet_flits: 1,
            ..cfg()
        };
        let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
        let stats = assert_engine_matches_spec(
            g.clone(),
            cfg,
            routing,
            open(TrafficPattern::Uniform, 0.3),
            59,
            &format!("dsn64 adaptive {switching:?} 1-flit packets"),
        );
        assert!(
            stats.saturated(),
            "0.3 packets/cycle/host must back the rings up"
        );
    }
}

/// Virtual cut-through with several small packets per buffer: 4-flit
/// packets in 16-flit buffers, so an input VC's ring holds up to
/// `(16 - 1) / 4 + 1 = 4` packets (a partly sent front and three whole
/// ones). Saturated uniform traffic fills every slot, so a ring one slot
/// short overwrites a queued packet's id.
#[test]
fn vct_multi_packet_buffers_fill_every_ring_slot() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = SimConfig {
        buffer_flits: 16,
        ..cfg()
    };
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let stats = assert_engine_matches_spec(
        g.clone(),
        cfg,
        routing,
        open(TrafficPattern::Uniform, 0.2),
        61,
        "dsn64 adaptive VCT 16-flit buffers, 4-flit packets",
    );
    assert!(
        stats.saturated(),
        "0.2 packets/cycle/host must back the rings up"
    );
}

/// CI smoke: a 30k-cycle spec-vs-event check on a paper-sized DSN, kept
/// as one named test so the workflow can run exactly this gate.
#[test]
fn smoke_30k_spec_vs_event() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = SimConfig {
        warmup_cycles: 5_000,
        measure_cycles: 15_000,
        drain_cycles: 10_000,
        ..SimConfig::default()
    };
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let rate = cfg.packets_per_cycle_for_gbps(1.0);
    let stats = assert_engine_matches_spec(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, rate),
        2024,
        "smoke dsn64-x5 30k cycles",
    );
    assert!(stats.delivered_packets > 0);
    assert!(!stats.deadlock_suspected);
}

/// The saturated steady state at scale: a 256-switch DSN at
/// 11 Gbit/s/host (the BENCH near-saturation point), the
/// regime the cache-conscious layout, word-parallel scans, batch draining
/// and zero-alloc presizing all target. The run must actually saturate so
/// the hot paths being gated are the ones that executed.
#[test]
fn saturated_256_spec_vs_event() {
    let g = Arc::new(Dsn::new(256, 7).unwrap().into_graph());
    let cfg = SimConfig {
        warmup_cycles: 1_000,
        measure_cycles: 4_000,
        drain_cycles: 2_000,
        ..SimConfig::default()
    };
    let routing: Arc<dyn SimRouting> = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let rate = cfg.packets_per_cycle_for_gbps(11.0);
    let stats = assert_engine_matches_spec(
        g,
        cfg,
        routing,
        open(TrafficPattern::Uniform, rate),
        2024,
        "dsn256-x7 saturated 11G",
    );
    assert!(stats.delivered_packets > 0);
    assert!(
        stats.saturated(),
        "11G on DSN-7-256 must exercise the saturated path"
    );
}
