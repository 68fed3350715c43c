//! Integration tests pinning router-level semantics observable through the
//! packet tracer: virtual cut-through atomicity, pipeline latency floors,
//! and hop accounting.

use dsn_core::dsn::Dsn;
use dsn_core::ring::Ring;
use dsn_sim::{AdaptiveEscape, DsnAlgorithmic, SimConfig, Simulator, TraceEvent, TrafficPattern};
use std::sync::Arc;

fn small_cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 0,
        measure_cycles: 4_000,
        drain_cycles: 4_000,
        ..SimConfig::test_small()
    }
}

#[test]
fn hop_count_matches_route_length_on_deterministic_routing() {
    // Under deterministic DSN custom routing, each traced packet's number
    // of VcAllocated events must equal its three-phase route length
    // exactly.
    let dsn = Arc::new(Dsn::new(32, 4).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let cfg = SimConfig {
        vcs: 4,
        ..small_cfg()
    };
    let routing = Arc::new(DsnAlgorithmic::new(dsn.clone()));
    let sim =
        Simulator::new(g, cfg.clone(), routing, TrafficPattern::Uniform, 0.004, 13).with_tracer(1);
    let (stats, trace) = sim.run_traced();
    assert!(stats.delivered_packets > 5);

    // Group events per packet.
    let mut checked = 0;
    for &(_, p, e) in trace.records() {
        if !matches!(e, TraceEvent::Delivered { .. }) {
            continue;
        }
        let timeline = trace.packet_timeline(p);
        let TraceEvent::Injected { src_sw, dest_sw } = timeline[0].2 else {
            panic!("first event must be injection");
        };
        let expected_hops = dsn_route::route(&dsn, src_sw, dest_sw).unwrap().hops();
        let allocs = timeline
            .iter()
            .filter(|(_, _, e)| matches!(e, TraceEvent::VcAllocated { .. }))
            .count();
        assert_eq!(allocs, expected_hops, "packet {p}: {src_sw}->{dest_sw}");
        checked += 1;
    }
    assert!(checked > 5, "too few delivered traced packets");
}

#[test]
fn per_hop_latency_floor_respected() {
    // Between consecutive VC allocations of one packet there must be at
    // least header_delay + link_delay cycles (pipeline + wire).
    let g = Arc::new(Ring::new(8).unwrap().into_graph());
    let cfg = small_cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let sim =
        Simulator::new(g, cfg.clone(), routing, TrafficPattern::Uniform, 0.003, 5).with_tracer(1);
    let (_, trace) = sim.run_traced();

    let floor = cfg.header_delay + cfg.link_delay;
    let mut pairs = 0;
    let packets: std::collections::HashSet<u32> =
        trace.records().iter().map(|&(_, p, _)| p).collect();
    for p in packets {
        let allocs: Vec<u64> = trace
            .packet_timeline(p)
            .iter()
            .filter_map(|&(c, _, e)| matches!(e, TraceEvent::VcAllocated { .. }).then_some(c))
            .collect();
        for w in allocs.windows(2) {
            assert!(
                w[1] - w[0] >= floor,
                "packet {p}: consecutive hops {} -> {} violate the {floor}-cycle floor",
                w[0],
                w[1]
            );
            pairs += 1;
        }
    }
    assert!(pairs > 0, "need at least one multi-hop packet");
}

#[test]
fn vct_grants_only_with_full_packet_space() {
    // With buffer == packet size exactly, at most one packet can occupy a
    // VC buffer; the network must still drain at trickle load (VCT's
    // defining property: a blocked packet fits entirely in one buffer).
    let g = Arc::new(Ring::new(6).unwrap().into_graph());
    let cfg = SimConfig {
        buffer_flits: 4, // == packet_flits in test_small
        ..small_cfg()
    };
    assert_eq!(cfg.buffer_flits, cfg.packet_flits);
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let stats = Simulator::new(g, cfg, routing, TrafficPattern::Uniform, 0.004, 3).run();
    assert!(stats.delivery_ratio() > 0.95, "{}", stats.delivery_ratio());
    assert!(!stats.deadlock_suspected);
}

#[test]
fn tail_follows_head_within_packet_span() {
    // Cut-through: the delivery happens no earlier than injection +
    // hops*(header+link) + packet serialization.
    let g = Arc::new(Ring::new(8).unwrap().into_graph());
    let cfg = small_cfg();
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let sim =
        Simulator::new(g, cfg.clone(), routing, TrafficPattern::Uniform, 0.002, 9).with_tracer(1);
    let (_, trace) = sim.run_traced();
    let mut checked = 0;
    for &(when, p, e) in trace.records() {
        if !matches!(e, TraceEvent::Delivered { .. }) {
            continue;
        }
        let timeline = trace.packet_timeline(p);
        let injected = timeline[0].0;
        let hops = timeline
            .iter()
            .filter(|(_, _, e)| matches!(e, TraceEvent::VcAllocated { .. }))
            .count() as u64;
        let min_total = hops * (cfg.header_delay + cfg.link_delay) + cfg.packet_flits as u64 - 1;
        assert!(
            when - injected >= min_total,
            "packet {p} delivered impossibly fast: {} < {min_total}",
            when - injected
        );
        checked += 1;
    }
    assert!(checked > 0);
}
