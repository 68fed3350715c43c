//! Integration tests pinning router-level semantics: hop accounting
//! through the telemetry recorder's hop count and wire time, the per-hop
//! pipeline and the cut-through serialization of a lone packet's exact
//! zero-load latency, and virtual cut-through atomicity.

use dsn_core::dsn::Dsn;
use dsn_core::ring::Ring;
use dsn_sim::{
    AdaptiveEscape, DsnAlgorithmic, SimConfig, Simulator, TelemetryConfig, TrafficPattern, Workload,
};
use std::sync::Arc;

fn small_cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 0,
        measure_cycles: 4_000,
        drain_cycles: 4_000,
        ..SimConfig::test_small()
    }
}

/// Distinct header and link delays, so a test that pins their sum
/// per hop cannot be met by swapping one for the other.
fn pipeline_cfg(packet_flits: usize) -> SimConfig {
    SimConfig {
        header_delay: 5,
        link_delay: 2,
        packet_flits,
        buffer_flits: 2 * packet_flits,
        ..small_cfg()
    }
}

/// Exact latency of a lone packet from switch 0 to switch `hops` on an
/// 8-switch ring (one host per switch): a one-packet closed batch, so
/// nothing contends with it.
fn lone_packet_latency(cfg: &SimConfig, hops: usize) -> u64 {
    let g = Arc::new(Ring::new(8).unwrap().into_graph());
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let batch = Workload::Closed {
        packets: vec![(0, hops)],
    };
    let stats = Simulator::with_workload(g, cfg.clone(), routing, batch, 1).run();
    assert_eq!(stats.delivered_packets, 1, "{hops} hops");
    assert_eq!(stats.min_latency_cycles, stats.max_latency_cycles);
    stats.max_latency_cycles
}

#[test]
fn hop_count_matches_route_length_on_deterministic_routing() {
    // Under deterministic DSN custom routing every packet of a closed
    // batch follows its three-phase route, so the batch sends
    // `packet_flits` flits per route hop, and the recorder counts exactly
    // the route's hops, whatever the header delay. It charges a hop's link
    // traversal as wire time, from the tail's send to its arrival. A VC
    // grant further along the route can land inside that window (when the
    // tail trails its head by more than the header delay) and take part of
    // it, so wire time is at most `link_delay` per hop, and exactly that
    // when the header delay outlasts every such lag.
    let dsn = Arc::new(Dsn::new(32, 4).unwrap());
    let g = Arc::new(dsn.graph().clone());
    let batch = Workload::all_to_all(32);
    let Workload::Closed { packets } = &batch else {
        unreachable!("all_to_all is a closed batch")
    };
    let route_hops: u64 = packets
        .iter()
        .map(|&(s, t)| dsn_route::route(&dsn, s, t).unwrap().hops() as u64)
        .sum();
    for header_delay in [3, 48] {
        let cfg = SimConfig {
            vcs: 4,
            header_delay,
            link_delay: 3,
            drain_cycles: 40_000,
            telemetry: Some(TelemetryConfig::windowed(1_000)),
            ..small_cfg()
        };
        let routing = Arc::new(DsnAlgorithmic::new(dsn.clone()));
        let (stats, report) =
            Simulator::with_workload(g.clone(), cfg.clone(), routing, batch.clone(), 13)
                .run_with_telemetry();
        assert_eq!(stats.delivered_packets, packets.len() as u64);
        let report = report.expect("telemetry on");
        assert_eq!(
            report.flits_sent_total,
            cfg.packet_flits as u64 * route_hops,
            "header delay {header_delay}"
        );
        let hops: u64 = report.phases.iter().map(|p| p.hops).sum();
        assert_eq!(hops, route_hops, "header delay {header_delay}");
        let wire: u64 = report.phases.iter().map(|p| p.wire_cycles).sum();
        if header_delay == 3 {
            assert!(wire < cfg.link_delay * route_hops, "{wire} wire cycles");
        } else {
            assert_eq!(wire, cfg.link_delay * route_hops);
        }
    }
}

#[test]
fn per_hop_latency_floor_respected() {
    // A lone packet pays the header pipeline plus one link traversal per
    // hop and nothing else: each extra hop adds exactly
    // header_delay + link_delay cycles.
    let cfg = pipeline_cfg(4);
    let per_hop = cfg.header_delay + cfg.link_delay;
    let latency: Vec<u64> = (1..=4).map(|h| lone_packet_latency(&cfg, h)).collect();
    for (h, w) in latency.windows(2).enumerate() {
        assert_eq!(
            w[1] - w[0],
            per_hop,
            "hop {} -> {}: {latency:?}",
            h + 1,
            h + 2
        );
    }
}

#[test]
fn tail_follows_head_within_packet_span() {
    // Cut-through: the tail trails the head by its serialization,
    // packet_flits - 1 cycles, paid once end to end rather than at every
    // hop (store-and-forward would pay it per hop).
    let one_flit = pipeline_cfg(1);
    let cfg = pipeline_cfg(4);
    for hops in 1..=4 {
        let span = lone_packet_latency(&cfg, hops) - lone_packet_latency(&one_flit, hops);
        assert_eq!(span, cfg.packet_flits as u64 - 1, "{hops} hops");
    }
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
