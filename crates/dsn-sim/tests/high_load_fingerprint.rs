//! CI smoke gate for the hot path: one 30k-cycle high-load row (DSN-5-64,
//! uniform traffic at 11 Gbit/s/host, event engine, flat routing tables)
//! against a pinned `RunStats` fingerprint. Every optimization to the
//! allocation hot path — SoA state, flat candidate tables, the routing
//! cache — is required to be *bit-identical*, so any drift in these
//! numbers means a semantics change, not a perf change, and the test
//! fails loudly.
//!
//! If a deliberate semantic change lands (e.g. a new arbitration rule),
//! regenerate the pins with:
//! `cargo test --release -p dsn-sim --test high_load_fingerprint -- --nocapture`
//! (the failing assertions print the measured values).

use dsn_core::dsn::Dsn;
use dsn_sim::{AdaptiveEscape, EngineKind, SimConfig, Simulator, TrafficPattern};
use std::sync::Arc;

const SEED: u64 = 2024;

/// Pinned fingerprint of the run, generated on the reference
/// implementation. Float pins use `to_bits()`: the run is deterministic
/// down to the last ulp.
const PIN_DELIVERED: u64 = 13111;
const PIN_CREATED: u64 = 13111;
const PIN_TOTAL_ALL_TIME: u64 = 26376;
const PIN_P99_LATENCY_CYCLES: u64 = 592;
const PIN_PEAK_IN_FLIGHT: u64 = 317;
const PIN_AVG_LATENCY_NS_BITS: u64 = 0x4088bdc7d4d5deca;
const PIN_ACCEPTED_GBPS_BITS: u64 = 0x402599374bc6a7f0;
const PIN_MEAN_UTIL_BITS: u64 = 0x3fdbff639a2b5595;

#[test]
fn high_load_event_flat_matches_pinned_fingerprint() {
    let g = Arc::new(Dsn::new(64, 5).unwrap().into_graph());
    let cfg = SimConfig {
        engine: EngineKind::Event,
        warmup_cycles: 5_000,
        measure_cycles: 15_000,
        drain_cycles: 10_000,
        ..SimConfig::default()
    };
    let rate = cfg.packets_per_cycle_for_gbps(11.0);
    let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    let stats = Simulator::new(g, cfg, routing, TrafficPattern::Uniform, rate, SEED).run();

    println!(
        "measured: delivered={} created={} total={} p99={} peak_in_flight={} \
         avg_latency_ns_bits={:#018x} accepted_gbps_bits={:#018x} mean_util_bits={:#018x}",
        stats.delivered_packets,
        stats.created_packets,
        stats.total_packets_all_time,
        stats.p99_latency_cycles,
        stats.peak_in_flight_packets,
        stats.avg_latency_ns.to_bits(),
        stats.accepted_gbps_per_host.to_bits(),
        stats.mean_channel_utilization.to_bits(),
    );
    assert_eq!(stats.delivered_packets, PIN_DELIVERED);
    assert_eq!(stats.created_packets, PIN_CREATED);
    assert_eq!(stats.total_packets_all_time, PIN_TOTAL_ALL_TIME);
    assert_eq!(stats.p99_latency_cycles, PIN_P99_LATENCY_CYCLES);
    assert_eq!(stats.peak_in_flight_packets, PIN_PEAK_IN_FLIGHT);
    assert_eq!(stats.avg_latency_ns.to_bits(), PIN_AVG_LATENCY_NS_BITS);
    assert_eq!(
        stats.accepted_gbps_per_host.to_bits(),
        PIN_ACCEPTED_GBPS_BITS
    );
    assert_eq!(stats.mean_channel_utilization.to_bits(), PIN_MEAN_UTIL_BITS);
    assert!(!stats.deadlock_suspected);
}
