//! Dissect where a packet's nanoseconds go, per topology and load, using
//! the telemetry recorder's exact latency decomposition over every packet
//! created in the measurement window. Shows *why* DSN beats the torus at
//! low load (fewer hops, same per-hop pipeline) and what saturation onset
//! looks like (queueing explodes, wire time barely moves).
//!
//! Run: `cargo run --release --example latency_anatomy`
//! (its output is committed as `results_latency_anatomy.txt`)

use dsn::core::topology::TopologySpec;
use dsn::sim::{AdaptiveEscape, SimConfig, Simulator, TrafficPattern};
use std::sync::Arc;

fn main() {
    let mut cfg = SimConfig {
        warmup_cycles: 3_000,
        measure_cycles: 8_000,
        drain_cycles: 8_000,
        ..SimConfig::default()
    };
    cfg.telemetry = Some(cfg.standard_telemetry(1_000));

    println!("Latency anatomy (mean over delivered measured packets, in ns)");
    println!(
        "  {:<14} {:>6} {:>9} {:>9} {:>9} {:>9} {:>9} {:>7}",
        "topology", "load", "queueing", "stall", "wire", "ejection", "total", "hops"
    );
    for spec in TopologySpec::paper_trio(64, 0xD5B0_2013) {
        let built = spec.build().expect("topology");
        let graph = Arc::new(built.graph);
        for gbps in [0.5, 2.0, 10.0] {
            let routing = Arc::new(AdaptiveEscape::new(graph.clone(), cfg.vcs));
            let rate = cfg.packets_per_cycle_for_gbps(gbps);
            let sim = Simulator::new(
                graph.clone(),
                cfg.clone(),
                routing,
                TrafficPattern::Uniform,
                rate,
                42,
            );
            let (_, report) = sim.run_with_telemetry();
            let report = report.expect("telemetry on");
            let phase = report
                .phases
                .iter()
                .find(|p| p.name == "measure")
                .expect("measure phase");
            let delivered = phase.delivered as f64;
            let ns = |cycles: u64| cycles as f64 / delivered * cfg.cycle_ns;
            println!(
                "  {:<14} {:>5}G {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>9.1} {:>7.3}",
                built.name,
                gbps,
                ns(phase.queueing_cycles),
                ns(phase.credit_stall_cycles),
                ns(phase.wire_cycles),
                ns(phase.ejection_cycles),
                ns(phase.latency_sum_cycles),
                phase.hops as f64 / delivered,
            );
        }
    }
    println!(
        "\n(queueing = waiting for VC allocation at each switch, header\n \
         pipeline included; stall = serialization plus switch-allocation and\n \
         credit stalls; wire = link traversal; ejection = ejection port\n \
         plus final serialization; the four sum exactly to total.\n \
         hops = links crossed per delivered packet, counted exactly)"
    );
}
