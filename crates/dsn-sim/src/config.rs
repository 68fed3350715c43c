//! Simulator configuration, defaulting to the paper's Section VII.A
//! parameters.
//!
//! The paper's setup: virtual cut-through switching; >100 ns per-hop header
//! latency (routing + VC allocation + switch allocation + crossbar); 20 ns
//! flit injection + link delay; 4 virtual channels; 64 switches with 4
//! compute nodes each; 33-flit packets (1 header flit); 256-bit flits;
//! 96 Gbps links. One simulator cycle is one flit serialization time:
//! `256 bit / 96 Gbps ≈ 2.67 ns`.

/// Which scheduling core drives the cycle loop. Both cores implement the
/// same router semantics and are bit-identical in their [`crate::RunStats`]
/// output (enforced by `tests/sim_equivalence.rs`); they differ only in
/// how much work an idle cycle costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum EngineKind {
    /// Reference implementation: scan every input VC, output channel and
    /// link queue every cycle. O(network size) per cycle regardless of
    /// load; kept as the equivalence oracle for the event core.
    Dense,
    /// Event-driven core: active lists for allocation/arbitration, delay
    /// lines (one FIFO ring per event kind and delay) for credit returns /
    /// link arrivals / header-delay expiries, and calendar-scheduled
    /// geometric-skip injection.
    /// O(work actually happening) per cycle.
    #[default]
    Event,
}

impl EngineKind {
    /// Parse a CLI value (`dense` | `event`).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "dense" => Some(EngineKind::Dense),
            "event" => Some(EngineKind::Event),
            _ => None,
        }
    }

    /// Stable display name (`dense` | `event`).
    pub fn name(&self) -> &'static str {
        match self {
            EngineKind::Dense => "dense",
            EngineKind::Event => "event",
        }
    }
}

/// Switching mode of the routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Switching {
    /// Virtual cut-through (the paper's mode): a packet advances only when
    /// the downstream VC can buffer it entirely, so a blocked packet never
    /// straddles multiple routers.
    #[default]
    VirtualCutThrough,
    /// Wormhole: a packet advances as soon as one flit of space exists
    /// downstream; blocked packets hold buffers along their whole path,
    /// which lowers the buffer requirement but couples channels more
    /// tightly (earlier saturation, same deadlock theory).
    Wormhole,
}

use crate::fault::FaultPlan;
use dsn_telemetry::TelemetryConfig;

/// Simulation parameters. All latencies are in cycles; [`SimConfig::cycle_ns`]
/// converts to wall-clock nanoseconds.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Scheduling core (default: the event-driven engine; the dense scan
    /// is kept as a bit-identical reference).
    pub engine: EngineKind,
    /// Switching mode (paper: virtual cut-through).
    pub switching: Switching,
    /// Virtual channels per physical channel (paper: 4).
    pub vcs: u8,
    /// Input buffer capacity per VC, in flits. Virtual cut-through requires
    /// at least one full packet (paper's switching mode).
    pub buffer_flits: usize,
    /// Packet size in flits, header included (paper: 33).
    pub packet_flits: usize,
    /// Per-hop header processing latency in cycles: routing, VC allocation,
    /// switch allocation, crossbar (paper: >100 ns -> 38 cycles).
    pub header_delay: u64,
    /// Link + injection delay in cycles (paper: 20 ns -> 8 cycles).
    pub link_delay: u64,
    /// Credit return delay in cycles (modeled equal to the link delay).
    pub credit_delay: u64,
    /// Compute nodes (hosts) attached to each switch (paper: 4).
    pub hosts_per_switch: usize,
    /// Flit width in bits (paper: 256).
    pub flit_bits: u64,
    /// Wall-clock nanoseconds per cycle (flit serialization time at the
    /// effective link bandwidth; paper: 256 bit / 96 Gbps ≈ 2.67 ns).
    pub cycle_ns: f64,
    /// Warm-up cycles excluded from measurement.
    pub warmup_cycles: u64,
    /// Measurement window in cycles (after warm-up).
    pub measure_cycles: u64,
    /// Extra drain time after the measurement window before the run stops.
    pub drain_cycles: u64,
    /// Scripted runtime fault schedule (links/switches going down and up
    /// mid-run). Empty = no faults, zero overhead.
    pub fault_plan: FaultPlan,
    /// Telemetry recording (window length + traffic phases). `None` (the
    /// default) compiles every hook down to a no-op variant check — zero
    /// measurable overhead; `RunStats` are bit-identical either way.
    pub telemetry: Option<TelemetryConfig>,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            engine: EngineKind::default(),
            switching: Switching::VirtualCutThrough,
            vcs: 4,
            buffer_flits: 40,
            packet_flits: 33,
            header_delay: 38,
            link_delay: 8,
            credit_delay: 8,
            hosts_per_switch: 4,
            flit_bits: 256,
            cycle_ns: 256.0 / 96.0, // ≈ 2.667 ns
            warmup_cycles: 20_000,
            measure_cycles: 60_000,
            drain_cycles: 60_000,
            fault_plan: FaultPlan::none(),
            telemetry: None,
        }
    }
}

impl SimConfig {
    /// A shrunken configuration for fast unit tests (small packets, short
    /// windows); keeps the same structural features (4 VCs, VCT).
    pub fn test_small() -> Self {
        SimConfig {
            engine: EngineKind::default(),
            switching: Switching::VirtualCutThrough,
            vcs: 2,
            buffer_flits: 8,
            packet_flits: 4,
            header_delay: 3,
            link_delay: 1,
            credit_delay: 1,
            hosts_per_switch: 1,
            flit_bits: 256,
            cycle_ns: 1.0,
            warmup_cycles: 200,
            measure_cycles: 2_000,
            drain_cycles: 4_000,
            fault_plan: FaultPlan::none(),
            telemetry: None,
        }
    }

    /// A telemetry configuration whose phases follow this config's
    /// warmup / measure / drain boundaries (coincident boundaries are
    /// merged, keeping the later name).
    pub fn standard_telemetry(&self, window: u64) -> TelemetryConfig {
        let mut phases: Vec<(u64, String)> = Vec::new();
        for (start, name) in [
            (0, "warmup"),
            (self.warmup_cycles, "measure"),
            (self.warmup_cycles + self.measure_cycles, "drain"),
        ] {
            if phases.last().is_some_and(|&(s, _)| s == start) {
                phases.pop();
            }
            phases.push((start, name.to_string()));
        }
        TelemetryConfig { window, phases }
    }

    /// Offered load conversion: packets per cycle per host that correspond
    /// to the given offered bandwidth in Gbit/s/host
    /// (1 Gbit/s = 1 bit/ns).
    pub fn packets_per_cycle_for_gbps(&self, gbps: f64) -> f64 {
        let bits_per_cycle = gbps * self.cycle_ns;
        bits_per_cycle / (self.packet_flits as f64 * self.flit_bits as f64)
    }

    /// Inverse of [`Self::packets_per_cycle_for_gbps`].
    pub fn gbps_for_packets_per_cycle(&self, pkts_per_cycle: f64) -> f64 {
        pkts_per_cycle * self.packet_flits as f64 * self.flit_bits as f64 / self.cycle_ns
    }

    /// Total run length in cycles.
    pub fn total_cycles(&self) -> u64 {
        self.warmup_cycles + self.measure_cycles + self.drain_cycles
    }

    /// Basic sanity validation.
    ///
    /// # Panics
    /// Panics when parameters are inconsistent (zero VCs, buffer smaller
    /// than a packet under VCT, zero-size packets).
    pub fn validate(&self) {
        assert!(self.vcs >= 1, "need at least one VC");
        assert!(self.packet_flits >= 1, "packets need at least one flit");
        if self.switching == Switching::VirtualCutThrough {
            assert!(
                self.buffer_flits >= self.packet_flits,
                "virtual cut-through needs one full packet of buffering per VC"
            );
        } else {
            assert!(
                self.buffer_flits >= 2,
                "wormhole needs at least 2 flits of buffering"
            );
        }
        assert!(self.hosts_per_switch >= 1, "need at least one host");
        assert!(self.cycle_ns > 0.0, "cycle time must be positive");
        if let Some(tc) = &self.telemetry {
            tc.validate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_matches_paper() {
        let c = SimConfig::default();
        c.validate();
        assert_eq!(c.vcs, 4);
        assert_eq!(c.packet_flits, 33);
        assert_eq!(c.hosts_per_switch, 4);
        assert_eq!(c.flit_bits, 256);
        // header latency > 100 ns
        assert!(c.header_delay as f64 * c.cycle_ns > 100.0);
        // link latency ~ 20 ns
        let link_ns = c.link_delay as f64 * c.cycle_ns;
        assert!((19.0..24.0).contains(&link_ns), "link {link_ns} ns");
    }

    #[test]
    fn load_conversion_roundtrip() {
        let c = SimConfig::default();
        for gbps in [1.0, 4.0, 12.0] {
            let p = c.packets_per_cycle_for_gbps(gbps);
            let back = c.gbps_for_packets_per_cycle(p);
            assert!((back - gbps).abs() < 1e-9, "{gbps} -> {p} -> {back}");
        }
    }

    #[test]
    fn full_injection_rate_is_one_flit_per_cycle() {
        // 96 Gbps offered = 1 flit per cycle = 1/33 packets per cycle.
        let c = SimConfig::default();
        let p = c.packets_per_cycle_for_gbps(96.0);
        assert!((p - 1.0 / 33.0).abs() < 1e-9, "{p}");
    }

    #[test]
    #[should_panic(expected = "virtual cut-through")]
    fn small_buffer_rejected() {
        let c = SimConfig {
            buffer_flits: 10,
            ..SimConfig::default()
        };
        c.validate();
    }

    #[test]
    fn engine_kind_parses() {
        assert_eq!(EngineKind::parse("dense"), Some(EngineKind::Dense));
        assert_eq!(EngineKind::parse("event"), Some(EngineKind::Event));
        assert_eq!(EngineKind::parse("sharded"), None);
        assert_eq!(EngineKind::parse("both"), None);
        assert_eq!(EngineKind::default(), EngineKind::Event);
        assert_eq!(EngineKind::Dense.name(), "dense");
        assert_eq!(EngineKind::Event.name(), "event");
    }

    #[test]
    fn wormhole_allows_small_buffers() {
        let c = SimConfig {
            switching: Switching::Wormhole,
            buffer_flits: 4,
            ..SimConfig::default()
        };
        c.validate();
    }
}
