//! Measurement collection: packet latency and accepted throughput over the
//! measurement window, reported in both cycles and the paper's units
//! (nanoseconds, Gbit/s/host).

use crate::config::SimConfig;
use std::collections::HashMap;

/// Number of log2 flow-size classes the FCT aggregates are sliced into.
pub(crate) const FLOW_CLASSES: usize = 8;

/// Log2 flow-size class of a `total`-packet flow: class 0 holds 1-packet
/// flows, class 1 holds 2–3, class 2 holds 4–7, …, class 7 holds >= 128.
pub(crate) fn flow_class(total: u32) -> usize {
    (31 - total.max(1).leading_zeros()).min(FLOW_CLASSES as u32 - 1) as usize
}

/// Collects events during a run.
#[derive(Debug, Clone)]
pub struct StatsCollector {
    window_start: u64,
    window_end: u64,
    offered_packets_window: u64,
    accepted_flits_window: u64,
    measured_created: u64,
    measured_delivered: u64,
    latency_sum_cycles: u64,
    latency_max_cycles: u64,
    latency_min_cycles: u64,
    /// Latency histogram in 16-cycle bins (for percentile estimation).
    latency_hist: Vec<u64>,
    delivered_total: u64,
    /// First cycle of the fault plan (None = fault-free run); measured
    /// packets created at or after it feed the post-fault aggregates.
    post_fault_from: Option<u64>,
    pf_delivered: u64,
    pf_latency_sum: u64,
    pf_hist: Vec<u64>,
    /// Per-flow delivered-packet counts for flows still in flight.
    flow_progress: HashMap<u64, u32>,
    flows_started: u64,
    flows_started_all: u64,
    flows_completed: u64,
    flows_completed_all: u64,
    flow_packets_delivered: u64,
    fct_sum_cycles: u64,
    fct_max_cycles: u64,
    /// FCT histogram in 16-cycle bins, measured flows only.
    fct_hist: Vec<u64>,
    class_flows: [u64; FLOW_CLASSES],
    class_fct_sum: [u64; FLOW_CLASSES],
    class_hist: [Vec<u64>; FLOW_CLASSES],
}

const BIN: u64 = 16;

impl StatsCollector {
    /// New collector with the config's measurement window.
    pub fn new(cfg: &SimConfig) -> Self {
        // Latency cannot exceed the run length, so pre-sizing the
        // histograms to `total_cycles / BIN` makes every `on_delivered`
        // call allocation-free (the zero-alloc steady-state invariant).
        let hist_cap = (cfg.total_cycles() / BIN) as usize + 2;
        StatsCollector {
            window_start: cfg.warmup_cycles,
            window_end: cfg.warmup_cycles + cfg.measure_cycles,
            offered_packets_window: 0,
            accepted_flits_window: 0,
            measured_created: 0,
            measured_delivered: 0,
            latency_sum_cycles: 0,
            latency_max_cycles: 0,
            latency_min_cycles: u64::MAX,
            latency_hist: Vec::with_capacity(hist_cap),
            delivered_total: 0,
            post_fault_from: cfg.fault_plan.first_fault_cycle(),
            pf_delivered: 0,
            pf_latency_sum: 0,
            pf_hist: Vec::with_capacity(hist_cap),
            flow_progress: HashMap::new(),
            flows_started: 0,
            flows_started_all: 0,
            flows_completed: 0,
            flows_completed_all: 0,
            flow_packets_delivered: 0,
            fct_sum_cycles: 0,
            fct_max_cycles: 0,
            fct_hist: Vec::new(),
            class_flows: [0; FLOW_CLASSES],
            class_fct_sum: [0; FLOW_CLASSES],
            class_hist: std::array::from_fn(|_| Vec::new()),
        }
    }

    /// A flow emitted its first packet. `measured` means the flow *start*
    /// fell inside the measurement window; the whole flow is measured or
    /// not — a flow is never split across the window edge.
    pub fn on_flow_started(&mut self, measured: bool) {
        self.flows_started_all += 1;
        if measured {
            self.flows_started += 1;
        }
    }

    /// A packet of flow `id` (of `total` packets, started at `start`) was
    /// delivered at `now`. Returns `Some(fct)` exactly when this delivery
    /// completed the flow *and* the flow is measured — the caller uses
    /// that to gate the telemetry hook, keeping telemetry and stats in
    /// lockstep.
    pub fn on_flow_packet(
        &mut self,
        id: u64,
        total: u32,
        start: u64,
        now: u64,
        measured: bool,
    ) -> Option<u64> {
        self.flow_packets_delivered += 1;
        let done = {
            let got = self.flow_progress.entry(id).or_insert(0);
            *got += 1;
            *got >= total
        };
        if !done {
            return None;
        }
        self.flow_progress.remove(&id);
        self.flows_completed_all += 1;
        if !measured {
            return None;
        }
        self.flows_completed += 1;
        let fct = now - start;
        self.fct_sum_cycles += fct;
        self.fct_max_cycles = self.fct_max_cycles.max(fct);
        let bin = (fct / BIN) as usize;
        bump(&mut self.fct_hist, bin);
        let c = flow_class(total);
        self.class_flows[c] += 1;
        self.class_fct_sum[c] += fct;
        bump(&mut self.class_hist[c], bin);
        Some(fct)
    }

    /// A packet was offered (generated) at `now`.
    pub fn on_offered(&mut self, now: u64, _flits: usize) {
        if now >= self.window_start && now < self.window_end {
            self.offered_packets_window += 1;
            self.measured_created += 1;
        }
    }

    /// A packet's tail flit was delivered at `now`.
    pub fn on_delivered(&mut self, now: u64, created: u64, measured: bool, flits: usize) {
        self.delivered_total += 1;
        if now >= self.window_start && now < self.window_end {
            self.accepted_flits_window += flits as u64;
        }
        if measured {
            self.measured_delivered += 1;
            let lat = now - created;
            self.latency_sum_cycles += lat;
            self.latency_max_cycles = self.latency_max_cycles.max(lat);
            self.latency_min_cycles = self.latency_min_cycles.min(lat);
            let bin = (lat / BIN) as usize;
            if self.latency_hist.len() <= bin {
                self.latency_hist.resize(bin + 1, 0);
            }
            self.latency_hist[bin] += 1;
            if self.post_fault_from.is_some_and(|f| created >= f) {
                self.pf_delivered += 1;
                self.pf_latency_sum += lat;
                if self.pf_hist.len() <= bin {
                    self.pf_hist.resize(bin + 1, 0);
                }
                self.pf_hist[bin] += 1;
            }
        }
    }

    /// Finalize into a [`RunStats`].
    pub fn finish(self, cfg: &SimConfig, hosts: usize, total_packets: usize) -> RunStats {
        let window = (self.window_end - self.window_start) as f64;
        let avg_latency_cycles = if self.measured_delivered > 0 {
            self.latency_sum_cycles as f64 / self.measured_delivered as f64
        } else {
            0.0
        };
        let accepted_fpc = self.accepted_flits_window as f64 / window / hosts as f64;
        let offered_fpc =
            self.offered_packets_window as f64 * cfg.packet_flits as f64 / window / hosts as f64;
        let p99 = percentile(&self.latency_hist, self.measured_delivered, 0.99);
        let pf_avg = if self.pf_delivered > 0 {
            self.pf_latency_sum as f64 / self.pf_delivered as f64
        } else {
            0.0
        };
        let pf_p99 = percentile(&self.pf_hist, self.pf_delivered, 0.99);
        let fct_avg = if self.flows_completed > 0 {
            self.fct_sum_cycles as f64 / self.flows_completed as f64
        } else {
            0.0
        };
        let fct_classes = (0..FLOW_CLASSES)
            .filter(|&c| self.class_flows[c] > 0)
            .map(|c| FlowClassStats {
                min_packets: 1u32 << c,
                flows: self.class_flows[c],
                fct_avg_cycles: self.class_fct_sum[c] as f64 / self.class_flows[c] as f64,
                fct_p99_cycles: percentile(&self.class_hist[c], self.class_flows[c], 0.99),
            })
            .collect();
        RunStats {
            delivered_packets: self.measured_delivered,
            created_packets: self.measured_created,
            total_packets_all_time: total_packets as u64,
            avg_latency_cycles,
            avg_latency_ns: avg_latency_cycles * cfg.cycle_ns,
            p99_latency_cycles: p99,
            max_latency_cycles: if self.measured_delivered > 0 {
                self.latency_max_cycles
            } else {
                0
            },
            min_latency_cycles: if self.measured_delivered > 0 {
                self.latency_min_cycles
            } else {
                0
            },
            accepted_flits_per_cycle_per_host: accepted_fpc,
            offered_flits_per_cycle_per_host: offered_fpc,
            accepted_gbps_per_host: accepted_fpc * cfg.flit_bits as f64 / cfg.cycle_ns,
            offered_gbps_per_host: offered_fpc * cfg.flit_bits as f64 / cfg.cycle_ns,
            mean_channel_utilization: 0.0,
            max_channel_utilization: 0.0,
            peak_in_flight_packets: 0,
            peak_buffered_flits: 0,
            longest_stall_cycles: 0,
            deadlock_suspected: false,
            completion_cycle: None,
            dropped_packets: 0,
            dropped_packets_all_time: 0,
            salvaged_packets: 0,
            retried_packets: 0,
            abandoned_packets: 0,
            post_fault_delivered: self.pf_delivered,
            post_fault_avg_latency_cycles: pf_avg,
            post_fault_p99_latency_cycles: pf_p99,
            flows_started: self.flows_started,
            flows_completed: self.flows_completed,
            flows_started_all_time: self.flows_started_all,
            flows_completed_all_time: self.flows_completed_all,
            flow_packets_delivered: self.flow_packets_delivered,
            fct_avg_cycles: fct_avg,
            fct_p50_cycles: percentile(&self.fct_hist, self.flows_completed, 0.50),
            fct_p99_cycles: percentile(&self.fct_hist, self.flows_completed, 0.99),
            fct_p999_cycles: percentile(&self.fct_hist, self.flows_completed, 0.999),
            fct_max_cycles: self.fct_max_cycles,
            fct_classes,
        }
    }
}

fn bump(hist: &mut Vec<u64>, bin: usize) {
    if hist.len() <= bin {
        hist.resize(bin + 1, 0);
    }
    hist[bin] += 1;
}

fn percentile(hist: &[u64], total: u64, q: f64) -> u64 {
    if total == 0 {
        return 0;
    }
    let target = (total as f64 * q).ceil() as u64;
    let mut seen = 0u64;
    for (bin, &c) in hist.iter().enumerate() {
        seen += c;
        if seen >= target {
            return (bin as u64 + 1) * BIN;
        }
    }
    hist.len() as u64 * BIN
}

/// Results of one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunStats {
    /// Packets created in the measurement window and delivered by run end.
    pub delivered_packets: u64,
    /// Packets created in the measurement window.
    pub created_packets: u64,
    /// Every packet ever created in the run.
    pub total_packets_all_time: u64,
    /// Mean end-to-end latency (cycles) of measured packets.
    pub avg_latency_cycles: f64,
    /// Mean end-to-end latency in nanoseconds — the paper's y-axis.
    pub avg_latency_ns: f64,
    /// Approximate 99th-percentile latency (cycles).
    pub p99_latency_cycles: u64,
    /// Maximum measured latency (cycles).
    pub max_latency_cycles: u64,
    /// Minimum measured latency (cycles).
    pub min_latency_cycles: u64,
    /// Accepted throughput, flits per cycle per host.
    pub accepted_flits_per_cycle_per_host: f64,
    /// Offered load, flits per cycle per host.
    pub offered_flits_per_cycle_per_host: f64,
    /// Accepted throughput in Gbit/s/host — the paper's x-axis.
    pub accepted_gbps_per_host: f64,
    /// Offered load in Gbit/s/host.
    pub offered_gbps_per_host: f64,
    /// Mean per-channel link utilization during the window (flits per
    /// cycle per directed channel; 1.0 = fully busy). Filled by the engine.
    pub mean_channel_utilization: f64,
    /// Utilization of the busiest directed channel (the hotspot).
    pub max_channel_utilization: f64,
    /// Peak number of packets simultaneously in flight (created but not
    /// yet delivered) over the whole run. With the recycling packet slab
    /// this — not the total packet count — bounds the engine's memory, so
    /// arbitrarily long runs stay bounded. Filled by the engine.
    pub peak_in_flight_packets: u64,
    /// Peak number of flits simultaneously resident in input-VC buffers
    /// (injection queues included). Filled by the engine.
    pub peak_buffered_flits: u64,
    /// Longest stretch of cycles with packets in flight but zero flit
    /// movement anywhere in the network. Filled by the engine.
    pub longest_stall_cycles: u64,
    /// True when the stall watchdog fired: undelivered packets plus a
    /// whole-network stall far beyond any legitimate pipeline wait —
    /// the dynamic signature of a routing deadlock.
    pub deadlock_suspected: bool,
    /// For closed (batch) workloads: the cycle of the last delivery, i.e.
    /// the makespan of the batch. `None` when the batch did not finish (or
    /// the workload was open-loop). Under faults, fault-dropped packets
    /// count as resolved (the batch completes when everything is delivered
    /// or definitively dropped and no retry is pending).
    pub completion_cycle: Option<u64>,
    /// Packets dropped by faults whose *creation* fell inside the
    /// measurement window. Filled by the engine.
    pub dropped_packets: u64,
    /// All packets dropped by faults over the whole run.
    pub dropped_packets_all_time: u64,
    /// Always 0: a packet caught on a dying channel is dropped, never
    /// rescued in place. Kept so existing consumers of `RunStats` (and
    /// their digests) keep their shape.
    pub salvaged_packets: u64,
    /// Retransmissions injected by source hosts after fault drops.
    pub retried_packets: u64,
    /// Dropped packets whose retry budget was exhausted (lost for good).
    pub abandoned_packets: u64,
    /// Measured packets created at or after the first fault cycle and
    /// delivered — the post-fault population.
    pub post_fault_delivered: u64,
    /// Mean latency (cycles) of the post-fault population (0.0 when none).
    pub post_fault_avg_latency_cycles: f64,
    /// Approximate 99th-percentile latency (cycles) of the post-fault
    /// population.
    pub post_fault_p99_latency_cycles: u64,
    /// Flows whose first packet was emitted inside the measurement window.
    /// Zero for non-flow workloads.
    pub flows_started: u64,
    /// Measured flows whose last packet was delivered before run end.
    pub flows_completed: u64,
    /// Every flow ever started in the run (warmup and drain included).
    pub flows_started_all_time: u64,
    /// Every flow ever completed in the run.
    pub flows_completed_all_time: u64,
    /// Every flow-tagged packet delivered over the whole run — the
    /// accounting oracle: fault-free, at completion this equals the sum of
    /// per-flow packet counts injected.
    pub flow_packets_delivered: u64,
    /// Mean flow-completion time (cycles) over measured completed flows.
    pub fct_avg_cycles: f64,
    /// Approximate median FCT (cycles).
    pub fct_p50_cycles: u64,
    /// Approximate 99th-percentile FCT (cycles).
    pub fct_p99_cycles: u64,
    /// Approximate 99.9th-percentile FCT (cycles).
    pub fct_p999_cycles: u64,
    /// Maximum FCT (cycles) over measured completed flows.
    pub fct_max_cycles: u64,
    /// FCT aggregates sliced by log2 flow-size class (empty classes
    /// omitted; empty for non-flow workloads).
    pub fct_classes: Vec<FlowClassStats>,
}

/// Per flow-size-class FCT aggregates (log2 packet-count buckets).
#[derive(Debug, Clone, PartialEq)]
pub struct FlowClassStats {
    /// Smallest flow size (in packets) belonging to this class:
    /// 1, 2, 4, …, 128 (the last class is open-ended).
    pub min_packets: u32,
    /// Measured completed flows in the class.
    pub flows: u64,
    /// Mean flow-completion time (cycles) within the class.
    pub fct_avg_cycles: f64,
    /// Approximate 99th-percentile FCT (cycles) within the class.
    pub fct_p99_cycles: u64,
}

impl RunStats {
    /// Fraction of measured packets that were delivered before the run
    /// ended; below ~1.0 indicates saturation (or too little drain time).
    pub fn delivery_ratio(&self) -> f64 {
        if self.created_packets == 0 {
            1.0
        } else {
            self.delivered_packets as f64 / self.created_packets as f64
        }
    }

    /// Heuristic saturation flag: a run is saturated when it fails to
    /// deliver most measured packets or accepted lags offered by > 10%.
    pub fn saturated(&self) -> bool {
        self.delivery_ratio() < 0.9
            || (self.offered_flits_per_cycle_per_host > 0.0
                && self.accepted_flits_per_cycle_per_host
                    < 0.9 * self.offered_flits_per_cycle_per_host)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SimConfig {
        SimConfig::test_small()
    }

    #[test]
    fn latency_accounting() {
        let c = cfg();
        let mut s = StatsCollector::new(&c);
        let t0 = c.warmup_cycles + 10;
        s.on_offered(t0, c.packet_flits);
        s.on_delivered(t0 + 50, t0, true, c.packet_flits);
        let r = s.finish(&c, 8, 1);
        assert_eq!(r.delivered_packets, 1);
        assert_eq!(r.created_packets, 1);
        assert!((r.avg_latency_cycles - 50.0).abs() < 1e-12);
        assert_eq!(r.max_latency_cycles, 50);
        assert_eq!(r.min_latency_cycles, 50);
        assert!((r.delivery_ratio() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn out_of_window_packets_not_measured() {
        let c = cfg();
        let mut s = StatsCollector::new(&c);
        s.on_offered(0, c.packet_flits); // warmup
        s.on_delivered(5, 0, false, c.packet_flits);
        let r = s.finish(&c, 8, 1);
        assert_eq!(r.delivered_packets, 0);
        assert_eq!(r.created_packets, 0);
    }

    #[test]
    fn accepted_counts_window_deliveries() {
        let c = cfg();
        let mut s = StatsCollector::new(&c);
        // delivered inside window though created during warmup
        s.on_delivered(c.warmup_cycles + 1, 0, false, c.packet_flits);
        let r = s.finish(&c, 1, 1);
        assert!(r.accepted_flits_per_cycle_per_host > 0.0);
    }

    #[test]
    fn saturation_flag() {
        let c = cfg();
        let mut s = StatsCollector::new(&c);
        for i in 0..100 {
            s.on_offered(c.warmup_cycles + i, c.packet_flits);
        }
        // only half delivered
        for i in 0..50u64 {
            s.on_delivered(
                c.warmup_cycles + i + 30,
                c.warmup_cycles + i,
                true,
                c.packet_flits,
            );
        }
        let r = s.finish(&c, 8, 100);
        assert!(r.saturated());
        assert!((r.delivery_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn percentile_sane() {
        let c = cfg();
        let mut s = StatsCollector::new(&c);
        for i in 0..100u64 {
            let t0 = c.warmup_cycles + i;
            s.on_offered(t0, c.packet_flits);
            s.on_delivered(t0 + i, t0, true, c.packet_flits); // latencies 0..99
        }
        let r = s.finish(&c, 8, 100);
        assert!(r.p99_latency_cycles >= 96, "p99 {}", r.p99_latency_cycles);
        assert!((r.avg_latency_cycles - 49.5).abs() < 1e-9);
    }

    #[test]
    fn flow_class_buckets() {
        assert_eq!(flow_class(1), 0);
        assert_eq!(flow_class(2), 1);
        assert_eq!(flow_class(3), 1);
        assert_eq!(flow_class(4), 2);
        assert_eq!(flow_class(7), 2);
        assert_eq!(flow_class(127), 6);
        assert_eq!(flow_class(128), 7);
        assert_eq!(flow_class(u32::MAX), 7);
        assert_eq!(flow_class(0), 0); // degenerate, clamped
    }

    #[test]
    fn flow_completion_accounting() {
        let c = cfg();
        let mut s = StatsCollector::new(&c);
        let t0 = c.warmup_cycles + 1;
        // Flow 7: 3 packets, measured. FCT spans first emit to last delivery.
        s.on_flow_started(true);
        assert_eq!(s.on_flow_packet(7, 3, t0, t0 + 10, true), None);
        assert_eq!(s.on_flow_packet(7, 3, t0, t0 + 14, true), None);
        assert_eq!(s.on_flow_packet(7, 3, t0, t0 + 40, true), Some(40));
        // Flow 8: single packet, unmeasured (warmup) — counted all-time only.
        s.on_flow_started(false);
        assert_eq!(s.on_flow_packet(8, 1, 0, 9, false), None);
        let r = s.finish(&c, 8, 4);
        assert_eq!(r.flows_started, 1);
        assert_eq!(r.flows_completed, 1);
        assert_eq!(r.flows_started_all_time, 2);
        assert_eq!(r.flows_completed_all_time, 2);
        assert_eq!(r.flow_packets_delivered, 4);
        assert!((r.fct_avg_cycles - 40.0).abs() < 1e-12);
        assert_eq!(r.fct_max_cycles, 40);
        assert_eq!(r.fct_classes.len(), 1);
        assert_eq!(r.fct_classes[0].min_packets, 2);
        assert_eq!(r.fct_classes[0].flows, 1);
    }
}
