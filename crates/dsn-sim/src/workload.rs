//! Workload descriptions: the paper's open-loop synthetic traffic, plus
//! closed *batch* workloads (e.g. a full all-to-all exchange) whose
//! completion time — not steady-state latency — is the figure of merit,
//! matching the collective-communication patterns that make HPC
//! applications latency-sensitive in the first place (paper Section I) —
//! plus the datacenter workload layer ([`crate::flow`]): heavy-tailed
//! multi-packet flows, synchronized incast waves, and dependency-staged
//! collectives judged on flow-completion time.

use crate::flow::{FlowArrivals, FlowSizeDist, StagedSpec};
use crate::traffic::TrafficPattern;

/// What drives packet injection.
#[derive(Debug, Clone, PartialEq)]
pub enum Workload {
    /// Open loop: every host injects with the given probability per cycle,
    /// destinations drawn from the pattern (the Figure 10 methodology).
    Open {
        /// Destination distribution.
        pattern: TrafficPattern,
        /// Injection probability per host per cycle.
        packets_per_cycle_per_host: f64,
    },
    /// Closed batch: a fixed list of `(src_host, dest_host)` packets all
    /// enqueued at cycle 0; the run ends when the last one is delivered.
    Closed {
        /// The packets to exchange.
        packets: Vec<(usize, usize)>,
    },
    /// Open-loop multi-packet flows: each host starts flows whose sizes
    /// come from a heavy-tailed distribution and whose destinations come
    /// from the pattern; flows drain through a per-host line-rate backlog
    /// and are scored on flow-completion time ([`crate::RunStats`]).
    Flows {
        /// Destination distribution.
        pattern: TrafficPattern,
        /// Flow-size distribution.
        sizes: FlowSizeDist,
        /// Flow inter-arrival process per host.
        arrivals: FlowArrivals,
    },
    /// Synchronized N-to-1 incast: wave `w` starts at `w * wave_period`
    /// with aggregator `w mod hosts` and the next `fanin` ring hosts each
    /// sending it a `request_packets`-packet response.
    Incast {
        /// Concurrent senders per wave (in `[1, hosts)`).
        fanin: u32,
        /// Response size in packets.
        request_packets: u32,
        /// Cycles between wave starts.
        wave_period: u64,
    },
    /// A dependency-staged closed collective (the recursive-doubling
    /// allreduce): stage `k + 1` of a host releases
    /// only when its stage-`k` receives complete. Generalizes `Closed`,
    /// whose whole batch releases at cycle 0.
    Staged(StagedSpec),
}

impl Workload {
    /// A full all-to-all exchange: every ordered pair of distinct hosts,
    /// in a src-major order (each host's send queue is its destination
    /// sequence).
    pub fn all_to_all(hosts: usize) -> Self {
        let mut packets = Vec::with_capacity(hosts * (hosts - 1));
        for s in 0..hosts {
            for d in 0..hosts {
                if s != d {
                    packets.push((s, d));
                }
            }
        }
        Workload::Closed { packets }
    }

    /// A ring shift: host `i` sends `count` packets to host `(i + offset)
    /// mod hosts` — the nearest-neighbor exchange of stencil codes.
    ///
    /// The batch is emitted **round-major**: one packet per host for round
    /// 0, then one per host for round 1, and so on — `(0, d0), (1, d1),
    /// ..., (0, d0), (1, d1), ...` — *not* src-major like
    /// [`Workload::all_to_all`]. Since the cycle-0 batch is enqueued in
    /// list order, each host still sees its own `count` repetitions in
    /// order, but packets of round `r` of every host precede round `r + 1`
    /// of any host in uid/slab order (pinned by a unit test).
    pub fn ring_shift(hosts: usize, offset: usize, count: usize) -> Self {
        let mut packets = Vec::with_capacity(hosts * count);
        for _ in 0..count {
            for s in 0..hosts {
                let d = (s + offset) % hosts;
                if d != s {
                    packets.push((s, d));
                }
            }
        }
        Workload::Closed { packets }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_to_all_counts() {
        let w = Workload::all_to_all(8);
        let Workload::Closed { packets } = w else {
            panic!("expected closed")
        };
        assert_eq!(packets.len(), 8 * 7);
        assert!(packets.iter().all(|&(s, d)| s != d && s < 8 && d < 8));
    }

    #[test]
    fn ring_shift_counts() {
        let w = Workload::ring_shift(8, 1, 3);
        let Workload::Closed { packets } = w else {
            panic!("expected closed")
        };
        assert_eq!(packets.len(), 24);
        assert!(packets.iter().all(|&(s, d)| d == (s + 1) % 8));
    }

    #[test]
    fn ring_shift_is_round_major() {
        // Pin the documented emission order: round r of every host
        // precedes round r + 1 of any host.
        let w = Workload::ring_shift(3, 1, 2);
        let Workload::Closed { packets } = w else {
            panic!("expected closed")
        };
        assert_eq!(
            packets,
            vec![(0, 1), (1, 2), (2, 0), (0, 1), (1, 2), (2, 0)],
            "ring_shift emits round-major, not src-major"
        );
    }

    #[test]
    fn self_sends_skipped() {
        let w = Workload::ring_shift(4, 4, 1); // offset = hosts -> self
        let Workload::Closed { packets } = w else {
            panic!("expected closed")
        };
        assert!(packets.is_empty());
    }
}
