//! Datacenter workload layer: heavy-tailed flow sources, synchronized
//! incast waves, and dependency-staged collectives.
//!
//! The paper's Figure 10 methodology drives every host with an open-loop
//! Bernoulli packet process. Datacenter evaluations of small-world
//! topologies judge a network on *flow-completion time* instead: hosts
//! start multi-packet flows whose sizes follow a heavy-tailed web-search
//! byte CDF, arrivals are Poisson, and collective phases impose *stage
//! dependencies* (a host may send stage `k + 1` only after its stage-`k`
//! receives land).
//!
//! Three building blocks live here:
//!
//! * [`FlowSizeDist`] / [`FlowArrivals`] — flow-size and inter-arrival
//!   samplers, the sizes with analytic moments for oracle tests;
//! * [`FlowSource`] — the per-host open-loop flow state
//!   machine ([`Workload::Flows`](crate::workload::Workload) and
//!   [`Workload::Incast`](crate::workload::Workload)): flows queue in a
//!   per-host backlog and drain one packet per serialization time
//!   (`packet_flits` cycles, the NIC line rate), through the same
//!   calendar-heap injection path as the Bernoulli injector;
//! * [`StagedSpec`] / [`StagedState`] — dependency-staged
//!   closed collectives (the recursive-doubling allreduce) generalizing
//!   the cycle-0 `Closed` batch.
//!
//! **Determinism.** Every random draw comes from a per-host `SmallRng`
//! seeded by a SplitMix64 mix of the run seed and the host index (salted
//! so flow streams never collide with the Bernoulli injector streams),
//! with a fixed draw order per arrival (destination, size, gap). A host's
//! traffic therefore never depends on how other hosts are iterated, which
//! is what lets the test suite's spec simulator, scanning every host each
//! cycle, reproduce the engine's calendar-driven runs bit for bit.

use crate::inject::{gap, mix, NEVER};
use crate::traffic::TrafficPattern;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Salt XORed into the run seed before per-host mixing so flow-source
/// streams are decorrelated from the Bernoulli injector streams.
const FLOW_SEED_SALT: u64 = 0xB10C_F10E_5EED_CAFE;

/// Flow-size distribution. `Fixed` is given directly in packets;
/// `ByteCdf` is a piecewise-linear CDF over flow size in **bytes** (the
/// format datacenter traces are published in), converted to whole
/// packets at sampling time using the configured packet size.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowSizeDist {
    /// Every flow is exactly this many packets (oracle tests).
    Fixed(u32),
    /// Piecewise-linear CDF over flow size in bytes: `(bytes, cum_prob)`
    /// points, strictly increasing in both coordinates, ending at
    /// probability 1; an implicit `(0, 0)` anchors the first segment.
    ByteCdf(Vec<(f64, f64)>),
}

impl FlowSizeDist {
    /// A web-search-style flow-size CDF (DCTCP/pFabric search workload
    /// shape): ~half the flows under 33 KB, a tail out to ~6.7 MB.
    pub fn websearch() -> Self {
        FlowSizeDist::ByteCdf(vec![
            (6_000.0, 0.15),
            (13_000.0, 0.30),
            (19_000.0, 0.40),
            (33_000.0, 0.53),
            (53_000.0, 0.60),
            (133_000.0, 0.70),
            (667_000.0, 0.80),
            (1_333_000.0, 0.90),
            (3_333_000.0, 0.97),
            (6_667_000.0, 1.00),
        ])
    }

    /// Sanity-check the parameters.
    ///
    /// # Panics
    /// Panics on out-of-range parameters or a malformed CDF.
    pub fn validate(&self) {
        match self {
            FlowSizeDist::Fixed(n) => assert!(*n >= 1, "fixed flow size must be >= 1 packet"),
            FlowSizeDist::ByteCdf(points) => {
                assert!(!points.is_empty(), "byte CDF needs at least one point");
                let mut prev = (0.0f64, 0.0f64);
                for &(b, p) in points {
                    assert!(
                        b > prev.0 && p > prev.1,
                        "byte CDF must be strictly increasing, got ({b}, {p}) after {prev:?}"
                    );
                    prev = (b, p);
                }
                assert_eq!(prev.1, 1.0, "byte CDF must end at probability 1");
            }
        }
    }

    /// One raw sample in the distribution's native unit (packets for
    /// `Fixed`, bytes for `ByteCdf`) by inverse-transform
    /// sampling; compare against [`FlowSizeDist::mean`] /
    /// [`FlowSizeDist::quantile`] in convergence tests.
    fn sample_raw(&self, rng: &mut SmallRng) -> f64 {
        match self {
            FlowSizeDist::Fixed(n) => *n as f64,
            FlowSizeDist::ByteCdf(points) => {
                let u: f64 = rng.gen_f64();
                let (mut b0, mut p0) = (0.0f64, 0.0f64);
                for &(b1, p1) in points {
                    if u < p1 {
                        return b0 + (b1 - b0) * (u - p0) / (p1 - p0);
                    }
                    b0 = b1;
                    p0 = p1;
                }
                b0 // u rounded to 1.0 exactly: the supremum
            }
        }
    }

    /// One flow size in whole packets (>= 1). `bytes_per_packet` converts
    /// `ByteCdf` samples; `Fixed` is already in packets.
    pub(crate) fn sample_packets(&self, bytes_per_packet: f64, rng: &mut SmallRng) -> u32 {
        let raw = self.sample_raw(rng);
        let packets = match self {
            FlowSizeDist::ByteCdf(_) => (raw / bytes_per_packet).ceil(),
            _ => raw.ceil(),
        };
        (packets.max(1.0).min(u32::MAX as f64)) as u32
    }

    /// Analytic mean in the distribution's native unit.
    pub fn mean(&self) -> f64 {
        match self {
            FlowSizeDist::Fixed(n) => *n as f64,
            FlowSizeDist::ByteCdf(points) => {
                let (mut b0, mut p0) = (0.0f64, 0.0f64);
                let mut mean = 0.0;
                for &(b1, p1) in points {
                    mean += (p1 - p0) * 0.5 * (b0 + b1);
                    b0 = b1;
                    p0 = p1;
                }
                mean
            }
        }
    }

    /// Analytic quantile (`0 <= q < 1`) in the distribution's native unit.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..1.0).contains(&q), "quantile needs 0 <= q < 1");
        match self {
            FlowSizeDist::Fixed(n) => *n as f64,
            FlowSizeDist::ByteCdf(points) => {
                let (mut b0, mut p0) = (0.0f64, 0.0f64);
                for &(b1, p1) in points {
                    if q < p1 {
                        return b0 + (b1 - b0) * (q - p0) / (p1 - p0);
                    }
                    b0 = b1;
                    p0 = p1;
                }
                b0
            }
        }
    }

    /// `n` raw samples from a fresh seeded stream, for convergence and
    /// seed-determinism tests (native unit, see [`FlowSizeDist::mean`]).
    pub fn samples(&self, seed: u64, n: usize) -> Vec<f64> {
        let mut rng = SmallRng::seed_from_u64(mix(seed ^ FLOW_SEED_SALT, 0));
        (0..n).map(|_| self.sample_raw(&mut rng)).collect()
    }
}

/// Flow inter-arrival process per host.
#[derive(Debug, Clone, PartialEq)]
pub enum FlowArrivals {
    /// Poisson (discretized): each cycle starts a new flow with this
    /// probability, sampled by geometric gaps like the packet injector.
    Poisson {
        /// Flow-arrival probability per host per cycle, in `(0, 1]`.
        flows_per_cycle: f64,
    },
}

impl FlowArrivals {
    /// Sanity-check the parameters.
    ///
    /// # Panics
    /// Panics on an out-of-range rate.
    pub fn validate(&self) {
        let FlowArrivals::Poisson { flows_per_cycle } = self;
        assert!(
            *flows_per_cycle > 0.0 && *flows_per_cycle <= 1.0,
            "Poisson flow rate must be in (0, 1]"
        );
    }

    /// One inter-arrival gap (>= 1 cycles).
    fn gap(&self, rng: &mut SmallRng) -> u64 {
        let FlowArrivals::Poisson { flows_per_cycle } = self;
        gap(rng, *flows_per_cycle).expect("validated rate > 0")
    }
}

/// One packet emission decided by [`FlowSource::fire`].
#[derive(Debug, Clone, Copy)]
pub struct FlowEmit {
    /// Flow id: `src_host << 32 | per-host flow sequence number`.
    pub id: u64,
    /// Destination host.
    pub dest: usize,
    /// Total packets of the flow (for completion detection at the sink).
    pub total: u32,
    /// Cycle the flow's first packet was enqueued (FCT start).
    pub start: u64,
    /// True for the flow's first packet.
    pub first: bool,
}

/// What starts flows: random heavy-tailed arrivals or deterministic
/// incast waves.
#[derive(Debug, Clone)]
enum SourceKind {
    /// Heavy-tailed flows to pattern-drawn destinations.
    Random {
        pattern: TrafficPattern,
        sizes: FlowSizeDist,
        arrivals: FlowArrivals,
    },
    /// Synchronized N-to-1 fan-in: wave `w` starts at `w * wave_period`,
    /// aggregator `w % hosts`, senders the next `fanin` hosts on the
    /// ring, each sending a `request_packets`-packet response.
    Incast {
        fanin: u32,
        request_packets: u32,
        wave_period: u64,
    },
}

/// Per-host flow bookkeeping.
#[derive(Debug, Clone)]
struct HostState {
    rng: SmallRng,
    /// Next flow-arrival cycle ([`NEVER`] = none).
    next_arrival: u64,
    /// Incast only: wave index of the next arrival.
    wave: u64,
    flow_seq: u32,
    backlog: VecDeque<PendingFlow>,
    /// Next packet-emission cycle ([`NEVER`] when the backlog is empty).
    next_emit: u64,
}

/// A flow waiting in (or draining through) a host's backlog.
#[derive(Debug, Clone)]
struct PendingFlow {
    id: u64,
    dest: u32,
    total: u32,
    sent: u32,
    start: u64,
}

/// The per-host open-loop flow state machine driving
/// [`Workload::Flows`](crate::workload::Workload) and
/// [`Workload::Incast`](crate::workload::Workload).
///
/// Arrived flows queue in a per-host FIFO backlog and drain one packet
/// every `pacing` cycles (one packet's serialization time —
/// NIC line rate), so a host never offers more than the paper's injection
/// model allows. Flows are emitted in arrival order, head-of-line.
#[derive(Debug, Clone)]
pub struct FlowSource {
    kind: SourceKind,
    /// Cycles between consecutive packet emissions of one host.
    pacing: u64,
    bytes_per_packet: f64,
    hosts: Vec<HostState>,
}

impl FlowSource {
    /// Heavy-tailed random flows (`Workload::Flows`).
    pub fn new_random(
        seed: u64,
        hosts: usize,
        pattern: TrafficPattern,
        sizes: FlowSizeDist,
        arrivals: FlowArrivals,
        packet_flits: usize,
        flit_bits: usize,
    ) -> Self {
        sizes.validate();
        arrivals.validate();
        assert!(hosts >= 2, "flow workloads need at least two hosts");
        let mut fs = FlowSource {
            kind: SourceKind::Random {
                pattern,
                sizes,
                arrivals,
            },
            pacing: (packet_flits as u64).max(1),
            bytes_per_packet: (packet_flits * flit_bits) as f64 / 8.0,
            hosts: Vec::with_capacity(hosts),
        };
        for h in 0..hosts {
            let mut rng = SmallRng::seed_from_u64(mix(seed ^ FLOW_SEED_SALT, h as u64));
            // First arrival at `gap - 1`, like the Bernoulli injector, so
            // cycle 0 starts a flow with the per-cycle probability.
            let first = match &fs.kind {
                SourceKind::Random { arrivals, .. } => arrivals.gap(&mut rng) - 1,
                SourceKind::Incast { .. } => unreachable!(),
            };
            fs.hosts.push(HostState {
                rng,
                next_arrival: first,
                wave: 0,
                flow_seq: 0,
                backlog: VecDeque::new(),
                next_emit: NEVER,
            });
        }
        fs
    }

    /// Synchronized incast waves (`Workload::Incast`).
    pub fn new_incast(
        seed: u64,
        hosts: usize,
        fanin: u32,
        request_packets: u32,
        wave_period: u64,
        packet_flits: usize,
        flit_bits: usize,
    ) -> Self {
        assert!(hosts >= 2, "incast needs at least two hosts");
        assert!(
            fanin >= 1 && (fanin as usize) < hosts,
            "incast fan-in must be in [1, hosts)"
        );
        assert!(request_packets >= 1, "incast request must be >= 1 packet");
        assert!(wave_period >= 1, "incast wave period must be >= 1 cycle");
        let kind = SourceKind::Incast {
            fanin,
            request_packets,
            wave_period,
        };
        let mut fs = FlowSource {
            kind,
            pacing: (packet_flits as u64).max(1),
            bytes_per_packet: (packet_flits * flit_bits) as f64 / 8.0,
            hosts: Vec::with_capacity(hosts),
        };
        for h in 0..hosts {
            let (wave, cycle) = incast_next_wave(h, hosts, fanin, wave_period, 0);
            fs.hosts.push(HostState {
                // Incast is deterministic; the stream is unused but kept so
                // the host-state layout is uniform.
                rng: SmallRng::seed_from_u64(mix(seed ^ FLOW_SEED_SALT, h as u64)),
                next_arrival: cycle,
                wave,
                flow_seq: 0,
                backlog: VecDeque::new(),
                next_emit: NEVER,
            });
        }
        fs
    }

    /// The cycle of this host's next action (arrival or emission);
    /// `u64::MAX` when it has nothing scheduled.
    #[inline]
    pub fn next_cycle(&self, host: usize) -> u64 {
        let hs = &self.hosts[host];
        hs.next_arrival.min(hs.next_emit)
    }

    /// Run `host`'s due actions at `now`: process at most one flow
    /// arrival, then at most one packet emission. Returns the packet to
    /// enqueue, if any. Afterwards [`FlowSource::next_cycle`] is strictly
    /// greater than `now` (or `u64::MAX`).
    pub fn fire(&mut self, host: usize, now: u64) -> Option<FlowEmit> {
        let nhosts = self.hosts.len();
        let hs = &mut self.hosts[host];
        if hs.next_arrival == now {
            let (dest, total) = match &self.kind {
                SourceKind::Random {
                    pattern,
                    sizes,
                    arrivals,
                } => {
                    // Fixed draw order: destination, size, next gap.
                    let dest = pattern.pick(host, nhosts, &mut hs.rng) as u32;
                    let total = sizes.sample_packets(self.bytes_per_packet, &mut hs.rng);
                    hs.next_arrival = now + arrivals.gap(&mut hs.rng);
                    (dest, total)
                }
                SourceKind::Incast {
                    fanin,
                    request_packets,
                    wave_period,
                } => {
                    let agg = (hs.wave % nhosts as u64) as u32;
                    let (wave, cycle) =
                        incast_next_wave(host, nhosts, *fanin, *wave_period, hs.wave + 1);
                    hs.wave = wave;
                    hs.next_arrival = cycle;
                    (agg, *request_packets)
                }
            };
            let id = (host as u64) << 32 | hs.flow_seq as u64;
            hs.flow_seq += 1;
            hs.backlog.push_back(PendingFlow {
                id,
                dest,
                total,
                sent: 0,
                start: 0,
            });
            // An idle host (empty backlog) emits the new flow's first
            // packet immediately; a busy host keeps its paced schedule.
            if hs.next_emit == NEVER {
                hs.next_emit = now;
            }
        }
        if hs.next_emit == now {
            let f = hs.backlog.front_mut().expect("emission due => backlog");
            let first = f.sent == 0;
            if first {
                f.start = now;
            }
            f.sent += 1;
            let emit = FlowEmit {
                id: f.id,
                dest: f.dest as usize,
                total: f.total,
                start: f.start,
                first,
            };
            if f.sent == f.total {
                hs.backlog.pop_front();
            }
            hs.next_emit = if hs.backlog.is_empty() {
                NEVER
            } else {
                now + self.pacing
            };
            return Some(emit);
        }
        None
    }
}

/// The first wave index `>= from` in which `host` is one of the `fanin`
/// senders, and its start cycle. Wave `w`'s aggregator is `w % hosts`;
/// its senders are the next `fanin` hosts clockwise on the ring.
fn incast_next_wave(
    host: usize,
    hosts: usize,
    fanin: u32,
    wave_period: u64,
    from: u64,
) -> (u64, u64) {
    let mut w = from;
    loop {
        let agg = (w % hosts as u64) as usize;
        let offset = (host + hosts - agg) % hosts;
        if offset >= 1 && offset <= fanin as usize {
            return (w, w * wave_period);
        }
        w += 1;
    }
}

/// A dependency-staged closed collective: per (host, stage) send lists in
/// CSR form plus the per-(host, stage) expected receive counts. Stage
/// `k + 1` of a host releases only when its stage-`k` receives complete;
/// stage 0 releases at cycle 0.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedSpec {
    name: &'static str,
    hosts: u32,
    stages: u32,
    msg_packets: u32,
    /// CSR offsets into `send_dest`, indexed by `host * stages + stage`.
    send_off: Vec<u32>,
    send_dest: Vec<u32>,
    /// Packets each (host, stage) must receive before its next stage.
    expect: Vec<u32>,
}

impl StagedSpec {
    /// Build a one-send-per-stage collective from a destination function.
    fn from_dests(
        name: &'static str,
        hosts: usize,
        stages: u32,
        msg_packets: u32,
        dest: impl Fn(usize, u32) -> usize,
    ) -> Self {
        assert!(hosts >= 2, "staged collectives need at least two hosts");
        assert!(msg_packets >= 1, "stage messages must be >= 1 packet");
        let cells = hosts * stages as usize;
        let mut send_off = Vec::with_capacity(cells + 1);
        let mut send_dest = Vec::with_capacity(cells);
        let mut expect = vec![0u32; cells];
        send_off.push(0);
        for h in 0..hosts {
            for s in 0..stages {
                let d = dest(h, s);
                assert_ne!(d, h, "staged collective self-send at host {h} stage {s}");
                assert!(d < hosts, "staged destination out of range");
                send_dest.push(d as u32);
                expect[d * stages as usize + s as usize] += msg_packets;
                send_off.push(send_dest.len() as u32);
            }
        }
        StagedSpec {
            name,
            hosts: hosts as u32,
            stages,
            msg_packets,
            send_off,
            send_dest,
            expect,
        }
    }

    /// Recursive-doubling allreduce: `log2 N` stages, stage `s` pairing
    /// host `h` with `h XOR 2^s`. `hosts` must be a power of two.
    pub fn recursive_doubling_allreduce(hosts: usize, msg_packets: u32) -> Self {
        assert!(
            hosts.is_power_of_two(),
            "recursive doubling needs a power-of-two host count"
        );
        let stages = hosts.trailing_zeros();
        Self::from_dests(
            "recursive_doubling_allreduce",
            hosts,
            stages,
            msg_packets,
            |h, s| h ^ (1usize << s),
        )
    }

    /// Stable collective name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Participating hosts. The simulated network must have at least this
    /// many hosts; extra hosts stay idle.
    pub fn hosts(&self) -> usize {
        self.hosts as usize
    }

    /// Dependency stages.
    pub fn stages(&self) -> u32 {
        self.stages
    }

    /// Packets per stage message.
    pub fn msg_packets(&self) -> u32 {
        self.msg_packets
    }

    /// Total packets the collective injects (the closed-batch size).
    pub fn total_packets(&self) -> u64 {
        self.send_dest.len() as u64 * self.msg_packets as u64
    }

    /// Destinations of `host`'s stage-`s` sends.
    fn sends(&self, host: usize, stage: u32) -> &[u32] {
        let i = host * self.stages as usize + stage as usize;
        let lo = self.send_off[i] as usize;
        let hi = self.send_off[i + 1] as usize;
        &self.send_dest[lo..hi]
    }

    /// Packets `host` must receive in stage `s` before releasing `s + 1`.
    fn expected(&self, host: usize, stage: u32) -> u32 {
        self.expect[host * self.stages as usize + stage as usize]
    }
}

/// Runtime dependency tracking for a [`StagedSpec`]: per-(host, stage)
/// receive counters and the per-host release frontier.
#[derive(Debug, Clone)]
pub struct StagedState {
    spec: StagedSpec,
    /// Packets received so far, indexed by `host * stages + stage`.
    recv: Vec<u32>,
    /// Stages released (sends enqueued) so far, per host.
    released: Vec<u32>,
}

impl StagedState {
    /// Fresh tracking state: nothing received, nothing released.
    pub fn new(spec: StagedSpec) -> Self {
        let cells = spec.hosts as usize * spec.stages as usize;
        let hosts = spec.hosts as usize;
        StagedState {
            spec,
            recv: vec![0; cells],
            released: vec![0; hosts],
        }
    }

    /// The collective schedule being tracked.
    pub fn spec(&self) -> &StagedSpec {
        &self.spec
    }

    /// A stage-`stage` packet was delivered to `host`; true when that
    /// stage's receive expectation is now exactly met (fires once).
    pub fn on_recv(&mut self, host: usize, stage: u32) -> bool {
        let i = host * self.spec.stages as usize + stage as usize;
        self.recv[i] += 1;
        debug_assert!(
            self.recv[i] <= self.spec.expected(host, stage),
            "host {host} stage {stage} over-received"
        );
        self.recv[i] == self.spec.expected(host, stage)
    }

    /// Append every send `host` may newly release as `(dest, stage)`
    /// pairs: stage `s` releases when `s == 0` or stage `s - 1`'s
    /// receives are complete. Idempotent — already-released stages are
    /// skipped — and cascading through zero-expectation stages.
    pub fn collect_releases(&mut self, host: usize, out: &mut Vec<(u32, u32)>) {
        loop {
            let s = self.released[host];
            if s >= self.spec.stages {
                return;
            }
            if s > 0 {
                let prev = host * self.spec.stages as usize + (s - 1) as usize;
                if self.recv[prev] < self.spec.expect[prev] {
                    return;
                }
            }
            for &d in self.spec.sends(host, s) {
                out.push((d, s));
            }
            self.released[host] = s + 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn byte_cdf_mean_and_quantiles_are_consistent() {
        let d = FlowSizeDist::websearch();
        d.validate();
        // The analytic quantile inverts the CDF: q=0.53 lands exactly on
        // the 33 KB knot; the mean lies between the extremes.
        assert!((d.quantile(0.53) - 33_000.0).abs() < 1e-6);
        let m = d.mean();
        assert!(m > 33_000.0 && m < 6_667_000.0, "websearch mean {m}");
    }

    #[test]
    fn samples_are_seed_deterministic() {
        for d in [FlowSizeDist::Fixed(7), FlowSizeDist::websearch()] {
            assert_eq!(d.samples(42, 100), d.samples(42, 100));
            if !matches!(d, FlowSizeDist::Fixed(_)) {
                assert_ne!(d.samples(42, 100), d.samples(43, 100));
            }
        }
    }

    #[test]
    fn sample_packets_is_at_least_one() {
        let mut rng = SmallRng::seed_from_u64(1);
        let d = FlowSizeDist::ByteCdf(vec![(10.0, 1.0)]); // tiny flows
        for _ in 0..100 {
            assert!(d.sample_packets(1056.0, &mut rng) >= 1);
        }
    }

    #[test]
    fn flow_source_paces_at_line_rate() {
        // One flow of 3 packets arriving at cycle 0 on an otherwise silent
        // host must emit at 0, pacing, 2*pacing.
        let mut fs = FlowSource::new_random(
            7,
            4,
            TrafficPattern::Uniform,
            FlowSizeDist::Fixed(3),
            FlowArrivals::Poisson {
                flows_per_cycle: 1e-9,
            },
            4,
            256,
        );
        // Force host 0's arrival to cycle 0 and silence later arrivals.
        fs.hosts[0].next_arrival = 0;
        let mut emits = Vec::new();
        let mut now = 0;
        while fs.next_cycle(0) != NEVER && emits.len() < 3 {
            now = fs.next_cycle(0).max(now);
            if let Some(e) = fs.fire(0, now) {
                emits.push((now, e));
                assert!(fs.next_cycle(0) > now, "post-fire schedule must advance");
            }
        }
        assert_eq!(emits.len(), 3);
        assert_eq!(emits[0].0, 0);
        assert_eq!(emits[1].0, fs.pacing);
        assert_eq!(emits[2].0, 2 * fs.pacing);
        assert!(emits[0].1.first && !emits[1].1.first && !emits[2].1.first);
        assert!(emits.iter().all(|(_, e)| e.total == 3 && e.start == 0));
        assert!(emits.iter().all(|(_, e)| e.dest != 0), "no self-sends");
    }

    #[test]
    fn incast_waves_fan_in_to_the_aggregator() {
        let hosts = 8;
        let fanin = 3;
        let period = 100;
        let mut fs = FlowSource::new_incast(0, hosts, fanin, 2, period, 4, 256);
        // Wave 0: aggregator 0, senders 1..=3 at cycle 0.
        for h in 0..hosts {
            let due = fs.next_cycle(h);
            if (1..=fanin as usize).contains(&h) {
                assert_eq!(due, 0, "host {h} sends in wave 0");
                let e = fs.fire(h, 0).expect("first packet due");
                assert_eq!(e.dest, 0);
                assert_eq!(e.total, 2);
            } else {
                assert!(due > 0, "host {h} idle in wave 0");
            }
        }
        // Wave 1: aggregator 1, senders 2..=4 at cycle `period`.
        assert_eq!(fs.next_cycle(4), period);
        let e = fs.fire(4, period).expect("wave-1 packet");
        assert_eq!(e.dest, 1);
    }

    #[test]
    fn staged_spec_has_the_expected_shape() {
        let rd = StagedSpec::recursive_doubling_allreduce(8, 2);
        assert_eq!(rd.stages(), 3);
        assert_eq!(rd.total_packets(), 8 * 3 * 2);
        // Every (host, stage) expects exactly one message's worth of
        // packets.
        for h in 0..rd.hosts() {
            for s in 0..rd.stages() {
                assert_eq!(rd.expected(h, s), rd.msg_packets());
            }
        }
    }

    #[test]
    fn staged_state_releases_in_dependency_order() {
        let spec = StagedSpec::recursive_doubling_allreduce(4, 1);
        let mut st = StagedState::new(spec);
        let mut out = Vec::new();
        // Stage 0 releases unconditionally: host 0 pairs with host 1.
        st.collect_releases(0, &mut out);
        assert_eq!(out, vec![(1, 0)]);
        out.clear();
        // Nothing more until stage 0's receive lands.
        st.collect_releases(0, &mut out);
        assert!(out.is_empty());
        assert!(st.on_recv(0, 0), "expectation met exactly once");
        // Stage 1 pairs host 0 with host 2.
        st.collect_releases(0, &mut out);
        assert_eq!(out, vec![(2, 1)]);
    }
}
