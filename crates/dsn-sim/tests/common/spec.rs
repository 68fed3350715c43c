//! The spec simulator: a second, deliberately plain implementation of the
//! router model, written from the cycle contract and the fault model in
//! DESIGN.md §6 and the telemetry hook points of §7 — not from the
//! engine. The equivalence suites run every scenario on both and demand
//! the same `RunStats` bit for bit (and byte-identical telemetry exports),
//! so a bug in one of the engine's mutation helpers shows up as a
//! divergence instead of passing silently.
//!
//! It keeps its own state in the most obvious shape: one flit queue per
//! input VC (a host's source queue is one more flit queue), an owner and
//! a credit count per output VC, a round-robin pointer per channel, one
//! FIFO of flits on the wires and one of credits on their way back. Every
//! cycle scans everything in ascending order. The only code it shares
//! with the library is the configuration and workload types, the per-host
//! sources ([`Injector`], [`FlowSource`], [`StagedState`]), the
//! [`SimRouting`] schemes, the [`StatsCollector`], the [`FaultPlan`] and
//! the telemetry recorder.
//!
//! Every cycle it also checks two conservation laws of its own state (see
//! [`Spec::check_invariants`]).

use dsn_core::fault::EdgeMask;
use dsn_core::graph::Graph;
use dsn_route::updown::UdPhase;
use dsn_sim::flow::{FlowSource, StagedState};
use dsn_sim::routing::{Candidate, RouteState};
use dsn_sim::stats::StatsCollector;
use dsn_sim::{
    FaultKind, FaultPlan, Injector, RetryPolicy, RunStats, SimConfig, SimRouting, Switching,
    TelemetryReport, TrafficPattern, Workload,
};
use dsn_telemetry::{ChannelDesc, Telemetry, TelemetryTopo};
use std::collections::VecDeque;
use std::sync::Arc;

/// Run `workload` on the spec simulator and return its statistics.
pub fn run(
    graph: Arc<Graph>,
    cfg: SimConfig,
    routing: Arc<dyn SimRouting>,
    workload: Workload,
    seed: u64,
) -> RunStats {
    Spec::new(graph, cfg, routing, workload, seed).run().0
}

/// Like [`run`], also returning the telemetry report (`None` unless
/// `cfg.telemetry` is set).
pub fn run_with_telemetry(
    graph: Arc<Graph>,
    cfg: SimConfig,
    routing: Arc<dyn SimRouting>,
    workload: Workload,
    seed: u64,
) -> (RunStats, Option<TelemetryReport>) {
    Spec::new(graph, cfg, routing, workload, seed).run()
}

/// One flit: the packet's creation-order id and the flit's sequence
/// number within the packet (0 = head).
#[derive(Debug, Clone, Copy)]
struct Flit {
    pkt: u32,
    seq: usize,
}

/// Workload identity a packet carries.
#[derive(Debug, Clone, Copy)]
enum Tag {
    None,
    Flow { id: u64, start: u64, total: u32 },
    Stage(u32),
}

#[derive(Debug, Clone)]
struct Packet {
    src_host: usize,
    dest_host: usize,
    dest_sw: usize,
    created: u64,
    route: RouteState,
    measured: bool,
    attempt: u32,
    tag: Tag,
}

/// What an input VC's head packet holds.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Grant {
    None,
    /// An output VC `(channel, vc)` downstream.
    Net {
        pkt: u32,
        ch: usize,
        vc: usize,
    },
    /// The ejection port `port` of its switch.
    Eject {
        pkt: u32,
        port: usize,
    },
}

impl Grant {
    fn pkt(self) -> Option<u32> {
        match self {
            Grant::None => None,
            Grant::Net { pkt, .. } | Grant::Eject { pkt, .. } => Some(pkt),
        }
    }
}

/// A dropped packet waiting to be re-sent.
#[derive(Debug, Clone, Copy)]
struct Retry {
    due: u64,
    src: usize,
    dest: usize,
    attempt: u32,
    tag: Tag,
}

/// Fault bookkeeping (present iff the plan has events).
struct Faults {
    /// Plan events in `(cycle, plan order)`.
    events: Vec<(u64, FaultKind)>,
    next: usize,
    mask: EdgeMask,
    retry: RetryPolicy,
    /// Pending re-sends in drop order.
    retries: Vec<Retry>,
    dropped_measured: u64,
    retried: u64,
    abandoned: u64,
}

/// Where packets come from.
enum Source {
    /// Bernoulli hosts with destinations from a pattern.
    Open(TrafficPattern, Injector),
    /// Flow arrivals and incast waves.
    Flows(FlowSource),
    /// A fixed batch enqueued at cycle 0.
    Batch(Vec<(usize, usize)>),
    /// A staged collective and the hosts whose next stage may release.
    Staged(StagedState, Vec<u32>),
}

/// The spec simulator's whole state.
pub struct Spec {
    graph: Arc<Graph>,
    cfg: SimConfig,
    routing: Arc<dyn SimRouting>,
    source: Source,
    /// Packets a closed workload creates in total.
    closed_total: Option<u64>,

    nvc: usize,
    channels: usize,
    hosts: usize,
    /// Credits a free output VC needs before it can be granted.
    need: u32,
    /// Header delay, at least one cycle.
    hd: u64,

    // Per input VC (`input * nvc + vc`; channel inputs first, host
    // inputs after them use VC 0 only).
    queue: Vec<VecDeque<Flit>>,
    ready: Vec<Option<u64>>,
    grant: Vec<Grant>,
    // Per output VC (`channel * nvc + vc`).
    owner: Vec<Option<usize>>,
    credits: Vec<u32>,
    // Per channel.
    rr: Vec<usize>,
    channel_flits: Vec<u64>,
    /// Flits on the wires: `(arrival cycle, channel, vc, flit)`.
    wire: VecDeque<(u64, usize, usize, Flit)>,
    /// Credits on their way back: `(cycle, channel, vc)`.
    credit_returns: VecDeque<(u64, usize, usize)>,

    /// Every packet ever created, by creation order; `None` once delivered
    /// or dropped.
    packets: Vec<Option<Packet>>,
    /// Packets created and neither delivered nor dropped.
    live: u64,
    created: u64,
    delivered: u64,
    dropped: u64,
    peak_live: u64,
    buffered: u64,
    peak_buffered: u64,
    last_progress: u64,
    stall: u64,
    longest_stall: u64,
    now: u64,

    faults: Option<Faults>,
    stats: StatsCollector,
    telemetry: Telemetry,
    candidates: Vec<Candidate>,
    /// Scratch of [`Spec::check_invariants`].
    held: Vec<usize>,
}

impl Spec {
    fn new(
        graph: Arc<Graph>,
        cfg: SimConfig,
        routing: Arc<dyn SimRouting>,
        workload: Workload,
        seed: u64,
    ) -> Self {
        let n = graph.node_count();
        let channels = graph.channel_count();
        let hosts = n * cfg.hosts_per_switch;
        let nvc = cfg.vcs as usize;
        let (source, closed_total) = match workload {
            Workload::Open {
                pattern,
                packets_per_cycle_per_host,
            } => (
                Source::Open(
                    pattern,
                    Injector::new(seed, hosts, packets_per_cycle_per_host),
                ),
                None,
            ),
            Workload::Closed { packets } => {
                let total = packets.len() as u64;
                (Source::Batch(packets), Some(total))
            }
            Workload::Flows {
                pattern,
                sizes,
                arrivals,
            } => (
                Source::Flows(FlowSource::new_random(
                    seed,
                    hosts,
                    pattern,
                    sizes,
                    arrivals,
                    cfg.packet_flits,
                    cfg.flit_bits as usize,
                )),
                None,
            ),
            Workload::Incast {
                fanin,
                request_packets,
                wave_period,
            } => (
                Source::Flows(FlowSource::new_incast(
                    seed,
                    hosts,
                    fanin,
                    request_packets,
                    wave_period,
                    cfg.packet_flits,
                    cfg.flit_bits as usize,
                )),
                None,
            ),
            Workload::Staged(spec) => {
                let total = spec.total_packets();
                // Every participant's stage 0 is releasable at cycle 0.
                let first = (0..spec.hosts() as u32).collect();
                (Source::Staged(StagedState::new(spec), first), Some(total))
            }
        };
        let faults = (!cfg.fault_plan.is_empty()).then(|| Faults::new(&graph, &cfg.fault_plan));
        let telemetry = match &cfg.telemetry {
            Some(tc) => Telemetry::on(tc.clone(), telemetry_topo(&graph, &cfg)),
            None => Telemetry::Off,
        };
        let inputs = channels + hosts;
        Spec {
            need: match cfg.switching {
                Switching::VirtualCutThrough => cfg.packet_flits as u32,
                Switching::Wormhole => 1,
            },
            hd: cfg.header_delay.max(1),
            queue: vec![VecDeque::new(); inputs * nvc],
            ready: vec![None; inputs * nvc],
            grant: vec![Grant::None; inputs * nvc],
            owner: vec![None; channels * nvc],
            credits: vec![cfg.buffer_flits as u32; channels * nvc],
            rr: vec![0; channels],
            channel_flits: vec![0; channels],
            wire: VecDeque::new(),
            credit_returns: VecDeque::new(),
            packets: Vec::new(),
            live: 0,
            created: 0,
            delivered: 0,
            dropped: 0,
            peak_live: 0,
            buffered: 0,
            peak_buffered: 0,
            last_progress: 0,
            stall: 0,
            longest_stall: 0,
            now: 0,
            stats: StatsCollector::new(&cfg),
            telemetry,
            candidates: Vec::new(),
            held: Vec::new(),
            faults,
            source,
            closed_total,
            nvc,
            channels,
            hosts,
            graph,
            cfg,
            routing,
        }
    }

    fn run(mut self) -> (RunStats, Option<TelemetryReport>) {
        let end = self.cfg.total_cycles();
        while self.now < end && !self.batch_done() {
            self.cycle();
        }
        let telemetry = std::mem::replace(&mut self.telemetry, Telemetry::Off);
        let report = telemetry.finish(self.now);
        (self.finish(), report)
    }

    fn in_window(&self, t: u64) -> bool {
        t >= self.cfg.warmup_cycles && t < self.cfg.warmup_cycles + self.cfg.measure_cycles
    }

    /// VCs an input uses: every VC behind a channel, one behind a host.
    fn vcs_of(&self, input: usize) -> usize {
        if input < self.channels {
            self.nvc
        } else {
            1
        }
    }

    /// The switch an input belongs to.
    fn node_of(&self, input: usize) -> usize {
        if input < self.channels {
            self.graph.channel_endpoints(input).1
        } else {
            (input - self.channels) / self.cfg.hosts_per_switch
        }
    }

    fn packet(&self, pkt: u32) -> &Packet {
        self.packets[pkt as usize].as_ref().expect("live packet")
    }

    /// A packet leaves the network (delivered or dropped).
    fn retire(&mut self, pkt: u32) -> Packet {
        self.live -= 1;
        self.packets[pkt as usize].take().expect("live packet")
    }

    fn batch_done(&self) -> bool {
        let retries_empty = self.faults.as_ref().is_none_or(|f| f.retries.is_empty());
        self.closed_total
            .is_some_and(|t| self.created >= t && self.live == 0 && retries_empty)
    }

    /// One cycle, in the order of the cycle contract.
    fn cycle(&mut self) {
        let now = self.now;
        // 0. Faults scheduled for this cycle.
        self.apply_faults(now);
        // 1. Credit returns.
        while self.credit_returns.front().is_some_and(|&(t, ..)| t <= now) {
            let (_, ch, vc) = self.credit_returns.pop_front().unwrap();
            self.credits[ch * self.nvc + vc] += 1;
        }
        // 2. Link arrivals.
        while self.wire.front().is_some_and(|&(t, ..)| t <= now) {
            let (_, ch, vc, flit) = self.wire.pop_front().unwrap();
            self.arrive(ch, vc, flit, now);
        }
        // 3. Injection.
        self.inject(now);
        // 4. Routing and VC allocation, in (input, vc) order.
        for i in 0..self.channels + self.hosts {
            for v in 0..self.vcs_of(i) {
                let iv = i * self.nvc + v;
                let eligible = self.queue[iv].front().is_some_and(|f| f.seq == 0)
                    && self.grant[iv] == Grant::None
                    && self.ready[iv].is_some_and(|r| now >= r);
                if eligible {
                    self.allocate(i, v, now);
                }
            }
        }
        // 5a. Switch traversal: one flit per channel, ascending channels.
        let mut input_busy = vec![false; self.channels + self.hosts];
        for ch in 0..self.channels {
            self.traverse(ch, now, &mut input_busy);
        }
        // 5b. Ejection: one flit per input and per ejection port.
        let mut port_busy = vec![false; self.hosts];
        for i in 0..self.channels + self.hosts {
            for v in 0..self.vcs_of(i) {
                self.eject(i, v, now, &mut input_busy, &mut port_busy);
            }
        }
        // 6. Stall watchdog.
        if self.last_progress == now || self.live == 0 {
            self.stall = 0;
        } else {
            self.stall += 1;
            self.longest_stall = self.longest_stall.max(self.stall);
        }
        self.check_invariants();
        self.now += 1;
    }

    /// Two conservation laws, asserted every cycle:
    ///
    /// * per output VC, its credits plus the flits buffered downstream,
    ///   on the wire and whose credit is on its way back add up to the
    ///   buffer size;
    /// * the live packets are exactly those created and neither
    ///   delivered nor dropped.
    fn check_invariants(&mut self) {
        let mut held = std::mem::take(&mut self.held);
        held.clear();
        held.extend(
            self.credits
                .iter()
                .zip(&self.queue)
                .map(|(&c, q)| c as usize + q.len()),
        );
        for &(_, ch, vc, _) in &self.wire {
            held[ch * self.nvc + vc] += 1;
        }
        for &(_, ch, vc) in &self.credit_returns {
            held[ch * self.nvc + vc] += 1;
        }
        if let Some(ov) = held.iter().position(|&h| h != self.cfg.buffer_flits) {
            panic!(
                "cycle {}: credits of channel {} vc {} not conserved ({} != {})",
                self.now,
                ov / self.nvc,
                ov % self.nvc,
                held[ov],
                self.cfg.buffer_flits
            );
        }
        self.held = held;
        assert_eq!(
            self.live,
            self.created - self.delivered - self.dropped,
            "cycle {}: live packets != created - delivered - dropped",
            self.now
        );
    }

    // ------------------------------------------------------------------
    // Phases 2 and 3: arrivals and injection.
    // ------------------------------------------------------------------

    /// A flit comes off the wire of `ch` into input VC `(ch, vc)`. A head
    /// landing in an empty queue starts its header delay.
    fn arrive(&mut self, ch: usize, vc: usize, flit: Flit, now: u64) {
        let iv = ch * self.nvc + vc;
        let was_empty = self.queue[iv].is_empty();
        self.queue[iv].push_back(flit);
        self.buffered += 1;
        self.peak_buffered = self.peak_buffered.max(self.buffered);
        let tail = flit.seq + 1 == self.cfg.packet_flits;
        let depth = self.queue[iv].len() as u32;
        self.telemetry
            .on_link_arrival(ch as u32, vc as u32, depth, flit.pkt, tail, now);
        if was_empty && flit.seq == 0 {
            self.ready[iv] = Some(now + self.hd);
        }
    }

    /// Phase 3: the cycle-0 batch, released collective stages, due
    /// retries, then every host whose source fires now, ascending.
    fn inject(&mut self, now: u64) {
        match &mut self.source {
            Source::Batch(batch) if now == 0 => {
                for (src, dest) in std::mem::take(batch) {
                    self.enqueue(now, src, dest, 0, Tag::None);
                }
            }
            Source::Staged(..) => self.release_stages(now),
            _ => {}
        }
        self.inject_retries(now);
        for h in 0..self.hosts {
            match &mut self.source {
                Source::Open(pattern, injector) if injector.next_cycle(h) == now => {
                    let dest = pattern.pick(h, self.hosts, injector.rng_mut(h));
                    injector.advance(h, now);
                    self.enqueue(now, h, dest, 0, Tag::None);
                }
                Source::Flows(fs) if fs.next_cycle(h) == now => {
                    let Some(e) = fs.fire(h, now) else { continue };
                    if e.first {
                        let measured = self.in_window(now);
                        self.stats.on_flow_started(measured);
                    }
                    let tag = Tag::Flow {
                        id: e.id,
                        start: e.start,
                        total: e.total,
                    };
                    self.enqueue(now, h, e.dest, 0, tag);
                }
                _ => {}
            }
        }
    }

    /// Enqueue the sends of every collective stage that became releasable
    /// (hosts in ascending order, each once).
    fn release_stages(&mut self, now: u64) {
        let Source::Staged(state, ready) = &mut self.source else {
            return;
        };
        let mut hosts = std::mem::take(ready);
        hosts.sort_unstable();
        hosts.dedup();
        let msg = state.spec().msg_packets();
        let mut sends = Vec::new();
        for h in hosts {
            sends.clear();
            if let Source::Staged(state, _) = &mut self.source {
                state.collect_releases(h as usize, &mut sends);
            }
            for &(dest, stage) in &sends {
                for _ in 0..msg {
                    self.enqueue(now, h as usize, dest as usize, 0, Tag::Stage(stage));
                }
            }
        }
    }

    /// Re-send every dropped packet whose retry is due, earliest due first
    /// (drop order among equal dues).
    fn inject_retries(&mut self, now: u64) {
        let Some(f) = &mut self.faults else { return };
        let (mut due, later): (Vec<Retry>, Vec<Retry>) =
            f.retries.drain(..).partition(|r| r.due <= now);
        f.retries = later;
        f.retried += due.len() as u64;
        due.sort_by_key(|r| r.due);
        for r in due {
            self.enqueue(now, r.src, r.dest, r.attempt, r.tag);
        }
    }

    /// Create a packet and append all its flits to its host's source
    /// queue.
    fn enqueue(&mut self, now: u64, src: usize, dest: usize, attempt: u32, tag: Tag) {
        let hps = self.cfg.hosts_per_switch;
        let (src_sw, dest_sw) = (src / hps, dest / hps);
        let uid = self.created as u32;
        self.created += 1;
        self.packets.push(Some(Packet {
            src_host: src,
            dest_host: dest,
            dest_sw,
            created: now,
            route: RouteState::START,
            measured: self.in_window(now),
            attempt,
            tag,
        }));
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.stats.on_offered(now, self.cfg.packet_flits);
        self.telemetry
            .on_created(uid, src_sw as u32, dest_sw as u32, now);
        let iv = (self.channels + src) * self.nvc;
        let was_empty = self.queue[iv].is_empty();
        for seq in 0..self.cfg.packet_flits {
            self.queue[iv].push_back(Flit { pkt: uid, seq });
        }
        self.buffered += self.cfg.packet_flits as u64;
        self.peak_buffered = self.peak_buffered.max(self.buffered);
        if was_empty {
            self.ready[iv] = Some(now + self.hd);
        }
        if self.telemetry.enabled() {
            let depth = self.queue[iv].len() as u32;
            self.telemetry.on_inject_depth(depth, now);
        }
    }

    // ------------------------------------------------------------------
    // Phases 4 and 5: allocation, traversal, ejection.
    // ------------------------------------------------------------------

    /// Route the head of `(i, v)`: eject at its destination switch, else
    /// take the first candidate output VC that is free with enough
    /// credits. A head with no live candidate on a faulted run is dropped
    /// as unroutable.
    fn allocate(&mut self, i: usize, v: usize, now: u64) {
        let iv = i * self.nvc + v;
        let pkt = self.queue[iv][0].pkt;
        let node = self.node_of(i);
        let (dest_sw, dest_host, route) = {
            let p = self.packet(pkt);
            (p.dest_sw, p.dest_host, p.route)
        };
        if dest_sw == node {
            let port = dest_host % self.cfg.hosts_per_switch;
            self.grant[iv] = Grant::Eject { pkt, port };
            self.telemetry.on_alloc_granted(pkt, now);
            return;
        }
        let mut candidates = std::mem::take(&mut self.candidates);
        candidates.clear();
        self.routing
            .candidates(node, dest_sw, &route, &mut candidates);
        let mut live = 0;
        let mut granted = false;
        for &(ch, vc) in &candidates {
            if self
                .faults
                .as_ref()
                .is_some_and(|f| !f.mask.channel_alive(ch))
            {
                continue;
            }
            live += 1;
            let ov = ch * self.nvc + vc as usize;
            if self.owner[ov].is_none() && self.credits[ov] >= self.need {
                self.owner[ov] = Some(iv);
                self.grant[iv] = Grant::Net {
                    pkt,
                    ch,
                    vc: vc as usize,
                };
                let p = self.packets[pkt as usize].as_mut().unwrap();
                self.routing.on_hop(node, dest_sw, &mut p.route, ch, vc);
                self.telemetry.on_alloc_granted(pkt, now);
                granted = true;
                break;
            }
        }
        self.candidates = candidates;
        if granted {
            return;
        }
        if live == 0 && self.faults.is_some() {
            self.drop_packet(pkt, now);
        } else {
            self.telemetry.on_alloc_blocked(node as u32, now);
        }
    }

    /// Phase 5a for one channel: starting at its round-robin pointer, the
    /// first output VC that is owned, credited and has a flit waiting at
    /// an input that has not sent this cycle sends one flit.
    fn traverse(&mut self, ch: usize, now: u64, input_busy: &mut [bool]) {
        let nvc = self.nvc;
        let start = self.rr[ch];
        let pick = (0..nvc).map(|k| (start + k) % nvc).find(|&vc| {
            let ov = ch * nvc + vc;
            self.owner[ov].is_some_and(|iv| {
                self.credits[ov] > 0 && !self.queue[iv].is_empty() && !input_busy[iv / nvc]
            })
        });
        let Some(vc) = pick else { return };
        let ov = ch * nvc + vc;
        let iv = self.owner[ov].unwrap();
        let i = iv / nvc;
        input_busy[i] = true;
        self.last_progress = now;
        self.rr[ch] = (vc + 1) % nvc;
        let flit = self.queue[iv].pop_front().unwrap();
        self.buffered -= 1;
        self.credits[ov] -= 1;
        self.wire
            .push_back((now + self.cfg.link_delay.max(1), ch, vc, flit));
        if self.in_window(now) {
            self.channel_flits[ch] += 1;
        }
        if i < self.channels {
            // The freed slot's credit goes back to the upstream channel.
            self.credit_returns
                .push_back((now + self.cfg.credit_delay.max(1), i, iv % nvc));
        }
        let tail = flit.seq + 1 == self.cfg.packet_flits;
        self.telemetry.on_flit_sent(ch as u32, flit.pkt, tail, now);
        if tail {
            self.owner[ov] = None;
            self.release_input(iv, now);
        }
    }

    /// Phase 5b for one input VC holding an ejection grant.
    fn eject(
        &mut self,
        i: usize,
        v: usize,
        now: u64,
        input_busy: &mut [bool],
        port_busy: &mut [bool],
    ) {
        let iv = i * self.nvc + v;
        let Grant::Eject { pkt, port } = self.grant[iv] else {
            return;
        };
        let host = self.node_of(i) * self.cfg.hosts_per_switch + port;
        if input_busy[i] || port_busy[host] || self.queue[iv].is_empty() {
            return;
        }
        input_busy[i] = true;
        port_busy[host] = true;
        self.last_progress = now;
        let flit = self.queue[iv].pop_front().unwrap();
        self.buffered -= 1;
        if i < self.channels {
            self.credit_returns
                .push_back((now + self.cfg.credit_delay.max(1), i, v));
        }
        let tail = flit.seq + 1 == self.cfg.packet_flits;
        self.telemetry.on_ejected(pkt, tail, now);
        if !tail {
            return;
        }
        let p = self.retire(pkt);
        self.delivered += 1;
        self.stats
            .on_delivered(now, p.created, p.measured, self.cfg.packet_flits);
        match p.tag {
            Tag::None => {}
            Tag::Flow { id, start, total } => {
                let measured = self.in_window(start);
                if let Some(fct) = self.stats.on_flow_packet(id, total, start, now, measured) {
                    let class = (31 - total.max(1).leading_zeros()).min(7);
                    self.telemetry.on_flow_completed(class, fct, now);
                }
            }
            Tag::Stage(stage) => {
                if let Source::Staged(state, ready) = &mut self.source {
                    if state.on_recv(p.dest_host, stage) {
                        ready.push(p.dest_host as u32);
                    }
                }
            }
        }
        self.release_input(iv, now);
    }

    /// The tail left input VC `iv`: free it; a packet queued behind starts
    /// its header delay next cycle.
    fn release_input(&mut self, iv: usize, now: u64) {
        self.grant[iv] = Grant::None;
        self.ready[iv] = None;
        if !self.queue[iv].is_empty() {
            self.ready[iv] = Some(now + 1 + self.hd);
        }
    }

    // ------------------------------------------------------------------
    // Phase 0 and the fault model.
    // ------------------------------------------------------------------

    /// Apply every plan event due by `now`, then rebuild routing on the
    /// survivors and restart every live packet's up*/down* phase.
    fn apply_faults(&mut self, now: u64) {
        let due = self
            .faults
            .as_ref()
            .is_some_and(|f| f.events.get(f.next).is_some_and(|e| e.0 <= now));
        if !due {
            return;
        }
        let graph = self.graph.clone();
        loop {
            let f = self.faults.as_mut().unwrap();
            let Some(&(cycle, kind)) = f.events.get(f.next) else {
                break;
            };
            if cycle > now {
                break;
            }
            f.next += 1;
            match kind {
                FaultKind::LinkDown(e) => {
                    if f.mask.set_edge(e, false) {
                        self.kill_channel(2 * e, now);
                        self.kill_channel(2 * e + 1, now);
                    }
                }
                FaultKind::LinkUp(e) => {
                    f.mask.set_edge(e, true);
                }
            }
        }
        let mask = &self.faults.as_ref().unwrap().mask;
        self.routing = self
            .routing
            .rebuild(&graph, mask)
            .expect("scheme supports online reroute");
        for p in self.packets.iter_mut().flatten() {
            p.route.ud_phase = UdPhase::Up;
        }
    }

    /// Channel `ch` died. Its victims — packets holding one of its output
    /// VCs or with flits on its wire — are dropped in creation order.
    fn kill_channel(&mut self, ch: usize, now: u64) {
        let mut victims: Vec<u32> = Vec::new();
        for vc in 0..self.nvc {
            if let Some(iv) = self.owner[ch * self.nvc + vc] {
                victims.push(self.grant[iv].pkt().unwrap());
            }
        }
        for &(_, c, _, flit) in &self.wire {
            if c == ch {
                victims.push(flit.pkt);
            }
        }
        victims.sort_unstable();
        victims.dedup();
        for pkt in victims {
            self.drop_packet(pkt, now);
        }
    }

    /// Drop `pkt` everywhere and schedule its retry (or abandon it).
    fn drop_packet(&mut self, pkt: u32, now: u64) {
        self.telemetry.on_dropped(pkt, now);
        self.purge(pkt, now);
        let p = self.retire(pkt);
        self.dropped += 1;
        let f = self.faults.as_mut().unwrap();
        if p.measured {
            f.dropped_measured += 1;
        }
        if p.attempt < f.retry.max_retries {
            let backoff = f
                .retry
                .backoff_cycles
                .saturating_mul(1 << p.attempt.min(20));
            f.retries.push(Retry {
                due: now + f.retry.timeout_cycles.max(1) + backoff,
                src: p.src_host,
                dest: p.dest_host,
                attempt: p.attempt + 1,
                tag: p.tag,
            });
        } else {
            f.abandoned += 1;
        }
    }

    /// Erase every trace of `pkt`: its flits in every queue and on every
    /// wire (each one's credit comes back at once), its grants and output
    /// VCs. A queue whose head it was re-arms the next head now.
    fn purge(&mut self, pkt: u32, now: u64) {
        for i in 0..self.channels + self.hosts {
            for v in 0..self.vcs_of(i) {
                let iv = i * self.nvc + v;
                let held = self.grant[iv].pkt() == Some(pkt);
                let at_front = self.queue[iv].front().is_some_and(|f| f.pkt == pkt);
                let before = self.queue[iv].len();
                self.queue[iv].retain(|f| f.pkt != pkt);
                let removed = before - self.queue[iv].len();
                self.buffered -= removed as u64;
                if i < self.channels {
                    self.credits[iv] += removed as u32;
                }
                if held {
                    if let Grant::Net { ch, vc, .. } = self.grant[iv] {
                        self.owner[ch * self.nvc + vc] = None;
                    }
                    self.grant[iv] = Grant::None;
                }
                if held || at_front {
                    self.ready[iv] = (!self.queue[iv].is_empty()).then_some(now + self.hd);
                }
            }
        }
        let mut refunds = Vec::new();
        self.wire.retain(|&(_, ch, vc, f)| {
            if f.pkt == pkt {
                refunds.push(ch * self.nvc + vc);
            }
            f.pkt != pkt
        });
        for ov in refunds {
            self.credits[ov] += 1;
        }
    }

    fn finish(self) -> RunStats {
        let window = self.cfg.measure_cycles.max(1) as f64;
        let mean_util = if self.channels == 0 {
            0.0
        } else {
            self.channel_flits.iter().sum::<u64>() as f64 / window / self.channels as f64
        };
        let max_util = self
            .channel_flits
            .iter()
            .map(|&f| f as f64 / window)
            .fold(0.0f64, f64::max);
        let mut stats = self
            .stats
            .finish(&self.cfg, self.hosts, self.created as usize);
        stats.mean_channel_utilization = mean_util;
        stats.max_channel_utilization = max_util;
        let mut retries_pending = 0;
        if let Some(f) = &self.faults {
            stats.dropped_packets = f.dropped_measured;
            stats.dropped_packets_all_time = self.dropped;
            stats.retried_packets = f.retried;
            stats.abandoned_packets = f.abandoned;
            retries_pending = f.retries.len();
        }
        let resolved = self.delivered + self.dropped;
        stats.completion_cycle =
            (self.created > 0 && retries_pending == 0 && resolved == self.created)
                .then_some(self.last_progress);
        stats.longest_stall_cycles = self.longest_stall;
        stats.peak_in_flight_packets = self.peak_live;
        stats.peak_buffered_flits = self.peak_buffered;
        let threshold =
            16 * (self.cfg.header_delay + self.cfg.link_delay + self.cfg.packet_flits as u64);
        stats.deadlock_suspected = self.longest_stall > threshold && self.created > resolved;
        stats
    }
}

impl Faults {
    fn new(graph: &Graph, plan: &FaultPlan) -> Self {
        let mut events: Vec<(u64, FaultKind)> =
            plan.events.iter().map(|e| (e.cycle, e.kind)).collect();
        events.sort_by_key(|e| e.0);
        Faults {
            events,
            next: 0,
            mask: EdgeMask::fully_alive(graph),
            retry: plan.retry,
            retries: Vec::new(),
            dropped_measured: 0,
            retried: 0,
            abandoned: 0,
        }
    }
}

/// The network as the telemetry recorder sees it: channel endpoints, with
/// index-ring neighbors flagged for the heatmap.
fn telemetry_topo(graph: &Graph, cfg: &SimConfig) -> TelemetryTopo {
    let n = graph.node_count();
    let channels = (0..graph.channel_count())
        .map(|c| {
            let (src, dst) = graph.channel_endpoints(c);
            let d = src.abs_diff(dst);
            ChannelDesc {
                src: src as u32,
                dst: dst as u32,
                ring: d.min(n - d) == 1,
            }
        })
        .collect();
    TelemetryTopo {
        nodes: n,
        vcs: cfg.vcs as usize,
        channels,
        measure_start: cfg.warmup_cycles,
        measure_end: cfg.warmup_cycles + cfg.measure_cycles,
    }
}
