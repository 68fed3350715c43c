//! Runtime fault injection with online reroute.
//!
//! A [`FaultPlan`] scripts link down/up events at given cycles —
//! hand-written ([`FaultPlan::single_link`], [`FaultPlan::burst`],
//! [`FaultPlan::flap`]) or seeded-random ([`FaultPlan::random_links`],
//! [`FaultPlan::random_connected`]). Switches do not fail on their own; a
//! switch whose links are all down is cut off. The plan executes as
//! *phase 0* of a cycle, before credit returns:
//!
//! 1. the [`EdgeMask`] marks the affected channels dead;
//! 2. packets straddling a dying channel (holding one of its output VCs
//!    or with flits on its wire) are dropped everywhere — buffers, wire,
//!    allocations — with their credits handed straight back (credit
//!    conservation is maintained continuously, so a later `LinkUp` revives
//!    the channel with no fixup);
//! 3. routing is rebuilt on the survivor graph
//!    ([`crate::routing::SimRouting::rebuild`]): up*/down* recomputes its
//!    forest via `dsn-route`; DSN custom routing keeps every packet on its
//!    automaton until the next channel is dead, then detours greedily,
//!    ring links first;
//! 4. a head whose every candidate channel is dead is dropped as
//!    unroutable;
//! 5. dropped packets may be re-sent by their source host after a timeout
//!    with exponential backoff ([`RetryPolicy`]).
//!
//! Every mutation goes through the helpers in `engine.rs`;
//! `tests/fault_equivalence.rs` holds the engine's [`crate::RunStats`]
//! bit-identical to the test suite's spec simulator under every fault
//! schedule shape.

use crate::engine::{
    decode_alloc, ovc_owner_of, owner_pack, owner_unpack, OutRef, Simulator, ALLOC_NONE,
    NO_UPSTREAM, OWNER_NONE,
};
use dsn_core::fault::{is_connected_masked, EdgeMask};
use dsn_core::graph::Graph;
use dsn_core::EdgeId;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Host-side reaction to a dropped packet: re-send after a timeout with
/// exponential backoff, up to a retry budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum re-sends per packet (0 = retries disabled).
    pub max_retries: u32,
    /// Cycles between a drop and the earliest re-send (clamped to >= 1).
    pub timeout_cycles: u64,
    /// Extra wait added per attempt: `backoff_cycles << attempt` (shift
    /// capped at 20).
    pub backoff_cycles: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::disabled()
    }
}

impl RetryPolicy {
    /// No retries: dropped packets stay dropped.
    pub fn disabled() -> Self {
        RetryPolicy {
            max_retries: 0,
            timeout_cycles: 0,
            backoff_cycles: 0,
        }
    }

    /// Retry up to `max_retries` times, waiting `timeout_cycles` plus
    /// `backoff_cycles << attempt` before each re-send.
    pub fn new(max_retries: u32, timeout_cycles: u64, backoff_cycles: u64) -> Self {
        RetryPolicy {
            max_retries,
            timeout_cycles,
            backoff_cycles,
        }
    }
}

/// One scripted fault action.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The link fails.
    LinkDown(EdgeId),
    /// The link is repaired.
    LinkUp(EdgeId),
}

/// A [`FaultKind`] scheduled at a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the event takes effect (phase 0 of that cycle).
    pub cycle: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A scripted fault schedule plus the host retry policy for the packets
/// it drops. Part of [`crate::SimConfig`]; an empty plan (the default)
/// makes the fault machinery zero-cost.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultPlan {
    /// The scheduled events; executed in `(cycle, list order)`.
    pub events: Vec<FaultEvent>,
    /// Host-side retry loop for dropped packets.
    pub retry: RetryPolicy,
}

impl FaultPlan {
    /// The empty plan: no faults.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// True when no events are scheduled.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// One link goes down at `cycle` and never recovers.
    pub fn single_link(edge: EdgeId, cycle: u64) -> Self {
        FaultPlan {
            events: vec![FaultEvent {
                cycle,
                kind: FaultKind::LinkDown(edge),
            }],
            ..FaultPlan::default()
        }
    }

    /// Several links go down at the same cycle (a correlated burst).
    pub fn burst(edges: &[EdgeId], cycle: u64) -> Self {
        FaultPlan {
            events: edges
                .iter()
                .map(|&e| FaultEvent {
                    cycle,
                    kind: FaultKind::LinkDown(e),
                })
                .collect(),
            ..FaultPlan::default()
        }
    }

    /// One link flaps: down at `first_down`, up `half_period` later, and so
    /// on for `flaps` down/up pairs.
    pub fn flap(edge: EdgeId, first_down: u64, half_period: u64, flaps: u32) -> Self {
        let mut events = Vec::with_capacity(2 * flaps as usize);
        for k in 0..flaps as u64 {
            events.push(FaultEvent {
                cycle: first_down + 2 * k * half_period,
                kind: FaultKind::LinkDown(edge),
            });
            events.push(FaultEvent {
                cycle: first_down + (2 * k + 1) * half_period,
                kind: FaultKind::LinkUp(edge),
            });
        }
        FaultPlan {
            events,
            ..FaultPlan::default()
        }
    }

    /// `count` seeded-random distinct links go down, one every `spacing`
    /// cycles starting at `first_cycle`. May disconnect the graph.
    pub fn random_links(
        g: &Graph,
        seed: u64,
        count: usize,
        first_cycle: u64,
        spacing: u64,
    ) -> Self {
        let mut state = seed;
        let mut dead = vec![false; g.edge_count()];
        let mut events = Vec::with_capacity(count);
        let mut attempts = 0usize;
        while events.len() < count && attempts < 64 * count.max(1) && g.edge_count() > 0 {
            attempts += 1;
            let e = (splitmix64(&mut state) % g.edge_count() as u64) as usize;
            if dead[e] {
                continue;
            }
            dead[e] = true;
            events.push(FaultEvent {
                cycle: first_cycle + events.len() as u64 * spacing,
                kind: FaultKind::LinkDown(e),
            });
        }
        FaultPlan {
            events,
            ..FaultPlan::default()
        }
    }

    /// Like [`Self::random_links`] but every chosen link is rejected if
    /// cutting it (together with the earlier picks) would disconnect the
    /// survivor graph — the schedule is guaranteed connectivity-preserving.
    /// Fewer than `count` events result when the graph runs out of
    /// removable links.
    pub fn random_connected(
        g: &Graph,
        seed: u64,
        count: usize,
        first_cycle: u64,
        spacing: u64,
    ) -> Self {
        let mut state = seed;
        let mut mask = EdgeMask::fully_alive(g);
        let mut events = Vec::with_capacity(count);
        let mut attempts = 0usize;
        while events.len() < count && attempts < 64 * count.max(1) && g.edge_count() > 0 {
            attempts += 1;
            let e = (splitmix64(&mut state) % g.edge_count() as u64) as usize;
            if !mask.edge_alive(e) {
                continue;
            }
            mask.set_edge(e, false);
            if is_connected_masked(g, &mask) {
                events.push(FaultEvent {
                    cycle: first_cycle + events.len() as u64 * spacing,
                    kind: FaultKind::LinkDown(e),
                });
            } else {
                mask.set_edge(e, true);
            }
        }
        FaultPlan {
            events,
            ..FaultPlan::default()
        }
    }

    /// Builder: set the retry policy.
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Builder: append one more event.
    pub fn with_event(mut self, cycle: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { cycle, kind });
        self
    }

    /// Cycle of the earliest scheduled event (`None` for an empty plan).
    /// Packets created at or after this cycle feed the post-fault latency
    /// statistics.
    pub fn first_fault_cycle(&self) -> Option<u64> {
        self.events.iter().map(|e| e.cycle).min()
    }
}

/// SplitMix64: a tiny deterministic generator so seeded schedules need no
/// external RNG crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// One pending re-send, ordered for the retry min-heap:
/// `(due_cycle, fifo_seq, src_host, dest_host, attempt, tag)`. The
/// workload tag rides along so a retried flow/stage packet keeps its
/// identity (`(due, fifo_seq)` is unique, so the tag never decides order).
type RetryEntry = (u64, u64, u32, u32, u32, crate::engine::PacketTag);

/// Per-run fault state hanging off the simulator (`Simulator::fault`,
/// `None` when the plan is empty), driven through
/// [`Simulator::process_faults`].
#[derive(Debug)]
pub(crate) struct FaultRuntime {
    /// Plan events sorted stably by cycle.
    events: Vec<FaultEvent>,
    /// Next unprocessed event.
    cursor: usize,
    /// Live view of the topology.
    pub(crate) mask: EdgeMask,
    retry: RetryPolicy,
    /// Pending re-sends: min-heap on `(due_cycle, fifo_seq)` with payload
    /// `(src_host, dest_host, attempt)`.
    pub(crate) retries: BinaryHeap<Reverse<RetryEntry>>,
    retry_seq: u64,
    pub(crate) dropped_all: u64,
    pub(crate) dropped_measured: u64,
    pub(crate) retried: u64,
    pub(crate) abandoned: u64,
    // Reusable scratch for the drop paths below (an arena, so a
    // fault-churn steady state stops allocating once the buffers reach
    // their high-water marks). Each is `mem::take`n for the duration of
    // one helper call and returned cleared.
    /// Channel-death victim list as `(uid, slab index)`
    /// ([`Simulator::kill_channel`]).
    victims: Vec<(u32, u32)>,
    /// Packets with flits on a dying wire.
    wire_pkts: Vec<u32>,
    /// `(channel, vc)` credits to refund for purged wire flits.
    wire_credits: Vec<(usize, u8)>,
}

impl FaultRuntime {
    pub(crate) fn new(g: &Graph, plan: &FaultPlan) -> Self {
        for ev in &plan.events {
            let (FaultKind::LinkDown(e) | FaultKind::LinkUp(e)) = ev.kind;
            assert!(e < g.edge_count(), "fault edge {e} out of range");
        }
        let mut events = plan.events.clone();
        events.sort_by_key(|e| e.cycle); // stable: same-cycle plan order kept
        FaultRuntime {
            events,
            cursor: 0,
            mask: EdgeMask::fully_alive(g),
            retry: plan.retry,
            retries: BinaryHeap::new(),
            retry_seq: 0,
            dropped_all: 0,
            dropped_measured: 0,
            retried: 0,
            abandoned: 0,
            victims: Vec::new(),
            wire_pkts: Vec::new(),
            wire_credits: Vec::new(),
        }
    }

    /// Earliest pending re-send cycle (for the event engine's idle skip).
    pub(crate) fn next_retry_cycle(&self) -> Option<u64> {
        self.retries.peek().map(|&Reverse((t, ..))| t)
    }
}

// ---------------------------------------------------------------------
// Fault-side mutation helpers on the simulator, called from `event::step`
// at the phase positions of the cycle contract.
// ---------------------------------------------------------------------

impl Simulator {
    /// Phase 0: apply every fault event due at or before `now`, then
    /// rebuild routing on the survivor graph once and wake every switch
    /// for the event core's allocation walk. The event core may
    /// reach this late after an idle skip — catching up several events in
    /// one call is unobservable, because skips only happen on an empty
    /// network and the rebuilt routing depends only on the final mask.
    pub(crate) fn process_faults(&mut self, now: u64) {
        let due = match &self.fault {
            Some(f) => f.cursor < f.events.len() && f.events[f.cursor].cycle <= now,
            None => return,
        };
        if !due {
            return;
        }
        loop {
            let ev = {
                let f = self.fault.as_mut().expect("fault runtime");
                if f.cursor >= f.events.len() || f.events[f.cursor].cycle > now {
                    break;
                }
                let ev = f.events[f.cursor];
                f.cursor += 1;
                ev
            };
            let mask = &mut self.fault.as_mut().expect("fault runtime").mask;
            match ev.kind {
                FaultKind::LinkDown(e) => {
                    if mask.set_edge(e, false) {
                        self.kill_channel(2 * e, now);
                        self.kill_channel(2 * e + 1, now);
                    }
                }
                FaultKind::LinkUp(e) => {
                    mask.set_edge(e, true);
                }
            }
        }
        self.rebuild_routing();
        // Mask changes, drops and the rebuild alter candidate sets without
        // a credit transition: wake every switch (these events are rare).
        self.node_dirty.fill(u64::MAX);
    }

    /// A directed channel died: every packet holding one of its output VCs
    /// or with flits on its wire is a victim. Victims are handled in uid
    /// (creation) order.
    fn kill_channel(&mut self, ch: usize, now: u64) {
        let f = self.fault.as_mut().expect("fault runtime");
        let mut victims = std::mem::take(&mut f.victims);
        let mut wire_pkts = std::mem::take(&mut f.wire_pkts);
        let slot = self.ch_slot[ch] as usize;
        for w in 0..self.nvc {
            let owner = ovc_owner_of(self.ovc_state[slot * self.nvc + w]);
            if owner == OWNER_NONE {
                continue;
            }
            let (i, v) = owner_unpack(owner);
            let iv = i * self.nvc + v as usize;
            debug_assert_ne!(self.ivc[iv].alloc, ALLOC_NONE);
            let pkt = self.ivc[iv].alloc_pkt;
            victims.push((self.packets.get(pkt).uid, pkt));
        }
        self.ev.wire_packets_on(ch, &mut wire_pkts);
        for &pkt in &wire_pkts {
            victims.push((self.packets.get(pkt).uid, pkt));
        }
        victims.sort_unstable_by_key(|&(uid, _)| uid);
        victims.dedup_by_key(|&mut (uid, _)| uid);
        for &(_, pkt) in &victims {
            self.fault_drop_packet(pkt, now);
        }
        victims.clear();
        wire_pkts.clear();
        let f = self.fault.as_mut().expect("fault runtime");
        f.victims = victims;
        f.wire_pkts = wire_pkts;
    }

    /// Drop one packet everywhere and account for it: counters, telemetry
    /// and the host retry schedule.
    fn fault_drop_packet(&mut self, pkt: u32, now: u64) {
        let (src, dest, attempt, measured, tag) = {
            let p = self.packets.get(pkt);
            (p.src_host, p.dest_host, p.attempt, p.measured, p.tag)
        };
        self.telemetry.on_dropped(pkt, now);
        self.drop_packet_everywhere(pkt, now);
        let f = self.fault.as_mut().expect("fault runtime");
        f.dropped_all += 1;
        if measured {
            f.dropped_measured += 1;
        }
        if attempt < f.retry.max_retries {
            let backoff = f
                .retry
                .backoff_cycles
                .saturating_mul(1u64 << attempt.min(20));
            let due = now + f.retry.timeout_cycles.max(1) + backoff;
            f.retries
                .push(Reverse((due, f.retry_seq, src, dest, attempt + 1, tag)));
            f.retry_seq += 1;
        } else {
            f.abandoned += 1;
        }
    }

    /// The head packet of `(i, v)` has no usable route on the survivor
    /// graph: drop it (phase-4 outcome [`crate::engine::AllocOutcome::Unroutable`]).
    pub(crate) fn unroutable_drop(&mut self, i: usize, v: usize, now: u64) {
        let pkt = self
            .buf_front(i * self.nvc + v)
            .expect("unroutable head")
            .packet;
        self.fault_drop_packet(pkt, now);
    }

    /// Erase a packet from the whole network: purge its flits from every
    /// input-VC buffer and every wire, release its allocations, hand every
    /// purged flit's credit straight back upstream (keeping credit
    /// conservation exact at all times), re-arm any revealed next head, and
    /// retire the slab slot.
    pub(crate) fn drop_packet_everywhere(&mut self, pkt: u32, now: u64) {
        for i in 0..self.n_inputs {
            for v in 0..self.vc_count(i) {
                let iv = i * self.nvc + v;
                let had_alloc = self.ivc[iv].alloc != ALLOC_NONE && self.ivc[iv].alloc_pkt == pkt;
                let front_was = self.buf_front(iv).is_some_and(|f| f.packet == pkt);
                if !had_alloc && !front_was && !self.buf_contains_packet(iv, pkt) {
                    continue;
                }
                let removed = self.buf_retain_not_packet(iv, pkt);
                let cleared_alloc = if had_alloc {
                    decode_alloc(std::mem::replace(&mut self.ivc[iv].alloc, ALLOC_NONE))
                } else {
                    None
                };
                let reveal = had_alloc || front_was;
                if reveal {
                    self.ivc[iv].ready = u64::MAX;
                }
                self.buffered_flits -= removed as u64;
                if let Some(OutRef::Net { channel, vc }) = cleared_alloc {
                    self.release_output_vc(channel, vc, owner_pack(i, v as u8));
                }
                let up = self.input_upstream[i];
                if up != NO_UPSTREAM {
                    for _ in 0..removed {
                        self.apply_credit(up as usize, v as u8);
                    }
                }
                if reveal {
                    if let Some(head) = self.buf_front(iv) {
                        debug_assert_eq!(head.seq, 0, "packets stream whole, in order");
                        self.arm_header(i, v, now);
                    }
                }
            }
        }
        let mut wire =
            std::mem::take(&mut self.fault.as_mut().expect("fault runtime").wire_credits);
        self.ev.purge_link_flits(pkt, now, &mut wire);
        for &(ch, vc) in &wire {
            self.apply_credit(ch, vc);
        }
        wire.clear();
        self.fault.as_mut().expect("fault runtime").wire_credits = wire;
        self.packets.retire(pkt);
    }

    /// Phase 3 (after the batch, before regular host injections): re-send
    /// every dropped packet whose retry timer expired, in `(due, fifo)`
    /// order.
    pub(crate) fn inject_retries(&mut self, now: u64) {
        loop {
            let (src, dest, attempt, tag) = {
                let Some(f) = self.fault.as_mut() else { return };
                match f.retries.peek() {
                    Some(&Reverse((due, _, src, dest, attempt, tag))) if due <= now => {
                        f.retries.pop();
                        f.retried += 1;
                        (src as usize, dest as usize, attempt, tag)
                    }
                    _ => return,
                }
            };
            self.enqueue_packet_tagged(now, src, dest, attempt, tag);
        }
    }

    /// Swap in routing rebuilt for the survivor graph and restart the
    /// up*/down* phase of every live packet, so a stale escape phase does
    /// not leak into the new forest. `RouteState::alg` is kept: DSN-V
    /// packets stay on their automaton until it points at a dead channel.
    fn rebuild_routing(&mut self) {
        let mask = self.fault.as_ref().expect("fault runtime").mask.clone();
        let rebuilt = match &self.routing_cache {
            Some(cache) => cache.rebuild(&self.graph, &self.routing, &mask),
            None => self.routing.rebuild(&self.graph, &mask),
        };
        let rebuilt = rebuilt.unwrap_or_else(|| {
            panic!(
                "routing scheme '{}' does not support online reroute under faults",
                self.routing.name()
            )
        });
        self.routing = rebuilt;
        self.packets
            .for_each_live_mut(|p| p.route.ud_phase = dsn_route::updown::UdPhase::Up);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsn_core::dsn::Dsn;

    #[test]
    fn flap_alternates_down_up() {
        let p = FaultPlan::flap(3, 100, 50, 2);
        let got: Vec<_> = p.events.iter().map(|e| (e.cycle, e.kind)).collect();
        assert_eq!(
            got,
            vec![
                (100, FaultKind::LinkDown(3)),
                (150, FaultKind::LinkUp(3)),
                (200, FaultKind::LinkDown(3)),
                (250, FaultKind::LinkUp(3)),
            ]
        );
    }

    #[test]
    fn burst_hits_every_edge_at_one_cycle() {
        let p = FaultPlan::burst(&[1, 4, 9], 77);
        assert_eq!(p.events.len(), 3);
        assert!(p.events.iter().all(|e| e.cycle == 77));
        assert_eq!(p.first_fault_cycle(), Some(77));
        assert!(FaultPlan::none().first_fault_cycle().is_none());
    }

    #[test]
    fn random_links_is_deterministic_and_distinct() {
        let g = Dsn::new(64, 5).unwrap().into_graph();
        let a = FaultPlan::random_links(&g, 9, 6, 100, 10);
        let b = FaultPlan::random_links(&g, 9, 6, 100, 10);
        assert_eq!(a, b, "seeded schedule must be reproducible");
        let mut edges: Vec<_> = a
            .events
            .iter()
            .map(|e| match e.kind {
                FaultKind::LinkDown(id) => id,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        assert_eq!(a.events.len(), 6);
        edges.sort_unstable();
        edges.dedup();
        assert_eq!(edges.len(), 6, "edges must be distinct");
    }

    #[test]
    fn random_connected_preserves_connectivity() {
        let g = Dsn::new(64, 5).unwrap().into_graph();
        let p = FaultPlan::random_connected(&g, 42, 8, 100, 10);
        assert_eq!(p.events.len(), 8);
        let mut mask = EdgeMask::fully_alive(&g);
        for ev in &p.events {
            let FaultKind::LinkDown(e) = ev.kind else {
                panic!("unexpected {:?}", ev.kind)
            };
            mask.set_edge(e, false);
            assert!(
                is_connected_masked(&g, &mask),
                "survivor disconnected after killing edge {e}"
            );
        }
    }

    #[test]
    fn retry_policy_disabled_by_default() {
        assert_eq!(FaultPlan::none().retry, RetryPolicy::disabled());
    }
}
