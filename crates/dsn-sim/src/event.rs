//! Event-driven scheduling core for the [`crate::engine::Simulator`].
//!
//! The cycle contract (DESIGN.md §6) is stated as a scan of every input
//! VC, output channel and link in ascending order, every cycle; this core
//! touches only the units with pending work, in the same order, so a
//! cycle's effects are the ones the full scan gives (the test suite's spec
//! simulator runs that scan and must agree on [`crate::RunStats`] bit for
//! bit):
//!
//! * *delay lines* hold the cycle-stamped events — credit returns, link
//!   arrivals and header-delay expiries — in one FIFO ring per (kind,
//!   delay), replacing the per-channel `VecDeque` front-polling. Each
//!   kind waits one fixed delay, so push order is due order and a cycle
//!   pops a prefix; route expiries take two lines, for heads armed in the
//!   push cycle and in the cycle after. A line holds only the events in
//!   flight: `delay` cycles of pushes, or one expiry per input VC;
//! * *active sets* track the input VCs eligible for allocation, the
//!   channels with at least one owned output VC, and the VCs holding an
//!   ejection grant; each phase iterates its set in sorted index order,
//!   which is exactly the order of the full scan restricted to units whose
//!   state could change, so round-robin pointers advance identically;
//! * a *calendar heap* of `(cycle, host)` pairs pops injections in the
//!   same (cycle, host-ascending) order a per-cycle host scan produces, at
//!   O(log hosts) per injection instead of O(hosts) per cycle;
//! * the allocation phase attempts a pending head only when it is *fresh*
//!   (its route expiry landed this cycle) or its switch was *woken*. The
//!   wake invariant: every transition that can turn a blocked attempt
//!   into a grant marks the head's switch in [`Simulator::node_dirty`].
//!   Those are an output VC turning grantable
//!   ([`Simulator::apply_credit`], [`Simulator::release_output_vc`]) and
//!   a fault event ([`Simulator::process_faults`] wakes every switch).
//!   Any other pending head would block again, so [`step_alloc`] skips it;
//!   this holds under fault plans and with telemetry on alike;
//! * when no event, injection or active unit exists the clock jumps
//!   straight to the next injection — safe because a live packet always
//!   keeps at least one set or delay line nonempty, and an idle network
//!   has zero stall by definition.
//!
//! Telemetry hooks (`dsn-telemetry`) live exclusively in the mutation
//! helpers of `engine.rs`, never in this scheduling loop, and fire at the
//! cycle of the event they report, so the exported telemetry — like
//! `RunStats` — is byte-identical to the spec simulator's
//! (`tests/telemetry_equivalence.rs`). Intra-cycle hook order may differ
//! from a full scan's (e.g. delay-line vs channel-scan order for link
//! arrivals), which is harmless because every telemetry accumulator is
//! commutative within a cycle and at most one flit per (channel, VC)
//! moves per cycle.

use crate::engine::{alloc_is_eject, AllocOutcome, Flit, Simulator, ALLOC_NONE};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Credit return to output VC `(ch, vc)`.
type CreditEv = (u32, u8);
/// Flit arriving at the downstream input of `ch` on `vc`.
type LinkEv = (u32, u8, Flit);
/// Input VC (`input * nvc + vc`) whose header delay expired.
type RouteEv = u32;

/// Route line of the heads armed in the cycle of the push.
const ARMED_NOW: usize = 0;
/// Route line of the heads armed for the cycle after the push (a head
/// revealed by a tail leaving, `Simulator::release_input_vc`).
const ARMED_NEXT: usize = 1;

/// A delay line: a FIFO of events that all wait one fixed delay from
/// their push cycle. The clock only moves forward, so push order is due
/// order and the events due at `now` are always a prefix of the ring.
/// `due_counts[due & mask]` counts the pending events per due cycle: the
/// pending dues span at most `delay + 1` consecutive cycles, no more than
/// the table's power-of-two length, so the drain reads the prefix length
/// in O(1) and a purge keeps every count exact.
#[derive(Debug)]
struct DelayLine<T> {
    ring: VecDeque<T>,
    due_counts: Vec<u32>,
}

impl<T> Default for DelayLine<T> {
    /// An empty placeholder (no allocation), swapped in while the real
    /// line is taken out for a drain pass; a push onto it panics.
    fn default() -> Self {
        DelayLine {
            ring: VecDeque::new(),
            due_counts: Vec::new(),
        }
    }
}

impl<T: Copy> DelayLine<T> {
    fn new(delay: u64) -> Self {
        DelayLine {
            ring: VecDeque::new(),
            due_counts: vec![0; (delay as usize + 1).next_power_of_two()],
        }
    }

    #[inline]
    fn count_slot(&self, due: u64) -> usize {
        due as usize & (self.due_counts.len() - 1)
    }

    #[inline]
    fn push(&mut self, due: u64, ev: T) {
        let s = self.count_slot(due);
        self.due_counts[s] += 1;
        self.ring.push_back(ev);
    }

    fn len(&self) -> usize {
        self.ring.len()
    }

    /// Reserve room for `want` pending events in total.
    fn reserve(&mut self, want: usize) {
        if self.ring.capacity() < want {
            self.ring.reserve_exact(want - self.ring.len());
        }
    }

    /// Heap bytes reserved (ring capacity plus the count table).
    fn bytes(&self) -> usize {
        self.ring.capacity() * std::mem::size_of::<T>() + self.due_counts.len() * 4
    }

    /// Remove the events due at `now` and hand them to `apply` in push
    /// order, as the ring's up to two contiguous slices.
    fn drain_due(&mut self, now: u64, mut apply: impl FnMut(&[T])) {
        let s = self.count_slot(now);
        let n = std::mem::take(&mut self.due_counts[s]) as usize;
        if n == 0 {
            return;
        }
        let (a, b) = self.ring.as_slices();
        if n <= a.len() {
            apply(&a[..n]);
        } else {
            apply(a);
            apply(&b[..n - a.len()]);
        }
        self.ring.drain(..n);
    }

    /// Remove every event `gone` selects. Every pending event is due in
    /// `now..=now + delay`, so walking the count table from `now` in ring
    /// order names each event's due cycle.
    fn purge(&mut self, now: u64, mut gone: impl FnMut(&T) -> bool) {
        debug_assert_eq!(
            self.due_counts.iter().map(|&c| c as usize).sum::<usize>(),
            self.ring.len()
        );
        let mask = self.due_counts.len() - 1;
        let counts = &mut self.due_counts;
        let mut slot = now as usize & mask;
        let mut left = counts[slot];
        self.ring.retain(|ev| {
            while left == 0 {
                slot = (slot + 1) & mask;
                left = counts[slot];
            }
            left -= 1;
            let hit = gone(ev);
            if hit {
                counts[slot] -= 1;
            }
            !hit
        });
    }
}

/// A set of active unit indices iterated in sorted order once per phase.
/// Stored as a bitmap over the (small, fixed) unit domain: membership ops
/// are single-word bit twiddles, the live count keeps the emptiness check
/// O(1) for the idle skip, and a snapshot walks the words with
/// `trailing_zeros`, yielding ascending order for free — no per-cycle
/// sort/dedup pass.
#[derive(Debug)]
struct ActiveSet {
    words: Vec<u64>,
    live: usize,
}

impl ActiveSet {
    fn new(domain: usize) -> Self {
        ActiveSet {
            words: vec![0; domain.div_ceil(64)],
            live: 0,
        }
    }

    #[inline]
    fn insert(&mut self, id: u32) {
        let (w, bit) = ((id >> 6) as usize, 1u64 << (id & 63));
        if self.words[w] & bit == 0 {
            self.words[w] |= bit;
            self.live += 1;
        }
    }

    #[inline]
    fn remove(&mut self, id: u32) {
        let (w, bit) = ((id >> 6) as usize, 1u64 << (id & 63));
        if self.words[w] & bit != 0 {
            self.words[w] &= !bit;
            self.live -= 1;
        }
    }

    #[inline]
    fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Copy the live members, sorted ascending, into `out` (cleared first).
    fn snapshot_sorted(&self, out: &mut Vec<u32>) {
        out.clear();
        if self.live == 0 {
            return;
        }
        for (wi, &word) in self.words.iter().enumerate() {
            let mut m = word;
            while m != 0 {
                out.push(((wi as u32) << 6) | m.trailing_zeros());
                m &= m - 1;
            }
        }
    }
}

/// Event-engine state hanging off the simulator (`Simulator::ev`). The
/// mutation helpers in `engine.rs` feed the delay lines; the step loop
/// below maintains the three active sets.
#[derive(Debug)]
pub(crate) struct EventState {
    /// Credit returns, due `max(credit_delay, 1)` after the push.
    credits: DelayLine<CreditEv>,
    /// Link arrivals, due `max(link_delay, 1)` after the push.
    links: DelayLine<LinkEv>,
    /// Route expiries, due `max(header_delay, 1)` after the arm cycle:
    /// one line for heads armed in the push cycle ([`ARMED_NOW`]), one
    /// for heads armed the cycle after ([`ARMED_NEXT`]).
    routes: [DelayLine<RouteEv>; 2],
    /// Input VCs whose head packet is armed, expired and unallocated.
    alloc_pending: ActiveSet,
    /// Channels with at least one owned output VC.
    out_active: ActiveSet,
    /// Input VCs holding an ejection grant.
    eject_active: ActiveSet,
    /// `(next_injection_cycle, host)` calendar, min-ordered.
    inj_heap: BinaryHeap<Reverse<(u64, u32)>>,
    /// Scratch for per-phase snapshots.
    scratch: Vec<u32>,
    /// Bitmap (same word layout as `alloc_pending`) of input VCs whose
    /// route expiry landed *this cycle*: they get their first allocation
    /// attempt unconditionally. Cleared after each allocation phase.
    fresh: Vec<u64>,
    /// The switches woken for the current allocation walk: `node_dirty`
    /// as it stood when the walk began (see [`step_alloc`]). All zero
    /// outside the walk.
    wake: Vec<u64>,
    /// VC stride for encoding `(input, vc)` pairs as a single index.
    nvc: u32,
}

impl EventState {
    /// Empty delay lines and sets for a network of `nodes` switches,
    /// `channels` channels and `hosts` hosts at `nvc` VCs per channel; the
    /// caller fills the injection calendar.
    pub(crate) fn new(
        cfg: &crate::config::SimConfig,
        nvc: usize,
        channels: usize,
        hosts: usize,
        nodes: usize,
    ) -> Self {
        let iv_domain = (channels + hosts) * nvc;
        let header_delay = cfg.header_delay.max(1);
        EventState {
            credits: DelayLine::new(cfg.credit_delay.max(1)),
            links: DelayLine::new(cfg.link_delay.max(1)),
            routes: [
                DelayLine::new(header_delay),
                DelayLine::new(header_delay + 1),
            ],
            alloc_pending: ActiveSet::new(iv_domain),
            out_active: ActiveSet::new(channels),
            eject_active: ActiveSet::new(iv_domain),
            inj_heap: BinaryHeap::with_capacity(hosts),
            scratch: Vec::with_capacity(iv_domain),
            fresh: vec![0; iv_domain.div_ceil(64)],
            wake: vec![0; nodes.div_ceil(64)],
            nvc: nvc as u32,
        }
    }

    #[inline]
    fn iv(&self, i: usize, v: usize) -> u32 {
        i as u32 * self.nvc + v as u32
    }

    #[inline]
    fn iv_decode(&self, iv: u32) -> (usize, usize) {
        ((iv / self.nvc) as usize, (iv % self.nvc) as usize)
    }

    /// Schedule the route expiry of `(i, v)` at `t`; `armed_next` says the
    /// head was armed for the cycle after this one.
    pub(crate) fn schedule_route(&mut self, t: u64, i: usize, v: usize, armed_next: bool) {
        let iv = self.iv(i, v);
        self.routes[armed_next as usize].push(t, iv);
    }

    pub(crate) fn schedule_link(&mut self, t: u64, ch: usize, flit: Flit, vc: u8) {
        self.links.push(t, (ch as u32, vc, flit));
    }

    pub(crate) fn schedule_credit(&mut self, t: u64, ch: usize, vc: u8) {
        self.credits.push(t, (ch as u32, vc));
    }

    pub(crate) fn schedule_injection(&mut self, t: u64, host: usize) {
        self.inj_heap.push(Reverse((t, host as u32)));
    }

    /// Events scheduled on the delay lines (for the idle-skip check).
    fn pending(&self) -> usize {
        self.credits.len()
            + self.links.len()
            + self.routes.iter().map(DelayLine::len).sum::<usize>()
    }

    /// Pre-reserve the delay lines for a saturated steady state. Each
    /// kind waits one fixed delay, so a line holds at most `delay` cycles
    /// of pushes, and hard per-cycle caps bound those: one link flit per
    /// channel, and one credit per channel (a flit leaves each input at
    /// most once per cycle, and only network inputs return credits). Each
    /// route line holds at most one expiry per armable input VC,
    /// `route_ivs`: every VC of a channel input, VC 0 of a host input.
    /// Called once at the warmup→measure boundary
    /// (`Simulator::presize_steady_state`).
    pub(crate) fn presize_steady_state(
        &mut self,
        channels: usize,
        route_ivs: usize,
        link_delay: u64,
        credit_delay: u64,
    ) {
        self.links.reserve(link_delay as usize * channels);
        self.credits.reserve(credit_delay as usize * channels);
        for line in &mut self.routes {
            line.reserve(route_ivs);
        }
    }

    /// Heap bytes the delay lines reserve.
    pub(crate) fn queue_bytes(&self) -> usize {
        self.credits.bytes()
            + self.links.bytes()
            + self.routes.iter().map(DelayLine::bytes).sum::<usize>()
    }

    /// Packets with a flit currently in flight on channel `ch`, appended to
    /// `out` (cleared first; the caller owns the reusable buffer). Scans
    /// the whole link line; fault-path only, so the cost is fine.
    pub(crate) fn wire_packets_on(&self, ch: usize, out: &mut Vec<u32>) {
        out.clear();
        for &(c, _, flit) in &self.links.ring {
            if c as usize == ch {
                out.push(flit.packet);
            }
        }
    }

    /// Remove every in-flight link event carrying a flit of `pkt`, writing
    /// the `(channel, vc)` of each removed flit into `out` (cleared first)
    /// so the caller can refund its credit. Fault-path only.
    pub(crate) fn purge_link_flits(&mut self, pkt: u32, now: u64, out: &mut Vec<(usize, u8)>) {
        out.clear();
        self.links.purge(now, |&(ch, vc, flit)| {
            let gone = flit.packet == pkt;
            if gone {
                out.push((ch as usize, vc));
            }
            gone
        });
    }
}

/// Advance the event engine by one cycle (possibly skipping idle cycles at
/// the end), in the phase order of the cycle contract: faults, credits,
/// link arrivals, injection, allocation, traversal, ejection, watchdog.
pub(crate) fn step(sim: &mut Simulator, total: u64) {
    let now = sim.now;
    let mut stamp = sim.phase_stamp();

    // Phase 0: faults due at or before this cycle (the idle skip may have
    // jumped over fault cycles — safe, because it only fires on an empty
    // network and the routing rebuild is a pure function of the final mask).
    sim.process_faults(now);

    // Phases 1+2 (+ route expiries): drain this cycle's due events kind
    // by kind, so credits land before arrivals, before eligibility — the
    // contract's phase order. At most one credit and one arrival exist per
    // (channel, VC) per cycle, so ordering within a kind is immaterial.
    // The credit/link loops live in `engine.rs`
    // ([`Simulator::drain_credits`] / [`Simulator::drain_links`]) so the
    // per-event helpers inline against hoisted field loads. Each line is
    // taken out for its own pass (a move, no allocation) so the handlers
    // may borrow the simulator. Link arrivals arm route expiries, so the
    // route lines stay in place until their turn; a push onto a taken
    // line's empty placeholder would panic.
    let mut credits = std::mem::take(&mut sim.ev.credits);
    credits.drain_due(now, |c| sim.drain_credits(c));
    sim.ev.credits = credits;
    let mut links = std::mem::take(&mut sim.ev.links);
    links.drain_due(now, |f| sim.drain_links(f, now));
    sim.ev.links = links;
    let mut routes = std::mem::take(&mut sim.ev.routes);
    drain_routes(&mut routes, now, |r| route_expiries(sim, r, now));
    sim.ev.routes = routes;
    sim.phase_mark(&mut stamp, crate::timing::Phase::Wheel);

    // Phase 3: injection — pop the calendar in (cycle, host) order, which
    // is the ascending-host order of the contract for this cycle.
    if now == 0 && !sim.pending_batch.is_empty() {
        let batch = std::mem::take(&mut sim.pending_batch);
        for (src, dest) in batch {
            sim.enqueue_packet(now, src, dest);
        }
    }
    sim.drain_staged_ready(now);
    sim.inject_retries(now);
    loop {
        let host = {
            let es = &mut sim.ev;
            match es.inj_heap.peek() {
                Some(&Reverse((t, h))) if t == now => {
                    es.inj_heap.pop();
                    h as usize
                }
                _ => break,
            }
        };
        // fire_host re-schedules the host's next injection via self.ev.
        sim.fire_host(host, now);
    }
    sim.phase_mark(&mut stamp, crate::timing::Phase::Inject);

    // Phase 4: allocation over the eligible input VCs in (input, vc)
    // order — the contract's scan order restricted to eligible units.
    step_alloc(sim, now);
    sim.phase_mark(&mut stamp, crate::timing::Phase::Route);

    // Phase 5a: switch allocation + sends over channels with owners, in
    // channel order (an ownerless channel cannot send).
    let mut scratch = {
        let es = &mut sim.ev;
        let mut s = std::mem::take(&mut es.scratch);
        es.out_active.snapshot_sorted(&mut s);
        s
    };
    for &ch in &scratch {
        sim.grant_channel(ch as usize, now);
        // Deactivate whenever no owner remains — not only after a tail
        // send, since a fault drop can strip ownership mid-stream.
        if sim.chv[sim.ch_slot[ch as usize] as usize].owned == 0 {
            sim.ev.out_active.remove(ch);
        }
    }
    sim.phase_mark(&mut stamp, crate::timing::Phase::Arbitrate);

    // Phase 5b: ejection over VCs holding an eject grant, in (input, vc)
    // order — the contract's whole-input scan restricted to grants.
    {
        let es = &mut sim.ev;
        let mut s = scratch;
        es.eject_active.snapshot_sorted(&mut s);
        scratch = s;
    }
    for &iv in &scratch {
        let (i, v) = sim.ev.iv_decode(iv);
        // A fault drop may have stripped the grant since the snapshot.
        if !alloc_is_eject(sim.ivc[iv as usize].alloc) {
            sim.ev.eject_active.remove(iv);
            continue;
        }
        if sim.try_eject_vc(i, v, now) {
            sim.ev.eject_active.remove(iv);
        }
    }
    sim.ev.scratch = scratch;

    sim.clear_used();
    sim.watchdog(now);
    sim.phase_mark(&mut stamp, crate::timing::Phase::Eject);
    if let Some(t) = &mut sim.phase_timers {
        t.cycles += 1;
    }
    sim.now = now + 1;

    // Idle skip: with no scheduled events and no active unit, nothing can
    // happen before the next injection (the bound `total` is the caller's
    // stepping target, so the jump never overshoots it). A live packet always keeps a set
    // or delay line nonempty (its flits are buffered → allocated/armed/
    // pending, or on a link → link line), so skipping implies zero packets
    // in flight and the stall watchdog is vacuously idle across the gap.
    let es = &sim.ev;
    if es.pending() == 0
        && es.alloc_pending.is_empty()
        && es.out_active.is_empty()
        && es.eject_active.is_empty()
        && sim.staged_ready.is_empty()
        // A just-completed closed batch empties everything above; without
        // this guard the skip would fast-forward `now` to the horizon
        // before the caller's batch_done() check, pushing the telemetry
        // `final_cycle` past the batch's last cycle.
        && !sim.batch_done()
    {
        debug_assert_eq!(sim.packets.live(), 0);
        debug_assert_eq!(sim.current_stall, 0);
        let next_inj = es.inj_heap.peek().map_or(u64::MAX, |&Reverse((t, _))| t);
        let next_retry = sim
            .fault
            .as_ref()
            .and_then(|f| f.next_retry_cycle())
            .unwrap_or(u64::MAX);
        sim.now = sim.now.max(next_inj.min(next_retry).min(total));
    }
}

/// Drain the route expiries due at `now` in the order a single queue fed
/// in push order would hold them: the heads armed for the next cycle were
/// pushed a cycle before the heads armed in their push cycle.
fn drain_routes(lines: &mut [DelayLine<RouteEv>; 2], now: u64, mut apply: impl FnMut(&[RouteEv])) {
    for line in [ARMED_NEXT, ARMED_NOW] {
        lines[line].drain_due(now, &mut apply);
    }
}

/// Route expiries due now: each valid one makes its head pending and fresh.
fn route_expiries(sim: &mut Simulator, ivs: &[RouteEv], now: u64) {
    for &iv in ivs {
        // The delay lines' iv ids index the simulator's SoA arrays
        // directly (same `input * nvc + vc` stride).
        let unit = iv as usize;
        // Without faults a route expiry always finds the armed head
        // still waiting: allocation cannot have happened before the
        // timer ran out, and re-arming implies the previous packet
        // already left. A fault purge can orphan an expiry; a stale
        // event can never collide with a fresh arm's ready cycle
        // (old ready = T + hd with T < now < now + hd = new ready),
        // so `ivc.ready == now` is a precise validity test.
        let valid = sim.ivc[unit].ready == now && head_eligible(sim, unit, now);
        debug_assert!(
            valid || sim.fault.is_some(),
            "stale route expiry without faults"
        );
        if valid {
            let es = &mut sim.ev;
            es.alloc_pending.insert(iv);
            // The first attempt is unconditional (see `step_alloc`).
            es.fresh[(iv >> 6) as usize] |= 1u64 << (iv & 63);
        }
    }
}

/// True when input VC `unit` holds an armed, expired, unallocated head:
/// the condition for membership in `alloc_pending`.
fn head_eligible(sim: &Simulator, unit: usize, now: u64) -> bool {
    sim.ivc[unit].alloc == ALLOC_NONE
        && sim.ivc[unit].ready <= now
        && sim.buf_front(unit).is_some_and(|f| f.seq == 0)
}

/// Phase 4: VC allocation over the pending heads in ascending iv order,
/// the contract's scan order. Only fresh heads and heads at a woken
/// switch are attempted (the wake invariant, module docs). A blocked
/// attempt changes nothing but the `on_alloc_blocked` telemetry hook, so
/// a skipped head fires that hook itself, and the walk is bit-identical
/// to attempting every head (`tests/sim_equivalence.rs` checks it against
/// the spec simulator, which attempts every head).
///
/// The walk begins by swapping `node_dirty` into `wake`. A mark set during
/// the walk, by the credits an unroutable drop hands back, lands in the
/// emptied `node_dirty`: it wakes the switch's heads later in this walk
/// and survives into the next one, where its earlier heads get their
/// retry. Entries go stale only through fault purges. A purge in
/// [`Simulator::process_faults`] wakes every switch, and an unroutable
/// drop's purge leaves only its own entry stale, which is removed on the
/// spot. So only attempted entries need the eligibility recheck.
fn step_alloc(sim: &mut Simulator, now: u64) {
    let nvc = sim.nvc;
    let (mut wake, nwords) = {
        let es = &mut sim.ev;
        (std::mem::take(&mut es.wake), es.alloc_pending.words.len())
    };
    std::mem::swap(&mut wake, &mut sim.node_dirty);
    for wi in 0..nwords {
        let (mut m, fresh) = {
            let es = &mut sim.ev;
            (es.alloc_pending.words[wi], es.fresh[wi])
        };
        while m != 0 {
            let bit = m & m.wrapping_neg();
            let iv = ((wi as u32) << 6) | m.trailing_zeros();
            m &= m - 1;
            let unit = iv as usize;
            if fresh & bit == 0 {
                let node = sim.iv_node[unit] as usize;
                let (w, b) = (node >> 6, 1u64 << (node & 63));
                if (wake[w] | sim.node_dirty[w]) & b == 0 {
                    debug_assert!(head_eligible(sim, unit, now), "skipped a stale alloc entry");
                    sim.telemetry.on_alloc_blocked(node as u32, now);
                    continue;
                }
            }
            if head_eligible(sim, unit, now) {
                let (i, v) = (unit / nvc, unit % nvc);
                match sim.try_allocate_vc(i, v, now) {
                    AllocOutcome::Blocked => continue,
                    AllocOutcome::Eject => sim.ev.eject_active.insert(iv),
                    AllocOutcome::Net(ch) => sim.ev.out_active.insert(ch as u32),
                    AllocOutcome::Unroutable => sim.unroutable_drop(i, v, now),
                }
            } else {
                debug_assert!(sim.fault.is_some(), "stale alloc entry without faults");
            }
            sim.ev.alloc_pending.remove(iv);
        }
    }
    wake.fill(0);
    let es = &mut sim.ev;
    es.fresh.fill(0);
    es.wake = wake;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SimConfig;
    use crate::fault::FaultPlan;
    use crate::routing::AdaptiveEscape;
    use crate::traffic::TrafficPattern;
    use dsn_core::ring::Ring;
    use std::sync::Arc;

    /// Drain `line` at `now`, collecting the events in drain order.
    fn drained<T: Copy>(line: &mut DelayLine<T>, now: u64) -> Vec<T> {
        let mut out = Vec::new();
        line.drain_due(now, |evs| out.extend_from_slice(evs));
        out
    }

    fn flit(packet: u32, seq: u16) -> Flit {
        Flit { packet, seq }
    }

    #[test]
    fn event_record_sizes_are_pinned() {
        // The in-flight bound `tests/zero_alloc.rs` gates on counts these.
        assert_eq!(std::mem::size_of::<LinkEv>(), 16);
        assert_eq!(std::mem::size_of::<CreditEv>(), 8);
        assert_eq!(std::mem::size_of::<RouteEv>(), 4);
    }

    #[test]
    fn route_lines_drain_in_single_queue_push_order() {
        let hd = 3;
        let mut lines = [DelayLine::new(hd), DelayLine::new(hd + 1)];
        // A reference queue stamped with due cycles, fed in push order.
        let mut reference: Vec<(u64, u32)> = Vec::new();
        // Per cycle, in step order: the drain, then the arms. Cycle 10
        // reveals two heads for cycle 11 and arms one now; cycle 11's
        // arm-now heads land with cycle 10's arm-next ones.
        let arms: [&[(u32, bool)]; 2] = [
            &[(5, true), (1, false), (7, true)],
            &[(2, false), (9, true), (0, false)],
        ];
        for now in 10..=16 {
            let mut got = Vec::new();
            drain_routes(&mut lines, now, |ivs| got.extend_from_slice(ivs));
            let want: Vec<u32> = reference
                .iter()
                .filter(|&&(due, _)| due == now)
                .map(|&(_, iv)| iv)
                .collect();
            assert_eq!(got, want, "cycle {now}");
            for &(iv, next) in arms.get(now as usize - 10).copied().unwrap_or(&[]) {
                let due = now + next as u64 + hd;
                lines[next as usize].push(due, iv);
                reference.push((due, iv));
            }
        }
        assert_eq!(reference.iter().filter(|r| r.0 == 14).count(), 4);
        assert_eq!(lines[0].len() + lines[1].len(), 0);
        assert!(lines.iter().all(|l| l.due_counts.iter().all(|&c| c == 0)));
    }

    #[test]
    fn purge_spans_due_cycles_and_ring_wrap() {
        let mut line: DelayLine<LinkEv> = DelayLine::new(3);
        line.reserve(8);
        // Advance the ring head so later pushes wrap the buffer.
        for seq in 0..3 {
            line.push(1, (0, 0, flit(9, seq)));
        }
        line.push(2, (0, 0, flit(9, 3)));
        assert_eq!(drained(&mut line, 1).len(), 3);
        // Packet 4 has a flit due at each of cycles 3, 4 and 5.
        for (t, seq) in [(3, 0), (4, 1), (5, 2)] {
            line.push(t, (1, 0, flit(4, seq)));
            line.push(t, (2, 1, flit(6, seq)));
        }
        assert!(
            !line.ring.as_slices().1.is_empty(),
            "pushes must wrap the ring"
        );
        assert_eq!(drained(&mut line, 2), [(0, 0, flit(9, 3))]);

        let mut sim = faultable_sim();
        let es = &mut sim.ev;
        es.links = line;
        let mut on_wire = Vec::new();
        es.wire_packets_on(1, &mut on_wire);
        assert_eq!(on_wire, [4, 4, 4]);
        // Purge at phase 0 of cycle 3 (nothing drained yet this cycle).
        let mut refunds = Vec::new();
        es.purge_link_flits(4, 3, &mut refunds);
        assert_eq!(refunds, [(1, 0); 3]);
        assert_eq!(es.pending(), 3);
        let line = &mut es.links;
        for (t, seq) in [(3, 0), (4, 1), (5, 2)] {
            assert_eq!(drained(line, t), [(2, 1, flit(6, seq))], "cycle {t}");
        }
        assert_eq!(line.len(), 0);
        assert!(line.due_counts.iter().all(|&c| c == 0));
    }

    /// A ring of 8 switches, no injection of its own,
    /// a fault plan (beyond the horizon) so the fault purge path exists,
    /// and a 3-cycle link so a packet's flits span several due cycles.
    fn faultable_sim() -> Simulator {
        let g = Arc::new(Ring::new(8).unwrap().into_graph());
        let cfg = SimConfig {
            link_delay: 3,
            fault_plan: FaultPlan::single_link(0, u64::MAX),
            ..SimConfig::test_small()
        };
        let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
        Simulator::new(g, cfg, routing, TrafficPattern::Uniform, 0.0, 1)
    }

    fn es(sim: &Simulator) -> &EventState {
        &sim.ev
    }

    #[test]
    fn purged_flits_leave_the_pending_count_and_idle_skip_fires() {
        let mut sim = faultable_sim();
        let total = sim.cfg.total_cycles();
        sim.enqueue_packet(0, 0, 4);
        sim.enqueue_packet(0, 1, 5);
        // Step until both packets have flits on the wire in several due
        // cycles.
        while es(&sim).links.due_counts.iter().filter(|&&c| c > 0).count() < 2 {
            step(&mut sim, total);
            assert!(sim.now < 100, "flits never reached the wire");
        }
        let victim = es(&sim)
            .links
            .ring
            .front()
            .expect("flit on the wire")
            .2
            .packet;
        let on_wire = |sim: &Simulator, pkt: u32| {
            es(sim)
                .links
                .ring
                .iter()
                .filter(|e| e.2.packet == pkt)
                .count()
        };
        let (pending, victim_flits) = (es(&sim).pending(), on_wire(&sim, victim));
        assert!(victim_flits >= 2);
        sim.drop_packet_everywhere(victim, sim.now);
        assert_eq!(on_wire(&sim, victim), 0);
        assert_eq!(es(&sim).pending(), pending - victim_flits);
        let links = &es(&sim).links;
        assert_eq!(
            links.due_counts.iter().map(|&c| c as usize).sum::<usize>(),
            links.len()
        );

        // The survivor is delivered; then the empty network skips to the
        // stepping bound in one step.
        while sim.packets.live() > 0 {
            step(&mut sim, total);
            assert!(sim.now < 1_000, "survivor never delivered");
        }
        assert_eq!(sim.delivered_all_time, 1);
        while sim.now < total {
            let before = sim.now;
            step(&mut sim, total);
            if es(&sim).pending() == 0 {
                break;
            }
            assert!(sim.now == before + 1 && sim.now < 1_000);
        }
        assert_eq!(
            sim.now, total,
            "idle skip did not fire on the empty network"
        );
    }
}
