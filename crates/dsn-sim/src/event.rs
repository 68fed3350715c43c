//! Event-driven scheduling core for the [`crate::engine::Simulator`].
//!
//! The dense reference scans every input VC, output channel and link queue
//! each cycle; this core touches only the units with pending work, while
//! producing **bit-identical** [`crate::RunStats`]:
//!
//! * a *timing wheel* holds cycle-stamped events — credit returns, link
//!   arrivals, and header-delay expiries — whose delays are all bounded by
//!   a small constant, so a power-of-two slot ring indexed by
//!   `cycle & mask` replaces the per-channel `VecDeque` front-polling;
//! * *active sets* track the input VCs eligible for allocation, the
//!   channels with at least one owned output VC, and the VCs holding an
//!   ejection grant; each phase iterates its set in sorted index order,
//!   which is exactly the order of the dense scan restricted to units
//!   whose state could change, so round-robin pointers advance identically;
//! * a *calendar heap* of `(cycle, host)` pairs pops injections in the
//!   same (cycle, host-ascending) order the dense per-cycle host scan
//!   produces, at O(log hosts) per injection instead of O(hosts) per cycle;
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
//!   keeps at least one set or wheel slot nonempty, and an idle network
//!   has zero stall by definition.
//!
//! Telemetry hooks (`dsn-telemetry`) live exclusively in the shared
//! mutation helpers of `engine.rs`, never in this scheduling loop: both
//! cores fire the same hook calls at the same cycles, so the exported
//! telemetry — like `RunStats` — is bit-identical between them
//! (`tests/telemetry_equivalence.rs`). Intra-cycle hook order may differ
//! (e.g. wheel-slot vs channel-scan order for link arrivals), which is
//! harmless because every telemetry accumulator is commutative within a
//! cycle and at most one flit per (channel, VC) moves per cycle.

use crate::engine::{alloc_is_eject, AllocOutcome, Flit, Simulator, ALLOC_NONE};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One wheel slot, split by event kind so each per-cycle phase drains only
/// its own events — credits land before link arrivals before route
/// expiries (the dense phase order) without dispatching over a mixed list
/// three times. Within a kind, push order is preserved, which is all the
/// phase passes ever relied on.
#[derive(Debug, Default)]
struct Slot {
    /// Credits arriving back at output VC `(ch, vc)`.
    credits: Vec<(u32, u8)>,
    /// Flits arriving at the downstream input of `ch` on `vc`.
    links: Vec<(u32, u8, Flit)>,
    /// Input VCs whose header delay expired: eligible for allocation.
    routes: Vec<u32>,
}

impl Slot {
    fn len(&self) -> usize {
        self.credits.len() + self.links.len() + self.routes.len()
    }

    fn clear(&mut self) {
        self.credits.clear();
        self.links.clear();
        self.routes.clear();
    }
}

/// Timing wheel: a power-of-two ring of slots indexed by `cycle & mask`.
/// All scheduled delays are bounded by the wheel size, so no event ever
/// wraps onto a pending slot.
#[derive(Debug)]
struct Wheel {
    slots: Vec<Slot>,
    mask: u64,
    /// Total events currently scheduled (for the idle-skip check).
    pending: usize,
    /// Recycled slots (avoids reallocating the vectors every cycle).
    pool: Vec<Slot>,
}

impl Wheel {
    fn new(max_delay: u64) -> Self {
        let size = (max_delay + 1).next_power_of_two().max(2);
        Wheel {
            slots: (0..size).map(|_| Slot::default()).collect(),
            mask: size - 1,
            pending: 0,
            pool: Vec::new(),
        }
    }

    #[inline]
    fn slot_mut(&mut self, t: u64) -> &mut Slot {
        self.pending += 1;
        &mut self.slots[(t & self.mask) as usize]
    }

    /// Take all events due at `now` (the slot is emptied; recycle it back
    /// with [`Self::recycle`]).
    fn take_slot(&mut self, now: u64) -> Slot {
        let fresh = self.pool.pop().unwrap_or_default();
        let slot = std::mem::replace(&mut self.slots[(now & self.mask) as usize], fresh);
        self.pending -= slot.len();
        slot
    }

    fn recycle(&mut self, mut s: Slot) {
        s.clear();
        self.pool.push(s);
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
/// shared mutation helpers in `engine.rs` feed the wheel and the route
/// events; the step loop below maintains the three active sets.
#[derive(Debug)]
pub(crate) struct EventState {
    wheel: Wheel,
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
    #[inline]
    fn iv(&self, i: usize, v: usize) -> u32 {
        i as u32 * self.nvc + v as u32
    }

    #[inline]
    fn iv_decode(&self, iv: u32) -> (usize, usize) {
        ((iv / self.nvc) as usize, (iv % self.nvc) as usize)
    }

    pub(crate) fn schedule_route(&mut self, t: u64, i: usize, v: usize) {
        let iv = self.iv(i, v);
        self.wheel.slot_mut(t).routes.push(iv);
    }

    pub(crate) fn schedule_link(&mut self, t: u64, ch: usize, flit: Flit, vc: u8) {
        self.wheel.slot_mut(t).links.push((ch as u32, vc, flit));
    }

    pub(crate) fn schedule_credit(&mut self, t: u64, ch: usize, vc: u8) {
        self.wheel.slot_mut(t).credits.push((ch as u32, vc));
    }

    pub(crate) fn schedule_injection(&mut self, t: u64, host: usize) {
        self.inj_heap.push(Reverse((t, host as u32)));
    }

    /// Pre-reserve the wheel for a saturated steady state: every delay is
    /// fixed per event kind, so each slot vector holds events from exactly
    /// one source cycle and hard per-cycle bounds cap it for good — one
    /// link flit per channel, one credit per channel or ejection port, one
    /// route expiry per input VC. Called once at the warmup→measure
    /// boundary (`Simulator::presize_steady_state`).
    pub(crate) fn presize_steady_state(
        &mut self,
        channels: usize,
        iv_domain: usize,
        eject_ports: usize,
    ) {
        fn reserve_to<T>(v: &mut Vec<T>, want: usize) {
            if v.capacity() < want {
                v.reserve(want - v.len());
            }
        }
        let pool_want = self.wheel.slots.len();
        if self.wheel.pool.capacity() < pool_want {
            self.wheel.pool.reserve(pool_want - self.wheel.pool.len());
        }
        for slot in self
            .wheel
            .slots
            .iter_mut()
            .chain(self.wheel.pool.iter_mut())
        {
            reserve_to(&mut slot.credits, channels + eject_ports);
            reserve_to(&mut slot.links, channels);
            reserve_to(&mut slot.routes, iv_domain);
        }
    }

    /// Packets with a flit currently in flight on channel `ch`, appended to
    /// `out` (cleared first; the caller owns the reusable buffer). Scans
    /// the whole wheel; fault-path only, so the cost is fine.
    pub(crate) fn wire_packets_on(&self, ch: usize, out: &mut Vec<u32>) {
        out.clear();
        for slot in &self.wheel.slots {
            for &(c, _, flit) in &slot.links {
                if c as usize == ch {
                    out.push(flit.packet);
                }
            }
        }
    }

    /// Remove every in-flight link event carrying a flit of `pkt`, writing
    /// the `(channel, vc)` of each removed flit into `out` (cleared first)
    /// so the caller can refund its credit. Fault-path only.
    pub(crate) fn purge_link_flits(&mut self, pkt: u32, out: &mut Vec<(usize, u8)>) {
        out.clear();
        for slot in &mut self.wheel.slots {
            let before = slot.links.len();
            slot.links.retain(|&(ch, vc, flit)| {
                if flit.packet == pkt {
                    out.push((ch as usize, vc));
                    false
                } else {
                    true
                }
            });
            self.wheel.pending -= before - slot.links.len();
        }
    }
}

impl Simulator {
    /// The event state of a simulator stepping on the event core.
    fn es(&mut self) -> &mut EventState {
        self.ev.as_mut().expect("event state")
    }
}

/// Install the event state on a freshly constructed simulator (no flits in
/// flight yet): empty wheel and sets, plus the injection calendar.
pub(crate) fn prepare(sim: &mut Simulator) {
    debug_assert!(sim.ev.is_none() && sim.now == 0);
    let nvc = sim.nvc as u32;
    let iv_domain = sim.n_inputs * nvc as usize;
    // Largest delay ever pushed: a revealed head arms at `now + 1` and
    // expires `max(header_delay, 1)` later.
    let max_delay = sim
        .cfg
        .link_delay
        .max(sim.cfg.credit_delay)
        .max(sim.cfg.header_delay + 1)
        .max(2);
    let mut ev = Box::new(EventState {
        wheel: Wheel::new(max_delay),
        alloc_pending: ActiveSet::new(iv_domain),
        out_active: ActiveSet::new(sim.links.len()),
        eject_active: ActiveSet::new(iv_domain),
        inj_heap: BinaryHeap::with_capacity(sim.hosts()),
        scratch: Vec::with_capacity(iv_domain),
        fresh: vec![0; iv_domain.div_ceil(64)],
        wake: vec![0; sim.node_dirty.len()],
        nvc,
    });
    for h in 0..sim.hosts() {
        let t = sim.source_next_cycle(h);
        if t != crate::inject::NEVER {
            ev.inj_heap.push(Reverse((t, h as u32)));
        }
    }
    sim.ev = Some(ev);
}

/// Advance the event engine by one cycle (possibly skipping idle cycles at
/// the end). Mirrors the dense phase order exactly: credits, link arrivals,
/// injection, allocation, traversal, ejection, watchdog.
pub(crate) fn step(sim: &mut Simulator, total: u64) {
    let now = sim.now;
    let mut stamp = sim.phase_stamp();

    // Phase 0: faults due at or before this cycle (the idle skip may have
    // jumped over fault cycles — safe, because it only fires on an empty
    // network and the routing rebuild is a pure function of the final mask).
    sim.process_faults(now);

    // Phases 1+2 (+ route expiries): drain this cycle's wheel slot in
    // three batched passes so credits land before arrivals, before
    // eligibility — the dense phase order. At most one credit and one
    // arrival exist per (channel, VC) per cycle, so ordering within a
    // pass is immaterial. The credit/link loops live in `engine.rs`
    // ([`Simulator::drain_credits`] / [`Simulator::drain_links`]) so the
    // per-event helpers inline against hoisted field loads.
    let slot = sim.es().wheel.take_slot(now);
    sim.drain_credits(&slot.credits);
    sim.drain_links(&slot.links, now);
    for &iv in &slot.routes {
        // The wheel's iv ids index the simulator's SoA arrays directly
        // (same `input * nvc + vc` stride).
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
            let es = sim.es();
            es.alloc_pending.insert(iv);
            // The first attempt is unconditional (see `step_alloc`).
            es.fresh[(iv >> 6) as usize] |= 1u64 << (iv & 63);
        }
    }
    sim.es().wheel.recycle(slot);
    sim.phase_mark(&mut stamp, crate::timing::Phase::Wheel);

    // Phase 3: injection — pop the calendar in (cycle, host) order, which
    // matches the dense ascending-host scan for this cycle.
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
            let es = sim.es();
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
    // order — the dense scan order restricted to eligible units.
    step_alloc(sim, now);
    sim.phase_mark(&mut stamp, crate::timing::Phase::Route);

    // Phase 5a: switch allocation + sends over channels with owners, in
    // channel order (ownerless channels are no-ops in the dense scan).
    let mut scratch = {
        let es = sim.es();
        let mut s = std::mem::take(&mut es.scratch);
        es.out_active.snapshot_sorted(&mut s);
        s
    };
    for &ch in &scratch {
        sim.grant_channel(ch as usize, now);
        // Deactivate whenever no owner remains — not only after a tail
        // send, since a fault drop can strip ownership mid-stream.
        if sim.chv[sim.ch_slot[ch as usize] as usize].owned == 0 {
            sim.es().out_active.remove(ch);
        }
    }
    sim.phase_mark(&mut stamp, crate::timing::Phase::Arbitrate);

    // Phase 5b: ejection over VCs holding an eject grant, in (input, vc)
    // order — matching the dense whole-input scan restricted to grants.
    {
        let es = sim.es();
        let mut s = scratch;
        es.eject_active.snapshot_sorted(&mut s);
        scratch = s;
    }
    for &iv in &scratch {
        let (i, v) = sim.es().iv_decode(iv);
        // A fault drop may have stripped the grant since the snapshot.
        if !alloc_is_eject(sim.ivc[iv as usize].alloc) {
            sim.es().eject_active.remove(iv);
            continue;
        }
        if sim.try_eject_vc(i, v, now) {
            sim.es().eject_active.remove(iv);
        }
    }
    sim.es().scratch = scratch;

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
    // or wheel slot nonempty (its flits are buffered → allocated/armed/
    // pending, or on a link → wheel), so skipping implies zero packets in
    // flight and the stall watchdog is vacuously idle across the gap.
    let es = sim.ev.as_ref().expect("event state");
    if es.wheel.pending == 0
        && es.alloc_pending.is_empty()
        && es.out_active.is_empty()
        && es.eject_active.is_empty()
        && sim.staged_ready.is_empty()
        // A just-completed closed batch empties everything above; without
        // this guard the skip would fast-forward `now` to the horizon
        // before the caller's batch_done() check, making the telemetry
        // `final_cycle` diverge from the dense engine's.
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

/// True when input VC `unit` holds an armed, expired, unallocated head:
/// the condition for membership in `alloc_pending`.
fn head_eligible(sim: &Simulator, unit: usize, now: u64) -> bool {
    sim.ivc[unit].alloc == ALLOC_NONE
        && sim.ivc[unit].ready <= now
        && sim.buf_front(unit).is_some_and(|f| f.seq == 0)
}

/// Phase 4: VC allocation over the pending heads in ascending iv order,
/// the order of the dense scan. Only fresh heads and heads at a woken
/// switch are attempted (the wake invariant, module docs). A blocked
/// attempt changes nothing but the `on_alloc_blocked` telemetry hook, so
/// a skipped head fires that hook itself, and the walk is bit-identical
/// to attempting every head (the dense core and `tests/sim_equivalence.rs`
/// enforce this).
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
        let es = sim.es();
        (std::mem::take(&mut es.wake), es.alloc_pending.words.len())
    };
    std::mem::swap(&mut wake, &mut sim.node_dirty);
    for wi in 0..nwords {
        let (mut m, fresh) = {
            let es = sim.es();
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
                    AllocOutcome::Eject => sim.es().eject_active.insert(iv),
                    AllocOutcome::Net(ch) => sim.es().out_active.insert(ch as u32),
                    AllocOutcome::Unroutable => sim.unroutable_drop(i, v, now),
                }
            } else {
                debug_assert!(sim.fault.is_some(), "stale alloc entry without faults");
            }
            sim.es().alloc_pending.remove(iv);
        }
    }
    wake.fill(0);
    let es = sim.es();
    es.fresh.fill(0);
    es.wake = wake;
}
