//! Cycle-driven flit-level simulation engine.
//!
//! Models input-queued switches with virtual-channel flow control and
//! virtual cut-through switching, per Section VII.A of the paper:
//!
//! * each directed physical channel has `V` virtual channels with
//!   credit-based flow control;
//! * a packet's header spends `header_delay` cycles per hop on routing,
//!   VC allocation, switch allocation and crossbar traversal; body flits
//!   then stream at one flit per cycle (cut-through);
//! * VC allocation grants an output VC only when the downstream buffer has
//!   room for the whole packet (virtual cut-through) and holds it until the
//!   tail flit leaves;
//! * link traversal (including injection overhead) takes `link_delay`
//!   cycles; credits return with `credit_delay`;
//! * each switch serializes at most one flit per output channel per cycle
//!   and one flit per input port per cycle, with round-robin arbitration.
//!
//! Routing has one path: VC allocation asks the scheme for the head's
//! candidates ([`SimRouting::candidates`] into a reused scratch list) and
//! commits the granted hop with [`SimRouting::on_hop`]. Table-driven
//! schemes decode their port masks inside those calls; no routing table
//! lives in the engine.
//!
//! The state and its mutation helpers live in this module; the event-driven
//! scheduling core in `crate::event` decides which units a cycle touches
//! (only those with pending work) and calls the helpers. The test suite
//! checks the whole engine against a spec simulator written from the cycle
//! contract (DESIGN.md §6) that shares none of this code:
//! `tests/sim_equivalence.rs` and its siblings demand identical
//! [`RunStats`] bit for bit.

use crate::config::SimConfig;
use crate::inject::{Injector, NEVER};
use crate::routing::{RouteState, SimRouting};
use crate::stats::{RunStats, StatsCollector};
use crate::traffic::TrafficPattern;
use crate::workload::Workload;
use dsn_core::graph::Graph;
use dsn_telemetry::{
    ChannelDesc, PacketTracer, Telemetry, TelemetryConfig, TelemetryReport, TelemetryTopo,
    TraceEvent,
};
use std::collections::VecDeque;
use std::sync::Arc;

/// A flit in flight: packet slab index plus sequence number.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Flit {
    /// Index into the [`PacketSlab`] (recycled; see [`Packet::uid`] for
    /// the stable creation-order identity).
    pub packet: u32,
    pub seq: u16,
}

/// Workload-layer identity a packet carries with it. Travels inside the
/// [`Packet`] (and with it through fault retries), so flow-completion and
/// stage-release accounting need no side table: the delivering side has
/// everything it needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) enum PacketTag {
    /// Plain open-loop or closed-batch packet: no workload identity.
    None,
    /// One packet of a multi-packet flow ([`Workload::Flows`] /
    /// [`Workload::Incast`]).
    Flow {
        /// Flow id: `src_host << 32 | per-host flow sequence`.
        id: u64,
        /// Cycle the flow's first packet was enqueued (FCT start).
        start: u64,
        /// Total packets in the flow (FCT completes on the `total`-th).
        total: u32,
    },
    /// One packet of a staged collective ([`Workload::Staged`]): delivery
    /// feeds the destination host's stage-`stage` receive counter.
    Stage {
        /// Stage index within the collective schedule.
        stage: u32,
    },
}

#[derive(Debug, Clone)]
pub(crate) struct Packet {
    /// Stable creation-order id (what the tracer reports); slab indices
    /// are recycled and so unfit for identity.
    pub uid: u32,
    pub src_host: u32,
    pub dest_host: u32,
    pub dest_sw: u32,
    pub created: u64,
    pub route: RouteState,
    pub measured: bool,
    /// How many times this packet has been re-sent after fault drops.
    pub attempt: u32,
    /// Workload-layer identity (flow membership / collective stage).
    pub tag: PacketTag,
}

/// Packet storage with free-list recycling: delivered packets are retired
/// and their slots reused, so memory is bounded by the *peak in-flight*
/// packet count rather than the all-time total.
#[derive(Debug, Default)]
pub(crate) struct PacketSlab {
    slots: Vec<Option<Packet>>,
    free: Vec<u32>,
    live: u64,
    /// High-water mark of simultaneously live packets.
    pub peak_live: u64,
    /// All-time number of packets created.
    pub total_created: u64,
}

impl PacketSlab {
    /// Store a packet; returns its slab index.
    pub fn alloc(&mut self, p: Packet) -> u32 {
        let id = match self.free.pop() {
            Some(id) => id,
            None => {
                self.slots.push(None);
                // Keep the free list able to hold every slot so `retire`
                // never reallocates (zero-alloc steady-state invariant).
                self.free.reserve(self.slots.len() - self.free.len());
                (self.slots.len() - 1) as u32
            }
        };
        debug_assert!(self.slots[id as usize].is_none());
        self.slots[id as usize] = Some(p);
        self.live += 1;
        self.peak_live = self.peak_live.max(self.live);
        self.total_created += 1;
        id
    }

    /// Pre-reserve storage for `want` total slots (and a matching free
    /// list) so `alloc`/`retire` stay allocation-free until the
    /// all-time slot count exceeds `want`.
    pub fn reserve_slots(&mut self, want: usize) {
        if self.slots.capacity() < want {
            self.slots.reserve(want - self.slots.len());
        }
        if self.free.capacity() < want {
            self.free.reserve(want - self.free.len());
        }
    }

    /// Heap bytes reserved: slot capacity plus the free list's.
    fn bytes(&self) -> usize {
        self.slots.capacity() * std::mem::size_of::<Option<Packet>>() + self.free.capacity() * 4
    }

    /// Number of slots ever allocated (live + free).
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Retire a delivered packet, releasing its slot for reuse.
    pub fn retire(&mut self, id: u32) {
        let gone = self.slots[id as usize].take();
        debug_assert!(gone.is_some(), "double retire of slot {id}");
        self.free.push(id);
        self.live -= 1;
    }

    pub fn get(&self, id: u32) -> &Packet {
        self.slots[id as usize].as_ref().expect("live packet")
    }

    pub fn get_mut(&mut self, id: u32) -> &mut Packet {
        self.slots[id as usize].as_mut().expect("live packet")
    }

    /// Packets currently in flight (created but not delivered).
    pub fn live(&self) -> u64 {
        self.live
    }

    /// Visit every live packet in slab-index order.
    pub fn for_each_live_mut(&mut self, mut f: impl FnMut(&mut Packet)) {
        for p in self.slots.iter_mut().flatten() {
            f(p);
        }
    }
}

/// One host's injection source queue, packet-granular: the slab ids of
/// the waiting packets plus the sequence number of the head packet's next
/// flit. The open-loop injector queues whole packets here, so a waiting
/// packet costs one `u32` instead of `packet_flits` [`Flit`] records; the
/// flits are built as they are read. Lengths are still reported in flits.
#[derive(Debug, Clone, Default)]
pub(crate) struct SourceQueue {
    ids: VecDeque<u32>,
    /// Next flit of the front packet (0 while it is unsent, and whenever
    /// the queue is empty).
    head_seq: u16,
}

impl SourceQueue {
    /// Resident flits: every queued packet minus the head's sent flits.
    #[inline]
    fn len_flits(&self, packet_flits: usize) -> usize {
        self.ids.len() * packet_flits - self.head_seq as usize
    }

    #[inline]
    fn front(&self) -> Option<Flit> {
        self.ids.front().map(|&packet| Flit {
            packet,
            seq: self.head_seq,
        })
    }

    #[inline]
    fn push_packet(&mut self, id: u32) {
        self.ids.push_back(id);
    }

    /// Pop the front flit; the packet leaves the queue with its tail.
    #[inline]
    fn pop_flit(&mut self, packet_flits: usize) -> Flit {
        let flit = self.front().expect("nonempty");
        if flit.seq as usize + 1 == packet_flits {
            self.ids.pop_front();
            self.head_seq = 0;
        } else {
            self.head_seq += 1;
        }
        flit
    }

    fn contains(&self, pkt: u32) -> bool {
        self.ids.contains(&pkt)
    }

    /// Drop packet `pkt`, keeping the order of the others; returns the
    /// flits removed (the unsent remainder for a partly sent head).
    fn remove_packet(&mut self, pkt: u32, packet_flits: usize) -> usize {
        let Some(at) = self.ids.iter().position(|&id| id == pkt) else {
            return 0;
        };
        self.ids.remove(at);
        if at == 0 {
            packet_flits - std::mem::take(&mut self.head_seq) as usize
        } else {
            packet_flits
        }
    }

    /// Queued packet ids, front to back.
    fn packets(&self) -> impl Iterator<Item = u32> + '_ {
        self.ids.iter().copied()
    }

    /// Reserve room for `more` packets beyond the current length.
    fn reserve(&mut self, more: usize) {
        self.ids.reserve(more);
    }

    /// Heap bytes reserved for queued ids.
    fn bytes(&self) -> usize {
        self.ids.capacity() * 4
    }
}

/// Where an allocated packet is headed (decoded view of a packed
/// [`ALLOC_NONE`]-style id; see [`decode_alloc`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum OutRef {
    /// Network channel + VC.
    Net { channel: usize, vc: u8 },
    /// Ejection port (host-local index at the destination switch).
    Eject { port: usize },
}

// ----------------------------------------------------------------------
// Packed per-input-VC / per-output-VC ids. All per-VC state lives in
// flat arrays indexed by `iv = input * nvc + vc` (the same ids the event
// core schedules on) and `ov = ch_slot[channel] * nvc + vc` (slot-permuted
// storage, see `ch_slot`), so the allocation/arbitration hot loops are
// array scans with no pointer chasing. `with_workload` asserts the network
// is small enough that the packed encodings below cannot collide with
// their sentinels.
// ----------------------------------------------------------------------

/// `input_upstream` sentinel: injection input, no upstream channel.
pub(crate) const NO_UPSTREAM: u32 = u32::MAX;
/// `IvcHot::alloc` sentinel: no allocation held.
pub(crate) const ALLOC_NONE: u32 = u32::MAX;
/// `IvcHot::alloc` flag bit: ejection grant (low bits = host-local port).
pub(crate) const ALLOC_EJECT_BIT: u32 = 1 << 31;
/// Owner half of `ovc_state` sentinel: output VC unowned.
pub(crate) const OWNER_NONE: u32 = u32::MAX;

/// Pack a network allocation: `(channel << 8) | vc`.
#[inline]
pub(crate) fn alloc_net(ch: usize, vc: u8) -> u32 {
    ((ch as u32) << 8) | vc as u32
}

/// Pack an ejection grant.
#[inline]
pub(crate) fn alloc_eject(port: usize) -> u32 {
    ALLOC_EJECT_BIT | port as u32
}

/// Is this packed allocation an ejection grant? (`ALLOC_NONE` has the
/// eject bit set too, so the sentinel must be excluded first.)
#[inline]
pub(crate) fn alloc_is_eject(a: u32) -> bool {
    a != ALLOC_NONE && a & ALLOC_EJECT_BIT != 0
}

/// Decode a packed allocation id.
#[inline]
pub(crate) fn decode_alloc(a: u32) -> Option<OutRef> {
    if a == ALLOC_NONE {
        None
    } else if a & ALLOC_EJECT_BIT != 0 {
        Some(OutRef::Eject {
            port: (a & !ALLOC_EJECT_BIT) as usize,
        })
    } else {
        Some(OutRef::Net {
            channel: (a >> 8) as usize,
            vc: (a & 0xFF) as u8,
        })
    }
}

/// Pack an output-VC owner: `(input << 8) | vc`.
#[inline]
pub(crate) fn owner_pack(i: usize, v: u8) -> u32 {
    ((i as u32) << 8) | v as u32
}

/// Inverse of [`owner_pack`].
#[inline]
pub(crate) fn owner_unpack(o: u32) -> (usize, u8) {
    ((o >> 8) as usize, (o & 0xFF) as u8)
}

// ----------------------------------------------------------------------
// Packed hot per-VC state. The fields the saturated allocation and
// arbitration loops touch together are fused so each gate is one load:
//
// * per output VC, owner and credit count share a u64 (`ovc_state`,
//   owner in the high half) — and because `OWNER_NONE` is `u32::MAX`,
//   "free with at least `need` credits" is a single unsigned compare
//   against `OVC_FREE + need`;
// * per input VC, the header-ready cycle, the packed allocation and the
//   allocated packet form one 16-byte [`IvcHot`] record, so a cache line
//   covers four input VCs instead of striding three parallel arrays.
// ----------------------------------------------------------------------

/// `ovc_state` value of a free output VC with zero credits; the owner
/// field (high 32 bits) holds [`OWNER_NONE`], the maximum owner value.
pub(crate) const OVC_FREE: u64 = (OWNER_NONE as u64) << 32;

/// Pack an output-VC state word from owner and credit count.
#[inline]
pub(crate) fn ovc_pack(owner: u32, credits: u32) -> u64 {
    ((owner as u64) << 32) | credits as u64
}

/// Owner half of an `ovc_state` word.
#[inline]
pub(crate) fn ovc_owner_of(s: u64) -> u32 {
    (s >> 32) as u32
}

/// Credit half of an `ovc_state` word.
#[inline]
pub(crate) fn ovc_credits_of(s: u64) -> u32 {
    s as u32
}

/// Hot per-input-VC record: everything the allocation/ejection gates read
/// besides the buffer itself. 16 bytes, four per cache line.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub(crate) struct IvcHot {
    /// First cycle the head may attempt allocation (header processing
    /// complete); `u64::MAX` = no head armed.
    pub ready: u64,
    /// Packed allocation ([`ALLOC_NONE`] = none held).
    pub alloc: u32,
    /// Slab index of the allocated packet — only meaningful while `alloc`
    /// is held. Identifies the owner even when the buffer is transiently
    /// empty mid-stream (needed by the fault purge).
    pub alloc_pkt: u32,
}

impl IvcHot {
    const IDLE: IvcHot = IvcHot {
        ready: u64::MAX,
        alloc: ALLOC_NONE,
        alloc_pkt: 0,
    };
}

/// Hot per-channel arbitration record (indexed by storage *slot*, see
/// [`Simulator::ch_slot`]): the sendable/owned VC masks and the
/// round-robin pointer that [`Simulator::grant_channel`] reads together.
#[derive(Debug, Clone, Copy)]
#[repr(C)]
pub(crate) struct ChHot {
    /// Bitmask of output VCs that can send a flit *right now*: bit `v` is
    /// set iff the VC is owned, has at least one credit, and the owner's
    /// input buffer is nonempty. Kept exact by every owner/credit/buffer
    /// transition so [`Simulator::grant_channel`] is a single load for the
    /// (at saturation, overwhelmingly common) credit-starved channels.
    pub ready: u64,
    /// Bitmask of *owned* output VCs (superset of `ready`): the event
    /// engine's channel-deactivation test in O(1).
    pub owned: u64,
    /// Round-robin pointer for switch allocation.
    pub rr: u32,
    _pad: u32,
}

impl ChHot {
    const IDLE: ChHot = ChHot {
        ready: 0,
        owned: 0,
        rr: 0,
        _pad: 0,
    };
}

/// What [`Simulator::try_allocate_vc`] decided for one head packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum AllocOutcome {
    /// No output VC currently grantable; retry next cycle.
    Blocked,
    /// Granted the ejection port (destination reached).
    Eject,
    /// Granted a VC on this directed channel.
    Net(usize),
    /// Faulted run only: no structurally usable candidate exists on the
    /// survivor graph (dead/unreachable) — the engine drops the packet.
    Unroutable,
}

/// The simulator: a topology + routing + traffic + configuration, run for a
/// fixed horizon.
pub struct Simulator {
    pub(crate) graph: Arc<Graph>,
    pub(crate) cfg: SimConfig,
    pub(crate) routing: Arc<dyn SimRouting>,

    /// Destination pattern for open workloads (None for closed batches).
    pub(crate) pattern: Option<TrafficPattern>,
    /// Per-host injection schedule + RNG streams (rate 0 for batches).
    pub(crate) injector: Injector,
    /// Closed-batch packets awaiting cycle-0 enqueue (drained once).
    pub(crate) pending_batch: Vec<(usize, usize)>,
    /// Total size of the closed batch (None for open workloads).
    pub(crate) closed_total: Option<u64>,
    /// Flow-level injection source ([`Workload::Flows`] /
    /// [`Workload::Incast`]); replaces the per-cycle [`Injector`] schedule
    /// (which runs at rate 0) when present.
    pub(crate) flows: Option<Box<crate::flow::FlowSource>>,
    /// Stage-dependency tracker for [`Workload::Staged`] collectives.
    pub(crate) staged: Option<Box<crate::flow::StagedState>>,
    /// Hosts whose next collective stage became releasable this cycle
    /// (fed by tail ejections, drained — sorted and deduped — at the next
    /// cycle's injection phase, so the release order is independent of the
    /// engine's ejection order).
    pub(crate) staged_ready: Vec<u32>,

    pub(crate) packets: PacketSlab,

    /// VC stride of the per-VC arrays below: `cfg.vcs.max(1)`. Injection
    /// inputs use only slot 0 of their stride (their extra slots stay
    /// empty), so `iv = input * nvc + vc` is one uniform id space shared
    /// with the event core's scheduling keys.
    pub(crate) nvc: usize,
    /// Input unit count: `channels + hosts` (channel inputs first).
    pub(crate) n_inputs: usize,
    /// Per-input switch the unit belongs to.
    pub(crate) input_node: Vec<u32>,
    /// Per-input upstream directed channel ([`NO_UPSTREAM`] for injection).
    pub(crate) input_upstream: Vec<u32>,
    /// Per-input switch the `iv = input * nvc + vc` unit belongs to
    /// (denormalized from `input_node` so the event core's wake-up walk
    /// avoids the `iv / nvc` division).
    pub(crate) iv_node: Vec<u32>,
    /// Number of network input-VC units (`channels * nvc`); `iv` below
    /// this bound indexes the ring arena, at or above it the injection
    /// queues.
    pub(crate) net_ivs: usize,
    /// Network input buffers: one contiguous fixed-capacity ring arena,
    /// `buffer_flits` [`Flit`] slots per network `iv`. A single allocation
    /// (instead of one `VecDeque` per VC) keeps the saturated send/arrival
    /// path on sequential pages regardless of allocator state — the
    /// scattered per-VC deques were the dominant cache/TLB cost at 256+
    /// switches (DESIGN.md §8).
    pub(crate) net_buf: Vec<Flit>,
    /// Per-network-`iv` ring position, packed `head << 16 | len`.
    pub(crate) net_pos: Vec<u32>,
    /// Injection source queues, one per host (`(iv - net_ivs) / nvc`):
    /// unbounded, since the open-loop injector queues here without credit
    /// backpressure, and packet-granular ([`SourceQueue`]), so a waiting
    /// packet costs one slab id rather than `packet_flits` flits.
    pub(crate) inj_buf: Vec<SourceQueue>,
    /// Per-`iv` hot state (header-ready cycle, packed allocation,
    /// allocated packet).
    pub(crate) ivc: Vec<IvcHot>,
    /// Per-`ov` packed owner + credit state, indexed by *storage slot*
    /// (`ch_slot[ch] * nvc + vc`). See [`OVC_FREE`].
    pub(crate) ovc_state: Vec<u64>,
    /// Per-channel hot arbitration state (ready/owned masks, RR pointer),
    /// indexed by storage slot.
    pub(crate) chv: Vec<ChHot>,
    /// Channel → storage slot for `ovc_state`/`chv`. Iteration everywhere
    /// stays in original channel-id order (observable: channels at one
    /// switch contend for shared input ports in ascending-id order), so
    /// the permutation is a pure memory relayout — bit-identical results.
    /// The layout is *switch-major*: channels stably sorted by source
    /// switch, clustering each switch's out-channels that the allocation
    /// scan touches together.
    pub(crate) ch_slot: Vec<u32>,
    /// Per-channel source switch (denormalized from the graph for the
    /// wake-up dirty marks).
    pub(crate) ch_src: Vec<u32>,
    /// Per-switch wake-up bitmap for the event core's allocation walk: a
    /// bit is set when an output VC at that switch turned grantable (a
    /// free VC's credit count crossed the allocation threshold in
    /// [`Self::apply_credit`], or [`Self::release_output_vc`] freed it
    /// with enough credits) or a fault event changed the candidate sets
    /// (every bit), meaning blocked heads there are worth re-attempting.
    /// Consumed by each allocation walk.
    pub(crate) node_dirty: Vec<u64>,
    /// Credits required to grant an output VC (packet_flits for virtual
    /// cut-through, 1 for wormhole) — fixed per run.
    pub(crate) alloc_need: u32,

    /// Shared routing/rebuild cache, when the caller threads one through
    /// ([`Simulator::with_routing_cache`]) — lets catch-up fault rebuilds
    /// reuse tables across simulations of the same topology.
    pub(crate) routing_cache: Option<Arc<crate::cache::RoutingCache>>,

    /// Flits sent per directed channel during the measurement window.
    pub(crate) channel_flits: Vec<u64>,
    /// Cycle of the last flit movement (send or ejection).
    pub(crate) last_progress: u64,
    /// Consecutive cycles with packets in flight but no flit movement.
    pub(crate) current_stall: u64,
    /// Longest observed gap with packets in flight but no flit movement.
    pub(crate) longest_stall: u64,
    /// Packets delivered (all time), to know how many are in flight.
    pub(crate) delivered_all_time: u64,
    pub(crate) now: u64,

    pub(crate) stats: StatsCollector,
    pub(crate) tracer: Option<PacketTracer>,
    /// Telemetry sink ([`Telemetry::Off`] unless `cfg.telemetry` is set or
    /// [`Self::with_telemetry`] was called). Hooks live in the mutation
    /// helpers below, and `RunStats` stay bit-identical whether it is on
    /// or off.
    pub(crate) telemetry: Telemetry,
    /// Per-cycle scratch: which input units already sent a flit.
    pub(crate) input_used: Vec<bool>,
    /// Per-cycle scratch: which ejection ports are busy.
    pub(crate) eject_used: Vec<bool>,
    /// Indices set in `input_used` this cycle (for O(work) clearing).
    pub(crate) touched_inputs: Vec<u32>,
    /// Indices set in `eject_used` this cycle.
    pub(crate) touched_ejects: Vec<u32>,
    /// Flits currently resident across all input-VC buffers.
    pub(crate) buffered_flits: u64,
    pub(crate) peak_buffered_flits: u64,
    /// Scratch for routing candidate lists.
    pub(crate) cand_scratch: Vec<(usize, u8)>,
    /// Per-phase wall-time breakdown (Some iff `DSN_PHASE_TIMING` was set
    /// at construction); never touches simulation state.
    pub(crate) phase_timers: Option<Box<crate::timing::PhaseTimers>>,
    /// The event core's delay lines, active sets and injection calendar.
    pub(crate) ev: Box<crate::event::EventState>,
    /// Fault-injection state (None when `cfg.fault_plan` is empty).
    pub(crate) fault: Option<Box<crate::fault::FaultRuntime>>,
}

/// Reserved heap bytes by simulator component ([`Simulator::reserved_bytes`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReservedBytes {
    /// Packet slab: one `Option<Packet>` slot per packet ever live at
    /// once, plus the free list.
    pub packet_slab: usize,
    /// Network input-buffer flit arena: `buffer_flits` flits per network
    /// input VC plus each VC's ring position, fixed at construction.
    pub flit_arena: usize,
    /// Injection source queues: queued packet ids plus the per-host queue
    /// headers.
    pub source_queues: usize,
    /// The event core's delay lines (credit returns, link arrivals, route
    /// expiries).
    pub event_queues: usize,
    /// Routing state the run serves hops from
    /// ([`Simulator::routing_table_bytes`]).
    pub routing_state: usize,
}

impl Simulator {
    /// Build a simulator over `graph` with the given routing, traffic
    /// pattern, injection rate (packets per cycle per host) and RNG seed —
    /// the *open-loop* workload of the paper's Figure 10.
    pub fn new(
        graph: Arc<Graph>,
        cfg: SimConfig,
        routing: Arc<dyn SimRouting>,
        pattern: TrafficPattern,
        injection_rate: f64,
        seed: u64,
    ) -> Self {
        Self::with_workload(
            graph,
            cfg,
            routing,
            Workload::Open {
                pattern,
                packets_per_cycle_per_host: injection_rate,
            },
            seed,
        )
    }

    /// Build a simulator with an explicit [`Workload`] (open-loop traffic
    /// or a closed batch such as an all-to-all exchange).
    ///
    /// # Panics
    /// Panics when `cfg` fails [`SimConfig::validate`] or when `routing`
    /// emits VCs beyond `cfg.vcs` ([`SimRouting::vcs`]).
    pub fn with_workload(
        graph: Arc<Graph>,
        cfg: SimConfig,
        routing: Arc<dyn SimRouting>,
        workload: Workload,
        seed: u64,
    ) -> Self {
        cfg.validate();
        assert!(
            routing.vcs() <= cfg.vcs,
            "routing '{}' spans {} VCs but the config has only {}",
            routing.name(),
            routing.vcs(),
            cfg.vcs
        );
        let n = graph.node_count();
        let channels = graph.channel_count();
        let hosts = n * cfg.hosts_per_switch;

        let mut flows = None;
        let mut staged = None;
        let mut staged_ready = Vec::new();
        let (pattern, injector, pending_batch, closed_total) = match workload {
            Workload::Open {
                pattern,
                packets_per_cycle_per_host,
            } => (
                Some(pattern),
                Injector::new(seed, hosts, packets_per_cycle_per_host),
                Vec::new(),
                None,
            ),
            Workload::Closed { packets } => {
                let total = packets.len() as u64;
                (None, Injector::new(seed, hosts, 0.0), packets, Some(total))
            }
            Workload::Flows {
                pattern,
                sizes,
                arrivals,
            } => {
                flows = Some(Box::new(crate::flow::FlowSource::new_random(
                    seed,
                    hosts,
                    pattern,
                    sizes,
                    arrivals,
                    cfg.packet_flits,
                    cfg.flit_bits as usize,
                )));
                (None, Injector::new(seed, hosts, 0.0), Vec::new(), None)
            }
            Workload::Incast {
                fanin,
                request_packets,
                wave_period,
            } => {
                flows = Some(Box::new(crate::flow::FlowSource::new_incast(
                    seed,
                    hosts,
                    fanin,
                    request_packets,
                    wave_period,
                    cfg.packet_flits,
                    cfg.flit_bits as usize,
                )));
                (None, Injector::new(seed, hosts, 0.0), Vec::new(), None)
            }
            Workload::Staged(spec) => {
                assert!(
                    spec.hosts() <= hosts,
                    "staged collective needs {} hosts, network has {hosts}",
                    spec.hosts()
                );
                let total = spec.total_packets();
                // Stage 0 of every participant is releasable at cycle 0.
                staged_ready = (0..spec.hosts() as u32).collect();
                staged = Some(Box::new(crate::flow::StagedState::new(spec)));
                (
                    None,
                    Injector::new(seed, hosts, 0.0),
                    Vec::new(),
                    Some(total),
                )
            }
        };

        let nvc = cfg.vcs.max(1) as usize;
        assert!(nvc <= 64, "ch_ready packs the per-channel VC set in a u64");
        let n_inputs = channels + hosts;
        assert!(
            n_inputs < (1 << 23),
            "network too large for the packed owner/alloc ids"
        );
        let mut input_node = Vec::with_capacity(n_inputs);
        let mut input_upstream = Vec::with_capacity(n_inputs);
        let mut ch_src = Vec::with_capacity(channels);
        for c in 0..channels {
            let (from, to) = graph.channel_endpoints(c);
            input_node.push(to as u32);
            input_upstream.push(c as u32);
            ch_src.push(from as u32);
        }
        for h in 0..hosts {
            input_node.push((h / cfg.hosts_per_switch) as u32);
            input_upstream.push(NO_UPSTREAM);
        }
        let iv_domain = n_inputs * nvc;
        let ov_domain = channels * nvc;
        let mut iv_node = Vec::with_capacity(iv_domain);
        for &node in &input_node {
            iv_node.extend(std::iter::repeat_n(node, nvc));
        }
        // Storage permutation for the per-channel/per-output-VC arrays.
        // The graph numbers channels edge-major (2e, 2e+1 = the two
        // directions of edge e), scattering a switch's out-channels; the
        // switch-major layout clusters them so the allocation scan's
        // candidate probes share cache lines. Results do not depend on it
        // (iteration order never changes).
        let mut order: Vec<u32> = (0..channels as u32).collect();
        order.sort_by_key(|&c| ch_src[c as usize]);
        let mut ch_slot = vec![0u32; channels];
        for (slot, &c) in order.iter().enumerate() {
            ch_slot[c as usize] = slot as u32;
        }
        let alloc_need = match cfg.switching {
            crate::config::Switching::VirtualCutThrough => cfg.packet_flits as u32,
            crate::config::Switching::Wormhole => 1,
        };

        let stats = StatsCollector::new(&cfg);
        let telemetry = match &cfg.telemetry {
            Some(tc) => Telemetry::on(tc.clone(), telemetry_topo(&graph, &cfg)),
            None => Telemetry::Off,
        };
        let fault = if cfg.fault_plan.is_empty() {
            None
        } else {
            Some(Box::new(crate::fault::FaultRuntime::new(
                &graph,
                &cfg.fault_plan,
            )))
        };
        // Pre-size every buffer the steady state touches so a saturated
        // measure-phase cycle performs no heap allocation (asserted by
        // `tests/zero_alloc.rs`): network input buffers are bounded by the
        // credit loop at `buffer_flits`, the used-lists by their domains,
        // the routing scratches by the candidate fan-out.
        assert!(
            (1..=u16::MAX as usize).contains(&cfg.buffer_flits),
            "buffer_flits must fit the packed ring position"
        );
        let net_ivs = channels * nvc;
        let ev = Box::new(crate::event::EventState::new(&cfg, nvc, channels, hosts, n));
        let mut sim = Simulator {
            channel_flits: vec![0; channels],
            last_progress: 0,
            current_stall: 0,
            longest_stall: 0,
            delivered_all_time: 0,
            routing,
            pattern,
            injector,
            pending_batch,
            closed_total,
            flows,
            staged,
            staged_ready,
            packets: PacketSlab::default(),
            nvc,
            n_inputs,
            input_node,
            input_upstream,
            iv_node,
            net_ivs,
            net_buf: vec![Flit { packet: 0, seq: 0 }; net_ivs * cfg.buffer_flits],
            net_pos: vec![0; net_ivs],
            inj_buf: vec![SourceQueue::default(); hosts],
            ivc: vec![IvcHot::IDLE; iv_domain],
            ovc_state: vec![OVC_FREE + cfg.buffer_flits as u64; ov_domain],
            chv: vec![ChHot::IDLE; channels],
            ch_slot,
            ch_src,
            node_dirty: vec![0; n.div_ceil(64)],
            alloc_need,
            routing_cache: None,
            now: 0,
            input_used: vec![false; channels + hosts],
            eject_used: vec![false; n * cfg.hosts_per_switch],
            touched_inputs: Vec::with_capacity(n_inputs),
            touched_ejects: Vec::with_capacity(n * cfg.hosts_per_switch),
            buffered_flits: 0,
            peak_buffered_flits: 0,
            cand_scratch: Vec::with_capacity(64),
            phase_timers: crate::timing::env_enabled()
                .then(|| Box::new(crate::timing::PhaseTimers::default())),
            ev,
            fault,
            graph,
            cfg,
            stats,
            tracer: None,
            telemetry,
        };
        for h in 0..hosts {
            let t = sim.source_next_cycle(h);
            if t != NEVER {
                sim.ev.schedule_injection(t, h);
            }
        }
        sim
    }

    /// Thread a shared [`RoutingCache`](crate::cache::RoutingCache) through
    /// this run so post-fault catch-up rebuilds reuse tables computed by
    /// earlier runs on the same topology and mask; returns self for
    /// chaining. Bit-identical to running without a cache (rebuilds are
    /// pure in `(graph, mask, scheme)`).
    pub fn with_routing_cache(mut self, cache: Arc<crate::cache::RoutingCache>) -> Self {
        self.routing_cache = Some(cache);
        self
    }

    /// Resident bytes of the routing state this run serves hops from
    /// ([`SimRouting::table_bytes`] of the current scheme). Benchmark
    /// accounting — query before `run()` (which consumes self).
    pub fn routing_table_bytes(&self) -> usize {
        self.routing.table_bytes()
    }

    /// Heap bytes the simulator's per-packet and per-event containers
    /// reserve right now, by component, computed from their capacities
    /// (nothing is counted on the hot path). Read it after
    /// [`Self::advance_until`] to see what a phase, or the warmup→measure
    /// presize, reserved.
    pub fn reserved_bytes(&self) -> ReservedBytes {
        ReservedBytes {
            packet_slab: self.packets.bytes(),
            flit_arena: self.net_buf.capacity() * std::mem::size_of::<Flit>()
                + self.net_pos.capacity() * 4,
            source_queues: self.inj_buf.capacity() * std::mem::size_of::<SourceQueue>()
                + self.inj_buf.iter().map(SourceQueue::bytes).sum::<usize>(),
            event_queues: self.ev.queue_bytes(),
            routing_state: self.routing_table_bytes(),
        }
    }

    /// How many VC slots input `i` actually uses (injection inputs have 1).
    #[inline]
    pub(crate) fn vc_count(&self, i: usize) -> usize {
        if i < self.graph.channel_count() {
            self.nvc
        } else {
            1
        }
    }

    /// Enable telemetry recording with the given configuration (windows +
    /// phases); returns self for chaining. Equivalent to setting
    /// `cfg.telemetry` before construction. Call
    /// [`Self::run_with_telemetry`] to get the report back.
    pub fn with_telemetry(mut self, tc: TelemetryConfig) -> Self {
        self.telemetry = Telemetry::on(tc, telemetry_topo(&self.graph, &self.cfg));
        self
    }

    /// Like [`Self::run`] but also returns the telemetry report (`None`
    /// when telemetry was not enabled).
    pub fn run_with_telemetry(mut self) -> (RunStats, Option<TelemetryReport>) {
        self.run_inner();
        let telemetry = std::mem::replace(&mut self.telemetry, Telemetry::Off);
        let final_cycle = self.now;
        let stats = self.finish_stats();
        (stats, telemetry.finish(final_cycle))
    }

    /// Enable packet tracing for every `sample`-th packet; returns self for
    /// chaining. Call [`Self::run_traced`] to get the records back.
    pub fn with_tracer(mut self, sample: u32) -> Self {
        self.tracer = Some(PacketTracer::new(sample));
        self
    }

    /// Like [`Self::run`] but also returns the packet trace (empty when
    /// tracing was not enabled).
    pub fn run_traced(mut self) -> (RunStats, PacketTracer) {
        self.run_inner();
        let tracer_out = self
            .tracer
            .take()
            .unwrap_or_else(|| PacketTracer::new(u32::MAX));
        let stats = self.finish_stats();
        (stats, tracer_out)
    }

    /// Total number of hosts.
    pub fn hosts(&self) -> usize {
        self.graph.node_count() * self.cfg.hosts_per_switch
    }

    pub(crate) fn injection_input(&self, host: usize) -> usize {
        self.graph.channel_count() + host
    }

    /// Run for the configured horizon (open workloads) or until the batch
    /// drains (closed workloads, still bounded by the horizon) and return
    /// the collected statistics.
    pub fn run(mut self) -> RunStats {
        self.run_inner();
        self.finish_stats()
    }

    /// Step the simulation up to (but not past) cycle `target`, clamped to
    /// the configured horizon. Lets a caller bracket a window of cycles —
    /// e.g. the zero-allocation steady-state test brackets the measurement
    /// phase with allocator counter reads. Repeated calls continue where
    /// the previous one stopped; finish with [`Self::finish`] (or keep
    /// advancing to the horizon).
    pub fn advance_until(&mut self, target: u64) {
        let stop = target.min(self.cfg.total_cycles());
        // Crossing (or landing on) the warmup→measure boundary pre-sizes
        // everything that still grows under saturation, so the measure
        // phase itself runs allocation-free (`presize_steady_state`).
        let warm = self.cfg.warmup_cycles;
        if self.now < warm && stop >= warm {
            self.advance_engine(warm);
            if self.now == warm {
                self.presize_steady_state();
            }
        }
        self.advance_engine(stop);
    }

    fn advance_engine(&mut self, stop: u64) {
        // `stop` (not the horizon) bounds the event core's idle skip so it
        // cannot overshoot the stepping boundary.
        while self.now < stop && !self.batch_done() {
            crate::event::step(self, stop);
        }
    }

    /// One-shot hook at the warmup→measure boundary: pre-reserve every
    /// structure that still grows in a saturated steady state, so the
    /// measure phase performs zero heap allocations (verified by the
    /// `zero_alloc` integration test). Source queues and the live-packet
    /// population grow roughly linearly under saturation, so the offered
    /// load projected across the rest of the horizon bounds them, in
    /// packets: one slab slot and one queued id (4 B) per packet a host
    /// may still inject. The event core's delay lines get their in-flight
    /// bounds instead: `delay` cycles of per-cycle caps for links and
    /// credits, one expiry per armable input VC for each route line. Pure
    /// capacity reservation — observable behavior is unchanged.
    fn presize_steady_state(&mut self) {
        // A host injects at most ~rate × remaining packets more (Bernoulli
        // gaps; 25% slack plus a constant floor dwarfs the binomial
        // variance), so offered load bounds both the packet-slab growth
        // and — worst case, nothing drains — each source queue's depth.
        let remaining = self.cfg.total_cycles().saturating_sub(self.now) as f64;
        let inj_pkts = (self.injector.rate() * remaining * 1.25) as usize + 8;
        self.packets
            .reserve_slots(self.packets.slot_count() + inj_pkts * self.hosts());
        for q in &mut self.inj_buf {
            q.reserve(inj_pkts);
        }
        let channels = self.graph.channel_count();
        // Host inputs only ever arm VC 0.
        let route_ivs = channels * self.nvc + self.hosts();
        let (link_delay, credit_delay) = (self.cfg.link_delay.max(1), self.cfg.credit_delay.max(1));
        self.ev
            .presize_steady_state(channels, route_ivs, link_delay, credit_delay);
    }

    /// Complete the run (advancing any remaining cycles) and return the
    /// collected statistics — the terminal step of the [`Self::advance_until`]
    /// stepping API. `run()` is equivalent to calling this without any
    /// prior stepping.
    pub fn finish(mut self) -> RunStats {
        self.run_inner();
        self.finish_stats()
    }

    fn run_inner(&mut self) {
        self.advance_until(self.cfg.total_cycles());
        if let Some(t) = self.phase_timers.take() {
            eprint!("{}", t.report());
        }
    }

    pub(crate) fn batch_done(&self) -> bool {
        let retries_empty = self.fault.as_ref().is_none_or(|f| f.retries.is_empty());
        self.closed_total.is_some_and(|t| {
            self.packets.total_created >= t && self.packets.live() == 0 && retries_empty
        })
    }

    fn finish_stats(self) -> RunStats {
        let hosts = self.hosts();
        let packets = self.packets.total_created;
        let window = self.cfg.measure_cycles.max(1) as f64;
        let mean_util = if self.channel_flits.is_empty() {
            0.0
        } else {
            self.channel_flits.iter().sum::<u64>() as f64 / window / self.channel_flits.len() as f64
        };
        let max_util = self
            .channel_flits
            .iter()
            .map(|&f| f as f64 / window)
            .fold(0.0f64, f64::max);
        let mut stats = self.stats.finish(&self.cfg, hosts, packets as usize);
        stats.mean_channel_utilization = mean_util;
        stats.max_channel_utilization = max_util;
        let (dropped_all, retries_pending) = match &self.fault {
            Some(f) => {
                stats.dropped_packets = f.dropped_measured;
                stats.dropped_packets_all_time = f.dropped_all;
                stats.salvaged_packets = f.salvaged;
                stats.retried_packets = f.retried;
                stats.abandoned_packets = f.abandoned;
                (f.dropped_all, f.retries.len() as u64)
            }
            None => (0, 0),
        };
        stats.completion_cycle = if packets > 0
            && retries_pending == 0
            && self.delivered_all_time + dropped_all == packets
        {
            Some(self.last_progress)
        } else {
            None
        };
        stats.longest_stall_cycles = self.longest_stall;
        stats.peak_in_flight_packets = self.packets.peak_live;
        stats.peak_buffered_flits = self.peak_buffered_flits;
        // Threshold: far beyond any legitimate wait (a full header + link
        // pipeline plus one packet serialization, with a wide margin).
        let threshold =
            16 * (self.cfg.header_delay + self.cfg.link_delay + self.cfg.packet_flits as u64);
        stats.deadlock_suspected =
            self.longest_stall > threshold && packets > self.delivered_all_time + dropped_all;
        stats
    }

    /// Start a per-phase timing stamp (None when timing is off).
    #[inline]
    pub(crate) fn phase_stamp(&self) -> Option<std::time::Instant> {
        self.phase_timers.is_some().then(std::time::Instant::now)
    }

    /// Credit the wall time since `stamp` to phase `p` and restart it.
    #[inline]
    pub(crate) fn phase_mark(
        &mut self,
        stamp: &mut Option<std::time::Instant>,
        p: crate::timing::Phase,
    ) {
        if let (Some(t), Some(s)) = (self.phase_timers.as_deref_mut(), stamp.as_mut()) {
            t.mark(s, p);
        }
    }

    // ------------------------------------------------------------------
    // Mutation helpers: every observable state change goes through these.
    // Each keeps the event core's active sets and delay lines in step with
    // the state it changes.
    // ------------------------------------------------------------------

    /// The cycle of `host`'s next injection-side action, whichever source
    /// drives this workload ([`NEVER`] = nothing scheduled).
    #[inline]
    pub(crate) fn source_next_cycle(&self, host: usize) -> u64 {
        match &self.flows {
            Some(fs) => fs.next_cycle(host),
            None => self.injector.next_cycle(host),
        }
    }

    /// Run `host`'s due injection action at `now`, dispatching to the
    /// workload's source (flow state machine or Bernoulli injector).
    pub(crate) fn fire_host(&mut self, host: usize, now: u64) {
        if self.flows.is_some() {
            self.fire_flow_host(host, now);
        } else {
            self.inject_host(host, now);
        }
    }

    /// Flow-source injection step for one host: process a due flow arrival
    /// and/or emit the next paced packet of the head-of-line flow.
    fn fire_flow_host(&mut self, host: usize, now: u64) {
        // Take the source out so its RNG draws can't alias `self` (the
        // enqueue below re-borrows the whole simulator).
        let mut fs = self.flows.take().expect("flow workload has a source");
        debug_assert_eq!(fs.next_cycle(host), now);
        let emit = fs.fire(host, now);
        let next = fs.next_cycle(host);
        self.flows = Some(fs);
        if next != NEVER {
            self.ev.schedule_injection(next, host);
        }
        if let Some(e) = emit {
            if e.first {
                let measured = now >= self.cfg.warmup_cycles
                    && now < self.cfg.warmup_cycles + self.cfg.measure_cycles;
                self.stats.on_flow_started(measured);
            }
            self.enqueue_packet_tagged(
                now,
                host,
                e.dest,
                0,
                PacketTag::Flow {
                    id: e.id,
                    start: e.start,
                    total: e.total,
                },
            );
        }
    }

    /// Enqueue every newly releasable collective stage. Ejections push
    /// host ids into `staged_ready` as stage expectations complete; the
    /// queue is drained here — at the *next* cycle's injection phase,
    /// sorted and deduped — so the release order (and thus packet uids)
    /// is independent of the engine's within-cycle ejection order.
    pub(crate) fn drain_staged_ready(&mut self, now: u64) {
        if self.staged_ready.is_empty() {
            return;
        }
        let mut ready = std::mem::take(&mut self.staged_ready);
        ready.sort_unstable();
        ready.dedup();
        let mut st = self.staged.take().expect("staged workload has state");
        let msg = st.spec().msg_packets();
        let mut sends: Vec<(u32, u32)> = Vec::new();
        for &h in &ready {
            sends.clear();
            st.collect_releases(h as usize, &mut sends);
            for &(dest, stage) in &sends {
                for _ in 0..msg {
                    self.enqueue_packet_tagged(
                        now,
                        h as usize,
                        dest as usize,
                        0,
                        PacketTag::Stage { stage },
                    );
                }
            }
        }
        self.staged = Some(st);
        ready.clear();
        self.staged_ready = ready;
    }

    /// Inject one packet from `host` at its scheduled cycle and draw the
    /// host's next injection gap.
    pub(crate) fn inject_host(&mut self, host: usize, now: u64) {
        debug_assert_eq!(self.injector.next_cycle(host), now);
        let hosts = self.hosts();
        let dest = {
            let pattern = self
                .pattern
                .as_ref()
                .expect("open workload has a traffic pattern");
            pattern.pick(host, hosts, self.injector.rng_mut(host))
        };
        self.injector.advance(host, now);
        let next = self.injector.next_cycle(host);
        if next != NEVER {
            self.ev.schedule_injection(next, host);
        }
        self.enqueue_packet(now, host, dest);
    }

    /// Create a packet and append it to the source host's injection
    /// queue.
    pub(crate) fn enqueue_packet(&mut self, now: u64, src_host: usize, dest_host: usize) {
        self.enqueue_packet_tagged(now, src_host, dest_host, 0, PacketTag::None);
    }

    /// Like [`Self::enqueue_packet`] but recording the retry attempt number
    /// (used when a fault-dropped packet is re-sent by its source host) and
    /// the workload-layer tag the packet carries.
    pub(crate) fn enqueue_packet_tagged(
        &mut self,
        now: u64,
        src_host: usize,
        dest_host: usize,
        attempt: u32,
        tag: PacketTag,
    ) {
        debug_assert_ne!(src_host, dest_host);
        let dest_sw = (dest_host / self.cfg.hosts_per_switch) as u32;
        let src_sw = src_host / self.cfg.hosts_per_switch;
        let route = self.routing.init(src_sw, dest_sw as usize);
        let measured =
            now >= self.cfg.warmup_cycles && now < self.cfg.warmup_cycles + self.cfg.measure_cycles;
        let uid = self.packets.total_created as u32;
        let id = self.packets.alloc(Packet {
            uid,
            src_host: src_host as u32,
            dest_host: dest_host as u32,
            dest_sw,
            created: now,
            route,
            measured,
            attempt,
            tag,
        });
        self.stats.on_offered(now, self.cfg.packet_flits);
        self.telemetry.on_created(id, src_sw as u32, dest_sw, now);
        if let Some(tr) = &mut self.tracer {
            tr.record(
                now,
                uid,
                TraceEvent::Injected {
                    src_sw,
                    dest_sw: dest_sw as usize,
                },
            );
        }
        // The whole packet joins the source queue at once: its flits count
        // as buffered, and a head landing in an empty queue arms the header
        // timer.
        let input = self.injection_input(src_host);
        let q = &mut self.inj_buf[src_host];
        let was_empty = q.front().is_none();
        q.push_packet(id);
        self.buffered_flits += self.cfg.packet_flits as u64;
        self.peak_buffered_flits = self.peak_buffered_flits.max(self.buffered_flits);
        if was_empty {
            debug_assert!(
                self.ivc[input * self.nvc].alloc == ALLOC_NONE,
                "empty source queue still owned by a previous packet"
            );
            self.arm_header(input, 0, now);
        }
        if self.telemetry.enabled() {
            let depth = self.buf_len(input * self.nvc) as u32;
            self.telemetry.on_inject_depth(depth, now);
        }
    }

    // --- input-VC buffer accessors -------------------------------------
    // Network `iv`s (< net_ivs) live in the flat ring arena; injection
    // `iv`s (VC slot 0 of each host's input) in per-host packet-granular
    // source queues. All logical state (front, order, length in flits) is
    // representation-independent.

    /// The source queue behind injection `iv` (slot 0 of a host's input).
    #[inline]
    fn source_queue(&self, iv: usize) -> &SourceQueue {
        debug_assert_eq!((iv - self.net_ivs) % self.nvc, 0, "injection VC slot");
        &self.inj_buf[(iv - self.net_ivs) / self.nvc]
    }

    #[inline]
    fn source_queue_mut(&mut self, iv: usize) -> &mut SourceQueue {
        debug_assert_eq!((iv - self.net_ivs) % self.nvc, 0, "injection VC slot");
        &mut self.inj_buf[(iv - self.net_ivs) / self.nvc]
    }

    /// Flits resident in buffer `iv`.
    #[inline]
    pub(crate) fn buf_len(&self, iv: usize) -> usize {
        if iv < self.net_ivs {
            (self.net_pos[iv] & 0xFFFF) as usize
        } else {
            self.source_queue(iv).len_flits(self.cfg.packet_flits)
        }
    }

    /// Front flit of buffer `iv`, by value ([`Flit`] is 8 bytes).
    #[inline]
    pub(crate) fn buf_front(&self, iv: usize) -> Option<Flit> {
        if iv < self.net_ivs {
            let pos = self.net_pos[iv];
            if pos & 0xFFFF == 0 {
                None
            } else {
                Some(self.net_buf[iv * self.cfg.buffer_flits + (pos >> 16) as usize])
            }
        } else {
            self.source_queue(iv).front()
        }
    }

    /// Pop the front flit of input-VC buffer `(i, v)`.
    fn buf_pop(&mut self, i: usize, v: usize) -> Flit {
        let iv = i * self.nvc + v;
        self.buffered_flits -= 1;
        if iv < self.net_ivs {
            let cap = self.cfg.buffer_flits;
            let pos = self.net_pos[iv];
            let (head, len) = ((pos >> 16) as usize, (pos & 0xFFFF) as usize);
            debug_assert!(len > 0, "pop from empty ring");
            let flit = self.net_buf[iv * cap + head];
            let mut nh = head + 1;
            if nh == cap {
                nh = 0;
            }
            self.net_pos[iv] = ((nh as u32) << 16) | (len as u32 - 1);
            flit
        } else {
            let packet_flits = self.cfg.packet_flits;
            self.source_queue_mut(iv).pop_flit(packet_flits)
        }
    }

    /// Whether any flit of packet `pkt` sits in buffer `iv` (fault paths).
    pub(crate) fn buf_contains_packet(&self, iv: usize, pkt: u32) -> bool {
        if iv < self.net_ivs {
            let mut found = false;
            self.buf_for_each_packet(iv, |p| found |= p == pkt);
            found
        } else {
            self.source_queue(iv).contains(pkt)
        }
    }

    /// Visit the slab id of every packet resident in buffer `iv`
    /// front-to-back (fault paths): once per flit in a network ring, once
    /// per packet in a source queue. Callers dedup.
    pub(crate) fn buf_for_each_packet(&self, iv: usize, mut f: impl FnMut(u32)) {
        if iv < self.net_ivs {
            let cap = self.cfg.buffer_flits;
            let pos = self.net_pos[iv];
            let (head, len) = ((pos >> 16) as usize, (pos & 0xFFFF) as usize);
            for k in 0..len {
                let mut at = head + k;
                if at >= cap {
                    at -= cap;
                }
                f(self.net_buf[iv * cap + at].packet);
            }
        } else {
            self.source_queue(iv).packets().for_each(f);
        }
    }

    /// Drop every flit of packet `pkt` from buffer `iv`, preserving the
    /// order of the survivors; returns how many were removed (fault
    /// paths). Ring survivors are compacted toward `head` — the write slot
    /// `head + kept` trails the read slot `head + k` (`kept <= k`), so an
    /// already-read slot is never clobbered. A source queue drops the
    /// packet's id: its unsent flits if it was the partly sent head (the
    /// cursor resets for the next packet), all `packet_flits` otherwise.
    pub(crate) fn buf_retain_not_packet(&mut self, iv: usize, pkt: u32) -> usize {
        if iv < self.net_ivs {
            let cap = self.cfg.buffer_flits;
            let base = iv * cap;
            let pos = self.net_pos[iv];
            let (head, len) = ((pos >> 16) as usize, (pos & 0xFFFF) as usize);
            let mut kept = 0usize;
            for k in 0..len {
                let mut at = head + k;
                if at >= cap {
                    at -= cap;
                }
                let flit = self.net_buf[base + at];
                if flit.packet != pkt {
                    let mut to = head + kept;
                    if to >= cap {
                        to -= cap;
                    }
                    self.net_buf[base + to] = flit;
                    kept += 1;
                }
            }
            self.net_pos[iv] = ((head as u32) << 16) | kept as u32;
            len - kept
        } else {
            let packet_flits = self.cfg.packet_flits;
            self.source_queue_mut(iv).remove_packet(pkt, packet_flits)
        }
    }

    /// Append a flit arriving over channel `i` to network input-VC buffer
    /// `(i, v)` (source queues take whole packets in
    /// [`Self::enqueue_packet_tagged`]). A head flit landing in an empty
    /// buffer arms the header-processing timer.
    pub(crate) fn buf_push(&mut self, i: usize, v: usize, flit: Flit, now: u64) {
        let iv = i * self.nvc + v;
        debug_assert!(iv < self.net_ivs, "network input unit");
        let cap = self.cfg.buffer_flits;
        let pos = self.net_pos[iv];
        let (head, len) = ((pos >> 16) as usize, (pos & 0xFFFF) as usize);
        debug_assert!(len < cap, "ring overflow: credit loop broken");
        let mut at = head + len;
        if at >= cap {
            at -= cap;
        }
        self.net_buf[iv * cap + at] = flit;
        self.net_pos[iv] = pos + 1;
        let depth = len + 1;
        let was_empty = len == 0;
        self.buffered_flits += 1;
        self.peak_buffered_flits = self.peak_buffered_flits.max(self.buffered_flits);
        let is_tail = flit.seq as usize + 1 == self.cfg.packet_flits;
        self.telemetry
            .on_link_arrival(i as u32, v as u32, depth as u32, flit.packet, is_tail, now);
        if was_empty {
            if flit.seq == 0 {
                debug_assert!(
                    self.ivc[iv].alloc == ALLOC_NONE,
                    "fresh head in a buffer still owned by a previous packet"
                );
                self.arm_header(i, v, now);
            } else if let Some(OutRef::Net { channel, vc }) = decode_alloc(self.ivc[iv].alloc) {
                // Mid-stream refill of a drained buffer: the allocated
                // output VC may be sendable again.
                self.refresh_ready(channel, vc as usize);
            }
        }
    }

    /// Arm the header-delay timer for the head packet of `(i, v)`: routing
    /// work conceptually starts at `arm_cycle`, and allocation may first be
    /// attempted `max(header_delay, 1)` cycles later (allocation follows
    /// arrival in the cycle order, so at least one cycle separates arming
    /// and allocating, and delay-0 configs still wait one cycle).
    pub(crate) fn arm_header(&mut self, i: usize, v: usize, arm_cycle: u64) {
        let ready = arm_cycle + self.cfg.header_delay.max(1);
        self.ivc[i * self.nvc + v].ready = ready;
        debug_assert!(arm_cycle == self.now || arm_cycle == self.now + 1);
        self.ev.schedule_route(ready, i, v, arm_cycle > self.now);
    }

    /// Release an input VC after its tail left; a revealed next-packet head
    /// is seen by the allocator no earlier than the following cycle.
    fn release_input_vc(&mut self, i: usize, v: usize, now: u64) {
        let iv = i * self.nvc + v;
        self.ivc[iv].alloc = ALLOC_NONE;
        self.ivc[iv].ready = u64::MAX;
        if let Some(head) = self.buf_front(iv) {
            debug_assert_eq!(head.seq, 0, "packets stream whole, in order");
            self.arm_header(i, v, now + 1);
        }
    }

    /// Set the wake-up dirty bit for `node` (see [`Self::node_dirty`]).
    #[inline]
    pub(crate) fn mark_node_dirty(&mut self, node: usize) {
        self.node_dirty[node >> 6] |= 1u64 << (node & 63);
    }

    /// Release output VC `(ch, vc)` held by `owner`: clear its owner and
    /// its owned/ready bits. Released with at least `alloc_need` credits
    /// banked it is grantable at once, so blocked heads at the source
    /// switch are woken. With [`Self::apply_credit`] this is the only
    /// place an output VC turns grantable (the event core's wake
    /// invariant).
    pub(crate) fn release_output_vc(&mut self, ch: usize, vc: u8, owner: u32) {
        let slot = self.ch_slot[ch] as usize;
        let ov = slot * self.nvc + vc as usize;
        debug_assert_eq!(ovc_owner_of(self.ovc_state[ov]), owner);
        let s = self.ovc_state[ov] | OVC_FREE;
        self.ovc_state[ov] = s;
        self.chv[slot].owned &= !(1u64 << vc);
        self.chv[slot].ready &= !(1u64 << vc);
        if ovc_credits_of(s) >= self.alloc_need {
            self.mark_node_dirty(self.ch_src[ch] as usize);
        }
    }

    /// Batched credit drain over a slice of the credits due this cycle
    /// (event core; the delay line hands its due prefix over as up to two
    /// contiguous slices): the loop lives here so [`Self::apply_credit`]
    /// inlines against field loads hoisted out of the loop.
    pub(crate) fn drain_credits(&mut self, credits: &[(u32, u8)]) {
        for &(ch, vc) in credits {
            self.apply_credit(ch as usize, vc);
        }
    }

    /// Batched link-arrival drain over a slice of the arrivals due this
    /// cycle (event core), like [`Self::drain_credits`].
    pub(crate) fn drain_links(&mut self, links: &[(u32, u8, Flit)], now: u64) {
        for &(ch, vc, flit) in links {
            self.buf_push(ch as usize, vc as usize, flit, now);
        }
    }

    pub(crate) fn apply_credit(&mut self, ch: usize, vc: u8) {
        let ov = self.ch_slot[ch] as usize * self.nvc + vc as usize;
        let s = self.ovc_state[ov] + 1;
        self.ovc_state[ov] = s;
        debug_assert!(
            ovc_credits_of(s) as usize <= self.cfg.buffer_flits,
            "credit overflow on channel {ch} vc {vc}"
        );
        if s == OVC_FREE + self.alloc_need as u64 {
            // A free VC just crossed the grant threshold: blocked heads at
            // the source switch may now allocate it.
            self.mark_node_dirty(self.ch_src[ch] as usize);
        } else if s < OVC_FREE && ovc_credits_of(s) == 1 {
            // A 0→1 credit transition may un-starve the owner.
            self.refresh_ready(ch, vc as usize);
        }
    }

    /// Recompute the [`ChHot::ready`] bit for output VC `(ch, vc)` from
    /// the owner/credit/buffer state it summarizes.
    pub(crate) fn refresh_ready(&mut self, ch: usize, vc: usize) {
        let slot = self.ch_slot[ch] as usize;
        let s = self.ovc_state[slot * self.nvc + vc];
        let owner = ovc_owner_of(s);
        let ready = owner != OWNER_NONE && ovc_credits_of(s) > 0 && {
            let (i, v) = owner_unpack(owner);
            self.buf_len(i * self.nvc + v as usize) > 0
        };
        if ready {
            self.chv[slot].ready |= 1u64 << vc;
        } else {
            self.chv[slot].ready &= !(1u64 << vc);
        }
    }

    /// Schedule a flit's link traversal toward the downstream input. A
    /// zero-delay link still delivers next cycle (arrivals precede sends
    /// in the cycle order, so a same-cycle send is seen one cycle later).
    fn send_flit_on_link(&mut self, ch: usize, flit: Flit, vc: u8, now: u64) {
        let t = now + self.cfg.link_delay.max(1);
        self.ev.schedule_link(t, ch, flit, vc);
    }

    /// Schedule a credit return toward the upstream output VC (zero-delay
    /// credits likewise land next cycle).
    fn return_credit(&mut self, ch: usize, vc: u8, now: u64) {
        let t = now + self.cfg.credit_delay.max(1);
        self.ev.schedule_credit(t, ch, vc);
    }

    fn mark_input_used(&mut self, i: usize) {
        debug_assert!(!self.input_used[i]);
        self.input_used[i] = true;
        self.touched_inputs.push(i as u32);
    }

    pub(crate) fn clear_used(&mut self) {
        let mut touched = std::mem::take(&mut self.touched_inputs);
        for &i in &touched {
            self.input_used[i as usize] = false;
        }
        touched.clear();
        self.touched_inputs = touched;
        let mut touched = std::mem::take(&mut self.touched_ejects);
        for &s in &touched {
            self.eject_used[s as usize] = false;
        }
        touched.clear();
        self.touched_ejects = touched;
    }

    /// Deadlock watchdog: count consecutive cycles in which packets are in
    /// flight yet no flit moved anywhere (injection does not count — an
    /// open workload keeps injecting into a wedged network).
    pub(crate) fn watchdog(&mut self, now: u64) {
        if self.last_progress == now || self.packets.live() == 0 {
            self.current_stall = 0;
        } else {
            self.current_stall += 1;
            self.longest_stall = self.longest_stall.max(self.current_stall);
        }
    }

    /// Routing + VC allocation for one head packet whose timer has expired.
    /// The caller guarantees the head is a seq-0 flit, unallocated, with
    /// `now >= route_ready_at`.
    pub(crate) fn try_allocate_vc(&mut self, i: usize, v: usize, now: u64) -> AllocOutcome {
        let node = self.input_node[i] as usize;
        let iv = i * self.nvc + v;
        let head = self.buf_front(iv).expect("head present");
        debug_assert_eq!(head.seq, 0);
        debug_assert!(self.ivc[iv].alloc == ALLOC_NONE);
        debug_assert!(now >= self.ivc[iv].ready);
        let pkt_idx = head.packet;
        let dest_sw = self.packets.get(pkt_idx).dest_sw as usize;
        if let Some(f) = &self.fault {
            // A dead local or destination switch makes the packet unroutable
            // outright (it can never be delivered while the switch is down).
            if !f.mask.node_up(node) || !f.mask.node_up(dest_sw) {
                return AllocOutcome::Unroutable;
            }
        }
        if dest_sw == node {
            // Eject: always grantable (sink arbitrated per cycle).
            let port = self.packets.get(pkt_idx).dest_host as usize % self.cfg.hosts_per_switch;
            self.ivc[iv].alloc = alloc_eject(port);
            self.ivc[iv].alloc_pkt = pkt_idx;
            self.telemetry.on_alloc_granted(pkt_idx, now);
            return AllocOutcome::Eject;
        }
        let need = self.alloc_need;
        let mut outcome = AllocOutcome::Blocked;
        let mut usable = 0usize;
        let mut candidates = std::mem::take(&mut self.cand_scratch);
        candidates.clear();
        self.routing.candidates(
            node,
            dest_sw,
            &self.packets.get(pkt_idx).route,
            &mut candidates,
        );
        debug_assert!(
            self.fault.is_some() || !candidates.is_empty(),
            "no route from {node} to {dest_sw}"
        );
        for &(ch, vc) in &candidates {
            debug_assert_eq!(self.graph.channel_endpoints(ch).0, node);
            if self
                .fault
                .as_ref()
                .is_some_and(|f| !f.mask.channel_alive(ch))
            {
                continue;
            }
            usable += 1;
            if self.try_grant(i, v, pkt_idx, node, ch, vc, need, now) {
                let route = &mut self.packets.get_mut(pkt_idx).route;
                self.routing.on_hop(node, dest_sw, route, ch, vc);
                self.telemetry.on_alloc_granted(pkt_idx, now);
                outcome = AllocOutcome::Net(ch);
                break;
            }
        }
        self.cand_scratch = candidates;
        if matches!(outcome, AllocOutcome::Blocked) && usable == 0 && self.fault.is_some() {
            // Every candidate is structurally dead on the survivor graph
            // (not merely busy): the packet cannot make progress here.
            outcome = AllocOutcome::Unroutable;
        }
        if matches!(outcome, AllocOutcome::Blocked) {
            // Counted once per eligible head per cycle: the event core's walk
            // fires this hook itself for each head it skips.
            self.telemetry.on_alloc_blocked(node as u32, now);
        }
        outcome
    }

    /// Attempt to grant output VC `(ch, vc)` to head `(i, v)`: checks the
    /// owner and credit gates, and on success records the ownership, the
    /// input allocation and the trace event (the caller commits the hop and
    /// telemetry, preserving the exact historical effect order).
    #[allow(clippy::too_many_arguments)]
    fn try_grant(
        &mut self,
        i: usize,
        v: usize,
        pkt_idx: u32,
        node: usize,
        ch: usize,
        vc: u8,
        need: u32,
        now: u64,
    ) -> bool {
        let slot = self.ch_slot[ch] as usize;
        let ov = slot * self.nvc + vc as usize;
        let s = self.ovc_state[ov];
        // Single compare: owner != NONE implies s < OVC_FREE (the owner
        // field is maximal only for NONE), and owner == NONE makes the
        // low half the credit count — so s >= OVC_FREE + need means
        // exactly "free with at least `need` credits".
        if s < OVC_FREE + need as u64 {
            return false;
        }
        self.ovc_state[ov] = ovc_pack(owner_pack(i, v as u8), ovc_credits_of(s));
        self.chv[slot].owned |= 1u64 << vc;
        // Freshly granted: credits >= need >= 1 and the head flit is
        // buffered, so the VC is sendable right away.
        self.chv[slot].ready |= 1u64 << vc;
        self.ivc[i * self.nvc + v].alloc = alloc_net(ch, vc);
        self.ivc[i * self.nvc + v].alloc_pkt = pkt_idx;
        if let Some(tr) = &mut self.tracer {
            let uid = self.packets.get(pkt_idx).uid;
            tr.record(
                now,
                uid,
                TraceEvent::VcAllocated {
                    at: node,
                    channel: ch,
                    vc,
                },
            );
        }
        true
    }

    /// Switch allocation + flit send for one output channel this cycle:
    /// round-robin over the sendable output VCs ([`ChHot::ready`] —
    /// owned, credited, flit buffered), send at most one flit.
    pub(crate) fn grant_channel(&mut self, ch: usize, now: u64) {
        let slot = self.ch_slot[ch] as usize;
        let ready = self.chv[slot].ready;
        if ready == 0 {
            return;
        }
        let nvc = self.nvc;
        let base = slot * nvc;
        let start = self.chv[slot].rr as usize;
        let mut granted: Option<(usize, u8, u8)> = None; // (input, ivc, ovc)
                                                         // Rotate so the RR pointer lands at bit 0: an ascending scan of the
                                                         // rotated word visits the bits at or above the pointer first, then
                                                         // the wrapped ones — exact round-robin order, one loop.
        let mut rot = ready.rotate_right(start as u32);
        while rot != 0 {
            let ovc = (rot.trailing_zeros() as usize + start) & 63;
            let owner = ovc_owner_of(self.ovc_state[base + ovc]);
            debug_assert_ne!(owner, OWNER_NONE, "ready bit without owner");
            let (i, v) = owner_unpack(owner);
            if !self.input_used[i] {
                granted = Some((i, v, ovc as u8));
                break;
            }
            rot &= rot - 1;
        }
        let Some((i, v, ovc)) = granted else {
            return;
        };
        self.last_progress = now;
        self.mark_input_used(i);
        self.chv[slot].rr = ((ovc as usize + 1) % nvc) as u32;
        let flit = self.buf_pop(i, v as usize);
        let ov = base + ovc as usize;
        // Credits >= 1 is guaranteed by the ready bit, so the packed
        // decrement cannot borrow into the owner half.
        self.ovc_state[ov] -= 1;
        self.send_flit_on_link(ch, flit, ovc, now);
        if now >= self.cfg.warmup_cycles && now < self.cfg.warmup_cycles + self.cfg.measure_cycles {
            self.channel_flits[ch] += 1;
        }
        // Return a credit upstream for the flit leaving this buffer.
        let up = self.input_upstream[i];
        if up != NO_UPSTREAM {
            self.return_credit(up as usize, v, now);
        }
        let tail = flit.seq as usize + 1 == self.cfg.packet_flits;
        if tail
            || ovc_credits_of(self.ovc_state[ov]) == 0
            || self.buf_len(i * nvc + v as usize) == 0
        {
            self.chv[slot].ready &= !(1u64 << ovc);
        }
        self.telemetry
            .on_flit_sent(ch as u32, flit.packet, tail, now);
        if tail {
            // tail: release ownership and input state
            self.release_output_vc(ch, ovc, owner_pack(i, v));
            if let Some(tr) = &mut self.tracer {
                let at = self.input_node[i] as usize;
                let uid = self.packets.get(flit.packet).uid;
                tr.record(now, uid, TraceEvent::TailSent { at, channel: ch });
            }
            self.release_input_vc(i, v as usize, now);
        }
    }

    /// Eject one flit from `(i, v)` if it holds an ejection grant and the
    /// input port + ejection port are both free this cycle. Returns true
    /// when the tail was ejected (packet delivered and retired).
    pub(crate) fn try_eject_vc(&mut self, i: usize, v: usize, now: u64) -> bool {
        if self.input_used[i] {
            return false;
        }
        let iv = i * self.nvc + v;
        let a = self.ivc[iv].alloc;
        if !alloc_is_eject(a) {
            return false;
        }
        let port = (a & !ALLOC_EJECT_BIT) as usize;
        if self.buf_len(iv) == 0 {
            return false;
        }
        let node = self.input_node[i] as usize;
        let slot = node * self.cfg.hosts_per_switch + port;
        if self.eject_used[slot] {
            return false;
        }
        self.eject_used[slot] = true;
        self.touched_ejects.push(slot as u32);
        self.mark_input_used(i);
        self.last_progress = now;
        let flit = self.buf_pop(i, v);
        let up = self.input_upstream[i];
        if up != NO_UPSTREAM {
            self.return_credit(up as usize, v as u8, now);
        }
        let tail = flit.seq as usize + 1 == self.cfg.packet_flits;
        self.telemetry.on_ejected(flit.packet, tail, now);
        if tail {
            self.delivered_all_time += 1;
            let (uid, created, measured, dest_host, ptag) = {
                let pkt = self.packets.get(flit.packet);
                (pkt.uid, pkt.created, pkt.measured, pkt.dest_host, pkt.tag)
            };
            if let Some(tr) = &mut self.tracer {
                tr.record(now, uid, TraceEvent::Delivered { at: node });
            }
            self.stats
                .on_delivered(now, created, measured, self.cfg.packet_flits);
            match ptag {
                PacketTag::None => {}
                PacketTag::Flow { id, start, total } => {
                    // FCT membership follows the flow's *start* cycle (the
                    // whole flow is measured or not, never split), so the
                    // per-class tallies partition the started flows.
                    let measured_flow = start >= self.cfg.warmup_cycles
                        && start < self.cfg.warmup_cycles + self.cfg.measure_cycles;
                    if let Some(fct) =
                        self.stats
                            .on_flow_packet(id, total, start, now, measured_flow)
                    {
                        self.telemetry.on_flow_completed(
                            crate::stats::flow_class(total) as u32,
                            fct,
                            now,
                        );
                    }
                }
                PacketTag::Stage { stage } => {
                    let st = self.staged.as_mut().expect("staged workload has state");
                    if st.on_recv(dest_host as usize, stage) {
                        // Released next cycle, via the sorted drain.
                        self.staged_ready.push(dest_host);
                    }
                }
            }
            self.packets.retire(flit.packet);
            self.release_input_vc(i, v, now);
            return true;
        }
        false
    }
}

/// Describe the simulated network to the (simulator-agnostic) telemetry
/// crate: channel endpoints plus a `ring` flag marking index-ring adjacency
/// (ring distance 1), which keys the exporter's ring-position heatmap.
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::AdaptiveEscape;
    use dsn_core::ring::Ring;
    use dsn_core::torus::Torus;

    fn tiny_sim(rate: f64) -> Simulator {
        let g = Arc::new(Ring::new(8).unwrap().into_graph());
        let cfg = SimConfig::test_small();
        let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
        Simulator::new(g, cfg, routing, TrafficPattern::Uniform, rate, 42)
    }

    #[test]
    fn low_load_delivers_everything() {
        let stats = tiny_sim(0.002).run();
        assert!(stats.delivered_packets > 0, "nothing delivered");
        assert!(
            stats.delivery_ratio() > 0.95,
            "delivery ratio {} too low at near-zero load",
            stats.delivery_ratio()
        );
        assert!(stats.avg_latency_cycles > 0.0);
    }

    #[test]
    fn zero_load_latency_matches_analytical_floor() {
        // One measured hop costs header + link; the packet also pays
        // serialization (packet_flits) and final header + ejection.
        let stats = tiny_sim(0.0005).run();
        let cfg = SimConfig::test_small();
        let floor = (cfg.header_delay + cfg.link_delay + cfg.packet_flits as u64) as f64;
        assert!(
            stats.avg_latency_cycles >= floor,
            "latency {} below physical floor {floor}",
            stats.avg_latency_cycles
        );
    }

    #[test]
    fn higher_load_never_lowers_latency() {
        let low = tiny_sim(0.002).run();
        let high = tiny_sim(0.02).run();
        assert!(
            high.avg_latency_cycles >= low.avg_latency_cycles * 0.9,
            "latency should not improve with load: low {} high {}",
            low.avg_latency_cycles,
            high.avg_latency_cycles
        );
    }

    #[test]
    fn accepted_tracks_offered_below_saturation() {
        let stats = tiny_sim(0.01).run();
        let offered = stats.offered_flits_per_cycle_per_host;
        let accepted = stats.accepted_flits_per_cycle_per_host;
        assert!(
            (accepted - offered).abs() / offered < 0.15,
            "accepted {accepted} vs offered {offered}"
        );
    }

    #[test]
    fn torus_with_updown_runs() {
        let g = Arc::new(Torus::new(&[4, 4]).unwrap().into_graph());
        let cfg = SimConfig::test_small();
        let routing = Arc::new(crate::routing::UpDownRouting::new(g.clone(), cfg.vcs));
        let sim = Simulator::new(g, cfg, routing, TrafficPattern::Uniform, 0.005, 7);
        let stats = sim.run();
        assert!(stats.delivered_packets > 0);
        assert!(stats.delivery_ratio() > 0.9);
    }

    #[test]
    #[should_panic(
        expected = "routing 'dsn-algorithmic(dsn-v)' spans 4 VCs but the config has only 2"
    )]
    fn rejects_dsnv_on_two_vcs() {
        let dsn = Arc::new(dsn_core::dsn::Dsn::new(16, 3).unwrap());
        let g = Arc::new(dsn.graph().clone());
        let routing = Arc::new(crate::routing::DsnAlgorithmic::new(dsn));
        Simulator::new(
            g,
            SimConfig::test_small(),
            routing,
            TrafficPattern::Uniform,
            0.01,
            1,
        );
    }

    #[test]
    #[should_panic(
        expected = "routing 'adaptive+ud-escape(8vc)' spans 8 VCs but the config has only 4"
    )]
    fn rejects_adaptive_with_more_vcs_than_configured() {
        let g = Arc::new(Ring::new(8).unwrap().into_graph());
        let cfg = SimConfig {
            vcs: 4,
            ..SimConfig::test_small()
        };
        let routing = Arc::new(AdaptiveEscape::new(g.clone(), 8));
        Simulator::new(g, cfg, routing, TrafficPattern::Uniform, 0.01, 1);
    }

    #[test]
    fn wormhole_mode_delivers_at_low_load() {
        let g = Arc::new(Ring::new(8).unwrap().into_graph());
        let cfg = SimConfig {
            switching: crate::config::Switching::Wormhole,
            buffer_flits: 2,
            ..SimConfig::test_small()
        };
        let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
        let stats = Simulator::new(g, cfg, routing, TrafficPattern::Uniform, 0.002, 5).run();
        assert!(stats.delivery_ratio() > 0.95, "{}", stats.delivery_ratio());
        assert!(!stats.deadlock_suspected);
    }

    #[test]
    fn wormhole_saturates_no_later_than_vct() {
        let g = Arc::new(Ring::new(8).unwrap().into_graph());
        let mk = |mode, buffer| {
            let cfg = SimConfig {
                switching: mode,
                buffer_flits: buffer,
                ..SimConfig::test_small()
            };
            let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
            Simulator::new(g.clone(), cfg, routing, TrafficPattern::Uniform, 0.05, 5).run()
        };
        let vct = mk(crate::config::Switching::VirtualCutThrough, 8);
        let worm = mk(crate::config::Switching::Wormhole, 2);
        assert!(
            worm.accepted_flits_per_cycle_per_host <= vct.accepted_flits_per_cycle_per_host * 1.05
        );
    }

    #[test]
    fn all_to_all_batch_completes() {
        let g = Arc::new(Ring::new(8).unwrap().into_graph());
        let mut cfg = SimConfig::test_small();
        cfg.drain_cycles = 50_000; // plenty of horizon for the batch
        let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
        let stats =
            Simulator::with_workload(g, cfg, routing, crate::workload::Workload::all_to_all(8), 3)
                .run();
        let makespan = stats.completion_cycle.expect("batch must finish");
        assert!(makespan > 0);
        assert_eq!(stats.total_packets_all_time, 8 * 7);
        assert!(!stats.deadlock_suspected);
    }

    #[test]
    fn batch_makespan_scales_with_size() {
        let g = Arc::new(Ring::new(8).unwrap().into_graph());
        let mut cfg = SimConfig::test_small();
        cfg.drain_cycles = 100_000;
        let run = |count: usize| {
            let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
            Simulator::with_workload(
                g.clone(),
                cfg.clone(),
                routing,
                crate::workload::Workload::ring_shift(8, 1, count),
                3,
            )
            .run()
            .completion_cycle
            .expect("finishes")
        };
        assert!(run(8) > run(1));
    }

    #[test]
    fn tracer_records_full_packet_lifecycles() {
        let g = Arc::new(Ring::new(8).unwrap().into_graph());
        let cfg = SimConfig::test_small();
        let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
        let sim =
            Simulator::new(g, cfg, routing, TrafficPattern::Uniform, 0.005, 11).with_tracer(1);
        let (stats, trace) = sim.run_traced();
        assert!(stats.delivered_packets > 0);
        assert!(!trace.records().is_empty());
        // Find a delivered packet and sanity-check its timeline ordering
        // and latency decomposition.
        let delivered: Vec<u32> = trace
            .records()
            .iter()
            .filter_map(|&(_, p, e)| matches!(e, TraceEvent::Delivered { .. }).then_some(p))
            .collect();
        assert!(!delivered.is_empty());
        for &p in delivered.iter().take(5) {
            let timeline = trace.packet_timeline(p);
            assert!(timeline.windows(2).all(|w| w[0].0 <= w[1].0), "time order");
            assert!(matches!(timeline[0].2, TraceEvent::Injected { .. }));
            let (queue, transit, total) = trace.latency_breakdown(p).expect("delivered");
            assert_eq!(queue + transit, total);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = tiny_sim(0.01).run();
        let b = tiny_sim(0.01).run();
        assert_eq!(a.delivered_packets, b.delivered_packets);
        assert_eq!(a.avg_latency_cycles, b.avg_latency_cycles);
    }

    #[test]
    fn memory_stays_bounded_on_open_runs() {
        let stats = tiny_sim(0.01).run();
        assert!(stats.total_packets_all_time > 50);
        assert!(
            stats.peak_in_flight_packets < stats.total_packets_all_time / 2,
            "peak in-flight {} should be far below total {}",
            stats.peak_in_flight_packets,
            stats.total_packets_all_time
        );
        assert!(stats.peak_buffered_flits > 0);
    }

    #[test]
    fn slab_recycles_slots() {
        let mut slab = PacketSlab::default();
        let mk = |uid| Packet {
            uid,
            src_host: 0,
            dest_host: 1,
            dest_sw: 0,
            created: 0,
            route: RouteState {
                ud_phase: dsn_route::updown::UdPhase::Up,
                alg: 0,
            },
            measured: false,
            attempt: 0,
            tag: PacketTag::None,
        };
        let a = slab.alloc(mk(0));
        let b = slab.alloc(mk(1));
        assert_ne!(a, b);
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.peak_live, 2);
        slab.retire(a);
        assert_eq!(slab.live(), 1);
        let c = slab.alloc(mk(2));
        assert_eq!(c, a, "freed slot is reused");
        assert_eq!(slab.get(c).uid, 2);
        assert_eq!(slab.peak_live, 2, "peak unchanged by recycling");
        assert_eq!(slab.total_created, 3);
    }

    #[test]
    fn hot_record_sizes_are_pinned() {
        // Flits ride the ring arena and the link delay line; slab slots
        // hold every live packet. Growth in either shows up here first.
        assert_eq!(std::mem::size_of::<Flit>(), 8);
        assert_eq!(std::mem::size_of::<Option<Packet>>(), 56);
    }

    /// Drain `q` flit by flit, returning `(packet, seq)` pairs.
    fn drain(q: &mut SourceQueue, pf: usize) -> Vec<(u32, u16)> {
        let mut out = Vec::new();
        while q.front().is_some() {
            let f = q.pop_flit(pf);
            out.push((f.packet, f.seq));
        }
        out
    }

    #[test]
    fn source_queue_streams_packets_flit_by_flit() {
        let pf = 3;
        let mut q = SourceQueue::default();
        assert_eq!((q.front(), q.len_flits(pf)), (None, 0));
        q.push_packet(7);
        q.push_packet(2);
        assert_eq!(q.len_flits(pf), 6);
        assert_eq!(q.front(), Some(Flit { packet: 7, seq: 0 }));
        assert_eq!(q.pop_flit(pf), Flit { packet: 7, seq: 0 });
        assert_eq!(q.len_flits(pf), 5);
        assert_eq!(q.front(), Some(Flit { packet: 7, seq: 1 }));
        q.pop_flit(pf);
        // The tail pops the packet; the next one starts at seq 0.
        assert_eq!(q.pop_flit(pf), Flit { packet: 7, seq: 2 });
        assert_eq!(q.front(), Some(Flit { packet: 2, seq: 0 }));
        assert_eq!(q.len_flits(pf), 3);
        q.push_packet(9);
        assert_eq!(
            drain(&mut q, pf),
            [(2, 0), (2, 1), (2, 2), (9, 0), (9, 1), (9, 2)]
        );
        assert_eq!((q.len_flits(pf), q.head_seq), (0, 0));
    }

    #[test]
    fn source_queue_purges_partly_sent_head() {
        let pf = 4;
        let mut q = SourceQueue::default();
        q.push_packet(1);
        q.push_packet(5);
        q.pop_flit(pf);
        q.pop_flit(pf);
        assert!(q.contains(1));
        // Two of four flits left: only the unsent two are removed, and the
        // cursor resets for the revealed head.
        assert_eq!(q.remove_packet(1, pf), 2);
        assert!(!q.contains(1));
        assert_eq!(q.front(), Some(Flit { packet: 5, seq: 0 }));
        assert_eq!(q.len_flits(pf), 4);
        assert_eq!(q.remove_packet(1, pf), 0, "absent packet removes nothing");
        assert_eq!(q.remove_packet(5, pf), 4, "unsent head removes all flits");
        assert_eq!((q.front(), q.len_flits(pf)), (None, 0));
    }

    #[test]
    fn source_queue_purges_middle_packet_and_requeues_retries_last() {
        let pf = 2;
        let mut q = SourceQueue::default();
        for id in [3, 4, 6] {
            q.push_packet(id);
        }
        q.pop_flit(pf);
        // A packet further back loses all its flits; the head keeps its
        // cursor.
        assert_eq!(q.remove_packet(4, pf), 2);
        assert_eq!(q.front(), Some(Flit { packet: 3, seq: 1 }));
        assert_eq!(q.packets().collect::<Vec<_>>(), [3, 6]);
        // A fault retry is a fresh enqueue: it joins the back, even when
        // the recycled slab id matches the purged one.
        q.push_packet(4);
        assert_eq!(q.len_flits(pf), 5);
        assert_eq!(drain(&mut q, pf), [(3, 1), (6, 0), (6, 1), (4, 0), (4, 1)]);
    }

    #[test]
    fn enqueue_counts_whole_packets_and_arms_once() {
        let mut sim = tiny_sim(0.0);
        let pf = sim.cfg.packet_flits;
        let iv = sim.injection_input(0) * sim.nvc;
        let armed = sim.cfg.header_delay.max(1);
        sim.enqueue_packet(0, 0, 3);
        assert_eq!(sim.ivc[iv].ready, armed);
        // Queued behind the first packet: the head timer is not re-armed.
        sim.enqueue_packet(5, 0, 4);
        assert_eq!(sim.ivc[iv].ready, armed);
        assert_eq!(sim.buf_len(iv), 2 * pf);
        assert_eq!(sim.buffered_flits, 2 * pf as u64);
        assert_eq!(sim.peak_buffered_flits, 2 * pf as u64);
        assert_eq!(sim.buf_front(iv), Some(Flit { packet: 0, seq: 0 }));
        assert!(sim.buf_contains_packet(iv, 1));
        assert_eq!(sim.buf_retain_not_packet(iv, 0), pf);
        assert_eq!(sim.buf_front(iv), Some(Flit { packet: 1, seq: 0 }));
        assert_eq!(sim.buf_len(iv), pf);
    }
}
