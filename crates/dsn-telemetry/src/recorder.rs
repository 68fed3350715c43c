//! The telemetry recorder: hook sink for the simulator's mutation
//! helpers.
//!
//! The simulator calls one hook per observable state change (packet
//! created, VC allocation granted/blocked, flit sent on a channel, flit
//! arrived off a wire, flit ejected, packet dropped). Every accumulator is
//! commutative within a cycle, so any simulator that fires the same hooks
//! at the same cycles exports the same artifacts, whatever its intra-cycle
//! order: `dsn-sim/tests/telemetry_equivalence.rs` holds the engine's
//! exports byte-identical to those of the test suite's spec simulator.
//!
//! Per-packet latency is decomposed by *gap attribution*: each hook that
//! names a packet closes the time gap since that packet's previous event
//! and charges it to one component —
//!
//! * **queueing** — gap closed by a VC-allocation grant (header
//!   processing plus waiting for a free output VC with enough credits);
//! * **credit_stall** — gap closed by the tail flit leaving a switch
//!   (packet serialization plus switch-allocation and credit stalls);
//! * **wire** — gap closed by the tail flit arriving downstream (link
//!   traversal);
//! * **ejection** — gap closed by the tail flit reaching its host
//!   (ejection-port arbitration plus final serialization).
//!
//! Gaps partition the packet's lifetime, so the four components sum
//! *exactly* to its end-to-end latency (pinned by a proptest).

use crate::hist::{bucket_of, LogHistogram};

/// Telemetry configuration: window length plus named traffic phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Time-series window length in cycles (>= 1).
    pub window: u64,
    /// Named phases as `(start_cycle, name)` in ascending start order; a
    /// packet belongs to the last phase that started at or before its
    /// creation cycle. The first phase must start at cycle 0.
    pub phases: Vec<(u64, String)>,
}

impl TelemetryConfig {
    /// One all-run phase with the given window length.
    pub fn windowed(window: u64) -> Self {
        TelemetryConfig {
            window,
            phases: vec![(0, "all".to_string())],
        }
    }

    /// Builder: replace the phase list with `(start, name)` pairs.
    ///
    /// # Panics
    /// Panics if the list is empty, unsorted, or does not start at cycle 0.
    pub fn with_phases(mut self, phases: &[(u64, &str)]) -> Self {
        assert!(!phases.is_empty(), "need at least one phase");
        assert_eq!(phases[0].0, 0, "first phase must start at cycle 0");
        assert!(
            phases.windows(2).all(|w| w[0].0 < w[1].0),
            "phase starts must be strictly ascending"
        );
        self.phases = phases.iter().map(|&(c, n)| (c, n.to_string())).collect();
        self
    }

    /// Sanity-check the configuration.
    ///
    /// # Panics
    /// Panics on a zero window or an invalid phase list.
    pub fn validate(&self) {
        assert!(self.window >= 1, "telemetry window must be >= 1 cycle");
        assert!(!self.phases.is_empty(), "need at least one phase");
        assert_eq!(self.phases[0].0, 0, "first phase must start at cycle 0");
        assert!(
            self.phases.windows(2).all(|w| w[0].0 < w[1].0),
            "phase starts must be strictly ascending"
        );
    }
}

/// One directed channel of the simulated network, as telemetry sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelDesc {
    /// Source switch.
    pub src: u32,
    /// Destination switch.
    pub dst: u32,
    /// True when the channel is a ring link (ring distance 1 between its
    /// endpoints); false for shortcut/other links.
    pub ring: bool,
}

/// Static description of the simulated network handed to the recorder at
/// construction (the recorder itself has no dependency on the simulator).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryTopo {
    /// Number of switches.
    pub nodes: usize,
    /// Virtual channels per network channel.
    pub vcs: usize,
    /// Directed channels in id order.
    pub channels: Vec<ChannelDesc>,
    /// First cycle of the measurement window.
    pub measure_start: u64,
    /// One past the last cycle of the measurement window.
    pub measure_end: u64,
}

/// Telemetry switch: `Off` compiles every hook down to a predictable
/// branch-not-taken; `On` forwards to a [`Recorder`].
#[derive(Debug)]
pub enum Telemetry {
    /// Recording disabled (the default): hooks are no-ops.
    Off,
    /// Recording enabled.
    On(Box<Recorder>),
}

impl Telemetry {
    /// Build an enabled telemetry sink.
    pub fn on(cfg: TelemetryConfig, topo: TelemetryTopo) -> Self {
        Telemetry::On(Box::new(Recorder::new(cfg, topo)))
    }

    /// True when hooks are recorded.
    pub fn enabled(&self) -> bool {
        !matches!(self, Telemetry::Off)
    }

    /// Finalize into a report (None when off). `final_cycle` is the cycle
    /// the run stopped at.
    pub fn finish(self, final_cycle: u64) -> Option<crate::report::TelemetryReport> {
        match self {
            Telemetry::Off => None,
            Telemetry::On(r) => Some(r.finish(final_cycle)),
        }
    }
}

macro_rules! forward_hooks {
    ($($(#[$doc:meta])* $name:ident($($arg:ident: $ty:ty),*; $now:ident: u64);)*) => {
        impl Telemetry {
            $(
                $(#[$doc])*
                #[inline]
                pub fn $name(&mut self, $($arg: $ty,)* $now: u64) {
                    if let Telemetry::On(r) = self {
                        r.$name($($arg,)* $now);
                    }
                }
            )*
        }
    };
}

forward_hooks! {
    /// A packet entered the network (slab slot, endpoints, cycle).
    on_created(slot: u32, src_sw: u32, dest_sw: u32; now: u64);
    /// A head packet won VC allocation (network grant or ejection grant).
    on_alloc_granted(slot: u32; now: u64);
    /// A head packet attempted VC allocation at `node` and found no free
    /// output VC with enough credits.
    on_alloc_blocked(node: u32; now: u64);
    /// A flit crossed the crossbar onto channel `ch`.
    on_flit_sent(ch: u32, slot: u32, is_tail: bool; now: u64);
    /// A flit arrived off channel `ch`'s wire into input VC `vc`, leaving
    /// that buffer `depth` flits deep.
    on_link_arrival(ch: u32, vc: u32, depth: u32, slot: u32, is_tail: bool; now: u64);
    /// A freshly injected flit left the source host's injection queue
    /// `depth` flits deep.
    on_inject_depth(depth: u32; now: u64);
    /// A flit was ejected into its destination host; `is_tail` marks the
    /// packet as delivered.
    on_ejected(slot: u32, is_tail: bool; now: u64);
    /// A packet was dropped by a fault (or became unroutable).
    on_dropped(slot: u32; now: u64);
    /// A measured flow completed: `class` is its log2 flow-size class and
    /// `fct` its completion time in cycles.
    on_flow_completed(class: u32, fct: u64; now: u64);
}

/// A windowed per-index counter table: counts are accumulated into the
/// current window and flushed as sparse `(index, value)` rows when an
/// event lands in a later window. Windows with no events produce no row.
#[derive(Debug, Clone)]
struct WindowTable {
    window: u64,
    cur: u64,
    counts: Vec<u64>,
    touched: Vec<u32>,
    /// Flushed `(window_index, nonzero (index, value) pairs)` rows.
    rows: Vec<(u64, Vec<(u32, u64)>)>,
    /// True when values combine by max instead of addition.
    is_max: bool,
}

impl WindowTable {
    fn new(window: u64, domain: usize, is_max: bool) -> Self {
        WindowTable {
            window,
            cur: 0,
            counts: vec![0; domain],
            touched: Vec::new(),
            rows: Vec::new(),
            is_max,
        }
    }

    #[inline]
    fn roll(&mut self, now: u64) {
        let idx = now / self.window;
        if idx != self.cur {
            self.flush();
            self.cur = idx;
        }
    }

    fn flush(&mut self) {
        if self.touched.is_empty() {
            return;
        }
        self.touched.sort_unstable();
        self.touched.dedup();
        let row: Vec<(u32, u64)> = self
            .touched
            .drain(..)
            .map(|i| {
                let v = self.counts[i as usize];
                self.counts[i as usize] = 0;
                (i, v)
            })
            .collect();
        self.rows.push((self.cur, row));
    }

    #[inline]
    fn add(&mut self, now: u64, index: u32, v: u64) {
        self.roll(now);
        let slot = &mut self.counts[index as usize];
        if *slot == 0 {
            self.touched.push(index);
        }
        if self.is_max {
            *slot = (*slot).max(v);
        } else {
            *slot += v;
        }
    }
}

/// Per-packet decomposition state, indexed by the packet id the simulator
/// passes (unique among live packets; no export depends on its value).
#[derive(Debug, Clone, Copy, Default)]
struct PacketSlot {
    created: u64,
    last: u64,
    queueing: u64,
    credit_stall: u64,
    wire: u64,
    /// Network hops so far: tail arrivals off a wire.
    hops: u32,
    phase: u8,
    class: u8,
    active: bool,
}

/// Aggregates for one `(phase, distance class)` cell.
#[derive(Debug, Clone, Default)]
struct Cell {
    hist: LogHistogram,
    queueing: u64,
    credit_stall: u64,
    wire: u64,
    ejection: u64,
    hops: u64,
}

/// The enabled telemetry sink. Construct through [`Telemetry::on`]; turn
/// into a [`crate::report::TelemetryReport`] with [`Recorder::finish`].
#[derive(Debug)]
pub struct Recorder {
    cfg: TelemetryConfig,
    topo: TelemetryTopo,
    classes: usize,

    // Windowed time series.
    link_flits: WindowTable,
    vc_depth: WindowTable,
    inj_depth: WindowTable,
    conflicts: WindowTable,
    eject_flits: WindowTable,

    // All-time per-channel aggregates.
    link_flits_total: Vec<u64>,
    link_flits_measured: Vec<u64>,
    link_peak_depth: Vec<u32>,

    // Per-packet decomposition and per-(phase, class) aggregates.
    packets: Vec<PacketSlot>,
    cells: Vec<Cell>,
    created_per_phase: Vec<u64>,
    delivered_per_phase: Vec<u64>,
    dropped_per_phase: Vec<u64>,

    flits_sent_total: u64,
    flits_ejected_total: u64,
    conflicts_total: u64,

    /// Flow-completion-time histograms by log2 flow-size class (class 7 is
    /// open-ended; larger classes clamp into it).
    fct_classes: Vec<LogHistogram>,
}

/// Log2 flow-size classes the recorder slices FCTs into (mirrors the
/// simulator's flow-class bucketing).
const FCT_CLASSES: usize = 8;

impl Recorder {
    /// Build a recorder for the given configuration and network.
    ///
    /// # Panics
    /// Panics when the configuration is invalid ([`TelemetryConfig::validate`]).
    pub fn new(cfg: TelemetryConfig, topo: TelemetryTopo) -> Self {
        cfg.validate();
        let classes = bucket_of((topo.nodes / 2).max(1) as u64) + 1;
        let w = cfg.window;
        let nphases = cfg.phases.len();
        Recorder {
            link_flits: WindowTable::new(w, topo.channels.len(), false),
            vc_depth: WindowTable::new(w, topo.vcs.max(1), true),
            inj_depth: WindowTable::new(w, 1, true),
            conflicts: WindowTable::new(w, topo.nodes, false),
            eject_flits: WindowTable::new(w, 1, false),
            link_flits_total: vec![0; topo.channels.len()],
            link_flits_measured: vec![0; topo.channels.len()],
            link_peak_depth: vec![0; topo.channels.len()],
            packets: Vec::new(),
            cells: vec![Cell::default(); nphases * classes],
            created_per_phase: vec![0; nphases],
            delivered_per_phase: vec![0; nphases],
            dropped_per_phase: vec![0; nphases],
            flits_sent_total: 0,
            flits_ejected_total: 0,
            conflicts_total: 0,
            fct_classes: vec![LogHistogram::default(); FCT_CLASSES],
            classes,
            cfg,
            topo,
        }
    }

    /// Ring-distance class of a `src -> dst` pair: 0 for the same switch,
    /// else `floor(log2(ring_distance)) + 1` — the log-bucketed shortcut
    /// reach, so class `k >= 1` covers ring distances `[2^(k-1), 2^k - 1]`.
    fn class_of(&self, src_sw: u32, dest_sw: u32) -> u8 {
        let n = self.topo.nodes as u32;
        let d = src_sw.abs_diff(dest_sw);
        let ring_dist = d.min(n - d);
        bucket_of(ring_dist as u64) as u8
    }

    fn phase_of(&self, created: u64) -> u8 {
        let mut phase = 0u8;
        for (i, (start, _)) in self.cfg.phases.iter().enumerate() {
            if created >= *start {
                phase = i as u8;
            }
        }
        phase
    }

    fn slot_mut(&mut self, slot: u32) -> &mut PacketSlot {
        let idx = slot as usize;
        if self.packets.len() <= idx {
            self.packets.resize(idx + 1, PacketSlot::default());
        }
        &mut self.packets[idx]
    }

    /// A packet entered the network (slab slot, endpoints, cycle).
    pub fn on_created(&mut self, slot: u32, src_sw: u32, dest_sw: u32, now: u64) {
        let phase = self.phase_of(now);
        let class = self.class_of(src_sw, dest_sw);
        *self.slot_mut(slot) = PacketSlot {
            created: now,
            last: now,
            queueing: 0,
            credit_stall: 0,
            wire: 0,
            hops: 0,
            phase,
            class,
            active: true,
        };
        self.created_per_phase[phase as usize] += 1;
    }

    /// A head packet won VC allocation (network grant or ejection grant).
    pub fn on_alloc_granted(&mut self, slot: u32, now: u64) {
        let p = &mut self.packets[slot as usize];
        debug_assert!(p.active, "grant for inactive packet slot {slot}");
        p.queueing += now - p.last;
        p.last = now;
    }

    /// A head packet found no free output VC with enough credits at `node`.
    pub fn on_alloc_blocked(&mut self, node: u32, now: u64) {
        self.conflicts.add(now, node, 1);
        self.conflicts_total += 1;
    }

    /// A flit crossed the crossbar onto channel `ch`.
    pub fn on_flit_sent(&mut self, ch: u32, slot: u32, is_tail: bool, now: u64) {
        self.link_flits.add(now, ch, 1);
        self.link_flits_total[ch as usize] += 1;
        if now >= self.topo.measure_start && now < self.topo.measure_end {
            self.link_flits_measured[ch as usize] += 1;
        }
        self.flits_sent_total += 1;
        if is_tail {
            let p = &mut self.packets[slot as usize];
            debug_assert!(p.active, "tail send for inactive packet slot {slot}");
            p.credit_stall += now - p.last;
            p.last = now;
        }
    }

    /// A flit arrived off channel `ch`'s wire into input VC `vc`, leaving
    /// that buffer `depth` flits deep.
    pub fn on_link_arrival(
        &mut self,
        ch: u32,
        vc: u32,
        depth: u32,
        slot: u32,
        is_tail: bool,
        now: u64,
    ) {
        self.vc_depth.add(now, vc, depth as u64);
        let peak = &mut self.link_peak_depth[ch as usize];
        *peak = (*peak).max(depth);
        if is_tail {
            let p = &mut self.packets[slot as usize];
            debug_assert!(p.active, "tail arrival for inactive packet slot {slot}");
            p.wire += now - p.last;
            p.last = now;
            p.hops += 1;
        }
    }

    /// A freshly injected flit left the source host's injection queue
    /// `depth` flits deep.
    pub fn on_inject_depth(&mut self, depth: u32, now: u64) {
        self.inj_depth.add(now, 0, depth as u64);
    }

    /// A flit was ejected into its destination host; `is_tail` marks the
    /// packet as delivered.
    pub fn on_ejected(&mut self, slot: u32, is_tail: bool, now: u64) {
        self.eject_flits.add(now, 0, 1);
        self.flits_ejected_total += 1;
        if is_tail {
            let p = &mut self.packets[slot as usize];
            debug_assert!(p.active, "delivery for inactive packet slot {slot}");
            p.active = false;
            let ejection = now - p.last;
            let total = now - p.created;
            debug_assert_eq!(
                p.queueing + p.credit_stall + p.wire + ejection,
                total,
                "decomposition must sum to the packet's latency"
            );
            let (phase, class) = (p.phase as usize, p.class as usize);
            let (q, cs, w, hops) = (p.queueing, p.credit_stall, p.wire, p.hops);
            let cell = &mut self.cells[phase * self.classes + class];
            cell.hist.record(total);
            cell.queueing += q;
            cell.credit_stall += cs;
            cell.wire += w;
            cell.ejection += ejection;
            cell.hops += hops as u64;
            self.delivered_per_phase[phase] += 1;
        }
    }

    /// A measured flow completed. `class` is the flow's log2 size class
    /// and `fct` its completion time in cycles.
    pub fn on_flow_completed(&mut self, class: u32, fct: u64, _now: u64) {
        self.fct_classes[(class as usize).min(FCT_CLASSES - 1)].record(fct);
    }

    /// A packet was dropped by a fault (or became unroutable).
    pub fn on_dropped(&mut self, slot: u32, _now: u64) {
        let p = &mut self.packets[slot as usize];
        debug_assert!(p.active, "drop of inactive packet slot {slot}");
        p.active = false;
        self.dropped_per_phase[p.phase as usize] += 1;
    }

    /// Flush the open windows and assemble the final report.
    pub fn finish(mut self, final_cycle: u64) -> crate::report::TelemetryReport {
        use crate::report::*;
        for t in [
            &mut self.link_flits,
            &mut self.vc_depth,
            &mut self.inj_depth,
            &mut self.conflicts,
            &mut self.eject_flits,
        ] {
            t.flush();
        }
        let classes = self.classes;
        let phases = self
            .cfg
            .phases
            .iter()
            .enumerate()
            .map(|(pi, (start, name))| {
                let cells = &self.cells[pi * classes..(pi + 1) * classes];
                let latency_sum: u64 = cells.iter().map(|c| c.hist.sum()).sum();
                PhaseReport {
                    name: name.clone(),
                    start_cycle: *start,
                    created: self.created_per_phase[pi],
                    delivered: self.delivered_per_phase[pi],
                    dropped: self.dropped_per_phase[pi],
                    latency_sum_cycles: latency_sum,
                    queueing_cycles: cells.iter().map(|c| c.queueing).sum(),
                    credit_stall_cycles: cells.iter().map(|c| c.credit_stall).sum(),
                    wire_cycles: cells.iter().map(|c| c.wire).sum(),
                    ejection_cycles: cells.iter().map(|c| c.ejection).sum(),
                    hops: cells.iter().map(|c| c.hops).sum(),
                    classes: cells
                        .iter()
                        .enumerate()
                        .filter(|(_, c)| c.hist.count() > 0)
                        .map(|(ci, c)| ClassReport {
                            class: ci as u32,
                            count: c.hist.count(),
                            p50: c.hist.quantile(0.50),
                            p95: c.hist.quantile(0.95),
                            p99: c.hist.quantile(0.99),
                            max: c.hist.max(),
                            latency_sum_cycles: c.hist.sum(),
                            buckets: c.hist.buckets().to_vec(),
                        })
                        .collect(),
                }
            })
            .collect();
        let fct = self
            .fct_classes
            .iter()
            .enumerate()
            .filter(|(_, h)| h.count() > 0)
            .map(|(ci, h)| FctClassReport {
                class: ci as u32,
                count: h.count(),
                p50: h.quantile(0.50),
                p99: h.quantile(0.99),
                max: h.max(),
                fct_sum_cycles: h.sum(),
                buckets: h.buckets().to_vec(),
            })
            .collect();
        let links = self
            .topo
            .channels
            .iter()
            .enumerate()
            .map(|(ch, d)| LinkReport {
                channel: ch as u32,
                src: d.src,
                dst: d.dst,
                ring: d.ring,
                flits: self.link_flits_total[ch],
                measured_flits: self.link_flits_measured[ch],
                peak_occupancy: self.link_peak_depth[ch],
            })
            .collect();
        let series = [
            ("link_flits", self.link_flits.rows),
            ("vc_depth_max", self.vc_depth.rows),
            ("inj_depth_max", self.inj_depth.rows),
            ("alloc_conflicts", self.conflicts.rows),
            ("eject_flits", self.eject_flits.rows),
        ]
        .into_iter()
        .map(|(name, rows)| Series {
            metric: name.to_string(),
            rows,
        })
        .collect();
        TelemetryReport {
            window_cycles: self.cfg.window,
            final_cycle,
            nodes: self.topo.nodes,
            vcs: self.topo.vcs,
            measure_start: self.topo.measure_start,
            measure_end: self.topo.measure_end,
            phases,
            fct,
            links,
            series,
            flits_sent_total: self.flits_sent_total,
            flits_ejected_total: self.flits_ejected_total,
            alloc_conflicts_total: self.conflicts_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> TelemetryTopo {
        TelemetryTopo {
            nodes: 8,
            vcs: 2,
            channels: vec![
                ChannelDesc {
                    src: 0,
                    dst: 1,
                    ring: true,
                },
                ChannelDesc {
                    src: 1,
                    dst: 4,
                    ring: false,
                },
            ],
            measure_start: 10,
            measure_end: 100,
        }
    }

    #[test]
    fn decomposition_sums_exactly() {
        let mut r = Recorder::new(TelemetryConfig::windowed(16), topo());
        // created 0, alloc 5 (q 5), tail send 9 (cs 4), arrival 11 (wire 2),
        // alloc 14 (q 3), eject tail 20 (ej 6) -> total 20.
        r.on_created(0, 0, 4, 0);
        r.on_alloc_granted(0, 5);
        r.on_flit_sent(1, 0, true, 9);
        r.on_link_arrival(1, 0, 1, 0, true, 11);
        r.on_alloc_granted(0, 14);
        r.on_ejected(0, true, 20);
        let rep = r.finish(32);
        let p = &rep.phases[0];
        assert_eq!(p.delivered, 1);
        assert_eq!(p.queueing_cycles, 8);
        assert_eq!(p.credit_stall_cycles, 4);
        assert_eq!(p.wire_cycles, 2);
        assert_eq!(p.ejection_cycles, 6);
        assert_eq!(p.latency_sum_cycles, 20);
        assert_eq!(p.hops, 1, "one tail arrival is one hop");
        // src 0 -> dst 4 on an 8-ring: distance 4, class 3.
        assert_eq!(p.classes[0].class, 3);
    }

    #[test]
    fn phases_partition_by_creation_cycle() {
        let cfg = TelemetryConfig::windowed(8).with_phases(&[(0, "pre"), (50, "post")]);
        let mut r = Recorder::new(cfg, topo());
        r.on_created(0, 0, 1, 10);
        r.on_alloc_granted(0, 12);
        r.on_ejected(0, true, 20);
        r.on_created(0, 0, 1, 60);
        r.on_alloc_granted(0, 61);
        r.on_ejected(0, true, 70);
        let rep = r.finish(80);
        assert_eq!(rep.phases[0].name, "pre");
        assert_eq!(rep.phases[0].delivered, 1);
        assert_eq!(rep.phases[1].name, "post");
        assert_eq!(rep.phases[1].delivered, 1);
        assert_eq!(rep.phases[1].latency_sum_cycles, 10);
    }

    #[test]
    fn windows_flush_sparsely() {
        let mut r = Recorder::new(TelemetryConfig::windowed(10), topo());
        r.on_created(0, 0, 1, 0);
        r.on_flit_sent(0, 0, false, 3); // window 0
        r.on_flit_sent(0, 0, false, 35); // window 3 (1 and 2 silent)
        r.on_flit_sent(1, 0, true, 36);
        let rep = r.finish(40);
        let s = rep
            .series
            .iter()
            .find(|s| s.metric == "link_flits")
            .unwrap();
        assert_eq!(
            s.rows,
            vec![(0, vec![(0, 1)]), (3, vec![(0, 1), (1, 1)])],
            "only touched windows appear, indices sorted"
        );
        assert_eq!(rep.flits_sent_total, 3);
        // measured window is [10, 100): only the two late flits count.
        assert_eq!(rep.links[0].measured_flits, 1);
        assert_eq!(rep.links[0].flits, 2);
    }

    #[test]
    fn dropped_packets_never_reach_histograms() {
        let mut r = Recorder::new(TelemetryConfig::windowed(16), topo());
        r.on_created(0, 0, 2, 0);
        r.on_alloc_granted(0, 4);
        r.on_dropped(0, 6);
        let rep = r.finish(10);
        assert_eq!(rep.phases[0].created, 1);
        assert_eq!(rep.phases[0].dropped, 1);
        assert_eq!(rep.phases[0].delivered, 0);
        assert!(rep.phases[0].classes.is_empty());
    }

    #[test]
    fn flow_completions_aggregate_by_class() {
        let mut r = Recorder::new(TelemetryConfig::windowed(16), topo());
        r.on_flow_completed(0, 12, 20);
        r.on_flow_completed(0, 20, 30);
        // FCTs wider than 32 bits are kept whole.
        r.on_flow_completed(3, (1u64 << 32) + 1, 40);
        // Out-of-range class clamps into the open-ended last class.
        r.on_flow_completed(99, 5, 50);
        let rep = r.finish(60);
        assert_eq!(rep.fct.len(), 3);
        assert_eq!(rep.fct[0].class, 0);
        assert_eq!(rep.fct[0].count, 2);
        assert_eq!(rep.fct[0].fct_sum_cycles, 32);
        assert_eq!(rep.fct[1].class, 3);
        assert_eq!(rep.fct[1].max, (1u64 << 32) + 1);
        assert_eq!(rep.fct[2].class, 7);
        assert_eq!(rep.fct[2].count, 1);
    }

    #[test]
    #[should_panic(expected = "window must be >= 1")]
    fn zero_window_rejected() {
        Recorder::new(
            TelemetryConfig {
                window: 0,
                phases: vec![(0, "all".into())],
            },
            topo(),
        );
    }
}
