//! Zero-allocation steady state: a saturated run (DSN-5-64, uniform
//! traffic at 24 Gbit/s/host — past the saturation knee, so source
//! queues and the live-packet population keep growing)
//! must perform **zero heap allocations** during
//! the measurement phase, under the up*/down*-escape adaptive routing,
//! the minimal-adaptive routing with its DSN-V escape layer, and the
//! table-free DSN-V routing.
//!
//! All steady-state storage — the flit ring arena, the packet slab, the
//! event core's delay lines, the per-host injection source queues (slab
//! ids, one per queued packet), stats histograms and the event core's
//! scratch — is either fixed-size or pre-reserved when the run crosses
//! the warmup→measure boundary (`presize_steady_state`), so a counting
//! `#[global_allocator]` bracketing the measure phase via the
//! `advance_until` stepping API must read zero.
//!
//! The allocator also tracks live heap bytes and their high-water mark,
//! which bounds what that presize reserves per packet the hosts may still
//! offer: a regression to flit-granular source queues (`packet_flits`
//! 8-byte flits per queued packet) or to presizing every VC slot of a
//! host's input fails the bound. Right after the presize,
//! `Simulator::reserved_bytes` bounds the delay lines by twice the events
//! that can be in flight, which reserving each cycle's worst case (a
//! timing wheel's per-slot vectors) exceeds.
//!
//! This lives in its own integration-test binary because a global
//! allocator is a per-binary property; the single `#[test]` (looping over
//! the routing schemes) keeps the counter free of concurrent harness noise
//! while armed.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use dsn_core::dsn::Dsn;
use dsn_sim::{
    AdaptiveEscape, DsnAlgorithmic, MinimalAdaptiveDsn, SimConfig, SimRouting, Simulator,
    TrafficPattern,
};

/// Counts every allocator entry point while armed; delegates to `System`.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
static TRACE: [AtomicU64; 16] = [const { AtomicU64::new(0) }; 16];
/// Live heap bytes, and their high-water mark since the last reset.
static LIVE: AtomicU64 = AtomicU64::new(0);
static PEAK: AtomicU64 = AtomicU64::new(0);

fn grow(bytes: usize) {
    let live = LIVE.fetch_add(bytes as u64, Ordering::Relaxed) + bytes as u64;
    PEAK.fetch_max(live, Ordering::Relaxed);
}

fn shrink(bytes: usize) {
    LIVE.fetch_sub(bytes as u64, Ordering::Relaxed);
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        grow(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        grow(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            let n = REALLOCS.fetch_add(1, Ordering::Relaxed) as usize;
            if n < TRACE.len() {
                TRACE[n].store(
                    ((layout.size() as u64) << 32) | new_size as u64,
                    Ordering::Relaxed,
                );
            }
        }
        // Count the new block before freeing the old one: a moving
        // realloc holds both at once.
        grow(new_size);
        shrink(layout.size());
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// One leg: a routing scheme, the VCs it runs on and its sanity floor on
/// delivered packets (DSN-V saturates far below the adaptive schemes).
struct Leg {
    label: &'static str,
    vcs: u8,
    min_delivered: u64,
    build: fn(Arc<Dsn>, u8) -> Arc<dyn SimRouting>,
}

/// Bound on the bytes the warmup→measure presize allocates per packet
/// the hosts may still offer (see the assertion in the test).
const PRESIZE_BYTES_PER_PACKET: f64 = 160.0;

#[test]
fn saturated_measure_phase_allocates_nothing() {
    let legs = [
        Leg {
            label: "adaptive+ud-escape",
            vcs: 4,
            min_delivered: 10_000,
            build: |dsn, vcs| Arc::new(AdaptiveEscape::new(Arc::new(dsn.graph().clone()), vcs)),
        },
        Leg {
            label: "minimal-adaptive+dsnv-escape",
            vcs: 8,
            min_delivered: 10_000,
            build: |dsn, vcs| Arc::new(MinimalAdaptiveDsn::new(dsn, vcs)),
        },
        Leg {
            label: "dsn-algorithmic",
            vcs: 4,
            min_delivered: 1_000,
            build: |dsn, _| Arc::new(DsnAlgorithmic::new(dsn)),
        },
    ];
    let dsn = Arc::new(Dsn::new(64, 5).unwrap());
    let g = Arc::new(dsn.graph().clone());
    for leg in &legs {
        let cfg = SimConfig {
            vcs: leg.vcs,
            warmup_cycles: 5_000,
            measure_cycles: 15_000,
            drain_cycles: 10_000,
            ..SimConfig::default()
        };
        let rate = cfg.packets_per_cycle_for_gbps(24.0);
        let routing = (leg.build)(dsn.clone(), leg.vcs);
        let mut sim = Simulator::new(
            g.clone(),
            cfg.clone(),
            routing,
            TrafficPattern::Uniform,
            rate,
            2024,
        );

        // Warmup, then the last warmup cycle and the steady-state presize
        // under the live-bytes high-water mark ...
        sim.advance_until(cfg.warmup_cycles - 1);
        let before = LIVE.load(Ordering::SeqCst);
        PEAK.store(before, Ordering::SeqCst);
        sim.advance_until(cfg.warmup_cycles);
        let presize_bytes = PEAK.load(Ordering::SeqCst) - before;

        // The delay lines hold only the events in flight: `delay` cycles of
        // one link flit (16 B) and one credit (8 B) per channel, and in each
        // of the two route lines one 4-byte expiry per armable input VC
        // (every VC of a channel input, VC 0 of a host input).
        let (channels, hosts) = (g.channel_count(), g.node_count() * cfg.hosts_per_switch);
        let in_flight = cfg.link_delay.max(1) as usize * channels * 16
            + cfg.credit_delay.max(1) as usize * channels * 8
            + 2 * (channels * leg.vcs as usize + hosts) * 4;
        let event_queues = sim.reserved_bytes().event_queues;
        assert!(
            event_queues <= 2 * in_flight,
            "{}: the event queues reserve {event_queues} B, more than twice the {in_flight} B \
             of events that can be in flight: is each cycle reserved its worst case?",
            leg.label
        );

        // ... then bracket the measure phase with the armed counter.
        ALLOCS.store(0, Ordering::SeqCst);
        REALLOCS.store(0, Ordering::SeqCst);
        for t in &TRACE {
            t.store(0, Ordering::SeqCst);
        }
        ARMED.store(true, Ordering::SeqCst);
        sim.advance_until(cfg.warmup_cycles + cfg.measure_cycles);
        ARMED.store(false, Ordering::SeqCst);

        for t in &TRACE {
            let v = t.load(Ordering::SeqCst);
            if v != 0 {
                eprintln!("{}: realloc {} -> {}", leg.label, v >> 32, v & 0xFFFF_FFFF);
            }
        }
        let allocs = ALLOCS.load(Ordering::SeqCst);
        let reallocs = REALLOCS.load(Ordering::SeqCst);
        let stats = sim.finish();
        // The presize reserves for the packets the hosts may still offer
        // (rate × remaining cycles, plus slack); per offered packet that is
        // a slab slot, a free-list entry and a 4-byte source-queue id, plus
        // the delay lines' fixed in-flight bounds. Flit-granular source queues
        // would add `packet_flits` × 8 B per packet (264 B at 33 flits),
        // and presizing every VC slot of each host's input would multiply
        // that by the VC count.
        let hosts = g.node_count() * cfg.hosts_per_switch;
        let offered = hosts as f64 * rate * (cfg.measure_cycles + cfg.drain_cycles) as f64;
        let presize_per_packet = presize_bytes as f64 / offered;
        println!(
            "{}: delivered={} allocs={allocs} reallocs={reallocs} \
             presize={presize_bytes} B ({presize_per_packet:.1} B per offered packet) \
             event queues={event_queues} B (in flight {in_flight} B)",
            leg.label, stats.delivered_packets
        );

        // A genuinely saturated run, not a trickle that trivially never
        // allocates.
        assert!(
            stats.saturated(),
            "{}: run must be saturated for the invariant to mean anything",
            leg.label
        );
        assert!(
            stats.delivered_packets > leg.min_delivered,
            "{}: sanity: real traffic ran",
            leg.label
        );
        assert_eq!(
            (allocs, reallocs),
            (0, 0),
            "{}: measure phase must not touch the heap: {allocs} allocation(s), \
             {reallocs} reallocation(s)",
            leg.label
        );
        assert!(
            presize_per_packet < PRESIZE_BYTES_PER_PACKET,
            "{}: the warmup→measure presize reserved {presize_per_packet:.1} B per offered \
             packet (bound {PRESIZE_BYTES_PER_PACKET} B): are source queues storing flits?",
            leg.label
        );
    }
}
