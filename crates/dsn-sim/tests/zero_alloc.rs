//! Zero-allocation steady state: a saturated run (DSN-5-64, uniform
//! traffic at 24 Gbit/s/host — past the saturation knee, so source
//! queues and the live-packet population keep growing — event engine,
//! flat routing tables) must perform **zero heap allocations** during
//! the measurement phase, under the up*/down*-escape adaptive routing,
//! the minimal-adaptive routing with its DSN-V escape layer, and the
//! table-free DSN-V routing.
//!
//! All steady-state storage — the flit ring arena, the packet slab, the
//! timing wheel, injection queues, stats histograms and the event core's
//! scratch — is either fixed-size or pre-reserved when the run crosses
//! the warmup→measure boundary (`presize_steady_state`), so a counting
//! `#[global_allocator]` bracketing the measure phase via the
//! `advance_until` stepping API must read zero.
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
    AdaptiveEscape, DsnAlgorithmic, EngineKind, MinimalAdaptiveDsn, SimConfig, SimRouting,
    Simulator, TrafficPattern,
};

/// Counts every allocator entry point while armed; delegates to `System`.
struct CountingAlloc;

static ARMED: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static REALLOCS: AtomicU64 = AtomicU64::new(0);
#[allow(clippy::declare_interior_mutable_const)]
static TRACE: [AtomicU64; 16] = [const { AtomicU64::new(0) }; 16];

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if ARMED.load(Ordering::Relaxed) {
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
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
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
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
            engine: EngineKind::Event,
            vcs: leg.vcs,
            warmup_cycles: 5_000,
            measure_cycles: 15_000,
            drain_cycles: 10_000,
            ..SimConfig::default()
        };
        let rate = cfg.packets_per_cycle_for_gbps(24.0);
        let routing = (leg.build)(dsn.clone(), leg.vcs);
        routing.compiled_flat();
        let mut sim = Simulator::new(
            g.clone(),
            cfg.clone(),
            routing,
            TrafficPattern::Uniform,
            rate,
            2024,
        );

        // Warmup (ends with the steady-state presize) ...
        sim.advance_until(cfg.warmup_cycles);

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
        println!(
            "{}: delivered={} allocs={allocs} reallocs={reallocs}",
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
    }
}
