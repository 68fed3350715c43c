//! Dynamic deadlock demonstration: run the *unsafe* single-VC basic DSN
//! routing (whose channel dependency graph is provably cyclic — the
//! Section V.A motivation) and the DSN-V 4-VC discipline (provably
//! acyclic — Theorem 3) side by side under increasing load, and watch the
//! simulator's stall watchdog catch the real deadlock exactly where the
//! static analysis predicts it.
//!
//! Run: `cargo run --release -p dsn-bench --bin deadlock_in_vivo \
//!       [--telemetry[=WINDOW]]`
//!
//! `--telemetry[=WINDOW]` adds a per-run allocation-conflict count and, for
//! runs the watchdog flags as deadlocked, the full telemetry view (latency
//! decomposition and heatmap — the wedged VCs show up as stalled hotspot
//! links) with `telemetry_deadlock_<load>_<routing>.{json,csv}` exports.

use dsn_bench::{emit_telemetry, RunArgs};
use dsn_core::dsn::Dsn;
use dsn_sim::{DsnAlgorithmic, SimConfig, Simulator, TrafficPattern};
use std::sync::Arc;

fn main() {
    let args = RunArgs::parse("deadlock_in_vivo [--telemetry[=WINDOW]]", "--telemetry");
    let dsn = Arc::new(Dsn::new(60, 5).expect("dsn")); // p | n: clean instance
    let graph = Arc::new(dsn.graph().clone());
    let cfg = SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 20_000,
        drain_cycles: 20_000,
        ..SimConfig::default()
    };

    // The routings are load-independent: build each variant once and
    // share the Arc (and its compiled table) across every load point.
    let safe_routing: Arc<dyn dsn_sim::SimRouting> = Arc::new(DsnAlgorithmic::new(dsn.clone()));
    let unsafe_routing: Arc<dyn dsn_sim::SimRouting> =
        Arc::new(DsnAlgorithmic::basic_single_vc(dsn.clone()));

    println!("Dynamic deadlock check on DSN-5-60 (60 switches, complete super nodes)");
    println!(
        "  {:>7} {:<22} {:>10} {:>14} {:>10}",
        "load", "routing", "delivered", "longest stall", "deadlock?"
    );
    for gbps in [1.0f64, 4.0, 8.0] {
        let rate = cfg.packets_per_cycle_for_gbps(gbps);
        for unsafe_mode in [false, true] {
            let routing = if unsafe_mode {
                unsafe_routing.clone()
            } else {
                safe_routing.clone()
            };
            let name = if unsafe_mode {
                "basic 1-VC (cyclic CDG)"
            } else {
                "DSN-V 4-VC (acyclic)"
            };
            let mut sim = Simulator::new(
                graph.clone(),
                cfg.clone(),
                routing,
                TrafficPattern::Uniform,
                rate,
                0xDEAD,
            );
            if let Some(window) = args.telemetry {
                sim = sim.with_telemetry(cfg.standard_telemetry(window));
            }
            let (stats, report) = sim.run_with_telemetry();
            println!(
                "  {:>6.1}G {:<22} {:>9.3} {:>14} {:>10}",
                gbps,
                name,
                stats.delivery_ratio(),
                stats.longest_stall_cycles,
                if stats.deadlock_suspected {
                    "YES"
                } else {
                    "no"
                }
            );
            if let Some(report) = report {
                println!(
                    "          telemetry: {} alloc conflicts, {} flits sent",
                    report.alloc_conflicts_total, report.flits_sent_total
                );
                // Full view only for wedged runs: the heatmap shows where
                // traffic froze.
                if stats.deadlock_suspected {
                    let tag = format!(
                        "deadlock_{}G_{}",
                        gbps as u64,
                        if unsafe_mode { "basic1vc" } else { "dsnv" }
                    );
                    emit_telemetry(&tag, &report);
                }
            }
        }
    }
    println!();
    println!(
        "The static CDG analysis (theory_validation) predicts exactly this:\n\
         the single-VC basic routing has a dependency cycle and wedges under\n\
         load, while DSN-V's phase/dateline VC discipline never stalls."
    );
}
