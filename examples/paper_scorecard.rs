//! One-command reproduction scorecard: runs a miniature of every check in
//! the paper (graph analysis, layout, theory bounds, deadlock freedom, and
//! a short simulation) and prints pass/fail per claim. The full-scale
//! versions live in `dsn-bench` (see EXPERIMENTS.md).
//!
//! Run: `cargo run --release --example paper_scorecard`

use dsn::core::dsn::Dsn;
use dsn::core::topology::TopologySpec;
use dsn::layout::{cable_stats, CableModel, LinearPlacement};
use dsn::metrics::path_stats;
use dsn::route::deadlock::{basic_cdg, dsnv_cdg};
use dsn::route::routing_stats;
use dsn::sim::{AdaptiveEscape, SimConfig, Simulator, TrafficPattern};
use std::sync::Arc;

struct Scorecard {
    passed: usize,
    failed: usize,
}

impl Scorecard {
    fn check(&mut self, claim: &str, ok: bool, detail: String) {
        if ok {
            self.passed += 1;
            println!("  ✓ {claim:<58} {detail}");
        } else {
            self.failed += 1;
            println!("  ✗ {claim:<58} {detail}");
        }
    }
}

fn main() {
    let mut card = Scorecard {
        passed: 0,
        failed: 0,
    };
    let seed = 0xD5B0_2013;
    println!("DSN (ICPP 2013) reproduction scorecard\n");

    // --- Graph claims at N = 256 ---
    let n = 256;
    let [dsn_spec, torus_spec, random_spec] = TopologySpec::paper_trio(n, seed);
    let g_dsn = dsn_spec.build().unwrap().graph;
    let g_torus = torus_spec.build().unwrap().graph;
    let g_random = random_spec.build().unwrap().graph;
    let s_dsn = path_stats(&g_dsn);
    let s_torus = path_stats(&g_torus);
    let s_random = path_stats(&g_random);

    card.check(
        "Fact 1: DSN degrees in {2..5}, avg <= 4",
        g_dsn.min_degree() >= 2 && g_dsn.max_degree() <= 5 && g_dsn.avg_degree() <= 4.0,
        format!(
            "degrees {}..{}, avg {:.2}",
            g_dsn.min_degree(),
            g_dsn.max_degree(),
            g_dsn.avg_degree()
        ),
    );
    card.check(
        "Fig 7: diameter DSN < torus, near RANDOM",
        s_dsn.diameter < s_torus.diameter && s_dsn.diameter <= 2 * s_random.diameter,
        format!(
            "{} vs torus {} vs random {}",
            s_dsn.diameter, s_torus.diameter, s_random.diameter
        ),
    );
    card.check(
        "Fig 8: ASPL DSN < torus",
        s_dsn.aspl < s_torus.aspl,
        format!("{:.2} vs {:.2}", s_dsn.aspl, s_torus.aspl),
    );

    // --- Layout (Fig 9) ---
    let model = CableModel::default();
    let placement = LinearPlacement::new(n, model.switches_per_cabinet);
    let c_dsn = cable_stats(&g_dsn, &placement, &model).avg_m;
    let c_torus = cable_stats(&g_torus, &placement, &model).avg_m;
    let c_random = cable_stats(&g_random, &placement, &model).avg_m;
    card.check(
        "Fig 9: cable DSN < RANDOM and near torus",
        c_dsn < c_random && c_dsn <= 1.35 * c_torus,
        format!("{c_dsn:.2} m vs random {c_random:.2} m, torus {c_torus:.2} m"),
    );

    // --- Theory bounds on a clean instance ---
    let clean = Dsn::new_clean(256).unwrap();
    let p = clean.p();
    let cs = path_stats(clean.graph());
    let rs = routing_stats(&clean);
    card.check(
        "Thm 1b: diameter <= 2.5p + r",
        (cs.diameter as f64) <= 2.5 * p as f64 + clean.r() as f64,
        format!(
            "{} <= {:.1}",
            cs.diameter,
            2.5 * p as f64 + clean.r() as f64
        ),
    );
    card.check(
        "Thm 1c: routing diameter <= 3p + r",
        rs.max_hops <= 3 * p as usize + clean.r(),
        format!("{} <= {}", rs.max_hops, 3 * p as usize + clean.r()),
    );
    card.check(
        "Thm 2a: E[route] <= 2p",
        rs.avg_hops <= 2.0 * p as f64,
        format!("{:.2} <= {}", rs.avg_hops, 2 * p),
    );

    // --- Deadlock freedom (Thm 3) ---
    let small = Dsn::new(60, 5).unwrap();
    card.check(
        "Thm 3: DSN-V CDG acyclic (basic single-VC is cyclic)",
        dsnv_cdg(&small).is_acyclic() && basic_cdg(&small).find_cycle().is_some(),
        "machine-checked over all 3540 routes".into(),
    );

    // --- Simulation (Fig 10, shortened) ---
    let cfg = SimConfig {
        warmup_cycles: 2_000,
        measure_cycles: 6_000,
        drain_cycles: 6_000,
        ..SimConfig::default()
    };
    let sim = |g: &dsn::core::Graph| {
        let g = Arc::new(g.clone());
        let routing = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
        let rate = cfg.packets_per_cycle_for_gbps(2.0);
        Simulator::new(g, cfg.clone(), routing, TrafficPattern::Uniform, rate, 7).run()
    };
    let [d64, t64, r64] = TopologySpec::paper_trio(64, seed);
    let l_dsn = sim(&d64.build().unwrap().graph);
    let l_torus = sim(&t64.build().unwrap().graph);
    let l_random = sim(&r64.build().unwrap().graph);
    card.check(
        "Fig 10: low-load latency DSN < torus, near RANDOM",
        l_dsn.avg_latency_ns < l_torus.avg_latency_ns
            && (l_dsn.avg_latency_ns - l_random.avg_latency_ns).abs()
                < 0.2 * l_random.avg_latency_ns,
        format!(
            "{:.0} ns vs torus {:.0} ns, random {:.0} ns",
            l_dsn.avg_latency_ns, l_torus.avg_latency_ns, l_random.avg_latency_ns
        ),
    );

    println!(
        "\n{} checks passed, {} failed (full-scale regenerators: cargo run -p dsn-bench --bin paper_figures, ...)",
        card.passed, card.failed
    );
    if card.failed > 0 {
        std::process::exit(1);
    }
}
