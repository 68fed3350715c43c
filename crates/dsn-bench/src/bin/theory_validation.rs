//! Validates the paper's theoretical claims (Facts 1–3, Theorems 1–3)
//! by direct measurement:
//!
//! * Fact 1 / Theorem 1a — degrees in {2,3,4,5}, average ≤ 4, at most `p`
//!   nodes of degree 5 (expected ≤ p/2);
//! * Fact 3 / Theorem 1b — diameter ≤ 2.5p + r;
//! * Fact 2 / Theorem 1c — routing diameter ≤ 3p + r;
//! * Theorem 2a — E\[route\] ≤ 2p and E[shortest path] ≤ 1.5p;
//! * Theorem 2b — average shortcut length ≤ ~n/p (ring metric) vs the
//!   DLN-2-2 random-link average (~n/4 ring metric, n/3 line metric);
//! * Theorem 3 — DSN-V channel-level CDG acyclic; DSN-E group-level CDG
//!   acyclic (and the fine-grained DSN-E counterexample, a reproduction
//!   finding).
//!
//! Run: `cargo run --release -p dsn-bench --bin theory_validation [--threads N | --serial]`

use dsn_bench::{RunArgs, RANDOM_SEED};
use dsn_core::dln::DlnRandom;
use dsn_core::dsn::Dsn;
use dsn_core::dsn_ext::DsnE;
use dsn_layout::ring_layout_stats;
use dsn_metrics::path_stats;
use dsn_route::deadlock::{dsne_cdg, dsne_group_dependencies, dsnv_cdg};
use dsn_route::routing_stats;

fn main() {
    let par = RunArgs::parse(
        "theory_validation [--threads N | --serial]",
        "--serial --threads",
    )
    .par;
    println!("Theory validation: measured vs proven bounds");
    println!("# parallelism: {par}");
    println!(
        "  {:>6} {:>3} {:>2} | {:>9} {:>6} | {:>6} {:>7} | {:>8} {:>8} | {:>8} {:>8} | {:>8} {:>8}",
        "n",
        "p",
        "r",
        "deg-hist",
        "deg5",
        "diam",
        "<=2.5p+r",
        "routdiam",
        "<=3p+r",
        "E[route]",
        "<=2p",
        "E[spl]",
        "<=1.5p"
    );
    for n in [64usize, 128, 256, 510, 1020] {
        let p = dsn_core::util::ceil_log2(n);
        let dsn = Dsn::new(n, p - 1).expect("dsn");
        let g = dsn.graph();
        let hist = g.degree_histogram();
        let deg5 = hist.get(5).copied().unwrap_or(0);
        let deg_str = (2..=5)
            .map(|d| hist.get(d).copied().unwrap_or(0).to_string())
            .collect::<Vec<_>>()
            .join("/");
        let stats = path_stats(g);
        let rstats = routing_stats(&dsn);
        let diam_bound = 2.5 * p as f64 + dsn.r() as f64;
        let route_bound = (3 * p as usize + dsn.r()) as f64;
        println!(
            "  {:>6} {:>3} {:>2} | {:>9} {:>6} | {:>6} {:>7.1} | {:>8} {:>8.0} | {:>8.2} {:>8} | {:>8.2} {:>8.1}",
            n,
            p,
            dsn.r(),
            deg_str,
            deg5,
            stats.diameter,
            diam_bound,
            rstats.max_hops,
            route_bound,
            rstats.avg_hops,
            2 * p,
            stats.aspl,
            1.5 * p as f64
        );
        assert!(g.max_degree() <= 5, "Fact 1 violated at n={n}");
        assert!(g.avg_degree() <= 4.0 + 1e-9, "Fact 1 avg violated at n={n}");
        assert!(deg5 <= p as usize, "Fact 1 deg-5 count violated at n={n}");
        assert!(
            (stats.diameter as f64) <= diam_bound,
            "Thm 1b violated at n={n}"
        );
        assert!(
            (rstats.max_hops as f64) <= route_bound,
            "Thm 1c violated at n={n}"
        );
        assert!(
            rstats.avg_hops <= 2.0 * p as f64,
            "Thm 2a route violated at n={n}"
        );
        assert!(stats.aspl <= 1.5 * p as f64, "Thm 2a spl violated at n={n}");
    }

    println!();
    println!("Theorem 2b: shortcut cable economy (ring metric, unit node spacing)");
    for n in [512usize, 1024, 2048] {
        let dsn = Dsn::new_clean(n).expect("dsn");
        let dln = DlnRandom::new(dsn.n(), 2, 2, RANDOM_SEED).expect("dln22");
        let s_dsn = ring_layout_stats(dsn.graph());
        let s_dln = ring_layout_stats(dln.graph());
        println!(
            "  n={:>5}: DSN shortcut avg {:>7.1} (~n/p = {:>6.1})  vs  DLN-2-2 random avg {:>7.1} (~n/4 = {:>6.1}); factor {:.1}x",
            dsn.n(),
            s_dsn.shortcut_avg,
            dsn.n() as f64 / dsn.p() as f64,
            s_dln.random_avg,
            dsn.n() as f64 / 4.0,
            s_dln.random_avg / s_dsn.shortcut_avg
        );
    }

    println!();
    println!("Theorem 3: deadlock freedom (channel dependency graphs)");
    for n in [60usize, 126] {
        let p = dsn_core::util::ceil_log2(n);
        let dsn = Dsn::new(n, p - 1).expect("dsn");
        let v = dsnv_cdg(&dsn);
        println!(
            "  n={n}: DSN-V channel-level CDG: {} channels, {} deps, acyclic = {}",
            v.channel_count(),
            v.dependency_count(),
            v.is_acyclic()
        );
        assert!(v.is_acyclic());
        let dsne = DsnE::new(n).expect("dsne");
        let deps = dsne_group_dependencies(&dsne);
        let group_ok = deps.iter().all(|&(a, b)| a < b);
        let fine = dsne_cdg(&dsne);
        println!(
            "  n={n}: DSN-E group-level deps {:?} (forward-only = {group_ok}); \
             fine-grained CDG acyclic = {} (reproduction finding: the paper's \
             group argument does not extend to channel granularity)",
            deps,
            fine.is_acyclic()
        );
        assert!(group_ok);
    }
}
