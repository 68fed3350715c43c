//! Shortcut-placement Pareto study (ROADMAP item 2): is the paper's
//! deterministic span-`2^k` placement on the quality-vs-cable-cost
//! frontier, or can a seeded search beat it under DSN's own cable
//! budget?
//!
//! Sweeps DSN, DLN-2-2, random-4-regular, Kleinberg (grid where `n` is
//! square, ring-Kleinberg everywhere) and two searched placements
//! (simulated annealing and (μ+λ) evolution, both started from DSN and
//! held to DSN's cable bill) at each size, then marks Pareto-frontier
//! rows over (ASPL ↓, total cable ↓, saturation ↑).
//!
//! Run: `cargo run --release -p dsn-bench --bin opt_frontier \
//!       [--quick] [--sat] [--sizes 64,256,1020] [--json] \
//!       [--serial | --threads N]`
//!
//! `--quick` shortens searches and simulation horizons (CI smoke) and
//! skips saturation unless `--sat` is given; the full run probes
//! saturation by default. `--json` writes `BENCH_opt.json` (schema
//! pinned by `tests/opt_schema.rs`). The binary exits non-zero if the
//! frontier comes out empty or the DSN baseline row is missing — the CI
//! smoke relies on that — and exits 1, with stdout unchanged, when a
//! row's ASPL falls below the Moore bound of its size and maximum degree
//! (`dsn_metrics::moore_aspl_bound`); those rows go to stderr.

use dsn_bench::opt::{below_moore_aspl, run_frontier, FrontierConfig, OptRow};
use dsn_bench::{exit_on_violations, RunArgs};

fn main() {
    let args = RunArgs::parse(
        "opt_frontier [--quick] [--sat | --no-sat] [--sizes 64,256,1020] [--json] \
         [--serial | --threads N]",
        "--quick --sat --no-sat --sizes --json --serial --threads",
    );
    let (par, quick) = (args.par, args.quick);
    let sat = if quick {
        args.flag("--sat")
    } else {
        !args.flag("--no-sat")
    };
    let sizes = args
        .sizes
        .clone()
        .unwrap_or_else(|| if quick { vec![64] } else { vec![64, 256] });

    let report = run_frontier(&FrontierConfig {
        sizes: sizes.clone(),
        quick,
        sat,
        par,
    });

    println!("Shortcut-placement Pareto frontier (budget = DSN's cable bill)");
    println!("# parallelism: {par}; quick: {quick}; saturation probed: {sat}");
    println!(
        "  {:<22} {:<9} {:>5} {:>8} {:>5} {:>10} {:>10} {:>9} {:>8} {:>9}",
        "topology",
        "family",
        "n",
        "aspl",
        "diam",
        "cable [m]",
        "budget [m]",
        "sat[Gbps]",
        "wall[s]",
        "frontier"
    );
    for r in &report.rows {
        let sat = r
            .sat_gbps
            .map(|v| format!("{v:.2}"))
            .unwrap_or_else(|| "-".into());
        println!(
            "  {:<22} {:<9} {:>5} {:>8.4} {:>5} {:>10.1} {:>10.1} {:>9} {:>8.2} {:>9}",
            r.topology,
            r.family,
            r.n,
            r.aspl,
            r.diameter,
            r.cable_total_m,
            r.budget_m,
            sat,
            r.wall_s,
            if r.on_frontier { "*" } else { "" }
        );
    }

    // The ROADMAP answer, spelled out per size.
    for &n in &report.sizes {
        let group: Vec<&OptRow> = report.rows.iter().filter(|r| r.n == n).collect();
        let dsn = group.iter().find(|r| r.topology.starts_with("DSN-"));
        match dsn {
            Some(d) if d.on_frontier => println!(
                "# n={n}: DSN is ON the Pareto frontier (aspl {:.4}, cable {:.1} m)",
                d.aspl, d.cable_total_m
            ),
            Some(d) => {
                let by: Vec<&str> = group
                    .iter()
                    .filter(|r| {
                        r.on_frontier && r.aspl <= d.aspl && r.cable_total_m <= d.cable_total_m
                    })
                    .map(|r| r.topology.as_str())
                    .collect();
                println!("# n={n}: DSN is dominated (by {})", by.join(", "));
            }
            None => {}
        }
    }

    // CI smoke contract: a frontier must exist and DSN must be swept.
    assert!(
        report.rows.iter().any(|r| r.on_frontier),
        "empty Pareto frontier"
    );
    for &n in &report.sizes {
        assert!(
            report
                .rows
                .iter()
                .any(|r| r.n == n && r.topology.starts_with("DSN-")),
            "missing DSN baseline row at n={n}"
        );
    }

    if args.json {
        let path = "BENCH_opt.json";
        std::fs::write(path, report.to_json()).expect("write JSON report");
        println!("\n# wrote {path}");
    }

    exit_on_violations(&below_moore_aspl(&report.rows));
}
