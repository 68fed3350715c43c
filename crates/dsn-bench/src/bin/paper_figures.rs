//! Regenerates the paper's topology figures for the 2-D torus, RANDOM
//! (DLN-2-2) and DSN at `log2 N = 5..11`:
//!
//! * **Figure 7**: diameter (hops), plus the in-text claim T1 ("DSN
//!   improves the diameter by up to 67% compared to torus");
//! * **Figure 8**: average shortest path length (hops), plus T1 ("ASPL
//!   improved by up to 55% vs torus") and T3 ("64-switch ASPL is
//!   3.2 / 3.2 / 4.1 for DSN / RANDOM / torus");
//! * **Figure 9**: average cable length (m) under the machine-room cabinet
//!   layout (16 switches/cabinet, 0.6 m x 2.1 m cabinets, Manhattan
//!   routing, 2 m intra-cabinet cables, 2 m inter-cabinet overhead), plus
//!   T2 ("DSN reduces average cable length vs RANDOM by up to 38% and is
//!   near the same-degree torus") and the 3-D-torus comparison from
//!   Section VI.B.
//!
//! Run: `cargo run --release -p dsn-bench --bin paper_figures -- \
//!       [7|8|9|all] [--threads N | --serial]`
//!
//! Figures 7 and 8 read one all-pairs BFS per topology and size. The run
//! exits with status 1 when a diameter or ASPL falls below the Moore bound
//! of its size and maximum degree (`dsn_metrics::moore_bound`,
//! `moore_aspl_bound`), which no graph can do.

use dsn_bench::{block_header, exit_on_violations, paper_sizes, trio, RunArgs, RANDOM_SEED};
use dsn_core::topology::TopologySpec;
use dsn_layout::{cable_stats, CableModel, LinearPlacement};
use dsn_metrics::{moore_aspl_bound, moore_bound, path_stats, PathStats};

const USAGE: &str = "paper_figures [7|8|9|all] [--threads N | --serial]";

/// One value per trio topology, `[DSN, torus, RANDOM]`, at one size.
type Row = (usize, [f64; 3]);

fn main() {
    let args = RunArgs::parse_with_positionals(USAGE, "--serial --threads");
    let which = match args.positionals.as_slice() {
        [] => "all",
        [which] => which.as_str(),
        _ => args.fail("at most one figure"),
    };
    let figures: &[u32] = match which {
        "7" => &[7],
        "8" => &[8],
        "9" => &[9],
        "all" => &[7, 8, 9],
        other => args.fail(format!("unknown figure `{other}`")),
    };
    let par = args.par;
    let paths: Vec<(usize, [Measured; 3])> = if figures.contains(&7) || figures.contains(&8) {
        paper_sizes()
            .into_iter()
            .map(|n| {
                let measure = |spec: TopologySpec| {
                    let built = spec.build().expect("topology");
                    let stats = path_stats(&built.graph);
                    (built.name, built.graph.max_degree(), stats)
                };
                (n, trio(n).map(measure))
            })
            .collect()
    } else {
        Vec::new()
    };
    let path_rows = |metric: fn(&PathStats) -> f64| -> Vec<Row> {
        paths
            .iter()
            .map(|(n, s)| (*n, s.each_ref().map(|(_, _, stats)| metric(stats))))
            .collect()
    };
    for (i, figure) in figures.iter().enumerate() {
        if i > 0 {
            println!();
        }
        match figure {
            7 => {
                println!("Figure 7: diameter vs network size (lower is better)");
                println!("# parallelism: {par}");
                let best = table(TORUS_COLUMNS, 0, 1, &path_rows(|s| s.diameter as f64));
                println!(
                    "T1 (diameter): DSN improves diameter vs torus by up to {best:.0}% \
                     (paper: up to 67%)"
                );
            }
            8 => {
                println!(
                    "Figure 8: average shortest path length vs network size (lower is better)"
                );
                println!("# parallelism: {par}");
                let rows = path_rows(|s| s.aspl);
                let best = table(TORUS_COLUMNS, 3, 1, &rows);
                let [dsn, torus, random] =
                    rows.iter().find(|r| r.0 == 64).map_or([0.0; 3], |r| r.1);
                println!(
                    "T1 (ASPL): DSN improves ASPL vs torus by up to {best:.0}% (paper: up to 55%)"
                );
                println!(
                    "T3 (64 switches): ASPL = {dsn:.1} / {random:.1} / {torus:.1} for DSN / RANDOM / \
                     torus (paper: 3.2 / 3.2 / 4.1)"
                );
            }
            _ => figure9(),
        }
    }
    exit_on_violations(&below_moore(&paths, figures));
}

/// One trio topology at one size: name, maximum degree, path statistics.
type Measured = (String, usize, PathStats);

/// Every Fig. 7 diameter and Fig. 8 ASPL that beats the Moore bounds of
/// its size and maximum degree, which no graph can: each one is a fault
/// in the topology builder or the APSP sweep.
fn below_moore(paths: &[(usize, [Measured; 3])], figures: &[u32]) -> Vec<String> {
    let mut below = Vec::new();
    for (n, row) in paths {
        for (name, d, stats) in row {
            let min_diameter = (0..*n as u32)
                .find(|&k| moore_bound(*d, k) >= *n as u64)
                .unwrap_or(*n as u32);
            if figures.contains(&7) && stats.diameter < min_diameter {
                below.push(format!(
                    "Fig. 7: {name} has diameter {} below the Moore bound {min_diameter} \
                     (n = {n}, max degree {d})",
                    stats.diameter
                ));
            }
            let min_aspl = moore_aspl_bound(*n, *d);
            if figures.contains(&8) && stats.aspl < min_aspl * (1.0 - 1e-12) {
                below.push(format!(
                    "Fig. 8: {name} has ASPL {} below the Moore bound {min_aspl} \
                     (n = {n}, max degree {d})",
                    stats.aspl
                ));
            }
        }
    }
    below
}

/// Block header of Figures 7 and 8: the gain column is DSN vs torus.
const TORUS_COLUMNS: (&str, [&str; 5]) = (
    "columns: log2(N)  torus  random  dsn  dsn-vs-torus-improvement",
    ["log2N", "torus", "random", "dsn", "improv%"],
);

/// Print a figure's table: torus, RANDOM and DSN columns at `digits`
/// decimals, then DSN's gain over `row.1[vs]` in percent; returns the
/// largest gain.
fn table((columns, names): (&str, [&str; 5]), digits: usize, vs: usize, rows: &[Row]) -> f64 {
    print!("{}", block_header(columns, &names));
    let mut best = 0.0f64;
    for &(n, v) in rows {
        let gain = 100.0 * (v[vs] - v[0]) / v[vs];
        best = best.max(gain);
        println!(
            "  {:>12} {:>12.*} {:>12.*} {:>12.*} {:>11.1}%",
            (n as f64).log2() as u32,
            digits,
            v[1],
            digits,
            v[2],
            digits,
            v[0],
            gain
        );
    }
    println!();
    best
}

fn avg_cable(spec: &TopologySpec) -> f64 {
    let built = spec.build().expect("topology");
    let n = built.graph.node_count();
    let model = CableModel::default();
    let placement = LinearPlacement::new(n, model.switches_per_cabinet);
    cable_stats(&built.graph, &placement, &model).avg_m
}

fn figure9() {
    println!("Figure 9: average cable length vs network size (lower is better)");
    let rows: Vec<Row> = paper_sizes()
        .into_iter()
        .map(|n| (n, trio(n).map(|spec| avg_cable(&spec))))
        .collect();
    let best = table(
        (
            "columns: log2(N)  torus  random  dsn  dsn-vs-random-reduction",
            ["log2N", "torus[m]", "random[m]", "dsn[m]", "reduc%"],
        ),
        2,
        2,
        &rows,
    );
    println!(
        "T2: DSN reduces average cable length vs RANDOM by up to {best:.0}% \
         (paper: up to 38%), while staying near the same-degree torus."
    );

    // Section VI.B side note: degree-6 DSN vs 3-D torus.
    println!();
    println!("Section VI.B extra: degree-6 comparison (DSN-E vs 3-D torus)");
    for n in [512usize, 2048] {
        let dsn_e = avg_cable(&TopologySpec::DsnE { n });
        let t3 = avg_cable(&TopologySpec::Torus3D { n });
        let rnd6 = avg_cable(&TopologySpec::RandomRegular {
            n,
            d: 6,
            seed: RANDOM_SEED,
        });
        println!(
            "  N={n}: DSN-E {:.2} m vs 3-D torus {:.2} m vs 6-regular random {:.2} m",
            dsn_e, t3, rnd6
        );
    }
}
