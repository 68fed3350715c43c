//! General-purpose topology analyzer CLI: build any topology from a spec
//! string, report hop/degree/cable/resilience metrics, optionally dump DOT.
//!
//! ```text
//! cargo run --release -p dsn-bench --bin netanalyze -- dsn:1020 torus2d:1024 random:1024
//! cargo run --release -p dsn-bench --bin netanalyze -- --dot out.dot dsn:64
//! ```
//!
//! Spec grammar: `dsn:<n>[:<x>]`, `dsne:<n>`, `dsnd:<n>:<x>`,
//! `flexdsn:<base>:<x>:<minors>`, `ring:<n>`, `torus2d:<n>`, `torus3d:<n>`,
//! `dln:<n>:<x>`, `random:<n>[:<seed>]`, `regular:<n>:<d>[:<seed>]`,
//! `kleinberg:<side>:<q>[:<seed>]`, `hypercube:<dim>`, `ccc:<dim>`,
//! `debruijn:<base>:<dim>`.

use dsn_bench::RunArgs;
use dsn_core::export::to_dot;
use dsn_core::topology::TopologySpec;
use dsn_layout::{cable_stats, CableModel, LinearPlacement};
use dsn_metrics::{edge_connectivity, estimate_bisection, TopologyReport};

fn main() {
    let args =
        RunArgs::parse_with_positionals("netanalyze [--dot FILE] <spec> [<spec> ...]", "--dot");
    if args.positionals.is_empty() {
        args.fail("no topology spec given");
    }
    let dot_path: Option<String> = args.value("--dot");

    println!(
        "{} {:>9} {:>9} {:>8}",
        TopologyReport::header(),
        "cable[m]",
        "edgeconn",
        "bisect"
    );
    for spec in &args.positionals {
        let parsed = match TopologySpec::parse(spec) {
            Ok(p) => p,
            Err(e) => {
                eprintln!("  {spec}: {e}");
                continue;
            }
        };
        let built = match parsed.build() {
            Ok(b) => b,
            Err(e) => {
                eprintln!("  {spec}: {e}");
                continue;
            }
        };
        let report = TopologyReport::new(built.name.clone(), &built.graph);
        let model = CableModel::default();
        let placement = LinearPlacement::new(built.graph.node_count(), model.switches_per_cabinet);
        let cable = cable_stats(&built.graph, &placement, &model);
        let conn = edge_connectivity(&built.graph);
        let bis = estimate_bisection(&built.graph, 2, 7).width;
        println!(
            "{} {:>9.2} {:>9} {:>8}",
            report.row(),
            cable.avg_m,
            conn,
            bis
        );
        if let Some(path) = &dot_path {
            let dot = to_dot(&built.graph, &built.name);
            if let Err(e) = std::fs::write(path, dot) {
                eprintln!("  cannot write {path}: {e}");
            } else {
                println!("  (DOT written to {path})");
            }
        }
    }
}
