//! Layout-conscious random topologies (paper ref. \[11\], HPCA 2013) vs
//! DSN: sweep the cable-length cap of a constrained-random DLN-2-2 and plot
//! the (average cable length, ASPL) frontier next to the DSN and
//! unconstrained-RANDOM design points. The paper argues that in low-radix
//! networks, capping random-link length costs significant hop count —
//! while DSN gets short cables *and* low ASPL by constructing the long
//! links deterministically.
//!
//! Run: `cargo run --release -p dsn-bench --bin layout_conscious [n]`

use dsn_bench::{RunArgs, RANDOM_SEED};
use dsn_core::dln::{DlnRandom, DlnRandomCapped};
use dsn_core::dsn::Dsn;
use dsn_layout::{cable_stats, CableModel, LinearPlacement};
use dsn_metrics::path_stats;

fn main() {
    let args = RunArgs::parse_with_positionals("layout_conscious [N >= 8]", "");
    let n: usize = match args.positionals.as_slice() {
        [] => 1024,
        [n] => n
            .parse()
            .ok()
            .filter(|&n| n >= 8)
            .unwrap_or_else(|| args.fail(format!("malformed switch count `{n}`"))),
        _ => args.fail("at most one switch count"),
    };
    let p = dsn_core::util::ceil_log2(n);
    let model = CableModel::default();
    let placement = LinearPlacement::new(n, model.switches_per_cabinet);

    println!("Layout-conscious random topologies vs DSN at N = {n}");
    println!(
        "  {:<28} {:>9} {:>7} {:>7}",
        "topology", "cable[m]", "aspl", "diam"
    );

    let report = |name: String, g: &dsn_core::Graph| {
        let cable = cable_stats(g, &placement, &model).avg_m;
        let s = path_stats(g);
        println!(
            "  {:<28} {:>9.2} {:>7.3} {:>7}",
            name, cable, s.aspl, s.diameter
        );
    };

    let dsn = Dsn::new(n, p - 1).expect("dsn");
    report(format!("DSN-{}-{n}", p - 1), dsn.graph());

    let unconstrained = DlnRandom::new(n, 2, 2, RANDOM_SEED).expect("random");
    report("DLN-2-2 (unconstrained)".into(), unconstrained.graph());

    for cap in [n / 64, n / 16, n / 8, n / 4, n / 2] {
        let capped = DlnRandomCapped::new(n, 2, 2, cap.max(2), RANDOM_SEED).expect("capped");
        report(format!("DLN-2-2 cap={cap}"), capped.graph());
    }

    println!(
        "\nReading: tight caps give torus-like cable bills but ring-like path\n\
         lengths, and loose caps recover RANDOM's hops only at RANDOM's cable\n\
         cost. A well-tuned cap (~n/8) lands on DSN's design point — which is\n\
         exactly the Kleinberg-style length distribution DSN engineers\n\
         deterministically, keeping in addition its O(log n) routing logic and\n\
         proven diameter/deadlock guarantees that a random instance cannot offer."
    );
}
