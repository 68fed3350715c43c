//! Ablation study over the Section V extensions:
//!
//! * basic DSN-x for varying `x` (shortcut-set size vs diameter/degree);
//! * DSN-D-x (skip links) vs its base — the paper claims DSN-D-2 cuts the
//!   diameter to ~7/4 p;
//! * DSN-E (Up/Extra links) — degree overhead vs deadlock-free routing;
//! * flexible DSN (minor nodes) — path-quality cost of inserted minors.
//!
//! Run: `cargo run --release -p dsn-bench --bin ablation_extensions`

use dsn_core::dsn::Dsn;
use dsn_core::dsn_ext::{DsnD, DsnE, FlexibleDsn};
use dsn_metrics::{path_stats, TopologyReport};

fn main() {
    dsn_bench::RunArgs::parse("ablation_extensions", "");
    let n = 1020usize; // multiple of p = 10: complete super nodes
    let p = dsn_core::util::ceil_log2(n);

    println!("Ablation 1: shortcut-set size x vs diameter / ASPL / degree (n = {n}, p = {p})");
    println!("{}", TopologyReport::header());
    for x in 1..p {
        let dsn = Dsn::new(n, x).expect("dsn");
        println!(
            "{}",
            TopologyReport::new(format!("DSN-{x}-{n}"), dsn.graph()).row()
        );
    }

    println!();
    println!(
        "Ablation 2: DSN-D-x skip links (paper: DSN-D-2 diameter ~ 7/4 p = {:.1})",
        1.75 * p as f64
    );
    println!("{}", TopologyReport::header());
    let base_x = (p - dsn_core::util::ceil_log2(p as usize)).max(1);
    let base = Dsn::new(n, base_x).expect("base");
    println!(
        "{}",
        TopologyReport::new(format!("base DSN-{base_x}-{n}"), base.graph()).row()
    );
    for x in [1u32, 2, 3, 4] {
        let d = DsnD::new(n, x).expect("dsnd");
        println!(
            "{}   (q={}, +{} skip links)",
            TopologyReport::new(format!("DSN-D-{x}-{n}"), d.graph()).row(),
            d.q(),
            d.skip_edge_count()
        );
    }

    println!();
    println!("Ablation 3: DSN-E deadlock-free extension overhead");
    let basic = Dsn::new(n, p - 1).expect("dsn");
    let dsne = DsnE::new(n).expect("dsne");
    println!("{}", TopologyReport::header());
    println!(
        "{}",
        TopologyReport::new(format!("DSN-{}-{n}", p - 1), basic.graph()).row()
    );
    println!(
        "{}   (+{} up, +{} extra links)",
        TopologyReport::new(format!("DSN-E-{n}"), dsne.graph()).row(),
        dsne.up_edge_count(),
        dsne.extra_edge_count()
    );

    println!();
    println!("Ablation 4: flexible DSN — inserted minor nodes");
    let flex0 = FlexibleDsn::new(n, p - 1, &[]).expect("flex0");
    let s0 = path_stats(flex0.graph());
    println!(
        "  minors = 0: n = {:>5}, diameter = {}, aspl = {:.3}",
        flex0.n(),
        s0.diameter,
        s0.aspl
    );
    for minors in [4usize, 16, 64] {
        let spread: Vec<usize> = (0..minors).map(|i| (i + 1) * n / (minors + 1)).collect();
        let flex = FlexibleDsn::new(n, p - 1, &spread).expect("flex");
        let s = path_stats(flex.graph());
        println!(
            "  minors = {minors:>2}: n = {:>5}, diameter = {}, aspl = {:.3}",
            flex.n(),
            s.diameter,
            s.aspl
        );
    }
}
