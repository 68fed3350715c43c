//! Quantifies the paper's "routing logic simple and small" claim: estimated
//! per-switch routing state for DSN custom routing vs table-based
//! up*/down* and adaptive+escape, across network sizes, plus torus DOR for
//! reference.
//!
//! Run: `cargo run --release -p dsn-bench --bin routing_cost`

use dsn_core::dsn::Dsn;
use dsn_core::torus::Torus;
use dsn_route::cost::{adaptive_escape_cost, dor_cost, dsn_custom_cost, updown_cost};

fn main() {
    dsn_bench::RunArgs::parse("routing_cost", "");
    println!("Per-switch routing state (bits) vs network size");
    println!(
        "  {:>6} {:>14} {:>14} {:>18} {:>12}",
        "n", "dsn-custom", "up*/down*", "adaptive+escape", "torus-dor"
    );
    for k in 5..=11u32 {
        let n = 1usize << k;
        let p = dsn_core::util::ceil_log2(n);
        let dsn = Dsn::new(n, p - 1).expect("dsn");
        let torus = Torus::square_2d(n).expect("torus");
        let custom = dsn_custom_cost(&dsn);
        let ud = updown_cost(dsn.graph());
        let ad = adaptive_escape_cost(dsn.graph());
        let dor = dor_cost(&torus);
        println!(
            "  {:>6} {:>14} {:>14} {:>18} {:>12}",
            n,
            custom.state_bits_per_switch,
            ud.state_bits_per_switch,
            ad.state_bits_per_switch,
            dor.state_bits_per_switch
        );
    }
    println!();
    let dsn = Dsn::new(2048, 10).expect("dsn");
    let custom = dsn_custom_cost(&dsn);
    let ud = updown_cost(dsn.graph());
    println!(
        "At 2048 switches: custom routing needs {} bits/switch ({}) — {}x less state\n\
         than the {}-entry up*/down* table it replaces.",
        custom.state_bits_per_switch,
        custom.decision_logic,
        ud.state_bits_per_switch / custom.state_bits_per_switch.max(1),
        ud.table_entries_per_switch
    );
}
