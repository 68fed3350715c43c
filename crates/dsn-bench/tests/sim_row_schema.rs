//! Key-order pin for the `fig10_simulation` bench rows: each row printed by
//! the large-n smoke (`--quick --sizes 16`, one row per trio topology) must
//! carry exactly the keys, in the same order, as the committed
//! `BENCH_sim.json` row with the same `"routing"`.

use std::process::Command;

const BENCH_SIM: &str = include_str!("../../../BENCH_sim.json");

/// The keys of a one-line JSON object row, in order.
fn keys(row: &str) -> Vec<&str> {
    let parts: Vec<&str> = row.split("\": ").collect();
    parts[..parts.len() - 1]
        .iter()
        .map(|p| &p[p.rfind('"').expect("quoted key") + 1..])
        .collect()
}

fn routing(row: &str) -> &str {
    let rest = &row[row.find("\"routing\": \"").expect("routing key") + 12..];
    &rest[..rest.find('"').expect("closing quote")]
}

#[test]
fn printed_rows_match_committed_key_order() {
    let out = Command::new(env!("CARGO_BIN_EXE_fig10_simulation"))
        .args(["--quick", "--sizes", "16"])
        .output()
        .expect("run fig10_simulation");
    assert!(out.status.success(), "fig10_simulation failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let rows: Vec<&str> = stdout
        .lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .collect();
    assert_eq!(rows.len(), 3, "one row per trio topology:\n{stdout}");
    let committed: Vec<&str> = BENCH_SIM
        .lines()
        .filter(|l| l.trim_start().starts_with('{'))
        .collect();
    for row in rows {
        let golden = committed
            .iter()
            .find(|c| routing(c) == routing(row))
            .unwrap_or_else(|| panic!("no committed row with routing {}", routing(row)));
        // `rss_is_cumulative` is appended only where the peak-RSS mark
        // cannot be reset; the committed rows were measured where it can.
        let mut actual = keys(row);
        actual.retain(|&k| k != "rss_is_cumulative");
        assert_eq!(actual, keys(golden), "row {row}");
    }
}
