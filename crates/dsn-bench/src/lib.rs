//! # dsn-bench — figure/table regenerators for the DSN reproduction
//!
//! One binary per figure of the paper's evaluation (see `src/bin/`):
//!
//! * `fig7_diameter` — diameter vs network size (Figure 7)
//! * `fig8_aspl` — average shortest path length vs network size (Figure 8)
//! * `fig9_cable` — average cable length vs network size (Figure 9)
//! * `fig10_simulation` — latency vs accepted traffic (Figure 10 a/b/c)
//! * `theory_validation` — Facts 1–3 and Theorems 1–2 measured vs bounds
//! * `ablation_extensions` — DSN-D-x / DSN-E / flexible-DSN ablations
//! * `related_work` — Section III diameter-and-degree table
//!
//! plus Criterion micro-benchmarks under `benches/`.

#![warn(missing_docs)]

pub mod degraded;
pub mod flows;
pub mod opt;

use dsn_core::topology::TopologySpec;

/// The network sizes of Figures 7–9: `log2 N = 5 .. 11`.
pub fn paper_sizes() -> Vec<usize> {
    (5..=11).map(|k| 1usize << k).collect()
}

/// Fixed seed for the RANDOM (DLN-2-2) baseline so every figure binary and
/// test sees the same instance.
pub const RANDOM_SEED: u64 = 0xD5B0_2013;

/// The paper's three degree-4 contenders at size `n`.
pub fn trio(n: usize) -> [TopologySpec; 3] {
    TopologySpec::paper_trio(n, RANDOM_SEED)
}

/// Format a gnuplot-style data block header.
pub fn block_header(title: &str, columns: &[&str]) -> String {
    let mut s = format!("# {title}\n#");
    for c in columns {
        s.push_str(&format!(" {c:>12}"));
    }
    s.push('\n');
    s
}

/// Extract the last `--NAME VALUE` / `--NAME=VALUE` occurrence from
/// `args`, removing every consumed token. A trailing `--NAME` with no
/// value following is an error (previously it was silently swallowed),
/// reported through the `usage` message and `exit(2)` like every other
/// malformed flag.
pub fn take_value_arg(args: &mut Vec<String>, name: &str, usage: &str) -> Option<String> {
    let flag = format!("--{name}");
    let eq_prefix = format!("--{name}=");
    let mut value = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == flag {
            if i + 1 >= args.len() {
                eprintln!("{flag} needs a value (expected {usage})");
                std::process::exit(2);
            }
            value = Some(args.remove(i + 1));
            args.remove(i);
        } else if let Some(v) = args[i].strip_prefix(&eq_prefix) {
            value = Some(v.to_string());
            args.remove(i);
        } else {
            i += 1;
        }
    }
    value
}

/// [`take_value_arg`] plus a `FromStr` parse: a malformed value exits with
/// the `usage` message like a missing one.
pub fn take_parsed_arg<T: std::str::FromStr>(
    args: &mut Vec<String>,
    name: &str,
    usage: &str,
) -> Option<T> {
    take_value_arg(args, name, usage).map(|v| {
        v.parse().unwrap_or_else(|_| {
            eprintln!("--{name} needs {usage}, got `{v}`");
            std::process::exit(2);
        })
    })
}

/// Extract `--engine dense|event` (or `--engine=...`) from `args`,
/// removing the consumed tokens. Defaults to the event engine; exits with
/// a usage message on an unknown or missing value so every simulation
/// binary rejects typos the same way.
pub fn take_engine_arg(args: &mut Vec<String>) -> dsn_sim::EngineKind {
    const USAGE: &str = "dense | event";
    match take_value_arg(args, "engine", USAGE) {
        None => dsn_sim::EngineKind::default(),
        Some(v) => dsn_sim::EngineKind::parse(&v).unwrap_or_else(|| {
            eprintln!("unknown engine `{v}` (expected {USAGE})");
            std::process::exit(2);
        }),
    }
}

/// Extract `--sizes N,M,...` (or `--sizes=N,M,...`): switch counts of
/// the rows to run. Exits with a usage line on a missing value or a
/// malformed count (the trio and `Dsn::new_clean` need at least 8
/// switches).
pub fn take_sizes_arg(args: &mut Vec<String>) -> Option<Vec<usize>> {
    const USAGE: &str = "comma-separated switch counts >= 8, e.g. 64,256";
    let list = take_value_arg(args, "sizes", USAGE)?;
    let sizes: Option<Vec<usize>> = list
        .split(',')
        .map(|s| s.trim().parse::<usize>().ok().filter(|&n| n >= 8))
        .collect();
    Some(sizes.unwrap_or_else(|| {
        eprintln!("--sizes needs {USAGE}, got `{list}`");
        std::process::exit(2);
    }))
}

/// Exit with `usage` and status 2 when `args` (what is left after every
/// value flag was taken) holds a token outside `known`, so a misspelt or
/// retired flag fails loudly instead of being ignored.
pub fn reject_unknown_flags(args: &[String], known: &[&str], usage: &str) {
    if let Some(bad) = args.iter().find(|a| !known.contains(&a.as_str())) {
        eprintln!("unknown argument `{bad}`\nusage: {usage}");
        std::process::exit(2);
    }
}

/// Window width (cycles) used when `--telemetry` is given with no value.
pub const DEFAULT_TELEMETRY_WINDOW: u64 = 1_000;

/// Extract `--telemetry` (default window) or `--telemetry=WINDOW` from
/// `args`, removing the consumed tokens. Returns the window width in
/// cycles, or `None` when the flag is absent (telemetry off — the
/// simulator hooks compile to no-ops). Exits with a usage message on a
/// malformed window so every simulation binary rejects typos the same way.
pub fn take_telemetry_arg(args: &mut Vec<String>) -> Option<u64> {
    let mut window = None;
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--telemetry" {
            args.remove(i);
            window = Some(DEFAULT_TELEMETRY_WINDOW);
        } else if let Some(v) = args[i].strip_prefix("--telemetry=") {
            match v.parse::<u64>() {
                Ok(w) if w >= 1 => window = Some(w),
                _ => {
                    eprintln!("--telemetry needs a window of >= 1 cycles, got `{v}`");
                    std::process::exit(2);
                }
            }
            args.remove(i);
        } else {
            i += 1;
        }
    }
    window
}

/// Standard terminal + file rendering of a telemetry report: per-phase
/// latency decomposition table, the ring-position link-utilization
/// heatmap, and `telemetry_<tag>.json` / `telemetry_<tag>.csv` exports in
/// the working directory.
pub fn emit_telemetry(tag: &str, report: &dsn_sim::TelemetryReport) {
    println!(
        "\n--- telemetry [{tag}] (window = {} cycles) ---",
        report.window_cycles
    );
    println!(
        "  {:<12} {:>9} {:>9} {:>8} {:>9} {:>7} {:>7} {:>7} {:>7} {:>8}",
        "phase",
        "created",
        "delivered",
        "dropped",
        "avg-lat",
        "queue%",
        "stall%",
        "wire%",
        "eject%",
        "p99-max"
    );
    for p in &report.phases {
        let lat = p.latency_sum_cycles as f64;
        let pct = |part: u64| {
            if p.latency_sum_cycles == 0 {
                0.0
            } else {
                100.0 * part as f64 / lat
            }
        };
        let avg = if p.delivered == 0 {
            0.0
        } else {
            lat / p.delivered as f64
        };
        let p99_worst = p.classes.iter().map(|c| c.p99).max().unwrap_or(0);
        println!(
            "  {:<12} {:>9} {:>9} {:>8} {:>7.1}cy {:>6.1}% {:>6.1}% {:>6.1}% {:>6.1}% {:>6}cy",
            p.name,
            p.created,
            p.delivered,
            p.dropped,
            avg,
            pct(p.queueing_cycles),
            pct(p.credit_stall_cycles),
            pct(p.wire_cycles),
            pct(p.ejection_cycles),
            p99_worst,
        );
    }
    println!(
        "  flits sent {} / ejected {}; alloc conflicts {}; mean/max measured util {:.3}/{:.3}",
        report.flits_sent_total,
        report.flits_ejected_total,
        report.alloc_conflicts_total,
        report.mean_measured_utilization(),
        report.max_measured_utilization(),
    );
    print!("{}", report.heatmap());
    let json_path = format!("telemetry_{tag}.json");
    let csv_path = format!("telemetry_{tag}.csv");
    std::fs::write(&json_path, report.to_json()).expect("write telemetry JSON");
    std::fs::write(&csv_path, report.to_csv()).expect("write telemetry CSV");
    println!("# wrote {json_path}, {csv_path}");
}

/// Peak resident set size of this process in kilobytes (`VmHWM` from
/// `/proc/self/status`); `None` on platforms without procfs.
///
/// `VmHWM` is a process-lifetime high-water mark: without a
/// [`reset_peak_rss`] call before each measured region, every reading is
/// the max over *all* work the process has done so far, and per-row
/// figures come out monotonically inherited from earlier rows.
pub fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Reset the kernel's peak-RSS high-water mark (`VmHWM`) to the current
/// RSS by writing `5` to `/proc/self/clear_refs`, so the next
/// [`peak_rss_kb`] reading covers only the work done after this call.
/// Returns `false` where that isn't possible (no procfs, insufficient
/// privilege) — callers should then flag the figure as cumulative rather
/// than report a stale per-row number as fresh.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(tokens: &[&str]) -> Vec<String> {
        tokens.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn engine_arg_defaults_and_parses_both_forms() {
        let mut args = argv(&["--load", "1.0"]);
        assert_eq!(take_engine_arg(&mut args), dsn_sim::EngineKind::Event);
        assert_eq!(args, argv(&["--load", "1.0"]), "unrelated args untouched");

        let mut args = argv(&["--engine", "dense", "--load", "1.0"]);
        assert_eq!(take_engine_arg(&mut args), dsn_sim::EngineKind::Dense);
        assert_eq!(args, argv(&["--load", "1.0"]), "consumed tokens removed");

        let mut args = argv(&["--engine=dense"]);
        assert_eq!(take_engine_arg(&mut args), dsn_sim::EngineKind::Dense);
        assert!(args.is_empty());
    }

    #[test]
    fn engine_arg_last_occurrence_wins() {
        let mut args = argv(&["--engine=event", "--engine", "dense"]);
        assert_eq!(take_engine_arg(&mut args), dsn_sim::EngineKind::Dense);
        assert!(args.is_empty());
    }

    #[test]
    fn sizes_arg_space_and_eq_forms() {
        let mut args = argv(&["--json", "--sizes", "1024,2048"]);
        assert_eq!(take_sizes_arg(&mut args), Some(vec![1024, 2048]));
        assert_eq!(args, argv(&["--json"]));

        let mut args = argv(&["--sizes=1024, 2048", "--quick"]);
        assert_eq!(take_sizes_arg(&mut args), Some(vec![1024, 2048]));
        assert_eq!(args, argv(&["--quick"]));

        let mut args = argv(&["--quick"]);
        assert_eq!(take_sizes_arg(&mut args), None);
    }

    #[test]
    fn parsed_arg_space_and_eq_forms() {
        let mut args = argv(&["--bench-row", "7", "--json"]);
        assert_eq!(
            take_parsed_arg::<usize>(&mut args, "bench-row", "N"),
            Some(7)
        );
        assert_eq!(args, argv(&["--json"]));

        let mut args = argv(&["--gbps=2.5"]);
        assert_eq!(take_parsed_arg::<f64>(&mut args, "gbps", "F"), Some(2.5));
        assert!(args.is_empty());

        let mut args = argv(&["--json"]);
        assert_eq!(take_parsed_arg::<usize>(&mut args, "bench-row", "N"), None);
    }

    #[test]
    fn telemetry_arg_bare_and_windowed() {
        let mut args = argv(&["--telemetry", "-n", "64"]);
        assert_eq!(
            take_telemetry_arg(&mut args),
            Some(DEFAULT_TELEMETRY_WINDOW)
        );
        assert_eq!(args, argv(&["-n", "64"]));

        let mut args = argv(&["--telemetry=250"]);
        assert_eq!(take_telemetry_arg(&mut args), Some(250));
        assert!(args.is_empty());

        let mut args = argv(&[]);
        assert_eq!(take_telemetry_arg(&mut args), None);
    }

    #[test]
    fn peak_rss_resets_between_regions() {
        // Only meaningful where clear_refs is writable (Linux, enough
        // privilege) — the reset contract is "high-water mark restarts
        // from the current RSS", which a fresh big allocation must exceed.
        if !reset_peak_rss() {
            return;
        }
        let before = peak_rss_kb().expect("procfs available if clear_refs is");
        let ballast = vec![1u8; 64 << 20];
        std::hint::black_box(&ballast);
        let inflated = peak_rss_kb().expect("procfs available");
        assert!(
            inflated >= before,
            "high-water mark moved backwards: {inflated} < {before}"
        );
        drop(ballast);
        assert!(reset_peak_rss());
        let after_reset = peak_rss_kb().expect("procfs available");
        assert!(
            after_reset < inflated,
            "reset did not drop the high-water mark: {after_reset} >= {inflated}"
        );
    }
}
