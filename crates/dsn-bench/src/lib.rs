//! # dsn-bench — figure/table regenerators for the DSN reproduction
//!
//! The binaries under `src/bin/`, one per experiment:
//!
//! * `paper_figures` — Figures 7, 8 and 9: diameter, average shortest path
//!   length and average cable length vs network size, plus T1–T3
//! * `fig10_simulation` — latency vs accepted traffic (Figure 10 a/b/c);
//!   `--json` writes `BENCH_sim.json`
//! * `theory_validation` — Facts 1–3 and Theorems 1–3 measured vs bounds
//! * `ablation_extensions` — DSN-D-x / DSN-E / flexible-DSN ablations
//! * `related_work` — Section III diameter-and-degree table
//! * `routing_cost` — per-switch routing state of custom vs table routing
//! * `traffic_balance` — channel load balance, custom vs up*/down*
//! * `custom_vs_agnostic` — custom vs topology-agnostic routing in simulation
//! * `deadlock_in_vivo` — the cyclic-CDG routing wedging in simulation
//! * `switching_ablation` — virtual cut-through vs wormhole
//! * `saturation_search` — saturation throughput past Figure 10's axis
//! * `collective_exchange` — makespan of all-to-all and ring shifts
//! * `degraded_performance` — latency under static or mid-run link failures
//!   (`BENCH_degraded.json`)
//! * `flow_suite` — flow-completion times for datacenter workloads
//!   (`BENCH_flows.json`)
//! * `opt_frontier` — searched shortcut placements on the quality-vs-cable
//!   Pareto frontier (`BENCH_opt.json`)
//! * `layout_conscious` — cable-capped random topologies vs DSN
//! * `netanalyze` — analyze any topology given as a spec string
//!
//! plus Criterion micro-benchmarks under `benches/`. Every binary parses
//! its command line with [`RunArgs`] and writes its JSON rows with
//! [`json_row`] and [`json_report`].

#![warn(missing_docs)]

pub mod degraded;
pub mod flows;
pub mod opt;

use dsn_core::topology::TopologySpec;
use dsn_core::{Graph, Parallelism};
use std::sync::Arc;

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

/// The trio at size `n`, built once as `(name, graph)` pairs: every pass
/// that shares these `Arc<Graph>`s shares their routing builds, since the
/// [`dsn_sim::RoutingCache`] keys on the graph's identity.
pub fn trio_graphs(n: usize) -> Vec<(String, Arc<Graph>)> {
    trio(n)
        .into_iter()
        .map(|spec| {
            let built = spec.build().expect("topology");
            (built.name, Arc::new(built.graph))
        })
        .collect()
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

/// Window width (cycles) used when `--telemetry` is given with no value.
pub const DEFAULT_TELEMETRY_WINDOW: u64 = 1_000;

/// Flags that take a value, as `--flag V` or `--flag=V`. Every other flag
/// is a switch, except `--telemetry`, which is bare or `--telemetry=WINDOW`.
const VALUE_FLAGS: &str = "--sizes --threads --faults --flaps --bench-row --dot";

/// The command line of a bench binary, parsed once at startup by
/// [`RunArgs::parse`]. This is the only place in the crate that reads the
/// process arguments.
///
/// Each binary names the flags it accepts, separated by spaces
/// (`"--quick --json"`). An unknown flag, a missing or
/// malformed value, or a positional argument where none is taken prints
/// the error and the usage line and exits with status 2 before any work
/// starts. When a flag is repeated, the last occurrence wins.
#[derive(Debug, Default)]
pub struct RunArgs {
    /// `--telemetry` ([`DEFAULT_TELEMETRY_WINDOW`]) or
    /// `--telemetry=WINDOW`: the window width in cycles, or `None` when
    /// telemetry is off.
    pub telemetry: Option<u64>,
    /// `--quick`: shorter horizons for smoke runs.
    pub quick: bool,
    /// `--json`: also write the binary's `BENCH_*.json` report.
    pub json: bool,
    /// `--sizes N,M,...`: switch counts of the rows to run, each >= 8.
    pub sizes: Option<Vec<usize>>,
    /// `--serial` or `--threads N` (`0` = automatic, `1` = serial);
    /// automatic when neither is given. [`RunArgs::parse`] installs it as
    /// the process's global worker count.
    pub par: Parallelism,
    /// The non-flag arguments, in order.
    pub positionals: Vec<String>,
    /// Binary-specific flags in the order given: switches (`--opt`) with
    /// no value, value flags (`--faults N`) with theirs.
    extra: Vec<(String, Option<String>)>,
    usage: &'static str,
}

impl RunArgs {
    /// Parse this process's arguments against `flags`, the flags the
    /// binary accepts; a positional argument is an error.
    pub fn parse(usage: &'static str, flags: &str) -> Self {
        Self::parse_process(usage, flags, false)
    }

    /// [`RunArgs::parse`] for binaries that take positional arguments;
    /// they land in [`RunArgs::positionals`].
    pub fn parse_with_positionals(usage: &'static str, flags: &str) -> Self {
        Self::parse_process(usage, flags, true)
    }

    fn parse_process(usage: &'static str, flags: &str, positionals: bool) -> Self {
        let mut args = Self::try_parse(std::env::args().skip(1), flags, positionals)
            .unwrap_or_else(|e| {
                eprintln!("{e}\nusage: {usage}");
                std::process::exit(2);
            });
        args.usage = usage;
        // One global pool for the whole process, so the kernels that read
        // it (`--threads N` passes no pool of its own) run on N workers.
        args.par.install();
        args
    }

    /// Parse `argv` (without the program name) against `flags`; the error
    /// names the offending argument.
    fn try_parse(
        argv: impl IntoIterator<Item = String>,
        flags: &str,
        positionals: bool,
    ) -> Result<Self, String> {
        let is_value_flag = |name: &str| VALUE_FLAGS.split_whitespace().any(|f| f == name);
        let mut out = RunArgs::default();
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if !arg.starts_with('-') {
                if !positionals {
                    return Err(format!("unexpected argument `{arg}`"));
                }
                out.positionals.push(arg);
                continue;
            }
            let (name, inline) = match arg.split_once('=') {
                Some((name, v)) => (name, Some(v.to_string())),
                None => (arg.as_str(), None),
            };
            if !flags.split_whitespace().any(|f| f == name) {
                return Err(format!("unknown argument `{arg}`"));
            }
            let value = if inline.is_none() && is_value_flag(name) {
                Some(argv.next().ok_or_else(|| format!("{name} needs a value"))?)
            } else {
                inline
            };
            match (name, value) {
                ("--telemetry", None) => out.telemetry = Some(DEFAULT_TELEMETRY_WINDOW),
                ("--telemetry", Some(v)) => match v.parse::<u64>() {
                    Ok(w) if w >= 1 => out.telemetry = Some(w),
                    _ => return Err(format!("--telemetry needs a window >= 1, got `{v}`")),
                },
                ("--sizes", Some(v)) => {
                    let sizes: Option<Vec<usize>> = v
                        .split(',')
                        .map(|s| s.trim().parse().ok().filter(|&n| n >= 8))
                        .collect();
                    out.sizes = Some(sizes.ok_or_else(|| {
                        format!("--sizes needs comma-separated switch counts >= 8, got `{v}`")
                    })?);
                }
                ("--threads", Some(v)) => {
                    out.par = match v.parse::<usize>() {
                        Ok(1) => Parallelism::serial(),
                        Ok(n) => Parallelism::threads(n),
                        Err(_) => return Err(format!("--threads needs a worker count, got `{v}`")),
                    };
                }
                (name, Some(v)) if !is_value_flag(name) => {
                    return Err(format!("{name} takes no value, got `{v}`"))
                }
                ("--serial", _) => out.par = Parallelism::serial(),
                ("--quick", _) => out.quick = true,
                ("--json", _) => out.json = true,
                (name, value) => out.extra.push((name.to_string(), value)),
            }
        }
        Ok(out)
    }

    /// Whether the binary-specific switch `name` (e.g. `"--opt"`) was given.
    pub fn flag(&self, name: &str) -> bool {
        self.extra.iter().any(|(k, _)| k == name)
    }

    /// The value of the binary-specific value flag `name` (e.g.
    /// `"--faults"`), parsed; exits through [`RunArgs::fail`] when it is
    /// malformed.
    pub fn value<T: std::str::FromStr>(&self, name: &str) -> Option<T> {
        let v = self
            .extra
            .iter()
            .rev()
            .find(|(k, _)| k == name)?
            .1
            .as_ref()?;
        Some(
            v.parse()
                .unwrap_or_else(|_| self.fail(format!("{name}: malformed value `{v}`"))),
        )
    }

    /// Print `msg` and the usage line, and exit with status 2.
    pub fn fail(&self, msg: impl std::fmt::Display) -> ! {
        eprintln!("{msg}\nusage: {}", self.usage);
        std::process::exit(2);
    }
}

/// One rendered value of a JSON row; see [`json_row`].
pub struct Json(String);

impl Json {
    /// A float with exactly `digits` decimals.
    pub fn fixed(x: f64, digits: usize) -> Self {
        Json(format!("{x:.digits$}"))
    }

    /// Already-rendered JSON, such as an array.
    pub fn raw(s: String) -> Self {
        Json(s)
    }
}

impl From<&str> for Json {
    /// A quoted string, escaped as `Debug` does: the same as JSON for
    /// quotes, backslashes, `\n`, `\r` and `\t`.
    fn from(s: &str) -> Self {
        Json(format!("{s:?}"))
    }
}

/// Numbers and booleans render as `Display` does (floats in their shortest
/// round-trip form: `1`, `2.5`).
macro_rules! json_display {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Self {
                Json(x.to_string())
            }
        }
    )*};
}
json_display!(bool, f64, u32, u64, usize);

impl<T: Into<Json>> From<Option<T>> for Json {
    /// The value, or `null`.
    fn from(v: Option<T>) -> Self {
        v.map_or_else(|| Json("null".into()), Into::into)
    }
}

/// Render one row as `{"key": value, ...}` in the given key order.
pub fn json_row(fields: &[(&str, Json)]) -> String {
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {}", v.0))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Render a `BENCH_*.json` report: `schema`, then the `header` fields,
/// then the [`json_row`] rows under `"rows"`, one per line.
pub fn json_report(
    schema: &str,
    header: &[(&str, Json)],
    rows: impl IntoIterator<Item = String>,
) -> String {
    let mut s = format!("{{\n  \"schema\": \"{schema}\",\n");
    for (k, v) in header {
        s.push_str(&format!("  \"{k}\": {},\n", v.0));
    }
    let rows: Vec<String> = rows.into_iter().map(|r| format!("\n    {r}")).collect();
    s + &format!("  \"rows\": [{}\n  ]\n}}\n", rows.join(","))
}

/// Set the warm-up, measure and drain horizons of the saturation-search
/// binaries (shorter under `--quick`) and return the search tolerance in
/// Gbit/s/host that goes with them.
pub fn search_horizons(cfg: &mut dsn_sim::SimConfig, quick: bool) -> f64 {
    let (warmup, window, tol) = if quick {
        (3_000, 8_000, 2.0)
    } else {
        (8_000, 20_000, 1.0)
    };
    cfg.warmup_cycles = warmup;
    cfg.measure_cycles = window;
    cfg.drain_cycles = window;
    tol
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

    fn parse(tokens: &[&str], flags: &str) -> Result<RunArgs, String> {
        RunArgs::try_parse(tokens.iter().map(|s| s.to_string()), flags, true)
    }

    const SIM: &str = "--quick --json --telemetry --sizes --bench-row";

    #[test]
    fn defaults_when_no_flags() {
        let a = parse(&[], SIM).unwrap();
        assert_eq!(a.telemetry, None);
        assert!(!a.quick && !a.json);
        assert_eq!(a.sizes, None);
        assert_eq!(a.par, Parallelism::auto());
        assert!(a.positionals.is_empty());
    }

    #[test]
    fn last_occurrence_wins() {
        let a = parse(&["--bench-row", "1", "--bench-row=2"], SIM).unwrap();
        assert_eq!(a.value::<usize>("--bench-row"), Some(2));
    }

    #[test]
    fn sizes_space_and_eq_forms() {
        let a = parse(&["--json", "--sizes", "1024,2048"], SIM).unwrap();
        assert_eq!(a.sizes, Some(vec![1024, 2048]));
        assert!(a.json);

        let a = parse(&["--sizes=1024, 2048", "--quick"], SIM).unwrap();
        assert_eq!(a.sizes, Some(vec![1024, 2048]));
        assert!(a.quick);
    }

    #[test]
    fn value_flags_space_and_eq_forms() {
        let a = parse(&["--bench-row", "7", "--json"], SIM).unwrap();
        assert_eq!(a.value::<usize>("--bench-row"), Some(7));
        assert!(a.json);
        assert!(a.positionals.is_empty(), "the value is consumed");

        let a = parse(&["--faults=3"], "--faults").unwrap();
        assert_eq!(a.value::<usize>("--faults"), Some(3));

        let a = parse(&["--json"], SIM).unwrap();
        assert_eq!(a.value::<usize>("--bench-row"), None);
    }

    #[test]
    fn telemetry_bare_and_windowed() {
        // Bare `--telemetry` never takes the next token as its window.
        let a = parse(&["--telemetry", "uniform"], SIM).unwrap();
        assert_eq!(a.telemetry, Some(DEFAULT_TELEMETRY_WINDOW));
        assert_eq!(a.positionals, vec!["uniform".to_string()]);

        let a = parse(&["--telemetry=250"], SIM).unwrap();
        assert_eq!(a.telemetry, Some(250));
    }

    #[test]
    fn threads_and_serial() {
        let par = "--serial --threads";
        let a = parse(&["--threads", "3"], par).unwrap();
        assert_eq!(a.par, Parallelism::threads(3));
        assert!(parse(&["--serial"], par).unwrap().par.is_serial());
        let a = parse(&["--threads=2"], par).unwrap();
        assert_eq!(a.par, Parallelism::threads(2));
        assert!(parse(&["--threads=1"], par).unwrap().par.is_serial());
        let a = parse(&["--threads", "0"], par).unwrap();
        assert_eq!(a.par, Parallelism::auto());
        let a = parse(&["--serial", "--threads", "4"], par).unwrap();
        assert_eq!(a.par, Parallelism::threads(4), "last one wins");
    }

    #[test]
    fn switches_and_positionals() {
        let a = parse(&["all", "--opt", "uniform"], "--opt --sat").unwrap();
        assert!(a.flag("--opt"));
        assert!(!a.flag("--sat"));
        assert_eq!(
            a.positionals,
            vec!["all".to_string(), "uniform".to_string()]
        );
    }

    #[test]
    fn bad_input_is_an_error() {
        for (tokens, flags) in [
            (&["--no-such-flag"][..], SIM),
            (&["--threads"][..], "--threads"),
            (&["--threads", "abc"][..], "--threads"),
            (&["--threads=abc"][..], "--threads"),
            (&["--sizes"][..], SIM),
            (&["--sizes", "4"][..], SIM),
            (&["--sizes", "64,x"][..], SIM),
            (&["--bench-row"][..], SIM),
            (&["--telemetry=0"][..], SIM),
            (&["--telemetry=abc"][..], SIM),
            (&["--quick=1"][..], SIM),
            (&["--dot"][..], "--dot"),
        ] {
            assert!(parse(tokens, flags).is_err(), "{tokens:?} accepted");
        }
        let no_positionals = RunArgs::try_parse(["64".to_string()], SIM, false);
        assert!(no_positionals.is_err());
    }

    #[test]
    fn json_row_and_report_layout() {
        let row = json_row(&[
            ("name", "DSN-5-64".into()),
            ("n", 64usize.into()),
            ("load", 11.0.into()),
            ("aspl", Json::fixed(3.48512, 3)),
            ("ok", true.into()),
            ("sat", Option::<u64>::None.into()),
        ]);
        assert_eq!(
            row,
            r#"{"name": "DSN-5-64", "n": 64, "load": 11, "aspl": 3.485, "ok": true, "sat": null}"#
        );
        let report = json_report("s/v1", &[("scale", "quick".into())], [row.clone(), row]);
        assert!(report.starts_with("{\n  \"schema\": \"s/v1\",\n  \"scale\": \"quick\",\n"));
        assert!(report.ends_with("true, \"sat\": null}\n  ]\n}\n"));
        assert_eq!(
            json_report("s/v1", &[], []),
            "{\n  \"schema\": \"s/v1\",\n  \"rows\": [\n  ]\n}\n"
        );
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
