//! The front ends: one measured run (`--workload ...`), `run` (K
//! repetitions, round-robin over workloads, each in a fresh child
//! process) and `compare` (verdicts between two `run` result files).
//! Child processes are this executable's `exec` subcommand.

use crate::exec::{self, ExecArgs, OP_MARKER, PROBE_MARKER};
use crate::host::{self, HostFacts};
use crate::json::Json;
use crate::metrics::{self, verdict, Better, Metric, Summary, Verdict};
use crate::workloads::{Kind, Scale, SATURATED_ROWS};
use std::collections::BTreeMap;
use std::process::{Command, Stdio};

/// Engine phases as the `[phase-timing]` rows name them, with the metric
/// each one feeds.
const PHASES: [(&str, &str); 5] = [
    ("wheel-drain", "engine.wheel_s"),
    ("inject", "engine.inject_s"),
    ("route", "engine.route_s"),
    ("arbitrate", "engine.arbitrate_s"),
    ("eject", "engine.eject_s"),
];

/// A child's report plus, for a traced child, its phase times keyed by
/// `op <name>` or `probe <name>`.
struct ChildRun {
    report: Json,
    phases: BTreeMap<String, [f64; 5]>,
}

impl ChildRun {
    fn num(&self, key: &str) -> f64 {
        self.report.get(key).and_then(Json::as_f64).unwrap_or(0.0)
    }

    fn metric(&self, name: &str) -> Option<f64> {
        self.report.get("metrics")?.get(name)?.as_f64()
    }

    fn ops(&self) -> u64 {
        self.num("ops") as u64
    }

    fn ops_failed(&self) -> u64 {
        self.num("ops_failed") as u64
    }

    fn text(&self, key: &str) -> &str {
        self.report.get(key).and_then(Json::as_str).unwrap_or("")
    }

    fn failures(&self) -> Vec<&str> {
        self.report
            .get("failures")
            .and_then(Json::as_arr)
            .map(|a| a.iter().filter_map(Json::as_str).collect())
            .unwrap_or_default()
    }
}

/// Run one `exec` child to completion and parse its report. A traced
/// child runs with the engine's phase-timing diagnostic on and its stderr
/// captured; an untraced one runs with the diagnostic forced off.
///
/// The child's rayon pool has one worker: on a shared 2-vCPU host, two
/// workers made every operation wait for whichever vCPU the host slowed,
/// and the `fig10-sweep` run-to-run spread grew from 2% to 14%.
fn spawn(
    kind: Kind,
    seed: u64,
    seconds: f64,
    scale: Scale,
    trace: bool,
) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["exec", "--workload", kind.name()])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .env("RAYON_NUM_THREADS", "1")
        .stdin(Stdio::null())
        .stdout(Stdio::piped());
    if scale == Scale::Smoke {
        cmd.arg("--smoke");
    }
    if trace {
        cmd.arg("--trace")
            .env("DSN_PHASE_TIMING", "1")
            .stderr(Stdio::piped());
    } else {
        cmd.env_remove("DSN_PHASE_TIMING").stderr(Stdio::inherit());
    }
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {} child: {e}", kind.name()))?;
    let stderr = String::from_utf8_lossy(&out.stderr);
    let phases = parse_phases(&stderr);
    if !out.status.success() {
        return Err(format!("{} child failed: {}", kind.name(), out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let report = Json::parse(last).map_err(|e| format!("{} child report: {e}", kind.name()))?;
    Ok(ChildRun { report, phases })
}

/// Sum the `[phase-timing]` blocks on a traced child's stderr per
/// operation and probe; pass every other line through to our stderr.
fn parse_phases(stderr: &str) -> BTreeMap<String, [f64; 5]> {
    let mut phases: BTreeMap<String, [f64; 5]> = BTreeMap::new();
    let mut op = String::new();
    for line in stderr.lines() {
        if let Some(name) = line.strip_prefix(OP_MARKER) {
            op = format!("op {name}");
            continue;
        }
        if let Some(name) = line.strip_prefix(PROBE_MARKER) {
            op = format!("probe {name}");
            continue;
        }
        if line.starts_with("[phase-timing]") || line.trim_start().starts_with("total ") {
            continue;
        }
        let mut tok = line.split_whitespace();
        let (Some(name), Some(secs)) = (tok.next(), tok.next()) else {
            eprintln!("{line}");
            continue;
        };
        let slot = PHASES.iter().position(|(p, _)| *p == name);
        match (
            slot,
            secs.strip_suffix('s').and_then(|s| s.parse::<f64>().ok()),
        ) {
            (Some(k), Some(v)) => phases.entry(op.clone()).or_default()[k] += v,
            _ => eprintln!("{line}"),
        }
    }
    phases
}

/// Per-layer values from a traced child, with the phase split, the
/// arbitration cost per flit, and from the untraced `base` round its RSS
/// and the tracing overhead.
fn layer_values(traced: &ChildRun, base: &ChildRun) -> BTreeMap<String, f64> {
    let mut v: BTreeMap<String, f64> = traced
        .report
        .get("metrics")
        .and_then(Json::as_obj)
        .unwrap_or_default()
        .iter()
        .filter_map(|(k, x)| Some((k.clone(), x.as_f64()?)))
        .collect();
    for (k, (_, metric)) in PHASES.iter().enumerate() {
        let ops = traced
            .phases
            .iter()
            .filter(|(label, _)| label.starts_with("op "));
        v.insert(metric.to_string(), ops.map(|(_, p)| p[k]).sum());
    }
    for row in SATURATED_ROWS {
        let arbitrate = |cut: &str| {
            traced
                .phases
                .get(&format!("probe {row}/{cut}"))
                .map(|p| p[3])
        };
        let flits = v.get(&format!("raw.window_flits.{row}")).copied();
        if let (Some(end), Some(start), Some(f)) = (arbitrate("window"), arbitrate("warmup"), flits)
        {
            v.insert(
                format!("engine.arbitrate_ns_per_flit.{row}"),
                (end - start) * 1e9 / f.max(1.0),
            );
        }
    }
    let wall = |r: &ChildRun| r.metric("wall_s").unwrap_or(f64::NAN);
    v.insert("trace.overhead".into(), wall(traced) / wall(base) - 1.0);
    let rss = base.metric("process.peak_rss_mb").unwrap_or(0.0);
    v.insert("process.peak_rss_mb".into(), rss);
    v
}

/// A workload's child runs and the metric values they produced, in
/// catalogue order.
struct Measured {
    runs: Vec<ChildRun>,
    values: Vec<(Metric, f64)>,
}

/// One untraced run: the end-to-end metrics.
fn untraced(kind: Kind, seed: u64, seconds: f64, scale: Scale) -> Result<Measured, String> {
    let run = spawn(kind, seed, seconds, scale, false)?;
    let values = metrics::end_to_end()
        .into_iter()
        .map(|m| {
            let v = run.metric(&m.name).unwrap_or(0.0);
            (m, v)
        })
        .collect();
    Ok(Measured {
        runs: vec![run],
        values,
    })
}

/// The traced pass: one untraced round, the baseline of
/// `trace.overhead`, then one traced round; the per-layer metrics. Every
/// metric of a layer the workload does not exercise reads 0.
fn traced_pass(kind: Kind, seed: u64, scale: Scale) -> Result<Measured, String> {
    let base = spawn(kind, seed, 0.0, scale, false)?;
    let traced = spawn(kind, seed, 0.0, scale, true)?;
    let layer = layer_values(&traced, &base);
    let values = metrics::per_layer()
        .into_iter()
        .map(|m| {
            let v = layer.get(&m.name).copied().unwrap_or(0.0);
            (m, v)
        })
        .collect();
    Ok(Measured {
        runs: vec![base, traced],
        values,
    })
}

fn print_failures(run: &ChildRun) {
    for f in run.failures() {
        eprintln!("FAILED {}: {f}", run.text("workload"));
    }
}

/// One measured run: a comment line, then the result object
/// as the last line of stdout. Exit code 1 without a result when a child
/// cannot run.
pub fn measure(kind: Kind, seed: u64, seconds: f64, trace: bool, scale: Scale) -> i32 {
    let measured = if trace {
        traced_pass(kind, seed, scale)
    } else {
        untraced(kind, seed, seconds, scale)
    };
    let Measured { runs, values } = match measured {
        Ok(m) => m,
        Err(e) => {
            eprintln!("dsn-benchmark: {e}");
            return 1;
        }
    };
    let attempted: u64 = runs.iter().map(ChildRun::ops).sum();
    let failed: u64 = runs.iter().map(ChildRun::ops_failed).sum();
    runs.iter().for_each(print_failures);
    let r = &runs[0];
    println!(
        "# dsn-benchmark {} seed={seed} trace={} rounds={} ops={attempted} failed={failed} digest={} pin={} nproc={}",
        kind.name(),
        trace as u8,
        r.num("rounds"),
        r.text("digest"),
        r.text("pin"),
        host::nproc(),
    );
    let metrics = values
        .iter()
        .map(|(m, v)| {
            let value = Json::obj(vec![("value", Json::Num(*v)), ("unit", Json::str(m.unit))]);
            (m.name.clone(), value)
        })
        .collect();
    let out = Json::obj(vec![
        ("correct", Json::from(failed == 0)),
        ("attempted", Json::from(attempted)),
        ("failed", Json::from(failed)),
        ("metrics", Json::Obj(metrics)),
    ]);
    println!("{out}");
    0
}

/// Options of the `run` front end.
pub struct RunOpts {
    pub repeats: usize,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub out: String,
}

/// K repetitions of every workload at bench scale, round-robin, each in a
/// fresh child; then (with `trace`) one traced pass per workload. Prints
/// every metric with its median, quartiles, extremes and K, and writes the
/// result file. Returns 1 when any operation failed.
pub fn run(o: &RunOpts) -> i32 {
    let mut runs: BTreeMap<&str, Vec<ChildRun>> = BTreeMap::new();
    let mut order = Vec::new();
    for rep in 0..o.repeats {
        for kind in Kind::ALL {
            eprintln!("# {} repetition {}/{}", kind.name(), rep + 1, o.repeats);
            match spawn(kind, o.seed, o.seconds, Scale::Bench, false) {
                Ok(r) => {
                    print_failures(&r);
                    runs.entry(kind.name()).or_default().push(r);
                }
                Err(e) => {
                    eprintln!("dsn-benchmark: {e}");
                    return 1;
                }
            }
            order.push(Json::str(format!("{}#{rep}", kind.name())));
        }
    }
    let facts = HostFacts::collect();
    let mut workloads = Vec::new();
    let mut any_failed = false;
    println!(
        "{:<12} {:<44} {:>9} {:>14} {:>14} {:>14} {:>14} {:>14} {:>3}",
        "workload", "metric", "unit", "median", "q1", "q3", "min", "max", "K"
    );
    for kind in Kind::ALL {
        let reps = &runs[kind.name()];
        let mut ops: u64 = reps.iter().map(ChildRun::ops).sum();
        let mut failed: u64 = reps.iter().map(ChildRun::ops_failed).sum();
        // Repetitions of one seed must agree bit for bit.
        let digest = reps[0].text("digest").to_string();
        for r in &reps[1..] {
            if r.text("digest") != digest {
                eprintln!(
                    "FAILED {}: repetition digest {} != {digest}",
                    kind.name(),
                    r.text("digest")
                );
                failed += r.ops();
            }
        }
        let mut rows: Vec<_> = metrics::end_to_end()
            .into_iter()
            .map(|m| {
                let values: Vec<f64> = reps
                    .iter()
                    .map(|r| r.metric(&m.name).unwrap_or(0.0))
                    .collect();
                (m, Summary::of(&values))
            })
            .collect();
        if o.trace {
            eprintln!("# {} traced pass", kind.name());
            match traced_pass(kind, o.seed, Scale::Bench) {
                Ok(pass) => {
                    for r in &pass.runs {
                        print_failures(r);
                        ops += r.ops();
                        failed += r.ops_failed();
                    }
                    rows.extend(pass.values.into_iter().map(|(m, v)| (m, Summary::of(&[v]))));
                }
                Err(e) => {
                    eprintln!("dsn-benchmark: {e}");
                    return 1;
                }
            }
        }
        any_failed |= failed > 0;
        let mut metric_objs = Vec::new();
        for (m, s) in &rows {
            println!(
                "{:<12} {:<44} {:>9} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                kind.name(),
                m.name,
                m.unit,
                s.median,
                s.q1,
                s.q3,
                s.min,
                s.max,
                s.values.len()
            );
            metric_objs.push((m.name.clone(), summary_json(m, s)));
        }
        println!(
            "{:<12} ops {ops} ops_failed {failed} digest {digest} pin {}",
            kind.name(),
            reps[0].text("pin")
        );
        workloads.push(Json::obj(vec![
            ("name", Json::str(kind.name())),
            ("ops", Json::from(ops)),
            ("ops_failed", Json::from(failed)),
            ("digest", Json::str(digest)),
            ("pin", Json::str(reps[0].text("pin"))),
            ("metrics", Json::Obj(metric_objs)),
        ]));
    }
    let result = Json::obj(vec![
        ("schema", Json::str("dsn-benchmark/result/v1")),
        (
            "host",
            Json::obj(vec![
                ("nproc", Json::from(facts.nproc as u64)),
                ("cpu_model", Json::str(facts.cpu_model)),
                ("rustc", Json::str(facts.rustc)),
                ("git_rev", Json::str(facts.git_rev)),
            ]),
        ),
        ("seed", Json::from(o.seed)),
        ("repeats", Json::from(o.repeats as u64)),
        ("seconds", Json::Num(o.seconds)),
        ("order", Json::Arr(order)),
        ("workloads", Json::Arr(workloads)),
    ]);
    if let Err(e) = std::fs::write(&o.out, format!("{result}\n")) {
        eprintln!("dsn-benchmark: cannot write {}: {e}", o.out);
        return 1;
    }
    eprintln!("# wrote {}", o.out);
    i32::from(any_failed)
}

fn summary_json(m: &metrics::Metric, s: &Summary) -> Json {
    Json::obj(vec![
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better.name())),
        ("bound", m.bound.map_or(Json::Null, Json::Num)),
        ("median", Json::Num(s.median)),
        ("q1", Json::Num(s.q1)),
        ("q3", Json::Num(s.q3)),
        ("min", Json::Num(s.min)),
        ("max", Json::Num(s.max)),
        ("k", Json::from(s.values.len() as u64)),
        (
            "values",
            Json::Arr(s.values.iter().map(|&v| Json::Num(v)).collect()),
        ),
    ])
}

/// Metrics of every workload in a result file: (workload, metric) ->
/// (better, bound, summary).
type Results = BTreeMap<(String, String), (Better, Option<f64>, Summary)>;

fn load_result(path: &str) -> Result<Results, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let bad = || format!("{path}: not a dsn-benchmark result file");
    let mut out = BTreeMap::new();
    for w in doc
        .get("workloads")
        .and_then(Json::as_arr)
        .ok_or_else(bad)?
    {
        let name = w.get("name").and_then(Json::as_str).ok_or_else(bad)?;
        for (metric, v) in w.get("metrics").and_then(Json::as_obj).ok_or_else(bad)? {
            let values: Vec<f64> = v
                .get("values")
                .and_then(Json::as_arr)
                .ok_or_else(bad)?
                .iter()
                .filter_map(Json::as_f64)
                .collect();
            let better = v
                .get("better")
                .and_then(Json::as_str)
                .and_then(Better::parse)
                .ok_or_else(bad)?;
            if values.is_empty() {
                return Err(bad());
            }
            let bound = v.get("bound").and_then(Json::as_f64);
            out.insert(
                (name.to_string(), metric.clone()),
                (better, bound, Summary::of(&values)),
            );
        }
    }
    Ok(out)
}

/// Verdict per (workload, metric) present in both files; end-to-end
/// metrics use their bound, per-layer ones are listed for information.
/// Returns 1 if any end-to-end metric got worse.
pub fn compare(a_path: &str, b_path: &str) -> i32 {
    let (a, b) = match (load_result(a_path), load_result(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("dsn-benchmark: {e}");
            return 2;
        }
    };
    let mut worse = 0;
    println!(
        "{:<12} {:<44} {:>14} {:>14} {:>9} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "change", "bound"
    );
    for ((w, m), (better, bound, sa)) in &a {
        let Some((_, _, sb)) = b.get(&(w.clone(), m.clone())) else {
            continue;
        };
        let change = if sa.median == 0.0 {
            0.0
        } else {
            sb.median / sa.median - 1.0
        };
        let (v, bound_txt) = match bound {
            Some(bound) => (
                verdict(sa, sb, *better, *bound).name(),
                format!("{:.0}%", bound * 100.0),
            ),
            None => ("info", "-".to_string()),
        };
        if v == Verdict::Worse.name() {
            worse += 1;
        }
        println!(
            "{w:<12} {m:<44} {:>14.6} {:>14.6} {:>+8.1}% {bound_txt:>7}  {v}",
            sa.median,
            sb.median,
            change * 100.0
        );
    }
    println!("{worse} end-to-end metric(s) worse");
    i32::from(worse > 0)
}

/// Run `saturated`, `flows-flaps` and `opt-search` once on seed 0 at the
/// scale of the committed BENCH files and check their rows against them.
/// Returns 1 on any mismatch or broken invariant.
pub fn verify() -> i32 {
    let mut failed = 0;
    for kind in [Kind::Saturated, Kind::FlowsFlaps, Kind::OptSearch] {
        eprintln!("# verifying {} at full scale", kind.name());
        let report = exec::exec(&ExecArgs {
            kind,
            seed: 0,
            seconds: 0.0,
            scale: Scale::Full,
            trace: false,
        });
        let run = ChildRun {
            report,
            phases: BTreeMap::new(),
        };
        print_failures(&run);
        failed += run.ops_failed();
        println!(
            "{:<12} ops {} ops_failed {} wall_s {:.3}",
            kind.name(),
            run.ops(),
            run.ops_failed(),
            run.metric("wall_s").unwrap_or(0.0)
        );
    }
    i32::from(failed > 0)
}
