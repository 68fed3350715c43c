//! One run of one workload, in the process that generates the load: set
//! up several times, then run the operations round after round until the
//! time is up, checking every output. Prints one JSON report line.

use crate::host;
use crate::json::Json;
use crate::metrics::median;
use crate::pins;
use crate::workloads::{Fnv, Kind, Layer, Scale, SetupTimes};
use std::time::Instant;

/// Set-up passes per run: at least `MIN_SETUPS`, and more until
/// `SETUP_BUDGET_S` seconds of set-up have been timed (at most
/// `MAX_SETUPS`), so millisecond set-ups still get a steady median.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 101;
const SETUP_BUDGET_S: f64 = 1.0;

/// Prefix of the stderr line the traced pass writes before each
/// operation, so the parent can attribute the engine's phase-timing
/// blocks to it.
pub const OP_MARKER: &str = "[dsn-benchmark] op ";
/// Same, before an untimed probe simulation of the traced pass.
pub const PROBE_MARKER: &str = "[dsn-benchmark] probe ";

pub struct ExecArgs {
    pub kind: Kind,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub trace: bool,
}

/// Run the workload and return the report. Untraced, operations repeat
/// until `seconds` have passed and at least one full round is done;
/// traced, exactly one round runs.
///
/// `wall_s` and `cpu_s` add up, over the operations, the fastest of each
/// operation's repetitions: on a shared host the same operation swings by
/// a third in episodes of 10-30 s, and the minimum is the repetition
/// least disturbed by other tenants. `setup_s` is the median set-up pass.
/// `peak_heap_mb` (and `process.peak_rss_mb`) are read when the first
/// round ends, so they do not depend on how many rounds fit in the time.
pub fn exec(args: &ExecArgs) -> Json {
    let (min_setups, max_setups) = match args.scale {
        Scale::Smoke => (2, 2),
        _ => (MIN_SETUPS, MAX_SETUPS),
    };
    let mut setups: Vec<SetupTimes> = Vec::new();
    let mut last = None;
    while setups.len() < min_setups
        || (setups.len() < max_setups
            && setups.iter().map(|s| s.total).sum::<f64>() < SETUP_BUDGET_S)
    {
        // Drop the previous pass's state before timing the next one.
        drop(last.take());
        let mut b = args.kind.bench(args.seed, args.scale);
        setups.push(b.setup());
        last = Some(b);
    }
    let mut bench = last.expect("at least one set-up pass");
    let names = bench.op_names();
    let n = names.len();
    let pinned = args.seed == 0 && args.scale == Scale::Bench;

    let mut layer = Layer::new();
    let mut walls = vec![Vec::new(); n];
    let mut cpus = vec![Vec::new(); n];
    let mut first: Vec<Option<u64>> = vec![None; n];
    let mut failures = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let (mut sim_cycles, mut sim_wall) = (0u64, 0.0f64);
    let mut pin_mismatch = false;
    let (mut peak_heap_mb, mut peak_rss_mb) = (0.0, 0.0);
    let started = Instant::now();
    for i in 0.. {
        if i >= n && (args.trace || started.elapsed().as_secs_f64() >= args.seconds) {
            break;
        }
        let op = i % n;
        if args.trace {
            eprintln!("{OP_MARKER}{}", names[op]);
        }
        let r = bench.run_op(op, args.trace, &mut layer);
        attempted += 1;
        let mut why = r.failures;
        match first[op] {
            None => first[op] = Some(r.digest),
            Some(d) if d != r.digest => {
                why.push(format!("repeat digest {:016x} != {d:016x}", r.digest))
            }
            Some(_) => {}
        }
        if pinned {
            if let Some(p) = pins::digest(args.kind.name(), &names[op]) {
                if p != r.digest {
                    pin_mismatch = true;
                    why.push(format!("digest {:016x} != pinned {p:016x}", r.digest));
                }
            }
        }
        if !why.is_empty() {
            failed += 1;
            failures.extend(why.into_iter().map(|w| format!("{}: {w}", names[op])));
        }
        if r.sim_cycles > 0 {
            sim_cycles += r.sim_cycles;
            sim_wall += r.wall_s;
        }
        walls[op].push(r.wall_s);
        cpus[op].push(r.cpu_s);
        if i + 1 == n {
            peak_heap_mb = host::peak_heap_mb();
            peak_rss_mb = host::peak_rss_mb();
        }
    }

    let mut digest = Fnv::new();
    let mut op_digests = Vec::new();
    let mut all_pinned = pinned;
    for (name, d) in names.iter().zip(&first) {
        let d = d.expect("every operation ran at least once");
        digest.u64(d);
        all_pinned &= pins::digest(args.kind.name(), name).is_some();
        op_digests.push((name.clone(), Json::str(format!("{d:016x}"))));
    }
    let pin = if !all_pinned {
        "unpinned"
    } else if pin_mismatch {
        "mismatch"
    } else {
        "match"
    };

    let setup_median =
        |f: fn(&SetupTimes) -> f64| median(&setups.iter().map(f).collect::<Vec<_>>());
    let sum_of_minima = |v: &[Vec<f64>]| {
        v.iter()
            .map(|x| x.iter().copied().fold(f64::INFINITY, f64::min))
            .sum::<f64>()
    };
    let mut metrics = vec![
        ("wall_s".to_string(), Json::Num(sum_of_minima(&walls))),
        ("cpu_s".to_string(), Json::Num(sum_of_minima(&cpus))),
        ("setup_s".to_string(), Json::Num(setup_median(|s| s.total))),
        ("peak_heap_mb".to_string(), Json::Num(peak_heap_mb)),
        ("process.peak_rss_mb".to_string(), Json::Num(peak_rss_mb)),
    ];
    if args.trace {
        bench.finish_trace(&mut layer);
        layer.insert("topology.build_s".into(), setup_median(|s| s.topology));
        layer.insert("routing.build_s".into(), setup_median(|s| s.routing));
        layer.insert("engine.new_s".into(), setup_median(|s| s.engine_new));
        if sim_wall > 0.0 {
            layer.insert("engine.cycles_per_s".into(), sim_cycles as f64 / sim_wall);
        }
        metrics.extend(layer.into_iter().map(|(k, v)| (k, Json::Num(v))));
    }

    Json::obj(vec![
        ("workload", Json::str(args.kind.name())),
        ("seed", Json::from(args.seed)),
        ("scale", Json::str(args.scale.name())),
        ("trace", Json::from(args.trace)),
        ("ops", Json::from(attempted)),
        ("ops_failed", Json::from(failed)),
        ("rounds", Json::Num(attempted as f64 / n as f64)),
        (
            "failures",
            Json::Arr(failures.into_iter().map(Json::Str).collect()),
        ),
        ("digest", Json::str(format!("{:016x}", digest.0))),
        ("pin", Json::str(pin)),
        ("op_digests", Json::Obj(op_digests)),
        ("metrics", Json::Obj(metrics)),
    ])
}
