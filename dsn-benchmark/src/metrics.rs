//! The metric catalogue (mirrored by `BENCHMARK.json`), run-to-run
//! summaries, and the verdict rule of `compare`.

use crate::workloads::SATURATED_ROWS;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn name(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    pub fn parse(s: &str) -> Option<Better> {
        match s {
            "lower" => Some(Better::Lower),
            "higher" => Some(Better::Higher),
            _ => None,
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median a change may worsen this metric by
    /// before it counts as a regression; per-layer metrics have none.
    pub bound: Option<f64>,
}

fn m(name: impl Into<String>, unit: &'static str, better: Better, bound: Option<f64>) -> Metric {
    Metric {
        name: name.into(),
        unit,
        better,
        bound,
    }
}

/// What a user of the library waits on and pays for, measured with
/// tracing off. The time bounds are as tight as the shared host allows:
/// its speed drifts by up to a third over minutes; see README.md.
pub fn end_to_end() -> Vec<Metric> {
    use Better::Lower;
    vec![
        m("wall_s", "s", Lower, Some(0.25)),
        m("cpu_s", "s", Lower, Some(0.25)),
        m("setup_s", "s", Lower, Some(0.25)),
        m("peak_heap_mb", "MB", Lower, Some(0.10)),
    ]
}

/// Per-layer spans and counters, measured by the traced pass. A workload
/// that never enters a layer reports 0 for it.
pub fn per_layer() -> Vec<Metric> {
    use Better::{Higher, Lower};
    let mut v = vec![
        m("process.peak_rss_mb", "MB", Lower, None),
        m("topology.build_s", "s", Lower, None),
        m("routing.build_s", "s", Lower, None),
        m("routing.cache_hits", "count", Higher, None),
        m("routing.cache_misses", "count", Lower, None),
    ];
    for row in SATURATED_ROWS {
        v.push(m(format!("routing.table_bytes.{row}"), "B", Lower, None));
    }
    v.push(m("engine.new_s", "s", Lower, None));
    v.push(m("engine.cycles_per_s", "cycles/s", Higher, None));
    for phase in ["wheel", "inject", "route", "arbitrate", "eject"] {
        v.push(m(format!("engine.{phase}_s"), "s", Lower, None));
    }
    let per_row: [(&str, &'static str, Better); 11] = [
        ("warmup_s", "s", Lower),
        ("measure_s", "s", Lower),
        ("drain_s", "s", Lower),
        ("measure_cycles_per_s", "cycles/s", Higher),
        ("rss_warmup_mb", "MB", Lower),
        ("rss_measure_mb", "MB", Lower),
        ("peak_rss_mb", "MB", Lower),
        ("peak_buffered_flits", "count", Lower),
        ("peak_in_flight_packets", "count", Lower),
        ("us_per_packet", "us", Lower),
        ("arbitrate_ns_per_flit", "ns", Lower),
    ];
    for (name, unit, better) in per_row {
        for row in SATURATED_ROWS {
            v.push(m(format!("engine.{name}.{row}"), unit, better, None));
        }
    }
    v.extend([
        m("sweep.call_s_p50", "s", Lower, None),
        m("sweep.call_s_max", "s", Lower, None),
        m("sweep.cpu_util", "ratio", Higher, None),
        m("flow.websearch_s", "s", Lower, None),
        m("flow.incast_s", "s", Lower, None),
        m("flow.allreduce_s", "s", Lower, None),
        m("fault.websearch_flap_slowdown", "ratio", Lower, None),
        m("fault.route_rebuilds", "count", Lower, None),
        m("fault.dropped", "count", Lower, None),
        m("fault.retried", "count", Lower, None),
        m("apsp.path_stats_ms", "ms", Lower, None),
        m("cable.stats_ms", "ms", Lower, None),
        m("search.sa_s", "s", Lower, None),
        m("search.es_s", "s", Lower, None),
        m("search.evaluations", "count", Lower, None),
        m("search.ms_per_eval", "ms", Lower, None),
        m("search.non_score_frac", "ratio", Lower, None),
        m("search.sa_accept_ratio", "ratio", Higher, None),
        m("trace.overhead", "ratio", Lower, None),
    ]);
    v
}

/// The median as `statistics.median` computes it.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartiles as `statistics.quantiles(values, n=4)`
/// (the default exclusive method) computes them.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld < 2 {
        return (v[0], v[0]);
    }
    let m = ld + 1;
    let q = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// One metric over K runs.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub min: f64,
    pub max: f64,
    pub values: Vec<f64>,
}

impl Summary {
    pub fn of(values: &[f64]) -> Self {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            min: values.iter().copied().fold(f64::INFINITY, f64::min),
            max: values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            values: values.to_vec(),
        }
    }

    /// Quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        if self.median == 0.0 {
            if self.q3 == self.q1 {
                0.0
            } else {
                f64::INFINITY
            }
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Worse,
    Unchanged,
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Verdict on moving from baseline `a` to candidate `b`.
///
/// - Unresolved: either side's quartile spread is wider than `bound`,
///   unless every run of `b` beats every run of `a` (then better).
/// - Worse: `b`'s median is worse than `a`'s by more than `bound`.
/// - Better: `b`'s median is better by more than `a`'s own spread. The
///   bound only limits regressions, so a gain smaller than the bound
///   (halving arbitrate would save 20-24%) can still be resolved.
/// - Otherwise unchanged.
pub fn verdict(a: &Summary, b: &Summary, better: Better, bound: f64) -> Verdict {
    let beats = |x: f64, y: f64| match better {
        Better::Lower => x < y,
        Better::Higher => x > y,
    };
    let all_beat = b
        .values
        .iter()
        .all(|&x| a.values.iter().all(|&y| beats(x, y)));
    if a.spread() > bound || b.spread() > bound {
        return if all_beat {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let base = a.median.abs().max(f64::MIN_POSITIVE);
    let worse_by = match better {
        Better::Lower => (b.median - a.median) / base,
        Better::Higher => (a.median - b.median) / base,
    };
    if worse_by > bound {
        Verdict::Worse
    } else if -worse_by > a.spread() {
        Verdict::Better
    } else {
        Verdict::Unchanged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
    }

    #[test]
    fn verdicts_follow_the_bound_and_spread() {
        let s = |v: &[f64]| Summary::of(v);
        let base = s(&[10.0, 10.1, 9.9, 10.0, 10.05]);
        assert_eq!(
            verdict(
                &base,
                &s(&[12.0, 12.1, 11.9, 12.0, 12.05]),
                Better::Lower,
                0.1
            ),
            Verdict::Worse
        );
        assert_eq!(
            verdict(
                &base,
                &s(&[10.2, 10.1, 10.3, 10.2, 10.25]),
                Better::Lower,
                0.1
            ),
            Verdict::Unchanged
        );
        assert_eq!(
            verdict(&base, &s(&[8.0, 8.1, 7.9, 8.0, 8.05]), Better::Lower, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(&base, &s(&[8.0, 8.1, 7.9, 8.0, 8.05]), Better::Lower, 0.25),
            Verdict::Better,
            "a gain inside the regression bound still resolves"
        );
        assert_eq!(
            verdict(&base, &s(&[8.0, 8.1, 7.9, 8.0, 8.05]), Better::Higher, 0.1),
            Verdict::Worse
        );
        let noisy = s(&[5.0, 15.0, 10.0, 7.0, 13.0]);
        assert_eq!(
            verdict(&base, &noisy, Better::Lower, 0.1),
            Verdict::Unresolved
        );
        let noisy_but_faster = s(&[5.0, 9.0, 6.0, 9.5, 7.0]);
        assert_eq!(
            verdict(&base, &noisy_but_faster, Better::Lower, 0.1),
            Verdict::Better
        );
    }
}
