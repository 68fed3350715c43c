//! Finalized telemetry artifacts and their exporters.
//!
//! A [`TelemetryReport`] is plain data — everything a run recorded, fully
//! deterministic for a given simulation — with three exporters:
//!
//! * [`TelemetryReport::to_json`] — stable-schema JSON
//!   (`"dsn-telemetry/v3"`, fixed key order, golden-file pinned);
//! * [`TelemetryReport::to_csv`] — long-format windowed time series
//!   (`metric,window,index,value`);
//! * [`TelemetryReport::heatmap`] — a terminal link-utilization heatmap
//!   keyed by ring position, separating ring links from shortcut links so
//!   DSN hot-spots are visible at a glance.

/// Latency statistics for one `(phase, distance class)` cell.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClassReport {
    /// Log-bucketed ring-distance class (`0` = same switch, class `k >= 1`
    /// covers ring distances `[2^(k-1), 2^k - 1]`).
    pub class: u32,
    /// Packets delivered in this cell.
    pub count: u64,
    /// Median latency (log-bucket upper bound, clamped to the exact max).
    pub p50: u64,
    /// 95th-percentile latency.
    pub p95: u64,
    /// 99th-percentile latency.
    pub p99: u64,
    /// Exact maximum latency.
    pub max: u64,
    /// Exact sum of latencies (cycles).
    pub latency_sum_cycles: u64,
    /// Raw log-bucket counts (trailing zero buckets trimmed).
    pub buckets: Vec<u64>,
}

/// Aggregates for one traffic phase (packets grouped by creation cycle).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseReport {
    /// Phase name (e.g. `"warmup"`, `"pre-fault"`).
    pub name: String,
    /// First cycle of the phase.
    pub start_cycle: u64,
    /// Packets created during the phase.
    pub created: u64,
    /// Packets created during the phase and delivered by run end.
    pub delivered: u64,
    /// Packets created during the phase and dropped by a fault.
    pub dropped: u64,
    /// Exact sum of delivered-packet latencies.
    pub latency_sum_cycles: u64,
    /// Cycles delivered packets spent waiting for VC allocation.
    pub queueing_cycles: u64,
    /// Cycles delivered packets spent serializing through switches
    /// (switch allocation and credit stalls).
    pub credit_stall_cycles: u64,
    /// Cycles delivered packets spent on wires.
    pub wire_cycles: u64,
    /// Cycles delivered packets spent in ejection.
    pub ejection_cycles: u64,
    /// Network hops of delivered packets (links their tails crossed).
    pub hops: u64,
    /// Per-distance-class latency histograms (empty classes omitted).
    pub classes: Vec<ClassReport>,
}

/// Flow-completion-time statistics for one log2 flow-size class.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FctClassReport {
    /// Log2 flow-size class: class `k` covers flows of `[2^k, 2^(k+1) - 1]`
    /// packets; the last class (7) is open-ended.
    pub class: u32,
    /// Measured flows completed in this class.
    pub count: u64,
    /// Median FCT (log-bucket upper bound, clamped to the exact max).
    pub p50: u64,
    /// 99th-percentile FCT.
    pub p99: u64,
    /// Exact maximum FCT.
    pub max: u64,
    /// Exact sum of FCTs (cycles).
    pub fct_sum_cycles: u64,
    /// Raw log-bucket counts (trailing zero buckets trimmed).
    pub buckets: Vec<u64>,
}

/// Per-channel totals.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkReport {
    /// Channel id (the simulator's channel index).
    pub channel: u32,
    /// Source switch.
    pub src: u32,
    /// Destination switch.
    pub dst: u32,
    /// True for ring links (ring distance 1), false for shortcuts.
    pub ring: bool,
    /// Flits sent on the channel over the whole run.
    pub flits: u64,
    /// Flits sent during the measurement window only.
    pub measured_flits: u64,
    /// Peak downstream input-VC occupancy observed (flits).
    pub peak_occupancy: u32,
}

/// One windowed time series: sparse `(window_index, (index, value) pairs)`
/// rows; windows with no events produce no row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Series {
    /// Metric name (`link_flits`, `vc_depth_max`, `inj_depth_max`,
    /// `alloc_conflicts`, `eject_flits`).
    pub metric: String,
    /// Sparse rows in window order; pair indices are channel/VC/switch ids
    /// depending on the metric (always `0` for scalar metrics).
    pub rows: Vec<(u64, Vec<(u32, u64)>)>,
}

/// Everything one telemetry-enabled run recorded.
#[derive(Debug, Clone, PartialEq)]
pub struct TelemetryReport {
    /// Time-series window length in cycles.
    pub window_cycles: u64,
    /// Cycle the run stopped at.
    pub final_cycle: u64,
    /// Number of switches.
    pub nodes: usize,
    /// Virtual channels per network channel.
    pub vcs: usize,
    /// First cycle of the measurement window.
    pub measure_start: u64,
    /// One past the last cycle of the measurement window.
    pub measure_end: u64,
    /// Per-phase aggregates in phase order.
    pub phases: Vec<PhaseReport>,
    /// Flow-completion-time statistics by log2 flow-size class (empty
    /// classes omitted; empty for non-flow workloads).
    pub fct: Vec<FctClassReport>,
    /// Per-channel totals in channel order.
    pub links: Vec<LinkReport>,
    /// Windowed time series.
    pub series: Vec<Series>,
    /// Flits sent over the whole run (all channels).
    pub flits_sent_total: u64,
    /// Flits ejected into hosts over the whole run.
    pub flits_ejected_total: u64,
    /// VC-allocation conflicts (head blocked with no free VC/credits).
    pub alloc_conflicts_total: u64,
}

/// Schema tag embedded in every [`TelemetryReport::to_json`] export; bump
/// the version suffix on any breaking change to key order or formatting
/// (v2 added the per-flow-class `"fct"` section, v3 the per-phase
/// `"hops"` count).
pub const SCHEMA: &str = "dsn-telemetry/v3";

impl TelemetryReport {
    /// Per-channel utilization over the measurement window, computed with
    /// the same expression the simulator uses for `RunStats` utilization
    /// (flits divided by `max(measure_cycles, 1)`), so telemetry and
    /// `RunStats` reconcile bit-for-bit.
    pub fn measured_utilization(&self) -> Vec<f64> {
        let window = (self.measure_end - self.measure_start).max(1) as f64;
        self.links
            .iter()
            .map(|l| l.measured_flits as f64 / window)
            .collect()
    }

    /// Mean per-channel utilization over the measurement window; bit-equal
    /// to `RunStats::mean_channel_utilization` for the same run.
    pub fn mean_measured_utilization(&self) -> f64 {
        let window = (self.measure_end - self.measure_start).max(1) as f64;
        let total: u64 = self.links.iter().map(|l| l.measured_flits).sum();
        total as f64 / window / self.links.len().max(1) as f64
    }

    /// Maximum per-channel utilization over the measurement window;
    /// bit-equal to `RunStats::max_channel_utilization` for the same run.
    pub fn max_measured_utilization(&self) -> f64 {
        self.measured_utilization()
            .into_iter()
            .fold(0.0f64, f64::max)
    }

    /// Serialize as stable-schema JSON (`"dsn-telemetry/v3"`).
    ///
    /// Key order, spacing, and number formatting are fixed; the output is
    /// byte-for-byte deterministic for a given run and pinned by the
    /// golden-file test in `dsn-sim/tests/telemetry_schema.rs`.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(4096);
        s.push_str(&format!("{{\n  \"schema\": \"{SCHEMA}\",\n"));
        s.push_str(&format!("  \"window_cycles\": {},\n", self.window_cycles));
        s.push_str(&format!("  \"final_cycle\": {},\n", self.final_cycle));
        s.push_str(&format!("  \"nodes\": {},\n", self.nodes));
        s.push_str(&format!("  \"vcs\": {},\n", self.vcs));
        s.push_str(&format!("  \"measure_start\": {},\n", self.measure_start));
        s.push_str(&format!("  \"measure_end\": {},\n", self.measure_end));
        s.push_str(&format!(
            "  \"flits_sent_total\": {},\n",
            self.flits_sent_total
        ));
        s.push_str(&format!(
            "  \"flits_ejected_total\": {},\n",
            self.flits_ejected_total
        ));
        s.push_str(&format!(
            "  \"alloc_conflicts_total\": {},\n",
            self.alloc_conflicts_total
        ));
        s.push_str(&format!(
            "  \"mean_measured_utilization\": {:.6},\n",
            self.mean_measured_utilization()
        ));
        s.push_str("  \"phases\": [\n");
        for (pi, p) in self.phases.iter().enumerate() {
            s.push_str("    {\n");
            s.push_str(&format!("      \"name\": {},\n", json_string(&p.name)));
            s.push_str(&format!("      \"start_cycle\": {},\n", p.start_cycle));
            s.push_str(&format!("      \"created\": {},\n", p.created));
            s.push_str(&format!("      \"delivered\": {},\n", p.delivered));
            s.push_str(&format!("      \"dropped\": {},\n", p.dropped));
            s.push_str(&format!(
                "      \"latency_sum_cycles\": {},\n",
                p.latency_sum_cycles
            ));
            s.push_str(&format!(
                "      \"queueing_cycles\": {},\n",
                p.queueing_cycles
            ));
            s.push_str(&format!(
                "      \"credit_stall_cycles\": {},\n",
                p.credit_stall_cycles
            ));
            s.push_str(&format!("      \"wire_cycles\": {},\n", p.wire_cycles));
            s.push_str(&format!(
                "      \"ejection_cycles\": {},\n",
                p.ejection_cycles
            ));
            s.push_str(&format!("      \"hops\": {},\n", p.hops));
            s.push_str("      \"classes\": [\n");
            for (ci, c) in p.classes.iter().enumerate() {
                s.push_str(&format!(
                    "        {{\"class\": {}, \"count\": {}, \"p50\": {}, \"p95\": {}, \
                     \"p99\": {}, \"max\": {}, \"latency_sum_cycles\": {}, \"buckets\": {}}}{}\n",
                    c.class,
                    c.count,
                    c.p50,
                    c.p95,
                    c.p99,
                    c.max,
                    c.latency_sum_cycles,
                    json_u64_array(&c.buckets),
                    trail(ci, p.classes.len())
                ));
            }
            s.push_str("      ]\n");
            s.push_str(&format!("    }}{}\n", trail(pi, self.phases.len())));
        }
        s.push_str("  ],\n");
        s.push_str("  \"fct\": [\n");
        for (fi, f) in self.fct.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"class\": {}, \"count\": {}, \"p50\": {}, \"p99\": {}, \"max\": {}, \
                 \"fct_sum_cycles\": {}, \"buckets\": {}}}{}\n",
                f.class,
                f.count,
                f.p50,
                f.p99,
                f.max,
                f.fct_sum_cycles,
                json_u64_array(&f.buckets),
                trail(fi, self.fct.len())
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"links\": [\n");
        for (li, l) in self.links.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"channel\": {}, \"src\": {}, \"dst\": {}, \"ring\": {}, \
                 \"flits\": {}, \"measured_flits\": {}, \"peak_occupancy\": {}}}{}\n",
                l.channel,
                l.src,
                l.dst,
                l.ring,
                l.flits,
                l.measured_flits,
                l.peak_occupancy,
                trail(li, self.links.len())
            ));
        }
        s.push_str("  ],\n");
        s.push_str("  \"series\": [\n");
        for (si, m) in self.series.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"metric\": {}, \"rows\": [",
                json_string(&m.metric)
            ));
            for (ri, (win, pairs)) in m.rows.iter().enumerate() {
                if ri > 0 {
                    s.push_str(", ");
                }
                s.push_str(&format!("[{win}, ["));
                for (pi, (idx, v)) in pairs.iter().enumerate() {
                    if pi > 0 {
                        s.push_str(", ");
                    }
                    s.push_str(&format!("[{idx}, {v}]"));
                }
                s.push_str("]]");
            }
            s.push_str(&format!("]}}{}\n", trail(si, self.series.len())));
        }
        s.push_str("  ]\n}\n");
        s
    }

    /// Serialize the windowed time series as long-format CSV with header
    /// `metric,window,index,value` (one row per nonzero cell).
    pub fn to_csv(&self) -> String {
        let mut s = String::from("metric,window,index,value\n");
        for m in &self.series {
            for (win, pairs) in &m.rows {
                for (idx, v) in pairs {
                    s.push_str(&format!("{},{},{},{}\n", m.metric, win, idx, v));
                }
            }
        }
        s
    }

    /// Render a terminal link-utilization heatmap keyed by ring position.
    ///
    /// Two strips per 64-switch block: `ring` aggregates each switch's
    /// outgoing ring links, `shct` its outgoing shortcut links. Intensity
    /// is measured-window utilization relative to the busiest link of the
    /// run, on the scale `" .:-=+*#%@"` (`.` faint, `@` saturated, space =
    /// no traffic, `_` = switch has no link of that kind).
    pub fn heatmap(&self) -> String {
        const SCALE: &[u8] = b" .:-=+*#%@";
        let mut ring = vec![(0u64, 0u32); self.nodes];
        let mut shct = vec![(0u64, 0u32); self.nodes];
        for l in &self.links {
            let acc = if l.ring { &mut ring } else { &mut shct };
            let e = &mut acc[l.src as usize];
            e.0 += l.measured_flits;
            e.1 += 1;
        }
        let per_link = |acc: &[(u64, u32)], i: usize| -> Option<f64> {
            let (flits, n) = acc[i];
            (n > 0).then(|| flits as f64 / n as f64)
        };
        let peak = (0..self.nodes)
            .flat_map(|i| [per_link(&ring, i), per_link(&shct, i)])
            .flatten()
            .fold(0.0f64, f64::max);
        let glyph = |u: Option<f64>| -> char {
            match u {
                None => '_',
                Some(v) if v <= 0.0 || peak <= 0.0 => ' ',
                Some(v) => {
                    let t = (v / peak * (SCALE.len() - 1) as f64).round() as usize;
                    SCALE[t.min(SCALE.len() - 1)] as char
                }
            }
        };
        let mut s = format!(
            "link utilization by ring position ({} switches, peak = busiest link)\n",
            self.nodes
        );
        let width = 64;
        for start in (0..self.nodes).step_by(width) {
            let end = (start + width).min(self.nodes);
            s.push_str(&format!("  switch {start:>5}..{end:<5}\n"));
            for (label, acc) in [("ring", &ring), ("shct", &shct)] {
                s.push_str(&format!("  {label} |"));
                for i in start..end {
                    s.push(glyph(per_link(acc, i)));
                }
                s.push_str("|\n");
            }
        }
        s
    }
}

fn trail(i: usize, len: usize) -> &'static str {
    if i + 1 == len {
        ""
    } else {
        ","
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn json_u64_array(v: &[u64]) -> String {
    let mut s = String::from("[");
    for (i, x) in v.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        s.push_str(&x.to_string());
    }
    s.push(']');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_report() -> TelemetryReport {
        TelemetryReport {
            window_cycles: 16,
            final_cycle: 100,
            nodes: 4,
            vcs: 2,
            measure_start: 10,
            measure_end: 90,
            phases: vec![PhaseReport {
                name: "all".into(),
                start_cycle: 0,
                created: 2,
                delivered: 2,
                dropped: 0,
                latency_sum_cycles: 30,
                queueing_cycles: 10,
                credit_stall_cycles: 12,
                wire_cycles: 6,
                ejection_cycles: 2,
                hops: 3,
                classes: vec![ClassReport {
                    class: 1,
                    count: 2,
                    p50: 15,
                    p95: 15,
                    p99: 15,
                    max: 15,
                    latency_sum_cycles: 30,
                    buckets: vec![0, 0, 0, 0, 2],
                }],
            }],
            fct: vec![FctClassReport {
                class: 2,
                count: 3,
                p50: 40,
                p99: 64,
                max: 61,
                fct_sum_cycles: 130,
                buckets: vec![0, 0, 0, 0, 0, 1, 2],
            }],
            links: vec![
                LinkReport {
                    channel: 0,
                    src: 0,
                    dst: 1,
                    ring: true,
                    flits: 10,
                    measured_flits: 8,
                    peak_occupancy: 3,
                },
                LinkReport {
                    channel: 1,
                    src: 0,
                    dst: 2,
                    ring: false,
                    flits: 4,
                    measured_flits: 4,
                    peak_occupancy: 1,
                },
            ],
            series: vec![Series {
                metric: "link_flits".into(),
                rows: vec![(0, vec![(0, 3), (1, 1)]), (2, vec![(0, 7)])],
            }],
            flits_sent_total: 14,
            flits_ejected_total: 8,
            alloc_conflicts_total: 1,
        }
    }

    #[test]
    fn utilization_matches_engine_formula() {
        let r = tiny_report();
        // 80-cycle measurement window.
        let per = r.measured_utilization();
        assert_eq!(per, vec![8.0 / 80.0, 4.0 / 80.0]);
        assert_eq!(r.mean_measured_utilization(), 12.0 / 80.0 / 2.0);
        assert_eq!(r.max_measured_utilization(), 0.1);
    }

    #[test]
    fn json_is_stable_and_tagged() {
        let j = tiny_report().to_json();
        assert!(j.starts_with("{\n  \"schema\": \"dsn-telemetry/v3\",\n"));
        assert!(j.contains("\"rows\": [[0, [[0, 3], [1, 1]]], [2, [[0, 7]]]]"));
        assert!(j.contains(
            "{\"class\": 2, \"count\": 3, \"p50\": 40, \"p99\": 64, \"max\": 61, \
             \"fct_sum_cycles\": 130, \"buckets\": [0, 0, 0, 0, 0, 1, 2]}"
        ));
        assert_eq!(j, tiny_report().to_json(), "export must be deterministic");
    }

    #[test]
    fn csv_long_format() {
        let c = tiny_report().to_csv();
        assert_eq!(
            c,
            "metric,window,index,value\n\
             link_flits,0,0,3\nlink_flits,0,1,1\nlink_flits,2,0,7\n"
        );
    }

    #[test]
    fn heatmap_marks_ring_and_shortcut_rows() {
        let h = tiny_report().heatmap();
        assert!(h.contains("ring |"));
        assert!(h.contains("shct |"));
        // Switch 0 has the busiest ring link -> '@'; switches 1..3 have no
        // shortcut links -> '_'.
        let ring_row = h.lines().find(|l| l.contains("ring |")).unwrap();
        assert!(ring_row.contains("@"));
        let shct_row = h.lines().find(|l| l.contains("shct |")).unwrap();
        assert!(shct_row.contains("_"));
    }

    #[test]
    fn json_string_escapes() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
    }
}
