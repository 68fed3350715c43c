//! Shared core of the `opt_frontier` binary: the shortcut-placement
//! Pareto study. Sweeps the paper's DSN against DLN/random-regular/
//! Kleinberg baselines and `dsn-opt`'s searched placements under DSN's
//! own cable budget, scoring every candidate on ASPL, total cable, and
//! (for finalists) saturation load, then marks the Pareto frontier. The
//! JSON schema is pinned by a golden-file test (`tests/opt_schema.rs`).

use dsn_core::topology::TopologySpec;
use dsn_core::{Graph, Parallelism};
use dsn_metrics::moore_aspl_bound;
use dsn_opt::{anneal_shortcuts, evolve, Candidate, EsConfig, Objective, SaConfig, SatProbe};
use dsn_sim::{RoutingCache, SimConfig, TrafficPattern};
use std::sync::Arc;
use std::time::Instant;

use crate::{json_report, json_row, Json, RANDOM_SEED};

/// Schema tag written into the JSON report; bump on breaking changes.
pub const SCHEMA: &str = "dsn-bench/opt/v1";

/// Seed for every seeded construction and search in the frontier study.
pub const OPT_SEED: u64 = 0x0D50_2013;

/// One candidate topology scored for the frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct OptRow {
    /// Topology display name.
    pub topology: String,
    /// Row class: `baseline`, `opt-sa`, or `opt-es`.
    pub family: &'static str,
    /// Switch count.
    pub n: usize,
    /// Exact average shortest path length (hops).
    pub aspl: f64,
    /// Exact diameter (hops).
    pub diameter: u32,
    /// Maximum switch degree.
    pub max_degree: usize,
    /// Total cable (meters) on the linear placement.
    pub cable_total_m: f64,
    /// Cable budget charged to this size group (DSN's own bill).
    pub budget_m: f64,
    /// Whether the row respects the budget.
    pub within_budget: bool,
    /// Saturation load (Gbps per host) under uniform traffic, when
    /// probed (`None` in quick runs without `--sat`).
    pub sat_gbps: Option<f64>,
    /// Stable topology fingerprint (same wiring ⇒ same value).
    pub fingerprint: u64,
    /// Wall-clock seconds spent producing the row (build + search +
    /// scoring). Zeroed by the golden schema test.
    pub wall_s: f64,
    /// True when no other row of the same size dominates this one.
    pub on_frontier: bool,
}

/// The full report.
#[derive(Debug, Clone, PartialEq)]
pub struct OptReport {
    /// Switch counts swept.
    pub sizes: Vec<usize>,
    /// Whether saturation was probed.
    pub sat: bool,
    /// Rows in sweep order.
    pub rows: Vec<OptRow>,
}

/// Knobs of one frontier sweep.
#[derive(Debug, Clone)]
pub struct FrontierConfig {
    /// Switch counts to sweep.
    pub sizes: Vec<usize>,
    /// Short searches and horizons (CI smoke).
    pub quick: bool,
    /// Probe saturation load on every row.
    pub sat: bool,
    /// Parallelism policy for APSP and the saturation sweep.
    pub par: Parallelism,
}

impl FrontierConfig {
    /// Search/probe budgets: (SA iterations, ES generations).
    fn search_budget(&self) -> (usize, usize) {
        if self.quick {
            (120, 6)
        } else {
            (1_500, 60)
        }
    }

    fn sim_config(&self) -> SimConfig {
        let mut cfg = SimConfig::default();
        if self.quick {
            cfg.warmup_cycles = 3_000;
            cfg.measure_cycles = 8_000;
            cfg.drain_cycles = 8_000;
        } else {
            cfg.warmup_cycles = 8_000;
            cfg.measure_cycles = 20_000;
            cfg.drain_cycles = 20_000;
        }
        cfg
    }
}

/// The two searched placements (Opt-SA, Opt-ES) at size `n`, run under
/// DSN's own cable budget from the DSN start point with the frontier
/// study's seeds and budgets — exposed so the Fig. 10 latency-vs-load
/// sweep can score them alongside the paper trio
/// (`fig10_simulation --opt`).
pub fn searched_placements(n: usize, quick: bool, par: Parallelism) -> Vec<(String, Graph)> {
    let dsn_start = Candidate::from_dsn(n).expect("DSN start point");
    let budget_m = Objective::aspl_only(par).score(dsn_start.graph()).cable_m;
    let obj = Objective::aspl_under_budget(budget_m, par);
    let (sa_iters, es_gens) = if quick { (120, 6) } else { (1_500, 60) };
    let sa = anneal_shortcuts(
        &dsn_start,
        &obj,
        &SaConfig {
            iterations: sa_iters,
            seed: OPT_SEED,
            ..SaConfig::default()
        },
    );
    let es = evolve(
        &dsn_start,
        &obj,
        &EsConfig {
            generations: es_gens,
            seed: OPT_SEED,
            ..EsConfig::default()
        },
    );
    vec![
        (format!("Opt-SA-{n}"), sa.best.into_graph()),
        (format!("Opt-ES-{n}"), es.best.into_graph()),
    ]
}

/// Run the sweep: baselines + searched placements at every size, scored
/// and frontier-marked.
pub fn run_frontier(cfg: &FrontierConfig) -> OptReport {
    let cache = Arc::new(RoutingCache::new());
    let probe = SatProbe {
        cfg: cfg.sim_config(),
        cache,
        pattern: TrafficPattern::Uniform,
        lo: 2.0,
        hi: 40.0,
        tol: if cfg.quick { 2.0 } else { 1.0 },
        seed: 0x5A7,
    };
    let (sa_iters, es_gens) = cfg.search_budget();
    let mut rows = Vec::new();

    for &n in &cfg.sizes {
        // The budget every contender is held to: DSN's own cable bill.
        let dsn_start = Candidate::from_dsn(n).expect("DSN start point");
        let free = Objective::aspl_only(cfg.par);
        let budget_m = free.score(dsn_start.graph()).cable_m;
        let obj = Objective::aspl_under_budget(budget_m, cfg.par);

        // Baselines.
        let p = dsn_core::util::ceil_log2(n.max(2));
        let mut specs: Vec<TopologySpec> = vec![
            TopologySpec::Dsn { n, x: p - 1 },
            TopologySpec::DlnRandom {
                n,
                x: 2,
                y: 2,
                seed: RANDOM_SEED,
            },
            TopologySpec::RandomRegular {
                n,
                d: 4,
                seed: RANDOM_SEED,
            },
        ];
        let side = (n as f64).sqrt() as usize;
        if side * side == n {
            specs.push(TopologySpec::Kleinberg {
                side,
                q: 1,
                seed: RANDOM_SEED,
            });
        }
        for spec in specs {
            let t0 = Instant::now();
            let built = spec.build().expect("baseline topology");
            rows.push(score_row(
                built.name,
                "baseline",
                n,
                built.graph,
                budget_m,
                &obj,
                cfg.sat.then_some(&probe),
                &cfg.par,
                t0,
            ));
        }
        // Ring-Kleinberg works at any n (1020 is not a square grid).
        let t0 = Instant::now();
        let kr = Candidate::kleinberg_ring(n, 1, 1.0, OPT_SEED).expect("ring Kleinberg");
        rows.push(score_row(
            format!("KleinbergRing-a1-{n}"),
            "baseline",
            n,
            kr.into_graph(),
            budget_m,
            &obj,
            cfg.sat.then_some(&probe),
            &cfg.par,
            t0,
        ));

        // Searched placements under the budget, from the DSN start.
        let t0 = Instant::now();
        let sa = anneal_shortcuts(
            &dsn_start,
            &obj,
            &SaConfig {
                iterations: sa_iters,
                seed: OPT_SEED,
                ..SaConfig::default()
            },
        );
        rows.push(score_row(
            format!("Opt-SA-{n}"),
            "opt-sa",
            n,
            sa.best.into_graph(),
            budget_m,
            &obj,
            cfg.sat.then_some(&probe),
            &cfg.par,
            t0,
        ));
        let t0 = Instant::now();
        let es = evolve(
            &dsn_start,
            &obj,
            &EsConfig {
                generations: es_gens,
                seed: OPT_SEED,
                ..EsConfig::default()
            },
        );
        rows.push(score_row(
            format!("Opt-ES-{n}"),
            "opt-es",
            n,
            es.best.into_graph(),
            budget_m,
            &obj,
            cfg.sat.then_some(&probe),
            &cfg.par,
            t0,
        ));
    }

    mark_frontier(&mut rows);
    OptReport {
        sizes: cfg.sizes.clone(),
        sat: cfg.sat,
        rows,
    }
}

#[allow(clippy::too_many_arguments)]
fn score_row(
    topology: String,
    family: &'static str,
    n: usize,
    graph: Graph,
    budget_m: f64,
    obj: &Objective,
    probe: Option<&SatProbe>,
    par: &Parallelism,
    t0: Instant,
) -> OptRow {
    let cand = Candidate::new(graph);
    let score = obj.score(cand.graph());
    let fingerprint = cand.fingerprint();
    let max_degree = cand.graph().max_degree();
    let sat_gbps = probe.map(|p| p.saturation(Arc::new(cand.into_graph()), par));
    OptRow {
        topology,
        family,
        n,
        aspl: score.aspl,
        diameter: score.diameter,
        max_degree,
        cable_total_m: score.cable_m,
        budget_m,
        within_budget: score.within_budget,
        sat_gbps,
        fingerprint,
        wall_s: t0.elapsed().as_secs_f64(),
        on_frontier: false,
    }
}

/// Every row whose ASPL falls below the Moore bound of its size and
/// maximum degree (`dsn_metrics::moore_aspl_bound`), which no graph can
/// reach: each one is a fault in a builder, a search move or the APSP
/// sweep.
pub fn below_moore_aspl(rows: &[OptRow]) -> Vec<String> {
    rows.iter()
        .filter_map(|r| {
            let floor = moore_aspl_bound(r.n, r.max_degree);
            (r.aspl < floor * (1.0 - 1e-12)).then(|| {
                format!(
                    "{} has ASPL {} below the Moore bound {floor} (n = {}, max degree {})",
                    r.topology, r.aspl, r.n, r.max_degree
                )
            })
        })
        .collect()
}

/// `a` dominates `b` when it is no worse on every axis (ASPL ↓, cable ↓,
/// saturation ↑ where both are probed) and strictly better on at least
/// one. Rows of different sizes never compare.
fn dominates(a: &OptRow, b: &OptRow) -> bool {
    if a.n != b.n {
        return false;
    }
    let mut strict = false;
    if a.aspl > b.aspl {
        return false;
    }
    strict |= a.aspl < b.aspl;
    if a.cable_total_m > b.cable_total_m {
        return false;
    }
    strict |= a.cable_total_m < b.cable_total_m;
    if let (Some(sa), Some(sb)) = (a.sat_gbps, b.sat_gbps) {
        if sa < sb {
            return false;
        }
        strict |= sa > sb;
    }
    strict
}

/// Mark every row that no same-size row dominates.
pub fn mark_frontier(rows: &mut [OptRow]) {
    for i in 0..rows.len() {
        let dominated = rows
            .iter()
            .enumerate()
            .any(|(j, other)| j != i && dominates(other, &rows[i]));
        rows[i].on_frontier = !dominated;
    }
}

impl OptReport {
    /// Serialize with a fixed key order and fixed float formatting — the
    /// golden-file test compares this string byte for byte.
    pub fn to_json(&self) -> String {
        let sizes: Vec<String> = self.sizes.iter().map(|n| n.to_string()).collect();
        json_report(
            SCHEMA,
            &[
                ("sizes", Json::raw(format!("[{}]", sizes.join(", ")))),
                ("sat", self.sat.into()),
            ],
            self.rows.iter().map(|r| {
                json_row(&[
                    ("topology", r.topology.as_str().into()),
                    ("family", r.family.into()),
                    ("n", r.n.into()),
                    ("aspl", Json::fixed(r.aspl, 4)),
                    ("diameter", r.diameter.into()),
                    ("cable_total_m", Json::fixed(r.cable_total_m, 1)),
                    ("budget_m", Json::fixed(r.budget_m, 1)),
                    ("within_budget", r.within_budget.into()),
                    ("sat_gbps", r.sat_gbps.map(|v| Json::fixed(v, 2)).into()),
                    (
                        "fingerprint",
                        format!("{:#018x}", r.fingerprint).as_str().into(),
                    ),
                    ("wall_s", Json::fixed(r.wall_s, 3)),
                    ("on_frontier", r.on_frontier.into()),
                ])
            }),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(n: usize, aspl: f64, cable: f64, sat: Option<f64>) -> OptRow {
        OptRow {
            topology: "t".into(),
            family: "baseline",
            n,
            aspl,
            diameter: 0,
            max_degree: 4,
            cable_total_m: cable,
            budget_m: 100.0,
            within_budget: true,
            sat_gbps: sat,
            fingerprint: 0,
            wall_s: 0.0,
            on_frontier: false,
        }
    }

    #[test]
    fn aspl_below_the_moore_bound_is_listed() {
        // Degree 4 reaches at most 4 + 12 + 36 nodes within three hops, so
        // the 63 others of a 64-node graph average at least 180/63 hops.
        let rows = [row(64, 2.0, 100.0, None), row(64, 3.5, 100.0, None)];
        let below = below_moore_aspl(&rows);
        assert_eq!(below.len(), 1, "{below:?}");
        assert!(below[0].contains("ASPL 2 below"), "{below:?}");
    }

    #[test]
    fn frontier_marks_non_dominated() {
        let mut rows = vec![
            row(64, 3.0, 100.0, None), // dominated by the next row
            row(64, 2.5, 90.0, None),
            row(64, 2.0, 120.0, None), // better ASPL, worse cable: on frontier
            row(256, 9.0, 500.0, None), // different size: incomparable
        ];
        mark_frontier(&mut rows);
        assert!(!rows[0].on_frontier);
        assert!(rows[1].on_frontier);
        assert!(rows[2].on_frontier);
        assert!(rows[3].on_frontier);
    }

    #[test]
    fn saturation_axis_breaks_ties() {
        let mut rows = vec![
            row(64, 2.0, 100.0, Some(10.0)),
            row(64, 2.0, 100.0, Some(14.0)),
        ];
        mark_frontier(&mut rows);
        assert!(!rows[0].on_frontier, "lower saturation is dominated");
        assert!(rows[1].on_frontier);
    }

    #[test]
    fn quick_frontier_has_dsn_and_nonempty() {
        let report = run_frontier(&FrontierConfig {
            sizes: vec![32],
            quick: true,
            sat: false,
            par: Parallelism::serial(),
        });
        assert!(report.rows.iter().any(|r| r.topology.starts_with("DSN-")));
        assert!(report.rows.iter().any(|r| r.on_frontier));
        assert!(report
            .rows
            .iter()
            .filter(|r| r.family != "baseline")
            .all(|r| r.within_budget));
        let json = report.to_json();
        assert!(json.contains("\"schema\": \"dsn-bench/opt/v1\""));
    }
}
