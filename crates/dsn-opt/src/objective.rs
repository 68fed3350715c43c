//! Multi-objective scoring for candidate topologies.
//!
//! The cheap score every search step pays: exact ASPL/diameter from the
//! parallel APSP sweep in `dsn-metrics`, plus total cable under the
//! `dsn-layout` model on a linear placement (the paper's machine-room
//! assumption; DSN's linear order is near-optimal on ring-structured
//! candidates, so the comparison does not hand the search a layout the
//! baseline lacks). An optional hard cable budget turns the search into
//! "minimize ASPL subject to cable ≤ budget" via a steep penalty.
//!
//! Finalists get the expensive axis — saturation load — through
//! [`SatProbe`], which drives `dsn_sim`'s cached saturation search with a
//! shared [`RoutingCache`] so repeated probes of the same graph reuse the
//! routing build.

use dsn_core::graph::Graph;
use dsn_core::Parallelism;
use dsn_layout::{cable_stats, CableModel, LinearPlacement};
use dsn_metrics::apsp::path_stats_with;
use dsn_sim::sweep::find_saturation_cached;
use dsn_sim::{AdaptiveEscape, RoutingCache, SimConfig, TrafficPattern};
use std::sync::Arc;

/// Scalar penalty per unit of fractional budget excess: steep enough that
/// an over-budget candidate never beats a feasible one on ASPL terms.
const BUDGET_PENALTY: f64 = 1.0e6;

/// Scalar assigned to disconnected candidates (finite, so Metropolis
/// deltas stay well-defined; large, so they are always rejected against
/// any connected state).
const DISCONNECTED_PENALTY: f64 = 1.0e12;

/// The cheap per-step score of a candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Score {
    /// Exact average shortest path length (hops).
    pub aspl: f64,
    /// Exact diameter (hops).
    pub diameter: u32,
    /// Total cable (meters) on the linear placement.
    pub cable_m: f64,
    /// Whether the graph is connected.
    pub connected: bool,
    /// Whether the cable bill respects the budget (true when no budget).
    pub within_budget: bool,
}

/// Pluggable objective: weights, cable model, and an optional budget.
#[derive(Debug, Clone)]
pub struct Objective {
    /// Cable model charged to every candidate.
    pub model: CableModel,
    /// Switches per cabinet for the linear placement.
    pub capacity: usize,
    /// Hard cable budget in meters (`None` = unconstrained).
    pub budget_m: Option<f64>,
    /// Weight on ASPL in the scalarization.
    pub w_aspl: f64,
    /// Weight on total cable meters in the scalarization.
    pub w_cable: f64,
    /// Worker count for the APSP sweep and for [`crate::evolve`]'s
    /// offspring evaluation.
    pub par: Parallelism,
}

impl Objective {
    /// The frontier study's objective: minimize ASPL subject to a hard
    /// cable budget (lexicographic via penalty), APSP under `par`.
    pub fn aspl_under_budget(budget_m: f64, par: Parallelism) -> Self {
        Objective {
            model: CableModel::default(),
            capacity: CableModel::default().switches_per_cabinet,
            budget_m: Some(budget_m),
            w_aspl: 1.0,
            w_cable: 0.0,
            par,
        }
    }

    /// Unconstrained ASPL minimization (useful for tests and ablations).
    pub fn aspl_only(par: Parallelism) -> Self {
        Objective {
            model: CableModel::default(),
            capacity: CableModel::default().switches_per_cabinet,
            budget_m: None,
            w_aspl: 1.0,
            w_cable: 0.0,
            par,
        }
    }

    /// Score a candidate graph: one APSP sweep + one cable pass.
    pub fn score(&self, g: &Graph) -> Score {
        let stats = path_stats_with(g, &self.par);
        let placement = LinearPlacement::new(g.node_count(), self.capacity.max(1));
        let cable = cable_stats(g, &placement, &self.model);
        let connected = stats.unreachable_pairs == 0;
        // Relative slack absorbs summation-order float noise: a rewiring
        // that keeps the same multiset of cable runs must not flip
        // feasibility because the edge list re-sums in a new order.
        let within_budget = match self.budget_m {
            Some(b) => cable.total_m <= b * (1.0 + 1e-9),
            None => true,
        };
        Score {
            aspl: stats.aspl,
            diameter: stats.diameter,
            cable_m: cable.total_m,
            connected,
            within_budget,
        }
    }

    /// Collapse a score to the scalar the searches minimize. Finite for
    /// every input so Metropolis deltas never go NaN.
    pub fn scalar(&self, s: &Score) -> f64 {
        if !s.connected {
            return DISCONNECTED_PENALTY;
        }
        let mut v = self.w_aspl * s.aspl + self.w_cable * s.cable_m;
        if let Some(b) = self.budget_m {
            if !s.within_budget {
                v += BUDGET_PENALTY * (s.cable_m / b.max(1e-9) - 1.0);
            }
        }
        v
    }
}

/// Saturation prober for finalist candidates: wraps
/// [`find_saturation_cached`] with a shared routing cache and fixed
/// search window, so every finalist is measured under identical terms.
pub struct SatProbe {
    /// Simulator configuration (engine, horizons, VCs).
    pub cfg: SimConfig,
    /// Shared routing cache (keyed on graph identity + scheme).
    pub cache: Arc<RoutingCache>,
    /// Traffic pattern the saturation is probed under.
    pub pattern: TrafficPattern,
    /// Search window lower bound (Gbps per host).
    pub lo: f64,
    /// Search window upper bound (Gbps per host).
    pub hi: f64,
    /// Bisection tolerance (Gbps).
    pub tol: f64,
    /// Simulation seed.
    pub seed: u64,
}

impl SatProbe {
    /// Saturation load (Gbps per host) of `graph` under adaptive-escape
    /// routing. Deterministic given the probe's seed and config.
    pub fn saturation(&self, graph: Arc<Graph>, par: &Parallelism) -> f64 {
        let vcs = self.cfg.vcs;
        let key = AdaptiveEscape::key_for(vcs);
        let g2 = graph.clone();
        find_saturation_cached(
            graph,
            &self.cfg,
            &self.cache,
            &key,
            move || Arc::new(AdaptiveEscape::new(g2, vcs)),
            &self.pattern,
            self.lo,
            self.hi,
            self.tol,
            self.seed,
            par,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::candidate::Candidate;

    #[test]
    fn score_matches_standalone_metrics() {
        let c = Candidate::from_dsn(64).unwrap();
        let obj = Objective::aspl_only(Parallelism::serial());
        let s = obj.score(c.graph());
        assert!(s.connected);
        assert!(s.within_budget);
        assert!(s.aspl > 1.0 && s.aspl < 10.0);
        assert!(s.cable_m > 0.0);
        let expected = Parallelism::serial().run(|| dsn_metrics::apsp::aspl(c.graph()));
        assert_eq!(s.aspl.to_bits(), expected.to_bits());
    }

    #[test]
    fn budget_penalty_orders_candidates() {
        let obj = Objective::aspl_under_budget(10.0, Parallelism::serial());
        let feasible = Score {
            aspl: 5.0,
            diameter: 8,
            cable_m: 9.0,
            connected: true,
            within_budget: true,
        };
        let cheating = Score {
            aspl: 2.0,
            diameter: 4,
            cable_m: 20.0,
            connected: true,
            within_budget: false,
        };
        assert!(obj.scalar(&feasible) < obj.scalar(&cheating));
        let disconnected = Score {
            connected: false,
            ..feasible
        };
        assert!(obj.scalar(&disconnected) > obj.scalar(&cheating));
        assert!(obj.scalar(&disconnected).is_finite());
    }
}
