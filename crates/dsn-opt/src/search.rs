//! Seeded, bit-reproducible search drivers.
//!
//! Both drivers are deterministic functions of `(start, objective config,
//! search config)`: move proposals come from seeded RNG streams, candidate
//! evaluation is bit-identical across [`dsn_core::Parallelism`] policies (the APSP
//! and cable kernels guarantee this), and every tie is broken by the
//! candidate fingerprint. The returned [`SearchResult::trace`] is part of
//! the contract — the determinism tests compare it byte for byte between
//! serial and multi-worker runs.
//!
//! * [`anneal_shortcuts`] — simulated annealing over single moves,
//!   reusing the Metropolis/cooling core shared with the cabinet
//!   annealer ([`dsn_layout::anneal::Anneal`]).
//! * [`evolve`] — a (μ+λ) evolution strategy: each offspring mutates a
//!   parent under its own SplitMix64-derived stream, offspring are
//!   evaluated in parallel in index order, and survivor selection is a
//!   stable sort on `(scalar, fingerprint)`.

use crate::candidate::Candidate;
use crate::mix_seed;
use crate::moves::MoveGen;
use crate::objective::{Objective, Score};
use dsn_layout::anneal::Anneal;
use rand::rngs::SmallRng;
use rand::Rng;
use rand::SeedableRng;
use rayon::prelude::*;

/// One recorded search step: the candidate evaluated at that step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceStep {
    /// Step index (SA iteration or ES generation).
    pub step: u32,
    /// Bit pattern of the evaluated candidate's scalar objective.
    pub scalar_bits: u64,
    /// Fingerprint of the evaluated candidate (SA) or generation best
    /// (ES).
    pub fingerprint: u64,
    /// Whether the step improved/kept the candidate (SA: move accepted;
    /// ES: generation best improved on the previous).
    pub kept: bool,
}

/// Outcome of a search run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best candidate found.
    pub best: Candidate,
    /// Its cheap score.
    pub best_score: Score,
    /// Scalar objective of the best candidate.
    pub best_scalar: f64,
    /// Per-step record; byte-identical across parallelism policies.
    pub trace: Vec<TraceStep>,
    /// Number of objective evaluations performed.
    pub evaluations: usize,
}

/// Simulated-annealing configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct SaConfig {
    /// Move attempts.
    pub iterations: usize,
    /// Starting temperature in scalar-objective units (ASPL hops under
    /// the default objective).
    pub initial_temp: f64,
    /// Geometric cooling factor (applied every `iterations / 100` steps).
    pub cooling: f64,
    /// RNG seed.
    pub seed: u64,
    /// Probability of a Kleinberg span-reanchor move (vs link exchange).
    pub reanchor_bias: f64,
    /// Span-law exponent for reanchor moves (`1.0` = ring-navigable).
    pub alpha: f64,
}

impl Default for SaConfig {
    fn default() -> Self {
        SaConfig {
            iterations: 2_000,
            initial_temp: 0.05,
            cooling: 0.95,
            seed: 0x0D5A_0001,
            reanchor_bias: 0.5,
            alpha: 1.0,
        }
    }
}

/// (μ+λ) evolution-strategy configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct EsConfig {
    /// Survivor population size μ.
    pub mu: usize,
    /// Offspring per generation λ.
    pub lambda: usize,
    /// Generations.
    pub generations: usize,
    /// Rewiring moves attempted per offspring.
    pub moves_per_offspring: usize,
    /// RNG seed.
    pub seed: u64,
    /// Probability of a Kleinberg span-reanchor move (vs link exchange).
    pub reanchor_bias: f64,
    /// Span-law exponent for reanchor moves.
    pub alpha: f64,
}

impl Default for EsConfig {
    fn default() -> Self {
        EsConfig {
            mu: 4,
            lambda: 8,
            generations: 40,
            moves_per_offspring: 2,
            seed: 0x0D5A_0002,
            reanchor_bias: 0.5,
            alpha: 1.0,
        }
    }
}

/// Simulated annealing over shortcut rewirings, sharing the Metropolis
/// core with the cabinet-placement annealer. Returns the best candidate
/// seen (not necessarily the final state).
pub fn anneal_shortcuts(start: &Candidate, obj: &Objective, cfg: &SaConfig) -> SearchResult {
    let n = start.graph().node_count();
    let gen = MoveGen::new(n, cfg.alpha, cfg.reanchor_bias).expect("valid move parameters");
    let mut cur = start.clone();
    let start_score = obj.score(cur.graph());
    let mut cur_scalar = obj.scalar(&start_score);
    let mut evaluations = 1usize;

    let mut best = cur.clone();
    let mut best_score = start_score;
    let mut best_scalar = cur_scalar;

    let mut sa = Anneal::new(cfg.seed, cfg.initial_temp, cfg.cooling, cfg.iterations);
    let mut trace = Vec::with_capacity(cfg.iterations);

    for it in 0..cfg.iterations {
        let Some(mv) = gen.propose(&mut cur, sa.rng()) else {
            // Rejected draw: no evaluation, no cooling (mirrors the
            // cabinet annealer's same-cabinet skip).
            continue;
        };
        let score = obj.score(cur.graph());
        let scalar = obj.scalar(&score);
        evaluations += 1;
        let kept = sa.accept(scalar - cur_scalar);
        trace.push(TraceStep {
            step: it as u32,
            scalar_bits: scalar.to_bits(),
            fingerprint: cur.fingerprint(),
            kept,
        });
        if kept {
            cur_scalar = scalar;
            if scalar < best_scalar {
                best = cur.clone();
                best_score = score;
                best_scalar = scalar;
            }
        } else {
            mv.undo(cur.graph_mut());
        }
        sa.cool_at(it);
    }

    SearchResult {
        best,
        best_score,
        best_scalar,
        trace,
        evaluations,
    }
}

/// Mutate `parent` with `moves` proposal attempts under its own seeded
/// stream.
fn mutate(parent: &Candidate, gen: &MoveGen, seed: u64, moves: usize) -> Candidate {
    let mut child = parent.clone();
    let mut rng = SmallRng::seed_from_u64(seed);
    for _ in 0..moves {
        let _ = gen.propose(&mut child, &mut rng);
    }
    child
}

/// (μ+λ) evolution strategy. Offspring are generated serially under
/// per-index SplitMix64 streams and evaluated as one fan-out on the
/// objective's worker count (index-order collection), so the result is
/// bit-identical for any [`dsn_core::Parallelism`] the objective carries.
pub fn evolve(start: &Candidate, obj: &Objective, cfg: &EsConfig) -> SearchResult {
    assert!(cfg.mu >= 1 && cfg.lambda >= 1, "mu and lambda must be >= 1");
    let n = start.graph().node_count();
    let gen = MoveGen::new(n, cfg.alpha, cfg.reanchor_bias).expect("valid move parameters");
    let mut evaluations = 0usize;

    let evaluate = |cands: &[Candidate]| -> Vec<(Score, f64, u64)> {
        obj.par.run(|| {
            cands
                .par_iter()
                .map(|c| {
                    let s = obj.score(c.graph());
                    (s, obj.scalar(&s), c.fingerprint())
                })
                .collect()
        })
    };

    // Founders: the start point plus mu-1 mutants of it.
    let founders: Vec<Candidate> = (0..cfg.mu)
        .map(|k| {
            if k == 0 {
                start.clone()
            } else {
                mutate(
                    start,
                    &gen,
                    mix_seed(cfg.seed, k as u64),
                    cfg.moves_per_offspring,
                )
            }
        })
        .collect();
    let founder_evals = evaluate(&founders);
    evaluations += founders.len();
    let mut population: Vec<(Candidate, Score, f64, u64)> = founders
        .into_iter()
        .zip(founder_evals)
        .map(|(c, (s, v, fp))| (c, s, v, fp))
        .collect();
    sort_population(&mut population);

    let mut trace = Vec::with_capacity(cfg.generations);
    let mut last_best = f64::INFINITY;

    for g in 0..cfg.generations {
        // Per-offspring streams: parent choice + mutation draws.
        let offspring: Vec<Candidate> = (0..cfg.lambda)
            .map(|o| {
                let stream = mix_seed(cfg.seed ^ 0xE5, ((g as u64) << 20) | o as u64);
                let mut rng = SmallRng::seed_from_u64(stream);
                let parent = rng.gen_range(0..population.len());
                let mut child = population[parent].0.clone();
                for _ in 0..cfg.moves_per_offspring {
                    let _ = gen.propose(&mut child, &mut rng);
                }
                child
            })
            .collect();
        let evals = evaluate(&offspring);
        evaluations += offspring.len();
        population.extend(
            offspring
                .into_iter()
                .zip(evals)
                .map(|(c, (s, v, fp))| (c, s, v, fp)),
        );
        sort_population(&mut population);
        population.truncate(cfg.mu);

        let best = &population[0];
        let kept = best.2 < last_best;
        last_best = last_best.min(best.2);
        trace.push(TraceStep {
            step: g as u32,
            scalar_bits: best.2.to_bits(),
            fingerprint: best.3,
            kept,
        });
    }

    let (best, best_score, best_scalar, _) = population.swap_remove(0);
    SearchResult {
        best,
        best_score,
        best_scalar,
        trace,
        evaluations,
    }
}

/// Stable survivor order: scalar, then fingerprint, preserving insertion
/// order on full ties (clones of one topology).
fn sort_population(pop: &mut [(Candidate, Score, f64, u64)]) {
    pop.sort_by(|a, b| a.2.total_cmp(&b.2).then(a.3.cmp(&b.3)));
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsn_core::Parallelism;

    #[test]
    fn sa_never_returns_worse_than_start() {
        let start = Candidate::from_dsn(64).unwrap();
        let obj = Objective::aspl_only(Parallelism::serial());
        let start_scalar = obj.scalar(&obj.score(start.graph()));
        let cfg = SaConfig {
            iterations: 200,
            ..SaConfig::default()
        };
        let r = anneal_shortcuts(&start, &obj, &cfg);
        assert!(r.best_scalar <= start_scalar + 1e-12);
        assert!(r.evaluations > 1);
        assert!(!r.trace.is_empty());
        assert!(r.best_score.connected);
    }

    #[test]
    fn es_improves_or_keeps_kleinberg_start() {
        let start = Candidate::kleinberg_ring(64, 1, 1.0, 5).unwrap();
        let obj = Objective::aspl_only(Parallelism::serial());
        let start_scalar = obj.scalar(&obj.score(start.graph()));
        let cfg = EsConfig {
            generations: 10,
            ..EsConfig::default()
        };
        let r = evolve(&start, &obj, &cfg);
        assert!(r.best_scalar <= start_scalar + 1e-12);
        assert_eq!(r.trace.len(), 10);
        assert!(r.best_score.connected);
        // degree multiset preserved through the whole search
        assert_eq!(
            r.best.graph().degree_histogram(),
            start.graph().degree_histogram()
        );
    }

    #[test]
    fn budget_keeps_search_feasible() {
        let start = Candidate::from_dsn(64).unwrap();
        let obj0 = Objective::aspl_only(Parallelism::serial());
        let start_cable = obj0.score(start.graph()).cable_m;
        let obj = Objective::aspl_under_budget(start_cable, Parallelism::serial());
        let cfg = SaConfig {
            iterations: 300,
            ..SaConfig::default()
        };
        let r = anneal_shortcuts(&start, &obj, &cfg);
        assert!(
            r.best_score.within_budget,
            "best exceeded budget: {} > {start_cable}",
            r.best_score.cable_m
        );
    }
}
