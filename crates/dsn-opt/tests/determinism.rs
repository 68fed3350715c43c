//! Bit-reproducibility contract: identical seed + config give a
//! byte-identical best candidate and search trace no matter which
//! `Parallelism` evaluates the candidates. `Parallelism::threads(4)` is
//! obeyed on any host, so the four-worker side really runs the ES
//! offspring on four workers even on a single-core machine.

use dsn_core::Parallelism;
use dsn_opt::{anneal_shortcuts, evolve, Candidate, EsConfig, Objective, SaConfig, SearchResult};

fn assert_identical(a: &SearchResult, b: &SearchResult, label: &str) {
    assert_eq!(
        a.best.fingerprint(),
        b.best.fingerprint(),
        "{label}: best fingerprint diverged"
    );
    assert_eq!(
        a.best.graph().edges(),
        b.best.graph().edges(),
        "{label}: best edge list diverged"
    );
    assert_eq!(
        a.best_scalar.to_bits(),
        b.best_scalar.to_bits(),
        "{label}: best scalar bits diverged"
    );
    assert_eq!(a.trace, b.trace, "{label}: search trace diverged");
    assert_eq!(a.evaluations, b.evaluations, "{label}: evaluation count");
}

#[test]
fn sa_identical_serial_vs_four_workers() {
    let start = Candidate::from_dsn(64).unwrap();
    let cfg = SaConfig {
        iterations: 150,
        seed: 0xA11CE,
        ..SaConfig::default()
    };
    let serial = anneal_shortcuts(&start, &Objective::aspl_only(Parallelism::serial()), &cfg);
    let par = anneal_shortcuts(&start, &Objective::aspl_only(Parallelism::threads(4)), &cfg);
    assert_identical(&serial, &par, "sa");
    assert!(!serial.trace.is_empty());
}

#[test]
fn es_identical_serial_vs_four_workers() {
    let start = Candidate::from_dsn(64).unwrap();
    let cfg = EsConfig {
        generations: 8,
        seed: 0xB0B,
        ..EsConfig::default()
    };
    let serial = evolve(&start, &Objective::aspl_only(Parallelism::serial()), &cfg);
    let par = evolve(&start, &Objective::aspl_only(Parallelism::threads(4)), &cfg);
    assert_identical(&serial, &par, "es");
    assert_eq!(serial.trace.len(), 8);
}

#[test]
fn same_seed_same_run_different_seed_diverges() {
    let start = Candidate::from_dsn(64).unwrap();
    let obj = Objective::aspl_only(Parallelism::serial());
    let cfg = SaConfig {
        iterations: 120,
        seed: 1,
        ..SaConfig::default()
    };
    let a = anneal_shortcuts(&start, &obj, &cfg);
    let b = anneal_shortcuts(&start, &obj, &cfg);
    assert_identical(&a, &b, "repeat");
    let other = anneal_shortcuts(
        &start,
        &obj,
        &SaConfig {
            seed: 2,
            ..cfg.clone()
        },
    );
    assert_ne!(a.trace, other.trace, "different seeds should diverge");
}

#[test]
fn es_identical_under_budget_objective() {
    let start = Candidate::kleinberg_ring(64, 1, 1.0, 9).unwrap();
    let budget = Objective::aspl_only(Parallelism::serial())
        .score(start.graph())
        .cable_m;
    let cfg = EsConfig {
        generations: 6,
        seed: 0xFEED,
        ..EsConfig::default()
    };
    let serial = evolve(
        &start,
        &Objective::aspl_under_budget(budget, Parallelism::serial()),
        &cfg,
    );
    let par = evolve(
        &start,
        &Objective::aspl_under_budget(budget, Parallelism::threads(4)),
        &cfg,
    );
    assert_identical(&serial, &par, "es-budget");
    assert!(serial.best_score.within_budget);
}
