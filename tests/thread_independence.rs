//! Worker-count independence: the analysis kernels must produce the same
//! bits under `RAYON_NUM_THREADS=1` as under four workers and under the
//! host's default count, the order a fan-out falls back to when no
//! `Parallelism` scope is open.
//!
//! This file holds a single `#[test]` because it sets the process-wide
//! `RAYON_NUM_THREADS` variable; a lone test per binary cannot race with
//! siblings.

use dsn::core::dsn::Dsn;
use dsn::metrics::path_stats;
use dsn::route::routing_stats;

/// Order-sensitive fingerprint of every field the kernels report.
fn fingerprint(dsn: &Dsn) -> Vec<u64> {
    let p = path_stats(dsn.graph());
    let r = routing_stats(dsn);
    let mut fp = vec![
        p.nodes as u64,
        p.diameter as u64,
        p.aspl.to_bits(),
        p.unreachable_pairs,
        r.pairs as u64,
        r.max_hops as u64,
        r.avg_hops.to_bits(),
        r.avg_phase_hops.0.to_bits(),
        r.avg_phase_hops.1.to_bits(),
        r.avg_phase_hops.2.to_bits(),
        r.overshoot_rate.to_bits(),
    ];
    fp.extend(p.histogram.iter().copied());
    fp.extend(p.eccentricity.iter().map(|&e| e as u64));
    fp
}

#[test]
fn kernels_are_worker_count_independent() {
    let dsn = Dsn::new_clean(256).expect("clean DSN at 256");

    std::env::set_var("RAYON_NUM_THREADS", "1");
    let one_worker = fingerprint(&dsn);

    std::env::set_var("RAYON_NUM_THREADS", "4");
    let four_workers = fingerprint(&dsn);

    std::env::remove_var("RAYON_NUM_THREADS");
    let default_workers = fingerprint(&dsn);

    assert_eq!(one_worker, four_workers, "1 vs 4 workers diverged");
    assert_eq!(one_worker, default_workers, "1 vs default workers diverged");
}
