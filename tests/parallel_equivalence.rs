//! One-worker vs four-worker equivalence of every parallel fan-out.
//!
//! Every fan-out in the workspace merges per-item partials in item order
//! (the vendored rayon materializes results in index order), so a run on
//! four workers must be **bit-identical** to a run on one — these tests
//! assert full structural equality, including `f64` fields. The worker
//! count is a `Parallelism` scope that the fan-outs obey on any host, so
//! the four-worker side really spawns three threads even on a single-core
//! machine.

use dsn::core::dsn::Dsn;
use dsn::core::fault::EdgeMask;
use dsn::core::parallel::Parallelism;
use dsn::core::topology::TopologySpec;
use dsn::metrics::clustering::avg_clustering;
use dsn::metrics::{path_stats, path_stats_with};
use dsn::route::routing_stats;
use dsn::route::updown::{UdPhase, UpDown};
use dsn::sim::sweep::{find_saturation_cached, load_sweep_cached};
use dsn::sim::{AdaptiveEscape, RoutingCache, SimConfig, TrafficPattern};
use std::sync::Arc;

const FORCED_WORKERS: usize = 4;

/// `f` on one worker and on [`FORCED_WORKERS`].
fn one_and_four<R>(f: impl Fn() -> R) -> (R, R) {
    (
        Parallelism::serial().run(&f),
        Parallelism::threads(FORCED_WORKERS).run(&f),
    )
}

#[test]
fn routing_stats_parallel_matches_serial_on_dsn_p_minus_1_1024() {
    // DSN-(p-1) at target 1024 resolves to n = 1020, p = 10, x = 9.
    let dsn = Dsn::new_clean(1024).expect("clean DSN at 1024");
    assert_eq!(dsn.n(), 1020);
    let (serial, parallel) = one_and_four(|| routing_stats(&dsn));
    assert_eq!(
        serial, parallel,
        "parallel routing sweep must be bit-identical"
    );
    assert_eq!(serial, routing_stats(&dsn));
    assert_eq!(serial.pairs, 1020 * 1019);
}

#[test]
fn path_stats_parallel_matches_serial_on_dsn_torus_dln() {
    let specs = [
        TopologySpec::Dsn { n: 256, x: 7 },
        TopologySpec::Torus2D { n: 256 },
        TopologySpec::DlnRandom {
            n: 256,
            x: 2,
            y: 2,
            seed: 0xD5B0_2013,
        },
    ];
    for spec in specs {
        let built = spec.build().expect("spec must build");
        let serial = path_stats_with(&built.graph, &Parallelism::serial());
        let parallel = path_stats_with(&built.graph, &Parallelism::threads(FORCED_WORKERS));
        assert_eq!(
            serial, parallel,
            "{}: APSP must be bit-identical",
            built.name
        );
        assert_eq!(serial, path_stats(&built.graph), "{}", built.name);
    }
}

#[test]
fn load_sweep_parallel_matches_serial() {
    let g = Arc::new(
        TopologySpec::Torus2D { n: 16 }
            .build()
            .expect("torus")
            .graph,
    );
    let cfg = SimConfig::test_small();
    let vcs = cfg.vcs;
    let grid = [0.5, 2.0, 6.0];
    let sweep = |par: Parallelism| {
        load_sweep_cached(
            "torus-16",
            g.clone(),
            &cfg,
            &Arc::new(RoutingCache::new()),
            &AdaptiveEscape::key_for(vcs),
            || Arc::new(AdaptiveEscape::new(g.clone(), vcs)),
            &TrafficPattern::Uniform,
            &grid,
            7,
            &par,
        )
    };
    let serial = sweep(Parallelism::serial());
    let parallel = sweep(Parallelism::threads(FORCED_WORKERS));
    assert_eq!(serial.points.len(), parallel.points.len());
    for (s, p) in serial.points.iter().zip(&parallel.points) {
        assert_eq!(s.offered_gbps, p.offered_gbps);
        assert_eq!(
            s.stats, p.stats,
            "sweep point {} must be bit-identical",
            s.offered_gbps
        );
    }
}

#[test]
fn find_saturation_parallel_matches_serial() {
    let g = Arc::new(TopologySpec::Ring { n: 8 }.build().expect("ring").graph);
    let cfg = SimConfig::test_small();
    let vcs = cfg.vcs;
    let search = |par: Parallelism| {
        find_saturation_cached(
            g.clone(),
            &cfg,
            &Arc::new(RoutingCache::new()),
            &AdaptiveEscape::key_for(vcs),
            || Arc::new(AdaptiveEscape::new(g.clone(), vcs)),
            &TrafficPattern::Uniform,
            1.0,
            200.0,
            10.0,
            3,
            &par,
        )
    };
    let serial = search(Parallelism::serial());
    let parallel = search(Parallelism::threads(FORCED_WORKERS));
    assert_eq!(
        serial.to_bits(),
        parallel.to_bits(),
        "sectioned saturation search must not depend on the worker count"
    );
    assert!((1.0..=200.0).contains(&serial));
}

/// Every `distance_phased(v, phase, t)` of an up*/down* instance.
fn all_distances(ud: &UpDown, n: usize) -> Vec<u32> {
    let mut out = Vec::with_capacity(2 * n * n);
    for t in 0..n {
        for v in 0..n {
            for phase in [UdPhase::Up, UdPhase::Down] {
                out.push(ud.distance_phased(v, phase, t));
            }
        }
    }
    out
}

#[test]
fn updown_tables_match_across_worker_counts_on_dsn_7_256() {
    let dsn = Dsn::new(256, 7).expect("DSN-7-256");
    let g = dsn.graph();
    let (serial, parallel) = one_and_four(|| all_distances(&UpDown::new(g, 0), 256));
    assert_eq!(serial, parallel, "pristine up*/down* distances diverged");

    let mut mask = EdgeMask::fully_alive(g);
    for e in [3, 97, 200] {
        assert!(mask.set_edge(e, false), "edge {e} was alive");
    }
    let (serial, parallel) = one_and_four(|| all_distances(&UpDown::new_masked(g, 0, &mask), 256));
    assert_eq!(serial, parallel, "masked up*/down* distances diverged");
}

#[test]
fn avg_clustering_bits_match_across_worker_counts_on_dsn_9_1020() {
    let dsn = Dsn::new(1020, 9).expect("DSN-9-1020");
    let (serial, parallel) = one_and_four(|| avg_clustering(dsn.graph()).to_bits());
    assert_eq!(serial, parallel, "clustering sum must fold in index order");
}
