//! Serial-vs-parallel equivalence of the analysis and sweep kernels.
//!
//! Every parallel kernel in the workspace merges integer per-item partials
//! in item order (the vendored rayon materializes results in index order),
//! so the parallel result must be **bit-identical** to the serial loop —
//! these tests assert full structural equality, including `f64` fields,
//! with a forced multi-worker policy so the chunked worker path actually
//! runs even on a single-core machine.

use dsn::core::dsn::Dsn;
use dsn::core::parallel::Parallelism;
use dsn::core::topology::TopologySpec;
use dsn::metrics::{path_stats, path_stats_with};
use dsn::route::{routing_stats, routing_stats_with};
use dsn::sim::sweep::{find_saturation_with, load_sweep_with};
use dsn::sim::{AdaptiveEscape, SimConfig, TrafficPattern};
use std::sync::Arc;

const FORCED_WORKERS: usize = 4;

#[test]
fn routing_stats_parallel_matches_serial_on_dsn_p_minus_1_1024() {
    // DSN-(p-1) at target 1024 resolves to n = 1020, p = 10, x = 9.
    let dsn = Dsn::new_clean(1024).expect("clean DSN at 1024");
    assert_eq!(dsn.n(), 1020);
    let serial = routing_stats_with(&dsn, &Parallelism::serial());
    let parallel = routing_stats_with(&dsn, &Parallelism::threads(FORCED_WORKERS));
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
    let run = |par: &Parallelism| {
        load_sweep_with(
            "torus-16",
            g.clone(),
            &cfg,
            || Arc::new(AdaptiveEscape::new(g.clone(), vcs)),
            &TrafficPattern::Uniform,
            &grid,
            7,
            par,
        )
    };
    let serial = run(&Parallelism::serial());
    let parallel = run(&Parallelism::threads(FORCED_WORKERS));
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
    let run = |par: &Parallelism| {
        find_saturation_with(
            g.clone(),
            &cfg,
            || Arc::new(AdaptiveEscape::new(g.clone(), vcs)),
            &TrafficPattern::Uniform,
            1.0,
            200.0,
            10.0,
            3,
            par,
        )
    };
    let serial = run(&Parallelism::serial());
    let parallel = run(&Parallelism::threads(FORCED_WORKERS));
    assert_eq!(
        serial.to_bits(),
        parallel.to_bits(),
        "sectioned saturation search must not depend on the worker count"
    );
    assert!((1.0..=200.0).contains(&serial));
}
