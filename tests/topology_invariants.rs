//! Property tests over every topology family: whatever the parameters,
//! a successfully built topology must be connected, loop-free, degree-sane
//! and reproducible.

use dsn::core::topology::TopologySpec;
use proptest::prelude::*;

fn arb_spec() -> impl Strategy<Value = TopologySpec> {
    prop_oneof![
        (8usize..300).prop_map(|n| {
            let p = dsn::core::util::ceil_log2(n);
            TopologySpec::Dsn { n, x: p - 1 }
        }),
        (8usize..300, 1u32..4).prop_map(|(n, xsel)| {
            let p = dsn::core::util::ceil_log2(n);
            TopologySpec::Dsn {
                n,
                x: 1 + (xsel % (p - 1)).min(p - 2),
            }
        }),
        (8usize..200).prop_map(|n| TopologySpec::DsnE { n }),
        (16usize..200, 1u32..4).prop_map(|(n, x)| TopologySpec::DsnD { n, x }),
        (4usize..150).prop_map(|n| TopologySpec::Ring { n: n.max(4) }),
        (2usize..12, 2usize..12).prop_map(|(a, b)| TopologySpec::Torus2D { n: a * b * 4 }),
        (8usize..150, 0u64..50).prop_map(|(n, seed)| TopologySpec::DlnRandom {
            n,
            x: 2,
            y: 2,
            seed
        }),
        (3usize..14, 0u64..20).prop_map(|(side, seed)| TopologySpec::Kleinberg {
            side,
            q: 1,
            seed
        }),
        (3u32..9).prop_map(|dim| TopologySpec::Hypercube { dim }),
        (3u32..7).prop_map(|dim| TopologySpec::Ccc { dim }),
        (2usize..4, 2u32..7).prop_map(|(base, dim)| TopologySpec::DeBruijn { base, dim }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn built_topologies_are_sane(spec in arb_spec()) {
        let built = match spec.build() {
            Ok(b) => b,
            // Some parameter draws are legitimately rejected (e.g. a 2-D
            // torus size without a good factorization); that's fine.
            Err(_) => return Ok(()),
        };
        let g = &built.graph;
        prop_assert!(g.node_count() >= 2, "{}", built.name);
        prop_assert!(g.is_connected(), "{} disconnected", built.name);
        for e in g.edges() {
            prop_assert_ne!(e.a, e.b, "self-loop in {}", &built.name);
            prop_assert!(e.a < g.node_count() && e.b < g.node_count());
        }
        // Degree sanity: no isolated nodes, no absurd blowup.
        prop_assert!(g.min_degree() >= 1, "{}", built.name);
        prop_assert!(g.max_degree() < g.node_count(), "{}", built.name);
        // Handshake identity.
        let degree_sum: usize = (0..g.node_count()).map(|v| g.degree(v)).sum();
        prop_assert_eq!(degree_sum, 2 * g.edge_count());
    }

    #[test]
    fn builds_are_deterministic(spec in arb_spec()) {
        let (Ok(a), Ok(b)) = (spec.build(), spec.build()) else { return Ok(()); };
        prop_assert_eq!(a.name, b.name);
        prop_assert_eq!(
            dsn::core::export::fingerprint(&a.graph),
            dsn::core::export::fingerprint(&b.graph)
        );
    }

    #[test]
    fn edge_list_roundtrip_for_any_family(spec in arb_spec()) {
        let Ok(built) = spec.build() else { return Ok(()); };
        let text = dsn::core::export::to_edge_list(&built.graph);
        let back = dsn::core::export::from_edge_list(&text).expect("parse back");
        prop_assert_eq!(built.graph.edges(), back.edges());
    }
}
