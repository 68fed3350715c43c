//! Cross-crate fault oracles: the simulator's delivery behaviour after a
//! fault must agree with the static connectivity analysis of the survivor
//! graph — `dsn-core::fault` component labelling and the `dsn-metrics`
//! max-flow connectivity kernels are the ground truth.

use dsn::core::fault::{components_masked, is_connected_masked, survivor_graph, EdgeMask};
use dsn::core::graph::{Graph, LinkKind};
use dsn::metrics::{edge_connectivity, edge_disjoint_paths};
use dsn::sim::{AdaptiveEscape, FaultPlan, SimConfig, SimRouting, Simulator, Workload};
use std::sync::Arc;

/// A ring of `n` switches — the one-edge-per-cut backbone whose min-cuts
/// are trivially enumerable (any two edges form one).
fn ring(n: usize) -> Graph {
    let mut g = Graph::new(n);
    for i in 0..n {
        let j = (i + 1) % n;
        g.add_edge(i.min(j), i.max(j), LinkKind::Ring);
    }
    g
}

fn cfg() -> SimConfig {
    SimConfig {
        warmup_cycles: 0,
        measure_cycles: 1_000,
        drain_cycles: 30_000,
        ..SimConfig::test_small()
    }
}

/// Run a closed batch with the faults landing at cycle 0 — i.e. before any
/// packet exists — so drops are purely routing-determined (unroutable on
/// the survivor graph), never in-flight casualties.
fn run_batch(g: &Arc<Graph>, plan: FaultPlan, workload: Workload) -> dsn::sim::RunStats {
    let cfg = SimConfig {
        fault_plan: plan,
        ..cfg()
    };
    let routing: Arc<dyn SimRouting> = Arc::new(AdaptiveEscape::new(g.clone(), cfg.vcs));
    Simulator::with_workload(g.clone(), cfg, routing, workload, 5).run()
}

fn masked(g: &Graph, dead: &[usize]) -> EdgeMask {
    let mut m = EdgeMask::fully_alive(g);
    for &e in dead {
        m.set_edge(e, false);
    }
    m
}

/// Connected survivor at cycle 0 ⇒ nothing is unroutable: the batch fully
/// delivers with zero drops, matching `is_connected_masked` and a positive
/// survivor edge connectivity.
#[test]
fn connected_survivor_delivers_everything() {
    let g = Arc::new(ring(10));
    let dead = [3usize];
    let mask = masked(&g, &dead);
    assert!(
        is_connected_masked(&g, &mask),
        "ring minus one edge is a path"
    );
    let survivor = survivor_graph(&g, &mask);
    assert!(edge_connectivity(&survivor) >= 1);

    let stats = run_batch(&g, FaultPlan::single_link(3, 0), Workload::all_to_all(10));
    assert_eq!(stats.total_packets_all_time, 10 * 9);
    assert_eq!(stats.dropped_packets_all_time, 0);
    assert!(stats.completion_cycle.is_some(), "all delivered");
}

/// Killing a min-cut (two ring edges) partitions delivery counts exactly:
/// delivered == Σ_i |C_i|·(|C_i|−1) over the masked components, dropped ==
/// the cross-component remainder, and per-pair deliverability matches the
/// max-flow oracle pair by pair.
#[test]
fn min_cut_partitions_delivery_exactly() {
    let n = 12;
    let g = Arc::new(ring(n));
    // Edges 0 (0-1) and 6 (6-7) form a min-cut: components {1..=6} and
    // {7..=11, 0}.
    let dead = [0usize, 6];
    let mask = masked(&g, &dead);
    assert!(!is_connected_masked(&g, &mask));
    let labels = components_masked(&g, &mask);
    let survivor = survivor_graph(&g, &mask);
    assert_eq!(edge_connectivity(&survivor), 0, "disconnected survivor");

    // Σ over components of ordered same-component host pairs (one host per
    // switch under test_small).
    let mut comp_size = std::collections::HashMap::new();
    for &l in &labels {
        *comp_size.entry(l).or_insert(0u64) += 1;
    }
    let expected_delivered: u64 = comp_size.values().map(|&c| c * (c - 1)).sum();
    assert_eq!(expected_delivered, 2 * 6 * 5, "two components of six");

    let stats = run_batch(&g, FaultPlan::burst(&dead, 0), Workload::all_to_all(n));
    assert_eq!(stats.total_packets_all_time, (n * (n - 1)) as u64);
    assert_eq!(stats.delivered_packets, expected_delivered);
    assert_eq!(
        stats.dropped_packets_all_time,
        (n * (n - 1)) as u64 - expected_delivered
    );
    assert!(
        stats.completion_cycle.is_some(),
        "batch resolves once cross-component packets are dropped"
    );

    // Pair-by-pair: the simulator delivers (s, d) iff the survivor graph
    // has positive max-flow between them iff they share a component label.
    for s in 0..n {
        for d in 0..n {
            if s == d {
                continue;
            }
            let reachable = labels[s] == labels[d];
            assert_eq!(
                edge_disjoint_paths(&survivor, s, d) > 0,
                reachable,
                "max-flow oracle disagrees with components for {s}->{d}"
            );
            let pair = run_batch(
                &g,
                FaultPlan::burst(&dead, 0),
                Workload::Closed {
                    packets: vec![(s, d)],
                },
            );
            assert_eq!(
                pair.delivered_packets, reachable as u64,
                "sim reachability diverges from oracle for {s}->{d}"
            );
            assert_eq!(pair.dropped_packets_all_time, !reachable as u64);
        }
    }
}

/// A switch cut off mid-ring by both of its links: the survivor
/// components drive delivery exactly, same as any other edge cut.
#[test]
fn isolated_switch_matches_masked_components() {
    let n = 9;
    let g = Arc::new(ring(n));
    let links: Vec<usize> = g.neighbors(4).map(|(_, e)| e).collect();
    let labels = components_masked(&g, &masked(&g, &links));
    // Hosts on the isolated switch can neither send nor receive; every
    // pair touching switch 4 drops, the rest (a path of 8 switches)
    // delivers.
    assert_eq!(labels[4], 4, "switch 4 is its own component");
    let alive: Vec<usize> = (0..n).filter(|&v| v != 4).collect();
    assert!(alive
        .iter()
        .all(|&a| alive.iter().all(|&b| labels[a] == labels[b])));

    let stats = run_batch(&g, FaultPlan::burst(&links, 0), Workload::all_to_all(n));
    let expected = (alive.len() * (alive.len() - 1)) as u64;
    assert_eq!(stats.delivered_packets, expected);
    assert_eq!(
        stats.dropped_packets_all_time,
        (n * (n - 1)) as u64 - expected
    );
    assert!(stats.completion_cycle.is_some());
}
