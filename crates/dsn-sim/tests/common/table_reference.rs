//! The per-destination port-mask build: a queue BFS per destination for
//! the minimal masks, and [`UpDown::for_each_next_hop`] over the full
//! legal-distance matrix for the escape masks. The library builds the
//! same bytes with a bit-parallel BFS (`src/masks.rs`); this is the
//! reference its unit test compares every byte against. It is compiled
//! into `dsn-sim`'s unit tests only (a `#[cfg(test)]` module of
//! `src/lib.rs`), so the library carries no up*/down* distance matrix.

use dsn_core::fault::EdgeMask;
use dsn_core::graph::{EdgeId, Graph};
use dsn_core::NodeId;
use dsn_route::updown::{UdPhase, UpDown};
use std::collections::VecDeque;

/// Every mask byte of a table over `graph` (and the survivors of
/// `survivors`), in the library's switch-major layout: per `(cur, dest)`
/// the minimal mask when `minimal`, then the Up and Down escape masks of
/// the forest rooted at 0 when `escape`, each `max_degree.div_ceil(8)`
/// bytes.
pub(crate) fn reference_masks(
    graph: &Graph,
    survivors: Option<&EdgeMask>,
    minimal: bool,
    escape: bool,
) -> Vec<u8> {
    let n = graph.node_count();
    let mask_bytes = graph.max_degree().div_ceil(8).max(1);
    let entry = (usize::from(minimal) + 2 * usize::from(escape)) * mask_bytes;
    let alive = |e: EdgeId| survivors.is_none_or(|m| m.edge_alive(e));
    let updown = escape.then(|| match survivors {
        None => UpDown::new(graph, 0),
        Some(mask) => UpDown::new_masked(graph, 0, mask),
    });

    let mut masks = vec![0u8; n * n * entry];
    let mut dist = vec![u32::MAX; n];
    for dest in 0..n {
        if minimal {
            bfs(graph, &alive, dest, &mut dist);
        }
        for cur in (0..n).filter(|&cur| cur != dest) {
            let at = (cur * n + dest) * entry;
            let mut slots = masks[at..at + entry].chunks_mut(mask_bytes);
            if minimal {
                let mask = slots.next().expect("minimal slot");
                for (p, (u, e)) in graph.neighbors(cur).enumerate() {
                    if alive(e) && dist[u] < dist[cur] {
                        mask[p / 8] |= 1 << (p % 8);
                    }
                }
            }
            if let Some(ud) = &updown {
                for phase in [UdPhase::Up, UdPhase::Down] {
                    let mask = slots.next().expect("escape slot");
                    if ud.reachable_phased(cur, phase, dest) {
                        ud.for_each_next_hop(graph, cur, phase, dest, |p, _, _| {
                            mask[p / 8] |= 1 << (p % 8);
                        });
                    }
                }
            }
        }
    }
    masks
}

/// Hop distances to `src` over the links `alive` keeps, into `dist`
/// (`u32::MAX` = unreachable).
fn bfs(graph: &Graph, alive: &impl Fn(EdgeId) -> bool, src: NodeId, dist: &mut [u32]) {
    dist.fill(u32::MAX);
    dist[src] = 0;
    let mut queue = VecDeque::from([src]);
    while let Some(v) = queue.pop_front() {
        for (u, e) in graph.neighbors(v) {
            if alive(e) && dist[u] == u32::MAX {
                dist[u] = dist[v] + 1;
                queue.push_back(u);
            }
        }
    }
}
