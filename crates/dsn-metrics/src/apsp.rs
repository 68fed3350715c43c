//! All-pairs shortest path analysis: diameter, average shortest path length
//! (ASPL), eccentricities and hop-distance histograms — the quantities
//! plotted in the paper's Figures 7 and 8.
//!
//! A level-synchronous bit-parallel BFS: sources go in blocks of 64, and
//! bit `j` of a node's `u64` says "source `j` of the block has reached this
//! node", so one pass over the adjacency advances 64 searches by a level.
//! Every statistic is an integer (distance sum, pair counts, histogram,
//! eccentricities); blocks fan out over the rayon workers and merge in
//! block order, so the sweep is bit-identical for every worker count.

use dsn_core::graph::Graph;
use dsn_core::parallel::Parallelism;
use rayon::prelude::*;

/// Hop-count statistics of a graph, from an exact APSP sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct PathStats {
    /// Number of nodes the sweep covered.
    pub nodes: usize,
    /// Maximum finite shortest-path length over all ordered pairs.
    pub diameter: u32,
    /// Average shortest path length over ordered pairs of distinct,
    /// mutually reachable nodes.
    pub aspl: f64,
    /// `histogram[d]` = number of ordered pairs at distance `d`
    /// (`histogram[0]` counts the trivial self pairs).
    pub histogram: Vec<u64>,
    /// Eccentricity of each node (max finite distance from it).
    pub eccentricity: Vec<u32>,
    /// Number of ordered pairs of distinct nodes that are unreachable.
    pub unreachable_pairs: u64,
}

impl PathStats {
    /// Radius: the minimum eccentricity.
    pub fn radius(&self) -> u32 {
        self.eccentricity.iter().copied().min().unwrap_or(0)
    }

    /// True when every node reaches every other node.
    pub fn is_connected(&self) -> bool {
        self.unreachable_pairs == 0
    }

    /// Fraction of ordered reachable pairs whose distance is at most `d`.
    pub fn cdf_at(&self, d: u32) -> f64 {
        let total: u64 = self.histogram.iter().skip(1).sum();
        if total == 0 {
            return 1.0;
        }
        let within: u64 = self.histogram.iter().skip(1).take(d as usize).sum();
        within as f64 / total as f64
    }
}

/// Sources per block: one bit of a `u64` per source.
const BLOCK: usize = 64;

/// Compressed neighbour lists, built once per sweep and shared by every
/// block: `targets[offsets[v]..offsets[v + 1]]` are `v`'s neighbours.
/// Flat `u32` ids swept the 2048-switch graphs 1.1–1.6× faster than
/// `Graph`'s per-node `(neighbour, edge)` vectors (EXPERIMENTS.md).
struct Adjacency {
    offsets: Vec<u32>,
    targets: Vec<u32>,
}

impl Adjacency {
    fn new(g: &Graph) -> Self {
        let n = g.node_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut targets = Vec::with_capacity(2 * g.edge_count());
        offsets.push(0);
        for v in 0..n {
            targets.extend(
                g.neighbor_ids(v)
                    .map(|u| u32::try_from(u).expect("node ids fit in u32")),
            );
            offsets.push(u32::try_from(targets.len()).expect("edge ends fit in u32"));
        }
        Adjacency { offsets, targets }
    }

    fn neighbors(&self, v: usize) -> &[u32] {
        &self.targets[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }
}

/// Per-worker scratch: one word per node for the sources that have
/// reached it, that reached it at the current level, and at the next.
struct Words {
    reach: Vec<u64>,
    frontier: Vec<u64>,
    next: Vec<u64>,
}

impl Words {
    fn new(n: usize) -> Self {
        Words {
            reach: vec![0; n],
            frontier: vec![0; n],
            next: vec![0; n],
        }
    }
}

/// Integer partial of one block of sources, merged in block order.
struct Partial {
    /// Sum of finite distances to other nodes.
    sum: u64,
    /// Number of (source, other node) pairs reached.
    count: u64,
    /// `hist[d]` for `d >= 1`; `hist[0]` is left for the self pairs.
    hist: Vec<u64>,
    /// Eccentricity of each source of the block.
    ecc: Vec<u32>,
}

/// BFS from the up to 64 sources `first..` at once, one level per pass
/// over the adjacency: a node's new bits are the OR of its neighbours'
/// frontier words minus what already reached it, and their popcount is
/// that level's share of the histogram.
fn block_partial(adj: &Adjacency, ws: &mut Words, first: usize) -> Partial {
    let n = ws.reach.len();
    let width = (n - first).min(BLOCK);
    let full = u64::MAX >> (BLOCK - width);
    ws.reach.fill(0);
    ws.frontier.fill(0);
    for j in 0..width {
        ws.reach[first + j] = 1 << j;
        ws.frontier[first + j] = 1 << j;
    }
    let mut part = Partial {
        sum: 0,
        count: 0,
        hist: vec![0],
        ecc: vec![0; width],
    };
    for level in 1u32.. {
        let mut reached = 0u64;
        let mut seen = 0u64;
        for v in 0..n {
            let r = ws.reach[v];
            if r == full {
                ws.next[v] = 0;
                continue;
            }
            let heard = adj
                .neighbors(v)
                .iter()
                .fold(0, |acc, &u| acc | ws.frontier[u as usize]);
            let new = heard & !r;
            ws.next[v] = new;
            ws.reach[v] = r | new;
            reached += u64::from(new.count_ones());
            seen |= new;
        }
        if reached == 0 {
            break;
        }
        part.hist.push(reached);
        part.sum += u64::from(level) * reached;
        part.count += reached;
        // Levels only grow, so the last level a source's bit appears at
        // is its eccentricity.
        while seen != 0 {
            part.ecc[seen.trailing_zeros() as usize] = level;
            seen &= seen - 1;
        }
        std::mem::swap(&mut ws.frontier, &mut ws.next);
    }
    part
}

/// Exact APSP statistics via a bit-parallel BFS sweep, 64 sources per
/// machine word. Blocks of 64 sources fan out; their integer partials
/// merge in block order, so the result is bit-identical for every worker
/// count.
pub fn path_stats(g: &Graph) -> PathStats {
    let n = g.node_count();
    let adj = Adjacency::new(g);
    let parts: Vec<Partial> = (0..n.div_ceil(BLOCK))
        .into_par_iter()
        .map_init(|| Words::new(n), |ws, b| block_partial(&adj, ws, b * BLOCK))
        .collect();

    let mut histogram = vec![0u64];
    let mut eccentricity = Vec::with_capacity(n);
    let (mut sum, mut count) = (0u64, 0u64);
    for part in parts {
        if histogram.len() < part.hist.len() {
            histogram.resize(part.hist.len(), 0);
        }
        for (slot, v) in histogram.iter_mut().zip(&part.hist) {
            *slot += v;
        }
        sum += part.sum;
        count += part.count;
        eccentricity.extend(part.ecc);
    }
    // Slot 0 counts self pairs for a complete ordered-pair accounting.
    histogram[0] = n as u64;
    let ordered_pairs = (n as u64) * (n as u64).saturating_sub(1);

    PathStats {
        nodes: n,
        diameter: eccentricity.iter().copied().max().unwrap_or(0),
        aspl: if count == 0 {
            0.0
        } else {
            sum as f64 / count as f64
        },
        histogram,
        eccentricity,
        unreachable_pairs: ordered_pairs - count,
    }
}

/// [`path_stats`] with its fan-out under `par`.
pub fn path_stats_with(g: &Graph, par: &Parallelism) -> PathStats {
    par.run(|| path_stats(g))
}

/// Diameter only (still a full sweep; kept for call-site clarity).
pub fn diameter(g: &Graph) -> u32 {
    path_stats(g).diameter
}

/// Average shortest path length only.
pub fn aspl(g: &Graph) -> f64 {
    path_stats(g).aspl
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsn_core::graph::LinkKind;
    use dsn_core::ring::Ring;
    use dsn_core::torus::Torus;

    #[test]
    fn ring_diameter_and_aspl() {
        // Ring of n: diameter floor(n/2); ASPL for even n is n^2/4 / (n-1).
        let g = Ring::new(8).unwrap().into_graph();
        let s = path_stats(&g);
        assert_eq!(s.diameter, 4);
        // distances from any node: 1,1,2,2,3,3,4 -> sum 16, avg 16/7
        assert!((s.aspl - 16.0 / 7.0).abs() < 1e-12);
        assert!(s.is_connected());
        assert_eq!(s.radius(), 4);
    }

    #[test]
    fn torus_4x4_diameter() {
        let g = Torus::new(&[4, 4]).unwrap().into_graph();
        let s = path_stats(&g);
        assert_eq!(s.diameter, 4); // 2 + 2
        assert_eq!(s.eccentricity.len(), 16);
        assert!(s.eccentricity.iter().all(|&e| e == 4));
    }

    #[test]
    fn histogram_sums_to_ordered_pairs() {
        let g = Torus::new(&[4, 8]).unwrap().into_graph();
        let s = path_stats(&g);
        let n = g.node_count() as u64;
        let total: u64 = s.histogram.iter().sum();
        assert_eq!(total, n * n - s.unreachable_pairs);
        assert_eq!(s.histogram[0], n);
        assert_eq!(s.unreachable_pairs, 0);
    }

    #[test]
    fn disconnected_graph_counts_unreachable() {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, LinkKind::Ring);
        g.add_edge(2, 3, LinkKind::Ring);
        let s = path_stats(&g);
        assert_eq!(s.unreachable_pairs, 8); // 2 components of 2: 2*2*2
        assert!(!s.is_connected());
        assert_eq!(s.diameter, 1);
    }

    #[test]
    fn cdf_monotone() {
        let g = Torus::new(&[4, 4]).unwrap().into_graph();
        let s = path_stats(&g);
        let mut prev = 0.0;
        for d in 0..=s.diameter {
            let c = s.cdf_at(d);
            assert!(c >= prev);
            prev = c;
        }
        assert!((s.cdf_at(s.diameter) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn empty_graph() {
        let g = Graph::new(0);
        let s = path_stats(&g);
        assert_eq!(s.diameter, 0);
        assert_eq!(s.aspl, 0.0);
    }
}
