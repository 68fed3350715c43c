//! Port-mask routing tables: the one table format every table-driven
//! [`SimRouting`](crate::routing::SimRouting) scheme serves its hops from.
//!
//! A switch's *ports* are its links in `Graph::neighbors` order. For every
//! `(cur, dest)` a [`PortMasks`] table stores a fixed list of masks — the
//! minimal set (ports whose neighbor is closer to `dest`), then one
//! up*/down* escape mask per phase — each `max_degree.div_ceil(8)` bytes
//! with bit `p` for port `p`. A per-switch port→channel array decodes them.
//! Decoding walks the bits in ascending port order, which is the order a
//! walk of `graph.neighbors(cur)` visits them, so a decoded candidate list
//! is exactly the one the hop-by-hop definition produces
//! (`tests/mask_equivalence.rs` pins this against a test-side reference).
//!
//! **The build** is a level-synchronous bit-parallel BFS backwards from
//! blocks of 64 destinations, the kernel of `dsn-metrics`' APSP sweep: bit
//! `j` of a node's `u64` stands for destination `d0 + j`. It searches the
//! up*/down* `(node, phase)` state graph, whose forward moves are
//! `(v, Up) -up-> (u, Up)`, `(v, Up) -down-> (u, Down)` and
//! `(v, Down) -down-> (u, Down)`. At each level `new_up[v]` is the OR of
//! `front_up[u]` over up-moves and `front_down[u]` over down-moves,
//! `new_down[v]` the OR of `front_down[u]` over down-moves, each minus what
//! `v` already reached; the port to `u` is a hop for the destinations
//! where the new word meets `u`'s frontier. The minimal masks are the same
//! search with every live port an up move. A switch's 64 entries of a
//! block are contiguous in the switch-major table. The build keeps six
//! words per node and no distance table, and runs on the calling thread;
//! a unit test compares every byte with the per-destination build it
//! replaced (a queue BFS per destination plus the hops of
//! `dsn_route::updown`'s legal-distance matrix).

use crate::routing::Candidate;
use dsn_core::fault::EdgeMask;
use dsn_core::graph::{EdgeId, Graph};
use dsn_core::NodeId;
use dsn_route::updown::{is_up, UdPhase};
use std::ops::Range;

/// Destinations per block of the build: one bit of a `u64` each.
const BLOCK: usize = 64;

/// Per-`(switch, destination)` port masks. See the module docs.
pub(crate) struct PortMasks {
    n: usize,
    /// Ports per switch in `port_ch`: the graph's maximum degree.
    stride: usize,
    /// Bytes per mask: `stride.div_ceil(8)`.
    mask_bytes: usize,
    /// Masks per `(cur, dest)` entry: the minimal mask (when built), then
    /// the Up and Down escape masks (when built).
    per_entry: usize,
    /// Whether entry slot 0 is the minimal mask.
    minimal: bool,
    /// Switch-major: the entry of `(cur, dest)` starts at byte
    /// `(cur * n + dest) * per_entry * mask_bytes`, so the heads one
    /// allocation walk tries at a switch read one region (a
    /// destination-major layout ran DLN-2-2-2046 slower than the CSR it
    /// replaced; EXPERIMENTS.md, "Port-mask routing tables").
    masks: Vec<u8>,
    /// `port_ch[cur * stride + p]`: directed channel of port `p` at `cur`.
    port_ch: Vec<u32>,
}

impl PortMasks {
    /// Build the table for `graph`, over the survivors of `survivors` when
    /// given (dead links are never set; distances are survivor-graph
    /// distances, and a destination cut off from `cur` leaves its masks
    /// empty). `minimal` stores the minimal mask; `depth`, the up*/down*
    /// forest of [`dsn_route::updown::forest_depth`] grown over the same
    /// survivors, stores one escape mask per phase holding every hop that
    /// starts a shortest legal path (empty for a phase that cannot reach
    /// `dest`, a state legal traffic never enters).
    pub(crate) fn build(
        graph: &Graph,
        survivors: Option<&EdgeMask>,
        minimal: bool,
        depth: Option<&[u32]>,
    ) -> Self {
        let n = graph.node_count();
        let stride = graph.max_degree();
        let mask_bytes = stride.div_ceil(8).max(1);
        let per_entry = usize::from(minimal) + 2 * usize::from(depth.is_some());
        assert!(per_entry > 0, "a port-mask table needs at least one mask");

        let mut port_ch = vec![u32::MAX; n * stride];
        for cur in 0..n {
            for (p, (_, e)) in graph.neighbors(cur).enumerate() {
                port_ch[cur * stride + p] = graph.channel_id(e, cur) as u32;
            }
        }

        let entry = per_entry * mask_bytes;
        let mut masks = vec![0u8; n * n * entry];
        let ports = live_ports(graph, survivors, depth);
        let up_slot = usize::from(minimal) * mask_bytes;
        for d0 in (0..n).step_by(BLOCK) {
            if minimal {
                bfs_block(&ports, &mut masks, entry, d0, true, (0, 0));
            }
            if depth.is_some() {
                let slots = (up_slot, up_slot + mask_bytes);
                bfs_block(&ports, &mut masks, entry, d0, false, slots);
            }
        }
        PortMasks {
            n,
            stride,
            mask_bytes,
            per_entry,
            minimal,
            masks,
            port_ch,
        }
    }

    /// One byte mask per switch (`mask_bytes` each) with the bit of every
    /// port whose link satisfies `keep`.
    pub(crate) fn port_bits(&self, graph: &Graph, keep: impl Fn(EdgeId) -> bool) -> Vec<u8> {
        let mut bits = vec![0u8; self.n * self.mask_bytes];
        for cur in 0..self.n {
            for (p, (_, e)) in graph.neighbors(cur).enumerate() {
                if keep(e) {
                    bits[cur * self.mask_bytes + p / 8] |= 1 << (p % 8);
                }
            }
        }
        bits
    }

    /// Bytes per mask.
    #[inline]
    pub(crate) fn mask_bytes(&self) -> usize {
        self.mask_bytes
    }

    /// Call `f(channel)` for each port set in mask `slot` of `(cur, dest)`
    /// and in `select(byte index)`, in ascending port order.
    #[inline]
    pub(crate) fn for_each_channel(
        &self,
        cur: NodeId,
        dest: NodeId,
        slot: usize,
        select: impl Fn(usize) -> u8,
        mut f: impl FnMut(usize),
    ) {
        let at = ((cur * self.n + dest) * self.per_entry + slot) * self.mask_bytes;
        let ports = &self.port_ch[cur * self.stride..(cur + 1) * self.stride];
        for (b, &m) in self.masks[at..at + self.mask_bytes].iter().enumerate() {
            let mut bits = m & select(b);
            while bits != 0 {
                f(ports[b * 8 + bits.trailing_zeros() as usize] as usize);
                bits &= bits - 1;
            }
        }
    }

    /// Append every port set in mask `slot` of `(cur, dest)`, each on VCs
    /// `vcs`.
    #[inline]
    fn push(
        &self,
        cur: NodeId,
        dest: NodeId,
        slot: usize,
        vcs: Range<u8>,
        out: &mut Vec<Candidate>,
    ) {
        let each = |ch| out.extend(vcs.clone().map(|vc| (ch, vc)));
        self.for_each_channel(cur, dest, slot, |_| !0, each);
    }

    /// Append every minimal port of `(cur, dest)`, each on VCs `vcs`.
    #[inline]
    pub(crate) fn push_minimal(
        &self,
        cur: NodeId,
        dest: NodeId,
        vcs: Range<u8>,
        out: &mut Vec<Candidate>,
    ) {
        debug_assert!(self.minimal);
        self.push(cur, dest, 0, vcs, out);
    }

    /// Append every up*/down* escape port of `(cur, dest)` in `phase`, each
    /// on VCs `vcs`.
    #[inline]
    pub(crate) fn push_escape(
        &self,
        cur: NodeId,
        dest: NodeId,
        phase: UdPhase,
        vcs: Range<u8>,
        out: &mut Vec<Candidate>,
    ) {
        let phase_slot = match phase {
            UdPhase::Up => 0,
            UdPhase::Down => 1,
        };
        self.push(cur, dest, usize::from(self.minimal) + phase_slot, vcs, out);
    }

    /// Resident bytes: the masks plus the port→channel array.
    pub(crate) fn bytes(&self) -> usize {
        self.masks.capacity() + self.port_ch.capacity() * std::mem::size_of::<u32>()
    }
}

/// A live link out of a switch, as the build walks it.
#[derive(Clone, Copy)]
struct LivePort {
    /// Its position in `Graph::neighbors` order.
    port: u32,
    to: u32,
    /// Whether taking it is an up*/down* up move.
    up: bool,
}

/// Each switch's live ports, with their up*/down* direction when `depth`
/// is given.
fn live_ports(
    graph: &Graph,
    survivors: Option<&EdgeMask>,
    depth: Option<&[u32]>,
) -> Vec<Vec<LivePort>> {
    (0..graph.node_count())
        .map(|v| {
            let all = graph.neighbors(v).enumerate();
            all.filter(|&(_, (_, e))| survivors.is_none_or(|m| m.edge_alive(e)))
                .map(|(p, (u, _))| LivePort {
                    port: p as u32,
                    to: u as u32,
                    up: depth.is_some_and(|d| is_up(d, v, u)),
                })
                .collect()
        })
        .collect()
}

/// The BFS of one block, the destinations `d0..d0 + 64`: marks every hop
/// from `(v, Up)` at byte offset `up_slot` of its entry and every hop
/// from `(v, Down)` at `down_slot`. With `minimal` every live port counts
/// as an up move, so the Up search is the plain reverse BFS on the live
/// links, its hops are the minimal ports, and no Down word is ever set.
fn bfs_block(
    ports: &[Vec<LivePort>],
    masks: &mut [u8],
    entry: usize,
    d0: usize,
    minimal: bool,
    (up_slot, down_slot): (usize, usize),
) {
    let n = ports.len();
    let mut mark = |v: usize, slot: usize, port: u32, mut dests: u64| {
        let at = (v * n + d0) * entry + slot + port as usize / 8;
        while dests != 0 {
            masks[at + dests.trailing_zeros() as usize * entry] |= 1 << (port % 8);
            dests &= dests - 1;
        }
    };
    // Level 0: each destination has reached itself, in both phases.
    let seed: Vec<u64> = (0..n)
        .map(|v| {
            if (d0..d0 + BLOCK).contains(&v) {
                1 << (v - d0)
            } else {
                0
            }
        })
        .collect();
    let (mut reached_up, mut reached_down) = (seed.clone(), seed.clone());
    let (mut front_up, mut front_down) = (seed.clone(), seed);
    let (mut next_up, mut next_down) = (vec![0u64; n], vec![0u64; n]);
    loop {
        let mut any = 0;
        for (v, out) in ports.iter().enumerate() {
            let (mut via_up, mut via_down) = (0, 0);
            for lp in out {
                if minimal || lp.up {
                    via_up |= front_up[lp.to as usize];
                } else {
                    via_down |= front_down[lp.to as usize];
                }
            }
            let new_up = (via_up | via_down) & !reached_up[v];
            let new_down = via_down & !reached_down[v];
            if new_up | new_down != 0 {
                for lp in out {
                    let u = lp.to as usize;
                    if minimal || lp.up {
                        mark(v, up_slot, lp.port, new_up & front_up[u]);
                    } else {
                        mark(v, up_slot, lp.port, new_up & front_down[u]);
                        mark(v, down_slot, lp.port, new_down & front_down[u]);
                    }
                }
            }
            reached_up[v] |= new_up;
            reached_down[v] |= new_down;
            next_up[v] = new_up;
            next_down[v] = new_down;
            any |= new_up | new_down;
        }
        if any == 0 {
            return;
        }
        std::mem::swap(&mut front_up, &mut next_up);
        std::mem::swap(&mut front_down, &mut next_down);
    }
}

/// Per-channel up*/down* direction: bit `ch` is set when taking directed
/// channel `ch` is an up move. What `on_hop` reads instead of the forest.
pub(crate) struct UpMoves(Vec<u64>);

impl UpMoves {
    /// The up-move bits of the forest `depth`
    /// ([`dsn_route::updown::forest_depth`]).
    pub(crate) fn new(graph: &Graph, depth: &[u32]) -> Self {
        let channels = graph.channel_count();
        let mut bits = vec![0u64; channels.div_ceil(64)];
        for ch in 0..channels {
            let (from, to) = graph.channel_endpoints(ch);
            if is_up(depth, from, to) {
                bits[ch / 64] |= 1 << (ch % 64);
            }
        }
        UpMoves(bits)
    }

    /// The phase a packet is in after an escape hop over `ch`.
    #[inline]
    pub(crate) fn phase_after(&self, ch: usize) -> UdPhase {
        if self.0[ch / 64] >> (ch % 64) & 1 == 1 {
            UdPhase::Up
        } else {
            UdPhase::Down
        }
    }

    pub(crate) fn bytes(&self) -> usize {
        self.0.capacity() * std::mem::size_of::<u64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table_reference::reference_masks;
    use dsn_core::random_regular::RandomRegular;
    use dsn_core::topology::TopologySpec;
    use dsn_route::updown::forest_depth;

    /// Build `g`'s table with the kernel and with the per-destination
    /// reference, in every slot layout (minimal + escape, minimal only as
    /// `MinimalAdaptiveDsn` and a rebuilt `DsnAlgorithmic` build it,
    /// escape only as `UpDownRouting` does), and demand identical bytes.
    fn assert_matches_reference(name: &str, g: &Graph, survivors: Option<&EdgeMask>) {
        let n = g.node_count();
        for (minimal, escape) in [(true, true), (true, false), (false, true)] {
            let depth = escape.then(|| forest_depth(g, 0, survivors));
            let table = PortMasks::build(g, survivors, minimal, depth.as_deref());
            let want = reference_masks(g, survivors, minimal, escape);
            assert_eq!(table.masks.len(), want.len(), "{name}: table size");
            let entry = table.per_entry * table.mask_bytes;
            if let Some(i) = (0..want.len()).find(|&i| table.masks[i] != want[i]) {
                let (pair, at) = (i / entry, i % entry);
                panic!(
                    "{name} (minimal {minimal}, escape {escape}): (cur {}, dest {}) slot {} \
                     byte {}: kernel {:#010b}, reference {:#010b}",
                    pair / n,
                    pair % n,
                    at / table.mask_bytes,
                    at % table.mask_bytes,
                    table.masks[i],
                    want[i]
                );
            }
        }
    }

    /// The survivors of `g` after killing every link between `side` and
    /// the rest, plus every link `extra` names.
    fn cut(g: &Graph, side: impl Fn(NodeId) -> bool, extra: &[EdgeId]) -> EdgeMask {
        let mut mask = EdgeMask::fully_alive(g);
        for (e, edge) in g.edges().iter().enumerate() {
            if side(edge.a) != side(edge.b) || extra.contains(&e) {
                mask.set_edge(e, false);
            }
        }
        mask
    }

    #[test]
    fn paper_trio_tables_match_the_reference() {
        // 64 is one full block; 30 is a partial one; 100 and 130 end in a
        // partial block after full ones.
        for n in [30, 64, 100, 130] {
            for spec in TopologySpec::paper_trio(n, 42) {
                let topo = spec.build().unwrap();
                assert_matches_reference(&topo.name, &topo.graph, None);
            }
        }
    }

    #[test]
    fn two_byte_masks_match_the_reference() {
        let g = RandomRegular::new(100, 10, 7).unwrap().into_graph();
        assert!(g.max_degree() > 8);
        assert_matches_reference("RR-10-100", &g, None);
        let dead = cut(&g, |_| false, &[0, 11, 123, 400]);
        assert_matches_reference("RR-10-100 with dead links", &g, Some(&dead));
    }

    #[test]
    fn survivor_tables_match_the_reference() {
        for n in [64, 130] {
            for spec in TopologySpec::paper_trio(n, 42) {
                let topo = spec.build().unwrap();
                let g = &topo.graph;
                let dead = cut(g, |_| false, &[0, 3, 17, g.edge_count() - 1]);
                assert!(dsn_core::fault::is_connected_masked(g, &dead));
                assert_matches_reference(&format!("{} with dead links", topo.name), g, Some(&dead));
                // Two or more components, the forest root's the smaller:
                // the reference leaves every cross-component entry empty.
                let split = cut(g, |v| v < n / 3, &[5]);
                assert!(!dsn_core::fault::is_connected_masked(g, &split));
                assert_matches_reference(&format!("{} split", topo.name), g, Some(&split));
            }
        }
    }
}
