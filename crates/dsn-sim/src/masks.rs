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

use crate::routing::Candidate;
use dsn_core::fault::EdgeMask;
use dsn_core::graph::{EdgeId, Graph};
use dsn_core::NodeId;
use dsn_route::updown::{UdPhase, UpDown};
use std::collections::VecDeque;
use std::ops::Range;

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
    /// empty). `minimal` stores the minimal mask; `updown` stores one
    /// escape mask per phase, holding [`UpDown::for_each_next_hop`]'s hops
    /// (empty for a phase that cannot reach `dest`, a state legal traffic
    /// never enters).
    pub(crate) fn build(
        graph: &Graph,
        survivors: Option<&EdgeMask>,
        minimal: bool,
        updown: Option<&UpDown>,
    ) -> Self {
        let n = graph.node_count();
        let stride = graph.max_degree();
        let mask_bytes = stride.div_ceil(8).max(1);
        let per_entry = usize::from(minimal) + 2 * usize::from(updown.is_some());
        assert!(per_entry > 0, "a port-mask table needs at least one mask");
        let entry = per_entry * mask_bytes;
        let alive = |e: EdgeId| survivors.is_none_or(|m| m.edge_alive(e));

        let mut port_ch = vec![u32::MAX; n * stride];
        for cur in 0..n {
            for (p, (_, e)) in graph.neighbors(cur).enumerate() {
                port_ch[cur * stride + p] = graph.channel_id(e, cur) as u32;
            }
        }

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
                if let Some(ud) = updown {
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

/// Per-channel up*/down* direction: bit `ch` is set when taking directed
/// channel `ch` is an up move. What `on_hop` reads instead of the forest.
pub(crate) struct UpMoves(Vec<u64>);

impl UpMoves {
    pub(crate) fn new(graph: &Graph, updown: &UpDown) -> Self {
        let channels = graph.channel_count();
        let mut bits = vec![0u64; channels.div_ceil(64)];
        for ch in 0..channels {
            let (from, _) = graph.channel_endpoints(ch);
            if updown.is_up_move(graph, ch / 2, from) {
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
