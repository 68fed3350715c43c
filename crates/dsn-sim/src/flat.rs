//! Flattened routing tables: each [`SimRouting`](crate::routing::SimRouting)
//! scheme that is a pure function of `(cur, dest, ud_phase)` is lowered
//! once into dense per-`(context, switch, dest)` candidate rows stored in a
//! single CSR-style `u32` arena, so the per-allocation-attempt
//! `candidates(...)` call and the per-hop `on_hop` become array lookups
//! instead of `Arc<dyn>` virtual calls with per-call `Vec` allocation.
//!
//! Rows are built by calling the scheme's **own** `candidates()` with a
//! synthetic [`RouteState`] per context, so candidate content and order are
//! identical to the dynamic path by construction; `tests/flat_equivalence.rs`
//! pins `RunStats` byte-equality on top.
//!
//! Schemes with state-dependent escape hops (the DSN-V escape sojourn of
//! [`MinimalAdaptiveDsn`](crate::routing::MinimalAdaptiveDsn)) tabulate
//! only their adaptive candidates and keep a small dynamic residue: the
//! engine consults `escape_candidates` only after every tabulated candidate
//! was blocked, which scans the same concatenated preference list the
//! dynamic path would.

use crate::routing::{Candidate, RouteState};
use dsn_route::updown::UdPhase;
use rayon::prelude::*;
use std::sync::Arc;

/// How the engine commits a hop granted from the flat table.
#[derive(Debug, Clone)]
pub(crate) enum HopRule {
    /// Up*/down* phase rule: VCs below `escape_vcs` follow the precomputed
    /// per-channel up/down direction; higher VCs reset the phase to `Up`.
    /// Covers `AdaptiveEscape` (`escape_vcs = 1`) and `UpDownRouting`
    /// (`escape_vcs = vcs`). Neither touches `alg`, so the phase is the
    /// whole hop effect.
    Phase {
        /// VCs `0..escape_vcs` are escape lanes subject to the phase rule.
        escape_vcs: u8,
        /// `up_move[ch]`: taking directed channel `ch` is an up move.
        up_move: Vec<bool>,
    },
    /// The hop effect depends on the packet's automaton state — always call
    /// the scheme's dynamic `on_hop`.
    Dyn,
}

/// A compiled candidate table. See the module docs.
pub struct FlatRouting {
    /// Switch count.
    n: usize,
    /// Row contexts: 1 (state-independent), 2 (up*/down* phase), or 4
    /// (DSN-V algorithmic phase: PRE-WORK / MAIN / FINISH± dateline).
    ctxs: usize,
    /// CSR row offsets, length `ctxs * n * n + 1`.
    offsets: Vec<u32>,
    /// Packed candidates: `(channel << 8) | vc`.
    arena: Vec<u32>,
    /// Hop-commit rule.
    hop: HopRule,
    /// The table covers only part of the preference list; the engine must
    /// fall back to `escape_candidates` when every tabulated candidate is
    /// blocked.
    dyn_escape: bool,
}

#[inline]
pub(crate) fn pack(ch: usize, vc: u8) -> u32 {
    debug_assert!(ch < (1 << 24), "channel id overflows packed candidate");
    ((ch as u32) << 8) | vc as u32
}

#[inline]
pub(crate) fn unpack(p: u32) -> Candidate {
    ((p >> 8) as usize, (p & 0xFF) as u8)
}

fn phase_of_ctx(ctx: usize) -> UdPhase {
    if ctx == 0 {
        UdPhase::Up
    } else {
        UdPhase::Down
    }
}

/// Packed [`dsn_route::deadlock::DsnvState`] bits for a 4-context row:
/// contexts 0/1/2 are the PRE-WORK/MAIN/FINISH phases, context 3 is
/// FINISH after the dateline (phase bits 2, crossed bit set).
fn alg_of_ctx(ctx: usize) -> u8 {
    if ctx == 3 {
        2 | 4
    } else {
        ctx as u8
    }
}

/// Inverse of [`alg_of_ctx`] over the states the DSN-V automaton can
/// actually reach (`crossed` implies FINISH).
#[inline]
fn ctx_of_alg(alg: u8) -> usize {
    if alg & 4 != 0 {
        3
    } else {
        (alg & 3) as usize
    }
}

impl FlatRouting {
    /// Compile a table by evaluating `row_fn(ctx, cur, dest, out)` for every
    /// `(context, cur, dest)` with `cur != dest`. Row construction fans out
    /// over `(ctx, cur)` blocks; assembly is deterministic regardless of
    /// worker count.
    pub(crate) fn compile(
        n: usize,
        ctxs: usize,
        hop: HopRule,
        dyn_escape: bool,
        row_fn: impl Fn(usize, usize, usize, &mut Vec<Candidate>) + Sync,
    ) -> Self {
        debug_assert!(ctxs == 1 || ctxs == 2 || ctxs == 4);
        // Per-(ctx, cur) blocks; rayon's collect preserves index order, so
        // the assembled table is identical for any worker count.
        let blocks: Vec<(Vec<u32>, Vec<u32>)> = (0..ctxs * n)
            .into_par_iter()
            .map(|b| {
                let (ctx, cur) = (b / n, b % n);
                let mut lens = Vec::with_capacity(n);
                let mut packed = Vec::new();
                let mut scratch = Vec::new();
                for dest in 0..n {
                    if dest == cur {
                        lens.push(0);
                        continue;
                    }
                    scratch.clear();
                    row_fn(ctx, cur, dest, &mut scratch);
                    lens.push(scratch.len() as u32);
                    packed.extend(scratch.iter().map(|&(ch, vc)| pack(ch, vc)));
                }
                (lens, packed)
            })
            .collect();
        let rows = ctxs * n * n;
        let mut offsets = Vec::with_capacity(rows + 1);
        offsets.push(0u32);
        let mut arena = Vec::new();
        for (lens, packed) in blocks {
            for len in lens {
                let last = *offsets.last().unwrap();
                offsets.push(last + len);
            }
            arena.extend_from_slice(&packed);
        }
        debug_assert_eq!(offsets.len(), rows + 1);
        debug_assert_eq!(*offsets.last().unwrap() as usize, arena.len());
        FlatRouting {
            n,
            ctxs,
            offsets,
            arena,
            hop,
            dyn_escape,
        }
    }

    /// The synthetic per-context [`RouteState`] rows are built with. The
    /// same state serves both context families: phase schemes read only
    /// `ud_phase` (contexts 0/1), the DSN-V algorithmic scheme reads only
    /// `alg` (contexts 0–3 map to PRE-WORK / MAIN / FINISH /
    /// FINISH-crossed).
    pub(crate) fn synthetic_state(ctx: usize) -> RouteState {
        RouteState {
            ud_phase: phase_of_ctx(ctx.min(1)),
            alg: alg_of_ctx(ctx),
        }
    }

    /// Row context for a packet's current state.
    #[inline]
    pub(crate) fn ctx(&self, state: &RouteState) -> usize {
        match self.ctxs {
            2 => match state.ud_phase {
                UdPhase::Up => 0,
                UdPhase::Down => 1,
            },
            4 => ctx_of_alg(state.alg),
            _ => 0,
        }
    }

    /// Packed candidate row for `(ctx, cur, dest)`.
    #[inline]
    pub(crate) fn row(&self, ctx: usize, cur: usize, dest: usize) -> &[u32] {
        let r = (ctx * self.n + cur) * self.n + dest;
        let lo = self.offsets[r] as usize;
        let hi = self.offsets[r + 1] as usize;
        &self.arena[lo..hi]
    }

    /// Whether the engine must consult `escape_candidates` after the table.
    #[inline]
    pub(crate) fn needs_dyn_escape(&self) -> bool {
        self.dyn_escape
    }

    /// Hop commit from the table: `Some(phase)` when the packet's new
    /// up*/down* phase is determined by the rule (the only state the scheme
    /// would touch), `None` when the dynamic `on_hop` must run.
    #[inline]
    pub(crate) fn hop_phase(&self, channel: usize, vc: u8) -> Option<UdPhase> {
        match &self.hop {
            HopRule::Phase {
                escape_vcs,
                up_move,
            } => Some(if vc < *escape_vcs {
                if up_move[channel] {
                    UdPhase::Up
                } else {
                    UdPhase::Down
                }
            } else {
                UdPhase::Up
            }),
            HopRule::Dyn => None,
        }
    }

    /// Total candidates stored (diagnostics).
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    /// Resident bytes of the compiled table: the CSR offsets + packed
    /// candidate arena, plus the per-channel up-move bitmap when the hop
    /// rule carries one. This is the number the benchmarks compare against
    /// algorithmic (table-free) routing.
    pub fn table_bytes(&self) -> usize {
        let hop = match &self.hop {
            HopRule::Phase { up_move, .. } => up_move.len(),
            HopRule::Dyn => 0,
        };
        (self.offsets.len() + self.arena.len()) * std::mem::size_of::<u32>() + hop
    }
}

/// Compile helper shared by the phase-context schemes: two contexts
/// (Up / Down) rows, built from the scheme's own `candidates`.
pub(crate) fn compile_phase_table(
    n: usize,
    escape_vcs: u8,
    up_move: Vec<bool>,
    row_fn: impl Fn(usize, usize, usize, &mut Vec<Candidate>) + Sync,
) -> Arc<FlatRouting> {
    Arc::new(FlatRouting::compile(
        n,
        2,
        HopRule::Phase {
            escape_vcs,
            up_move,
        },
        false,
        row_fn,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_roundtrip() {
        for (ch, vc) in [(0usize, 0u8), (1, 3), (511, 7), (16_000_000, 255)] {
            assert_eq!(unpack(pack(ch, vc)), (ch, vc));
        }
    }

    #[test]
    fn compile_layout_matches_rows() {
        // 3 switches, 1 ctx, row (cur,dest) = [(cur*10+dest, 1)] for dest>cur
        // else empty — checks CSR indexing incl. the empty diagonal.
        let t = FlatRouting::compile(3, 1, HopRule::Dyn, true, |_, cur, dest, out| {
            if dest > cur {
                out.push((cur * 10 + dest, 1));
            }
        });
        for cur in 0..3 {
            for dest in 0..3 {
                let row = t.row(0, cur, dest);
                if dest > cur {
                    assert_eq!(row, &[pack(cur * 10 + dest, 1)], "{cur}->{dest}");
                } else {
                    assert!(row.is_empty(), "{cur}->{dest}");
                }
            }
        }
        assert!(t.needs_dyn_escape());
        assert_eq!(t.arena_len(), 3);
    }

    #[test]
    fn phase_rule_hop() {
        let t = FlatRouting::compile(
            2,
            2,
            HopRule::Phase {
                escape_vcs: 1,
                up_move: vec![true, false],
            },
            false,
            |_, _, _, _| {},
        );
        assert_eq!(t.hop_phase(0, 0), Some(UdPhase::Up));
        assert_eq!(t.hop_phase(1, 0), Some(UdPhase::Down));
        // Non-escape VC resets to Up regardless of channel direction.
        assert_eq!(t.hop_phase(1, 3), Some(UdPhase::Up));
        assert_eq!(
            t.ctx(&FlatRouting::synthetic_state(0)),
            0,
            "Up phase maps to ctx 0"
        );
        assert_eq!(t.ctx(&FlatRouting::synthetic_state(1)), 1);
    }
}
