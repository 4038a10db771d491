//! Allocation-free block lifting: the expansion's per-block working
//! context.
//!
//! [`star_graph::Pattern::from_local`] / [`star_graph::Pattern::to_local`]
//! are general (any sub-star order) but rebuild the free-symbol list on
//! the heap for **every** conversion — at `n = 9` an expansion performs
//! ~360k lifts, which made the allocator the hot path. A [`BlockCtx`]
//! front-loads everything that is constant across a 4-vertex block into
//! fixed-size arrays (free positions, free symbols, the pinned-symbol
//! byte template, the symbol→local-digit inverse), after which each lift
//! is a 16-byte template copy plus four byte stores, and each local rank
//! is four table reads plus a 4-element Lehmer fold. No heap traffic in
//! either direction.
//!
//! The context answers in **local `S_4` ranks** — the same coordinates
//! the Lemma-4 oracle table is keyed by ([`crate::oracle`]). The
//! expansion never lifts a path: it turns each pair of adjacent ranks
//! into the star dimension between them (`BlockCtx::step_dim`).

use std::sync::OnceLock;

use star_graph::Pattern;
use star_perm::{Perm, MAX_N};

/// The 24 permutations of `S_4` in Lehmer-rank order, as digit arrays —
/// the shared unrank table behind every [`BlockCtx::lift_rank`].
fn s4_table() -> &'static [[u8; 4]; 24] {
    static TABLE: OnceLock<[[u8; 4]; 24]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut t = [[0u8; 4]; 24];
        for (rank, row) in t.iter_mut().enumerate() {
            let p = Perm::unrank(4, rank as u32).expect("rank < 24");
            row.copy_from_slice(p.as_slice());
        }
        t
    })
}

/// Lehmer rank of a permutation of `1..=4` given as four digits.
#[inline(always)]
fn rank4(d: [u8; 4]) -> u8 {
    let c0 = u8::from(d[1] < d[0]) + u8::from(d[2] < d[0]) + u8::from(d[3] < d[0]);
    let c1 = u8::from(d[2] < d[1]) + u8::from(d[3] < d[1]);
    let c2 = u8::from(d[3] < d[2]);
    c0 * 6 + c1 * 2 + c2
}

/// Precomputed lift context for one 4-vertex block (a [`Pattern`] of
/// order 4): converts between the block's members and their local `S_4`
/// ranks with no heap allocation.
pub struct BlockCtx {
    block: Pattern,
    /// The block's don't-care positions, ascending (`fp[0] == 0`).
    fp: [u8; 4],
    /// The block's free symbols, ascending (`fs[k]` is local digit `k+1`).
    fs: [u8; 4],
    /// Pinned symbols in place, zero at the free positions.
    template: [u8; MAX_N],
    /// Global symbol → local digit (`1..=4`) for free symbols, 0 elsewhere.
    local_of: [u8; MAX_N + 1],
    s4: &'static [[u8; 4]; 24],
}

impl BlockCtx {
    /// Builds the context for `block`.
    ///
    /// # Panics
    /// Panics if `block.r() != 4`.
    pub fn new(block: &Pattern) -> Self {
        let n = block.n();
        assert_eq!(block.r(), 4, "BlockCtx lifts 4-vertex blocks");
        let mut template = [0u8; MAX_N];
        let mut fp = [0u8; 4];
        let mut k = 0usize;
        for (pos, slot) in template.iter_mut().enumerate().take(n) {
            match block.fixed_symbol(pos) {
                Some(s) => *slot = s,
                None => {
                    fp[k] = pos as u8;
                    k += 1;
                }
            }
        }
        let mut fs = [0u8; 4];
        let mut local_of = [0u8; MAX_N + 1];
        for (k, s) in block.free_symbols().iter().enumerate() {
            fs[k] = s;
            local_of[s as usize] = k as u8 + 1;
        }
        BlockCtx {
            block: *block,
            fp,
            fs,
            template,
            local_of,
            s4: s4_table(),
        }
    }

    /// Lifts a local `S_4` rank to the member vertex it denotes —
    /// byte-identical to
    /// `block.from_local(&Perm::unrank(4, rank as u32).unwrap())`.
    #[inline]
    pub(crate) fn lift_rank(&self, rank: u8) -> Perm {
        let digits = &self.s4[rank as usize];
        let mut buf = self.template;
        for k in 0..4 {
            buf[self.fp[k] as usize] = self.fs[(digits[k] - 1) as usize];
        }
        Perm::from_slice_trusted(&buf[..self.block.n()])
    }

    /// The star dimension of the step between two adjacent local ranks:
    /// the block's free position `fp[k]`, where `k` is the one local
    /// position besides 0 at which their `S_4` digits differ.
    #[inline]
    pub(crate) fn step_dim(&self, a: u8, b: u8) -> u8 {
        let (da, db) = (&self.s4[a as usize], &self.s4[b as usize]);
        let k = if da[1] != db[1] {
            1
        } else if da[2] != db[2] {
            2
        } else {
            3
        };
        debug_assert!(
            da[0] == db[k] && db[0] == da[k] && (1..4).all(|j| j == k || da[j] == db[j]),
            "local ranks {a} and {b} are not adjacent"
        );
        self.fp[k]
    }

    /// The block this context lifts into.
    #[inline]
    pub(crate) fn block(&self) -> &Pattern {
        &self.block
    }

    /// The local `S_4` rank of a member vertex — equals
    /// `block.to_local(v).rank() as u8`.
    ///
    /// # Panics
    /// Debug builds panic if `v` is not a member of the block.
    #[inline]
    pub fn local_rank(&self, v: &Perm) -> u8 {
        let mut d = [0u8; 4];
        for (k, digit) in d.iter_mut().enumerate() {
            *digit = self.local_of[v.get(self.fp[k] as usize) as usize];
            debug_assert!(*digit != 0, "vertex {v} not a member of the block");
        }
        rank4(d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blocks_under_test() -> Vec<Pattern> {
        vec![
            Pattern::full(4),
            Pattern::from_spec(&[0, 3, 0, 0, 6, 0]).unwrap(),
            Pattern::from_spec(&[0, 0, 5, 0, 2, 0, 7]).unwrap(),
            Pattern::from_spec(&[0, 9, 0, 1, 0, 4, 0, 8, 5]).unwrap(),
        ]
    }

    #[test]
    fn rank4_matches_perm_rank() {
        for rank in 0..24u32 {
            let p = Perm::unrank(4, rank).unwrap();
            let mut d = [0u8; 4];
            d.copy_from_slice(p.as_slice());
            assert_eq!(rank4(d) as u32, rank);
        }
    }

    #[test]
    fn lift_rank_matches_from_local_exhaustively() {
        for block in blocks_under_test() {
            let ctx = BlockCtx::new(&block);
            for rank in 0..24u8 {
                let via_pattern = block.from_local(&Perm::unrank(4, rank as u32).unwrap());
                assert_eq!(ctx.lift_rank(rank), via_pattern, "{block} rank {rank}");
            }
        }
    }

    #[test]
    fn local_rank_inverts_lift() {
        for block in blocks_under_test() {
            let ctx = BlockCtx::new(&block);
            for (rank, v) in block.vertices().enumerate() {
                assert_eq!(ctx.local_rank(&v) as usize, rank, "{block}");
                assert_eq!(ctx.local_rank(&v) as u32, block.to_local(&v).rank());
            }
        }
    }

    #[test]
    fn step_dim_is_the_dimension_between_the_lifted_vertices() {
        for block in blocks_under_test() {
            let ctx = BlockCtx::new(&block);
            for a in 0..24u8 {
                for b in 0..24u8 {
                    let (u, v) = (ctx.lift_rank(a), ctx.lift_rank(b));
                    if u.is_adjacent(&v) {
                        let d = ctx.step_dim(a, b) as usize;
                        assert_eq!(u.star_move(d), v, "{block} {a} -> {b}");
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "4-vertex")]
    fn rejects_non_block_patterns() {
        BlockCtx::new(&Pattern::from_spec(&[0, 0, 3, 0]).unwrap());
    }
}
