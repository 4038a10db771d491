//! Exact Lehmer ranks along star moves that stay inside an `S_4` block.
//!
//! Fix four *free* positions `F = {0 = f_0 < f_1 < f_2 < f_3}`. A block
//! is the set of 24 vertices that agree at the other `n - 4` *pinned*
//! positions; a star move along `f_1`, `f_2` or `f_3` stays inside its
//! block. With `w_i = (n-1-i)!`, the Lehmer rank sums `w_i` over the
//! inversions `i < j, v_i > v_j`, and splitting those pairs by kind gives
//!
//! ```text
//! rank(v) = A + T[σ] + Σ_k G[k][σ(k)]
//! ```
//!
//! where `s_0 < s_1 < s_2 < s_3` are the block's free symbols and `σ(k)`
//! is the index of the symbol at `f_k` among them:
//!
//! - `A` counts the pinned–pinned inversions; it is the same for the
//!   whole block, so it cancels out of every step;
//! - `T[σ] = Σ_{k<l, σ(l)<σ(k)} w_{f_k}` counts the free–free ones: one
//!   24-entry table per `F` ([`BlockFrame`]);
//! - `G[k][m] = Σ_{pinned i<f_k, v_i>s_m} w_i + w_{f_k}·#{pinned j>f_k :
//!   v_j<s_m}` covers the mixed pairs: one 4×4 table per block
//!   ([`BlockRank`]), built in one pass over the positions up to `f_3`.
//!
//! A step along `f_k` swaps `σ(0)` and `σ(k)`, so the next rank is the
//! last one plus six table reads. [`PackedPerm::rank`] stays the
//! definition: these ranks equal it exactly, under any `F`.

use crate::packed::PackedPerm;
use crate::FACTORIALS;

/// The 24 permutations of `0..4` in lexicographic order: `S4[c]` is the
/// permutation whose Lehmer rank is `c`.
const S4: [[u8; 4]; 24] = {
    let mut table = [[0u8; 4]; 24];
    let mut c = 0;
    while c < 24 {
        let mut left = [0u8, 1, 2, 3];
        let mut len = 4;
        let digits = [c / 6, c % 6 / 2, c % 2, 0];
        let mut k = 0;
        while k < 4 {
            let d = digits[k];
            table[c][k] = left[d];
            let mut j = d;
            while j + 1 < len {
                left[j] = left[j + 1];
                j += 1;
            }
            len -= 1;
            k += 1;
        }
        c += 1;
    }
    table
};

/// The Lehmer rank of a permutation of `0..4`.
const fn s4_index(p: [u8; 4]) -> usize {
    let mut code = 0;
    let mut k = 0;
    while k < 4 {
        let mut smaller = 0;
        let mut l = k + 1;
        while l < 4 {
            if p[l] < p[k] {
                smaller += 1;
            }
            l += 1;
        }
        code += smaller * FACTORIALS[3 - k] as usize;
        k += 1;
    }
    code
}

/// `S4_MOVE[c][k - 1]` is the index of `S4[c]` with entries 0 and `k`
/// exchanged: the block's star move along `f_k`.
const S4_MOVE: [[u8; 3]; 24] = {
    let mut table = [[0u8; 3]; 24];
    let mut c = 0;
    while c < 24 {
        let mut k = 1;
        while k < 4 {
            let mut p = S4[c];
            p[0] = S4[c][k];
            p[k] = S4[c][0];
            table[c][k - 1] = s4_index(p) as u8;
            k += 1;
        }
        c += 1;
    }
    table
};

/// The per-`F` half of the in-block rank: the free positions, their
/// weights and the free–free inversion table `T`.
///
/// # Examples
///
/// ```
/// use star_perm::{block::BlockFrame, packed::PackedPerm, Perm};
///
/// let frame = BlockFrame::new(7, [2, 5, 3]);
/// assert_eq!(frame.free(), [0, 2, 3, 5]);
/// let mut v = PackedPerm::from_perm(&Perm::from_digits(7, 3517246));
/// let mut rank = v.rank() as u32;
/// let mut block = frame.enter(&v);
/// for d in [2, 5, 3, 2, 5] {
///     rank = block.step(&frame, rank, frame.slot(d));
///     v = v.star_move(d);
///     assert_eq!(rank as u64, v.rank());
/// }
/// ```
#[derive(Clone, Debug)]
pub struct BlockFrame {
    n: u8,
    /// `f_0 = 0 < f_1 < f_2 < f_3`.
    free: [u8; 4],
    /// `slot[d] = k` when `d = f_k` with `k >= 1`, else 0.
    slot: [u8; 16],
    /// `w_{f_k}`.
    weight: [u32; 4],
    /// `T[c]`: the free–free inversion weight of `σ = S4[c]`.
    free_pairs: [u32; 24],
}

impl BlockFrame {
    /// The frame whose free positions are 0 and the three star
    /// dimensions `dims`, in any order.
    ///
    /// # Panics
    /// Panics unless `4 <= n <= 12` and `dims` are three distinct
    /// dimensions in `1..n` (`12!` is the last factorial a `u32` rank
    /// holds).
    pub fn new(n: usize, mut dims: [usize; 3]) -> BlockFrame {
        assert!((4..=12).contains(&n), "no u32 block ranks for S_{n}");
        dims.sort_unstable();
        assert!(
            dims[0] >= 1 && dims[0] < dims[1] && dims[1] < dims[2] && dims[2] < n,
            "free dimensions {dims:?} are not three distinct dimensions of S_{n}"
        );
        let free = [0, dims[0] as u8, dims[1] as u8, dims[2] as u8];
        let weight = free.map(|f| FACTORIALS[n - 1 - f as usize] as u32);
        let mut slot = [0u8; 16];
        for k in 1..4 {
            slot[free[k] as usize] = k as u8;
        }
        let free_pairs = core::array::from_fn(|c| {
            let sigma = S4[c];
            let mut sum = 0;
            for k in 0..4 {
                for l in k + 1..4 {
                    if sigma[l] < sigma[k] {
                        sum += weight[k];
                    }
                }
            }
            sum
        });
        BlockFrame {
            n: n as u8,
            free,
            slot,
            weight,
            free_pairs,
        }
    }

    /// The free positions `[0, f_1, f_2, f_3]`.
    pub fn free(&self) -> [usize; 4] {
        self.free.map(usize::from)
    }

    /// `k` when star dimension `d` is the free position `f_k`, so a move
    /// along `d` stays in its block; 0 for every other `d`.
    #[inline(always)]
    pub fn slot(&self, d: usize) -> usize {
        self.slot[d] as usize
    }

    /// The mixed-pair table `G` of `v`'s block, and `v`'s place `σ` in
    /// it. One pass over the positions up to `f_3`: each pinned symbol is
    /// bucketed by how many free symbols lie below it, and at each `f_k`
    /// prefix and suffix sums over the buckets give row `k`.
    pub fn enter(&self, v: &PackedPerm) -> BlockRank {
        debug_assert_eq!(v.n(), self.n as usize);
        let n = self.n as usize;
        let bits = v.bits();
        let symbol = |pos: usize| ((bits >> (4 * pos)) & 0xF) as u32;
        let free_symbols = self
            .free
            .iter()
            .fold(0u32, |m, &f| m | 1 << symbol(f as usize));
        let free_below = |s: u32| (free_symbols & ((1 << s) - 1)).count_ones() as usize;
        let sigma = self.free.map(|f| free_below(symbol(f as usize)) as u8);
        // smaller[m]: the pinned symbols below s_m.
        let mut smaller = [0u32; 4];
        for (k, &f) in self.free.iter().enumerate() {
            smaller[sigma[k] as usize] = symbol(f as usize) - 1 - sigma[k] as u32;
        }
        let mut mixed = [[0u32; 4]; 4];
        mixed[0] = smaller.map(|c| self.weight[0] * c);
        // Per bucket b (free symbols below the pinned symbol): weight and
        // count of the pinned positions passed so far.
        let mut weight = [0u32; 5];
        let mut count = [0u32; 5];
        let mut k = 1;
        for (i, &w) in FACTORIALS[n - 1 - self.free[3] as usize..n]
            .iter()
            .rev()
            .enumerate()
            .skip(1)
        {
            if i == self.free[k] as usize {
                let (mut above, mut at_or_below) = (weight[4], 0);
                for m in (0..4).rev() {
                    mixed[k][m] = above;
                    above += weight[m];
                }
                for m in 0..4 {
                    at_or_below += count[m];
                    mixed[k][m] += self.weight[k] * (smaller[m] - at_or_below);
                }
                k += 1;
            } else {
                let b = free_below(symbol(i));
                weight[b] += w as u32;
                count[b] += 1;
            }
        }
        BlockRank {
            mixed,
            sigma: s4_index(sigma) as u8,
        }
    }
}

/// The per-block half of the in-block rank: `G` and the current `σ`.
/// [`BlockRank::step`] follows one star move along a free position.
#[derive(Clone, Debug, Default)]
pub struct BlockRank {
    /// `G[k][m]`.
    mixed: [[u32; 4]; 4],
    /// The index of `σ` in [`S4`].
    sigma: u8,
}

impl BlockRank {
    /// The rank after a star move along `f_k` (`k = frame.slot(d)` in
    /// `1..=3`) from a vertex of rank `rank`: `T[σ'] - T[σ]` plus the
    /// four `G` entries of the two symbols that trade places.
    #[inline(always)]
    pub fn step(&mut self, frame: &BlockFrame, rank: u32, k: usize) -> u32 {
        debug_assert!((1..4).contains(&k), "slot {k} is not a free position");
        let sigma = self.sigma as usize;
        let next = S4_MOVE[sigma][k - 1] as usize;
        let (a, b) = (S4[sigma][0] as usize, S4[sigma][k] as usize);
        let (g0, gk) = (&self.mixed[0], &self.mixed[k]);
        self.sigma = next as u8;
        rank.wrapping_add(frame.free_pairs[next])
            .wrapping_sub(frame.free_pairs[sigma])
            .wrapping_add(g0[b] + gk[a])
            .wrapping_sub(g0[a] + gk[b])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{factorial, Perm};

    #[test]
    fn s4_tables_are_lexicographic_and_moves_swap_entries() {
        for (c, p) in S4.iter().enumerate() {
            assert_eq!(s4_index(*p), c);
            let perm = Perm::from_slice(&p.map(|s| s + 1)).unwrap();
            assert_eq!(perm.rank() as usize, c);
            for k in 1..4 {
                let moved = S4[S4_MOVE[c][k - 1] as usize];
                assert_eq!((moved[0], moved[k]), (p[k], p[0]));
            }
        }
    }

    /// Every free-position set containing 0 in `S_n`.
    fn frames(n: usize) -> Vec<BlockFrame> {
        let mut out = Vec::new();
        for a in 1..n {
            for b in a + 1..n {
                for c in b + 1..n {
                    out.push(BlockFrame::new(n, [a, b, c]));
                }
            }
        }
        out
    }

    #[test]
    fn every_in_block_step_is_exact_for_n4_to_n7() {
        let mut steps = 0u64;
        for n in 4..=7usize {
            for frame in frames(n) {
                for r in 0..factorial(n) as u32 {
                    let v = PackedPerm::from_perm(&Perm::unrank(n, r).unwrap());
                    for &f in &frame.free()[1..] {
                        let mut block = frame.enter(&v);
                        let got = block.step(&frame, r, frame.slot(f));
                        assert_eq!(got as u64, v.star_move(f).rank(), "{v} along {f}");
                        steps += 1;
                    }
                }
            }
        }
        // C(n-1, 3) frames × n! vertices × 3 free dimensions.
        assert_eq!(steps, 72 + 1_440 + 21_600 + 302_400);
    }

    #[test]
    fn random_runs_of_in_block_steps_are_exact_for_n8_to_n12() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(0xB10C_4A4E);
        for n in 8..=12usize {
            for _ in 0..100_000 {
                let mut dims = [0usize; 3];
                for k in 0..3 {
                    dims[k] = loop {
                        let d = rng.random_range(1..n);
                        if !dims[..k].contains(&d) {
                            break d;
                        }
                    };
                }
                let frame = BlockFrame::new(n, dims);
                let r = rng.random_range(0..factorial(n) as u32);
                let mut v = PackedPerm::from_perm(&Perm::unrank(n, r).unwrap());
                let mut rank = r;
                let mut block = frame.enter(&v);
                for _ in 0..rng.random_range(1..=24usize) {
                    let d = dims[rng.random_range(0..3usize)];
                    rank = block.step(&frame, rank, frame.slot(d));
                    v = v.star_move(d);
                    assert_eq!(rank as u64, v.rank(), "{v} in frame {:?}", frame.free());
                }
            }
        }
    }

    #[test]
    fn slots_name_the_free_positions_only() {
        let frame = BlockFrame::new(9, [7, 1, 4]);
        assert_eq!(frame.free(), [0, 1, 4, 7]);
        let slots: Vec<usize> = (0..9).map(|d| frame.slot(d)).collect();
        assert_eq!(slots, [0, 1, 0, 0, 2, 0, 0, 3, 0]);
    }

    #[test]
    #[should_panic(expected = "not three distinct dimensions")]
    fn a_repeated_free_dimension_is_refused() {
        BlockFrame::new(6, [2, 2, 3]);
    }
}
