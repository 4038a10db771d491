//! Nibble-packed permutations: a whole [`Perm`] in one `u64`.
//!
//! A permutation of `1..=n` with `n <= PACKED_MAX_N` fits in `n` nibbles —
//! position `i` occupies bits `4i..4i+4`, holding the symbol (`1..=15`)
//! stored there, with unused high nibbles zero. For the workspace's
//! `n <= 12` that is a 8-byte value instead of the 13-byte (padded to 16)
//! [`Perm`], and the star-graph primitives become straight-line bit
//! arithmetic on one register:
//!
//! * [`PackedPerm::star_move`] is two shifts, two masked ORs;
//! * [`PackedPerm::first`] is a single mask;
//! * [`PackedPerm::is_adjacent`] is one XOR plus nibble inspection — no
//!   per-position loop over byte slices.
//!
//! The hot expansion core (`star-ring`'s flat-arena splice) manipulates
//! block templates and seam endpoints in this representation; conversion
//! to and from [`Perm`] is lossless and verified by property tests
//! (`crates/perm/tests/packed.rs`).

use crate::{Parity, Perm, PermError, FACTORIALS};

/// Maximum size a permutation may have and still pack into nibbles:
/// symbols `1..=15` fit a nibble, and 16 nibbles fill the `u64`. (The
/// workspace's [`crate::MAX_N`] is lower; the representation has slack.)
pub const PACKED_MAX_N: usize = 15;

/// A permutation of `1..=n` (`n <= PACKED_MAX_N`) packed 4 bits per
/// position into a `u64`.
///
/// Unused trailing nibbles are zero, so derived `Eq`/`Hash`/`Ord` agree
/// with [`Perm`]'s for equal sizes. The size `n` is carried alongside the
/// bits; two packed perms of different sizes are never equal because a
/// real symbol nibble is never zero.
///
/// # Examples
///
/// ```
/// use star_perm::{packed::PackedPerm, Perm};
///
/// let p = Perm::from_digits(5, 21345);
/// let q = PackedPerm::from_perm(&p);
/// assert_eq!(q.first(), 2);
/// assert_eq!(q.star_move(3).to_perm(), p.star_move(3));
/// assert_eq!(q.to_perm(), p);
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PackedPerm {
    n: u8,
    bits: u64,
}

/// Mask for the nibble at position `pos`.
#[inline(always)]
const fn nib_mask(pos: usize) -> u64 {
    0xF << (4 * pos)
}

impl PackedPerm {
    /// Packs a [`Perm`].
    ///
    /// # Panics
    /// Panics if `p.n() > PACKED_MAX_N` (unreachable while
    /// `crate::MAX_N <= PACKED_MAX_N`).
    #[inline]
    pub fn from_perm(p: &Perm) -> Self {
        let n = p.n();
        assert!(n <= PACKED_MAX_N, "size {n} does not pack into nibbles");
        let mut bits = 0u64;
        for (i, &s) in p.as_slice().iter().enumerate() {
            bits |= (s as u64) << (4 * i);
        }
        PackedPerm { n: n as u8, bits }
    }

    /// Unpacks back to a [`Perm`] (lossless inverse of
    /// [`PackedPerm::from_perm`]).
    #[inline]
    pub fn to_perm(&self) -> Perm {
        let n = self.n as usize;
        let mut buf = [0u8; PACKED_MAX_N];
        let mut bits = self.bits;
        for slot in buf.iter_mut().take(n) {
            *slot = (bits & 0xF) as u8;
            bits >>= 4;
        }
        Perm::from_slice(&buf[..n]).expect("packed bits hold a permutation")
    }

    /// Reassembles from raw parts, validating that `bits` encodes a
    /// permutation of `1..=n` in the low `n` nibbles with zero above.
    pub fn from_raw(n: usize, bits: u64) -> Result<Self, PermError> {
        if !(1..=PACKED_MAX_N).contains(&n) {
            return Err(PermError::SizeOutOfRange { n });
        }
        if n < 16 && (bits >> (4 * n)) != 0 {
            return Err(PermError::NotAPermutation);
        }
        let mut seen = 0u16;
        let mut b = bits;
        for _ in 0..n {
            let s = (b & 0xF) as usize;
            if s == 0 || s > n || seen >> s & 1 == 1 {
                return Err(PermError::NotAPermutation);
            }
            seen |= 1 << s;
            b >>= 4;
        }
        Ok(PackedPerm { n: n as u8, bits })
    }

    /// The raw nibble-packed bits (position `i` in bits `4i..4i+4`).
    #[inline(always)]
    pub fn bits(&self) -> u64 {
        self.bits
    }

    /// The permutation size `n`.
    #[inline(always)]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// The symbol at `pos` (0-based).
    ///
    /// # Panics
    /// Panics (debug builds) if `pos >= n`.
    #[inline(always)]
    pub fn get(&self, pos: usize) -> u8 {
        debug_assert!(pos < self.n as usize);
        ((self.bits >> (4 * pos)) & 0xF) as u8
    }

    /// The symbol at position 0 — the paper's "leftmost number".
    #[inline(always)]
    pub fn first(&self) -> u8 {
        (self.bits & 0xF) as u8
    }

    /// A copy with the symbols at positions `i` and `j` exchanged
    /// (mirrors [`Perm::swapped`]; a star move when one position is 0).
    #[inline(always)]
    pub fn swapped(&self, i: usize, j: usize) -> PackedPerm {
        debug_assert!(i < self.n as usize && j < self.n as usize);
        let a = (self.bits >> (4 * i)) & 0xF;
        let b = (self.bits >> (4 * j)) & 0xF;
        let bits = (self.bits & !(nib_mask(i) | nib_mask(j))) | (b << (4 * i)) | (a << (4 * j));
        PackedPerm { n: self.n, bits }
    }

    /// The neighbor along star dimension `d` (swap positions 0 and `d`).
    ///
    /// # Panics
    /// Panics (debug builds) if `d == 0` or `d >= n`.
    #[inline(always)]
    pub fn star_move(&self, d: usize) -> PackedPerm {
        debug_assert!(d >= 1 && d < self.n as usize, "invalid star dimension {d}");
        self.swapped(0, d)
    }

    /// The Lehmer rank: the position of this permutation in the
    /// lexicographic order of `S_n`, in `0..n!`. [`Perm::rank`] is this
    /// rank; [`Perm::unrank`] is its independent inverse.
    ///
    /// O(n) on one register: nibble `s` of `smaller` counts the symbols
    /// below `s` already placed, so the Lehmer digit of the symbol `s` at
    /// the current position (the smaller symbols still to its right) is
    /// `s - 1` minus that nibble — one shift and one mask. Placing `s`
    /// adds one to every nibble above it; no nibble exceeds `n - 1`, so
    /// no count carries into its neighbour.
    #[inline]
    pub fn rank(&self) -> u64 {
        const ONES: u64 = 0x1111_1111_1111_1111;
        let n = self.n as usize;
        let mut bits = self.bits;
        let mut smaller = 0u64;
        let mut rank = 0u64;
        // The last digit is always 0.
        for i in 0..n - 1 {
            let s = (bits & 0xF) as usize;
            let digit = (s as u64 - 1) - ((smaller >> (4 * s)) & 0xF);
            rank += digit * FACTORIALS[n - 1 - i];
            smaller += (ONES << (4 * s)) << 4;
            bits >>= 4;
        }
        rank
    }

    /// Returns `d` with `self.star_move(d) == other`, or `None` when not
    /// adjacent in `S_n`. One XOR finds the differing positions.
    #[inline]
    pub fn edge_dimension_to(&self, other: &PackedPerm) -> Option<usize> {
        if self.n != other.n {
            return None;
        }
        let mut diff = self.bits ^ other.bits;
        if diff == 0 || diff & 0xF == 0 {
            return None; // equal, or position 0 agrees
        }
        diff &= !0xF;
        if diff == 0 {
            return None; // only position 0 differs: not a permutation pair
        }
        let d = (diff.trailing_zeros() / 4) as usize;
        // All remaining difference must sit in nibble d, and the two
        // symbols must be exchanged.
        if diff & !nib_mask(d) != 0 {
            return None;
        }
        (self.first() == other.get(d) && self.get(d) == other.first()).then_some(d)
    }

    /// `true` iff the two packed permutations are adjacent in `S_n`.
    #[inline]
    pub fn is_adjacent(&self, other: &PackedPerm) -> bool {
        self.edge_dimension_to(other).is_some()
    }

    /// The permutation's parity (sign) — which partite set of `S_n` the
    /// vertex lies in. Cycle walk over nibbles, O(n) with no memory
    /// traffic beyond the register.
    pub fn parity(&self) -> Parity {
        let n = self.n as usize;
        let mut seen = 0u16;
        let mut transpositions = 0usize;
        for start in 0..n {
            if seen >> start & 1 == 1 {
                continue;
            }
            let mut i = start;
            let mut len = 0usize;
            while seen >> i & 1 == 0 {
                seen |= 1 << i;
                i = (((self.bits >> (4 * i)) & 0xF) - 1) as usize;
                len += 1;
            }
            transpositions += len - 1;
        }
        Parity::from_transposition_count(transpositions)
    }
}

impl From<Perm> for PackedPerm {
    #[inline]
    fn from(p: Perm) -> Self {
        PackedPerm::from_perm(&p)
    }
}

impl From<PackedPerm> for Perm {
    #[inline]
    fn from(p: PackedPerm) -> Self {
        p.to_perm()
    }
}

impl core::fmt::Display for PackedPerm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{}", self.to_perm())
    }
}

impl core::fmt::Debug for PackedPerm {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factorial;

    #[test]
    fn round_trip_exhaustive_small() {
        for n in 1..=5usize {
            for rank in 0..factorial(n) as u32 {
                let p = Perm::unrank(n, rank).unwrap();
                let q = PackedPerm::from_perm(&p);
                assert_eq!(q.to_perm(), p);
                assert_eq!(q.n(), n);
                for pos in 0..n {
                    assert_eq!(q.get(pos), p.get(pos));
                }
            }
        }
    }

    #[test]
    fn from_raw_validates() {
        let p = PackedPerm::from_perm(&Perm::identity(4));
        assert_eq!(PackedPerm::from_raw(4, p.bits()).unwrap(), p);
        // Zero nibble inside.
        assert!(PackedPerm::from_raw(4, 0x4301).is_err());
        // Duplicate symbol.
        assert!(PackedPerm::from_raw(4, 0x4311).is_err());
        // Symbol out of range.
        assert!(PackedPerm::from_raw(4, 0x5321).is_err());
        // Garbage above the top nibble.
        assert!(PackedPerm::from_raw(4, 0x1_4321).is_err());
        assert!(PackedPerm::from_raw(0, 0).is_err());
    }

    #[test]
    fn star_move_matches_perm() {
        let p = Perm::from_digits(6, 316254);
        let q = PackedPerm::from_perm(&p);
        for d in 1..6 {
            assert_eq!(q.star_move(d).to_perm(), p.star_move(d), "d={d}");
            assert_eq!(q.star_move(d).star_move(d), q);
        }
    }

    #[test]
    fn adjacency_matches_perm_exhaustive_s4() {
        for a in 0..24u32 {
            for b in 0..24u32 {
                let pa = Perm::unrank(4, a).unwrap();
                let pb = Perm::unrank(4, b).unwrap();
                let qa = PackedPerm::from_perm(&pa);
                let qb = PackedPerm::from_perm(&pb);
                assert_eq!(
                    qa.edge_dimension_to(&qb),
                    pa.edge_dimension_to(&pb),
                    "{pa} vs {pb}"
                );
                assert_eq!(qa.is_adjacent(&qb), pa.is_adjacent(&pb));
            }
        }
    }

    #[test]
    fn parity_matches_perm() {
        for n in [3usize, 5, 7] {
            for rank in (0..factorial(n) as u32).step_by(17) {
                let p = Perm::unrank(n, rank).unwrap();
                assert_eq!(PackedPerm::from_perm(&p).parity(), p.parity(), "{p}");
            }
        }
    }

    #[test]
    fn different_sizes_never_equal() {
        let a = PackedPerm::from_perm(&Perm::identity(3));
        let b = PackedPerm::from_perm(&Perm::identity(4));
        assert_ne!(a, b);
        assert!(!a.is_adjacent(&b));
    }

    #[test]
    fn max_packable_size_round_trips() {
        let syms: Vec<u8> = (1..=PACKED_MAX_N as u8).rev().collect();
        let p = Perm::from_slice(&syms[PACKED_MAX_N - crate::MAX_N..]).unwrap();
        let q = PackedPerm::from_perm(&p);
        assert_eq!(q.to_perm(), p);
    }
}
