//! The [`Perm`] type: a compact permutation of `1..=n`, `n <= MAX_N`.

use core::fmt;

use crate::{factorial, Parity, PermError};

/// Maximum supported permutation size.
///
/// `12! = 479_001_600 < 2^32`, so every vertex of `S_n` for `n <= MAX_N`
/// has a `u32` Lehmer rank; rings over `S_n` are stored as `Vec<u32>`.
pub const MAX_N: usize = 12;

/// A permutation of the symbols `1..=n` stored inline (no heap).
///
/// `Perm` is the vertex type of the star graph `S_n`: position 0 holds the
/// "first" symbol of the paper, and the star move along dimension `d`
/// (`1 <= d <= n-1`) swaps positions `0` and `d`.
///
/// # Examples
///
/// ```
/// use star_perm::Perm;
///
/// let p = Perm::from_digits(4, 1234);
/// let q = p.star_move(2); // swap positions 0 and 2
/// assert_eq!(q.to_string(), "3214");
/// assert!(p.is_adjacent(&q));
/// assert_eq!(Perm::unrank(4, p.rank()).unwrap(), p);
/// ```
///
/// Unused trailing slots are zeroed so that derived `Eq`/`Hash`/`Ord` are
/// well-defined across values of different sizes.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Perm {
    n: u8,
    data: [u8; MAX_N],
}

impl Perm {
    /// The identity permutation `1 2 3 ... n`.
    ///
    /// # Panics
    /// Panics if `n` is outside `1..=MAX_N`.
    pub fn identity(n: usize) -> Self {
        assert!((1..=MAX_N).contains(&n), "Perm size {n} out of range");
        let mut data = [0u8; MAX_N];
        for (i, slot) in data.iter_mut().enumerate().take(n) {
            *slot = (i + 1) as u8;
        }
        Perm { n: n as u8, data }
    }

    /// Builds a permutation from a slice of symbols, validating that it is a
    /// permutation of `1..=len`.
    pub fn from_slice(symbols: &[u8]) -> Result<Self, PermError> {
        let n = symbols.len();
        if !(1..=MAX_N).contains(&n) {
            return Err(PermError::SizeOutOfRange { n });
        }
        let mut seen = [false; MAX_N + 1];
        let mut data = [0u8; MAX_N];
        for (i, &s) in symbols.iter().enumerate() {
            if s == 0 || s as usize > n || seen[s as usize] {
                return Err(PermError::NotAPermutation);
            }
            seen[s as usize] = true;
            data[i] = s;
        }
        Ok(Perm { n: n as u8, data })
    }

    /// Builds a permutation from a slice the caller has already proven
    /// valid (e.g. produced by substituting a permutation of free symbols
    /// into a pattern template). Skips the duplicate/range validation of
    /// [`Perm::from_slice`] in release builds — the hot block-lift loop
    /// constructs hundreds of thousands of vertices per embed and the
    /// check is pure overhead there — but still debug-asserts it, so test
    /// builds catch a bad caller immediately.
    ///
    /// # Panics
    /// Panics if `symbols.len()` is outside `1..=MAX_N`; debug builds also
    /// panic if the slice is not a permutation of `1..=len`.
    #[inline]
    pub fn from_slice_trusted(symbols: &[u8]) -> Self {
        let n = symbols.len();
        assert!((1..=MAX_N).contains(&n), "Perm size {n} out of range");
        debug_assert!(
            Perm::from_slice(symbols).is_ok(),
            "from_slice_trusted given a non-permutation: {symbols:?}"
        );
        let mut data = [0u8; MAX_N];
        data[..n].copy_from_slice(symbols);
        Perm { n: n as u8, data }
    }

    /// Convenience constructor from digits, e.g. `Perm::from_digits(4, 2134)`
    /// builds the permutation `2 1 3 4`. Only usable for `n <= 9`.
    ///
    /// # Panics
    /// Panics if the digits do not form a permutation of `1..=n`.
    pub fn from_digits(n: usize, digits: u64) -> Self {
        assert!(n <= 9, "from_digits only supports n <= 9");
        let mut buf = [0u8; MAX_N];
        let mut v = digits;
        for i in (0..n).rev() {
            buf[i] = (v % 10) as u8;
            v /= 10;
        }
        assert_eq!(v, 0, "digit count does not match n = {n}");
        Perm::from_slice(&buf[..n]).expect("digits must form a permutation of 1..=n")
    }

    /// The permutation size `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// The symbols as a slice of length `n`.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        &self.data[..self.n as usize]
    }

    /// The symbol at `pos` (0-based).
    ///
    /// # Panics
    /// Panics (in debug builds, via slice indexing) if `pos >= n`.
    #[inline]
    pub fn get(&self, pos: usize) -> u8 {
        self.as_slice()[pos]
    }

    /// The position (0-based) holding `symbol`.
    ///
    /// # Panics
    /// Panics if `symbol` is not in `1..=n` (it is then absent).
    #[inline]
    pub fn position_of(&self, symbol: u8) -> usize {
        self.as_slice()
            .iter()
            .position(|&s| s == symbol)
            .unwrap_or_else(|| panic!("symbol {symbol} absent from permutation"))
    }

    /// The symbol at position 0 — the paper's "leftmost number".
    #[inline]
    pub fn first(&self) -> u8 {
        self.data[0]
    }

    /// The neighbor of this vertex along dimension `d` in `S_n`: the
    /// permutation with positions `0` and `d` swapped.
    ///
    /// # Panics
    /// Panics if `d == 0` or `d >= n` — dimension 0 is the pivot itself and
    /// not a valid edge dimension.
    #[inline]
    pub fn star_move(&self, d: usize) -> Perm {
        assert!(d >= 1 && d < self.n as usize, "invalid star dimension {d}");
        let mut out = *self;
        out.data.swap(0, d);
        out
    }

    /// In-place variant of [`Perm::star_move`].
    #[inline]
    pub fn star_move_in_place(&mut self, d: usize) {
        assert!(d >= 1 && d < self.n as usize, "invalid star dimension {d}");
        self.data.swap(0, d);
    }

    /// Iterator over the `n-1` neighbors of this vertex in `S_n`, in
    /// dimension order `1..n`.
    pub fn neighbors(&self) -> impl Iterator<Item = Perm> + '_ {
        (1..self.n as usize).map(move |d| self.star_move(d))
    }

    /// Returns the dimension `d` such that `self.star_move(d) == other`, or
    /// `None` if the two permutations are not adjacent in `S_n`.
    pub fn edge_dimension_to(&self, other: &Perm) -> Option<usize> {
        if self.n != other.n {
            return None;
        }
        let n = self.n as usize;
        // Adjacent iff they differ exactly at positions {0, d} and the
        // symbols there are swapped.
        let mut diff = [0usize; 2];
        let mut count = 0;
        for i in 0..n {
            if self.data[i] != other.data[i] {
                if count == 2 {
                    return None;
                }
                diff[count] = i;
                count += 1;
            }
        }
        if count != 2 || diff[0] != 0 {
            return None;
        }
        let d = diff[1];
        if self.data[0] == other.data[d] && self.data[d] == other.data[0] {
            Some(d)
        } else {
            None
        }
    }

    /// `true` iff the two permutations are adjacent in `S_n`.
    #[inline]
    pub fn is_adjacent(&self, other: &Perm) -> bool {
        self.edge_dimension_to(other).is_some()
    }

    /// The parity (sign) of the permutation: which partite set of `S_n` the
    /// vertex belongs to. Computed from the cycle decomposition in O(n).
    pub fn parity(&self) -> Parity {
        let n = self.n as usize;
        let mut seen = [false; MAX_N];
        let mut transpositions = 0usize;
        for start in 0..n {
            if seen[start] {
                continue;
            }
            // Walk the cycle containing `start`; a cycle of length L
            // contributes L-1 transpositions.
            let mut len = 0usize;
            let mut i = start;
            while !seen[i] {
                seen[i] = true;
                i = (self.data[i] - 1) as usize;
                len += 1;
            }
            transpositions += len - 1;
        }
        Parity::from_transposition_count(transpositions)
    }

    /// The group-inverse permutation `p^{-1}` (with `p` viewed as the map
    /// `position -> symbol`, the inverse maps `symbol -> position + 1`).
    pub fn inverse(&self) -> Perm {
        let n = self.n as usize;
        let mut data = [0u8; MAX_N];
        for i in 0..n {
            data[(self.data[i] - 1) as usize] = (i + 1) as u8;
        }
        Perm { n: self.n, data }
    }

    /// Function composition `(self ∘ other)(i) = self[other[i]]`, i.e.
    /// relabel `other`'s output through `self`.
    pub fn compose(&self, other: &Perm) -> Perm {
        assert_eq!(self.n, other.n, "composing perms of different sizes");
        let n = self.n as usize;
        let mut data = [0u8; MAX_N];
        for (slot, &o) in data.iter_mut().zip(&other.data[..n]) {
            *slot = self.data[(o - 1) as usize];
        }
        Perm { n: self.n, data }
    }

    /// The Lehmer rank of the permutation: a bijection onto `0..n!` in
    /// lexicographic order. Fits a `u32` because `n <= 12`. Computed by
    /// [`PackedPerm::rank`](crate::packed::PackedPerm::rank).
    #[inline]
    pub fn rank(&self) -> u32 {
        crate::packed::PackedPerm::from_perm(self).rank() as u32
    }

    /// Inverse of [`Perm::rank`]: the permutation of `1..=n` with the given
    /// lexicographic rank.
    pub fn unrank(n: usize, rank: u32) -> Result<Perm, PermError> {
        if !(1..=MAX_N).contains(&n) {
            return Err(PermError::SizeOutOfRange { n });
        }
        if (rank as u64) >= factorial(n) {
            return Err(PermError::RankOutOfRange {
                rank: rank as u64,
                n,
            });
        }
        let mut pool: [u8; MAX_N] = [0; MAX_N];
        for (i, slot) in pool.iter_mut().enumerate().take(n) {
            *slot = (i + 1) as u8;
        }
        let mut remaining = rank as u64;
        let mut data = [0u8; MAX_N];
        let mut pool_len = n;
        for (i, slot) in data.iter_mut().enumerate().take(n) {
            let f = factorial(n - 1 - i);
            let idx = (remaining / f) as usize;
            remaining %= f;
            *slot = pool[idx];
            // Remove pool[idx], preserving order.
            pool.copy_within(idx + 1..pool_len, idx);
            pool_len -= 1;
        }
        Ok(Perm { n: n as u8, data })
    }

    /// Swaps the symbols at two arbitrary positions. Not a star move unless
    /// one of the positions is 0; used by pattern machinery and tests.
    pub fn swapped(&self, i: usize, j: usize) -> Perm {
        let n = self.n as usize;
        assert!(i < n && j < n, "swap positions out of range");
        let mut out = *self;
        out.data.swap(i, j);
        out
    }
}

impl fmt::Display for Perm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.n <= 9 {
            for &s in self.as_slice() {
                write!(f, "{s}")?;
            }
            Ok(())
        } else {
            let mut first = true;
            for &s in self.as_slice() {
                if !first {
                    write!(f, ".")?;
                }
                write!(f, "{s}")?;
                first = false;
            }
            Ok(())
        }
    }
}

impl fmt::Debug for Perm {
    // Permutations read best as symbol strings, so Debug == Display.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

impl core::str::FromStr for Perm {
    type Err = PermError;

    /// Parses the [`fmt::Display`] format back: digit strings for
    /// `n <= 9` (`"3142"`), dot-separated symbols otherwise
    /// (`"10.2.3.1.4.5.6.7.8.9.11"`).
    fn from_str(text: &str) -> Result<Self, PermError> {
        let symbols: Vec<u8> = if text.contains('.') {
            text.split('.')
                .map(|t| t.parse::<u8>().map_err(|_| PermError::NotAPermutation))
                .collect::<Result<_, _>>()?
        } else {
            text.chars()
                .map(|c| {
                    c.to_digit(10)
                        .map(|d| d as u8)
                        .ok_or(PermError::NotAPermutation)
                })
                .collect::<Result<_, _>>()?
        };
        Perm::from_slice(&symbols)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_and_accessors() {
        let p = Perm::identity(5);
        assert_eq!(p.n(), 5);
        assert_eq!(p.as_slice(), &[1, 2, 3, 4, 5]);
        assert_eq!(p.first(), 1);
        assert_eq!(p.get(3), 4);
        assert_eq!(p.position_of(4), 3);
    }

    #[test]
    fn from_slice_validates() {
        assert!(Perm::from_slice(&[2, 1, 3]).is_ok());
        assert_eq!(
            Perm::from_slice(&[1, 1, 3]),
            Err(PermError::NotAPermutation)
        );
        assert_eq!(
            Perm::from_slice(&[1, 2, 4]),
            Err(PermError::NotAPermutation)
        );
        assert_eq!(
            Perm::from_slice(&[]),
            Err(PermError::SizeOutOfRange { n: 0 })
        );
    }

    #[test]
    fn from_digits_builds_expected() {
        let p = Perm::from_digits(4, 2134);
        assert_eq!(p.as_slice(), &[2, 1, 3, 4]);
    }

    #[test]
    fn star_move_swaps_first_and_d() {
        let p = Perm::from_digits(4, 1234);
        assert_eq!(p.star_move(1).as_slice(), &[2, 1, 3, 4]);
        assert_eq!(p.star_move(3).as_slice(), &[4, 2, 3, 1]);
        // Involution: applying the same move twice returns.
        assert_eq!(p.star_move(2).star_move(2), p);
    }

    #[test]
    fn neighbors_count_and_distinct() {
        let p = Perm::identity(6);
        let ns: Vec<Perm> = p.neighbors().collect();
        assert_eq!(ns.len(), 5);
        for (i, a) in ns.iter().enumerate() {
            assert!(a.is_adjacent(&p));
            for b in &ns[i + 1..] {
                assert_ne!(a, b);
            }
        }
    }

    #[test]
    fn edge_dimension_detection() {
        let p = Perm::from_digits(5, 12345);
        let q = p.star_move(4);
        assert_eq!(p.edge_dimension_to(&q), Some(4));
        assert_eq!(q.edge_dimension_to(&p), Some(4));
        // Non-adjacent: differs in a 3-cycle.
        let r = Perm::from_digits(5, 23145);
        assert_eq!(p.edge_dimension_to(&r), None);
        // Identical perms are not adjacent.
        assert_eq!(p.edge_dimension_to(&p), None);
    }

    #[test]
    fn parity_flips_on_star_moves() {
        let p = Perm::identity(7);
        assert_eq!(p.parity(), Parity::Even);
        let q = p.star_move(3);
        assert_eq!(q.parity(), Parity::Odd);
        assert_eq!(q.star_move(5).parity(), Parity::Even);
    }

    #[test]
    fn parity_matches_inversion_count() {
        for rank in 0..24u32 {
            let p = Perm::unrank(4, rank).unwrap();
            let s = p.as_slice();
            let mut inv = 0;
            for i in 0..4 {
                for j in i + 1..4 {
                    if s[i] > s[j] {
                        inv += 1;
                    }
                }
            }
            assert_eq!(p.parity(), Parity::from_transposition_count(inv), "{p}");
        }
    }

    #[test]
    fn inverse_composes_to_identity() {
        let p = Perm::from_digits(6, 316254);
        assert_eq!(p.compose(&p.inverse()), Perm::identity(6));
        assert_eq!(p.inverse().compose(&p), Perm::identity(6));
    }

    #[test]
    fn rank_unrank_roundtrip_s5() {
        for rank in 0..120u32 {
            let p = Perm::unrank(5, rank).unwrap();
            assert_eq!(p.rank(), rank);
        }
    }

    #[test]
    fn rank_is_lexicographic() {
        let mut prev = Perm::unrank(4, 0).unwrap();
        for rank in 1..24u32 {
            let cur = Perm::unrank(4, rank).unwrap();
            assert!(cur.as_slice() > prev.as_slice(), "lex order at rank {rank}");
            prev = cur;
        }
    }

    #[test]
    fn rank_extremes() {
        assert_eq!(Perm::identity(8).rank(), 0);
        let rev = Perm::from_slice(&[8, 7, 6, 5, 4, 3, 2, 1]).unwrap();
        assert_eq!(rev.rank() as u64, factorial(8) - 1);
        assert!(Perm::unrank(4, 24).is_err());
    }

    #[test]
    fn display_small_and_large() {
        assert_eq!(Perm::from_digits(4, 3142).to_string(), "3142");
        let big = Perm::identity(11);
        assert_eq!(big.to_string(), "1.2.3.4.5.6.7.8.9.10.11");
    }

    #[test]
    fn from_str_roundtrips_display() {
        for p in [
            Perm::from_digits(4, 3142),
            Perm::identity(9),
            Perm::from_slice(&[10, 2, 3, 1, 4, 5, 6, 7, 8, 9, 11]).unwrap(),
        ] {
            let parsed: Perm = p.to_string().parse().unwrap();
            assert_eq!(parsed, p);
        }
        assert!("31x2".parse::<Perm>().is_err());
        assert!("1123".parse::<Perm>().is_err());
        assert!("".parse::<Perm>().is_err());
        assert!("10.2".parse::<Perm>().is_err()); // not a permutation of 1..=2
    }
}
