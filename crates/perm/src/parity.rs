//! Permutation parity — the bipartition of the star graph.
//!
//! `S_n` is bipartite: every star move is a transposition, so it flips the
//! sign of the permutation, and the two partite sets are exactly the even
//! and odd permutations (each of size `n!/2`). The paper's worst-case
//! optimality argument (`n! - 2|F_v|` is maximal when all faults share a
//! partite set) is a direct consequence.

use core::fmt;
use core::ops::Not;

/// The sign of a permutation; equivalently, which partite set of `S_n` a
/// vertex belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Parity {
    /// Even permutations (the identity's side).
    Even,
    /// Odd permutations.
    Odd,
}

impl Parity {
    /// Parity from the number of transpositions (or inversions) mod 2.
    #[inline]
    pub(crate) fn from_transposition_count(count: usize) -> Self {
        if count.is_multiple_of(2) {
            Parity::Even
        } else {
            Parity::Odd
        }
    }

    /// `true` for [`Parity::Even`].
    #[inline]
    pub fn is_even(self) -> bool {
        matches!(self, Parity::Even)
    }

    /// The parity obtained after applying one more transposition (one star
    /// move).
    #[inline]
    pub fn flipped(self) -> Self {
        match self {
            Parity::Even => Parity::Odd,
            Parity::Odd => Parity::Even,
        }
    }

    /// 0 for even, 1 for odd — handy as an array index.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Parity::Even => 0,
            Parity::Odd => 1,
        }
    }
}

impl Not for Parity {
    type Output = Parity;

    #[inline]
    fn not(self) -> Parity {
        self.flipped()
    }
}

impl fmt::Display for Parity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Parity::Even => write!(f, "even"),
            Parity::Odd => write!(f, "odd"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flip_is_involutive() {
        assert_eq!(Parity::Even.flipped().flipped(), Parity::Even);
        assert_eq!(Parity::Odd.flipped(), Parity::Even);
        assert_eq!(!Parity::Even, Parity::Odd);
    }

    #[test]
    fn from_count() {
        assert_eq!(Parity::from_transposition_count(0), Parity::Even);
        assert_eq!(Parity::from_transposition_count(7), Parity::Odd);
    }

    #[test]
    fn indexing() {
        assert_eq!(Parity::Even.index(), 0);
        assert_eq!(Parity::Odd.index(), 1);
    }
}
