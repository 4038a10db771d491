//! Iteration over all permutations of `1..=n`.

use crate::{factorial, Perm, MAX_N};

/// Iterates over every permutation of `1..=n` in lexicographic (rank)
/// order. The iterator is `ExactSizeIterator` with length `n!`.
///
/// Generation is incremental (Knuth's next-permutation), not per-item
/// unranking, so a full sweep of `S_n` costs O(n!) amortized swaps.
#[derive(Debug, Clone)]
pub struct PermIter {
    current: Option<Perm>,
    remaining: u64,
}

impl PermIter {
    /// All permutations of `1..=n` starting from the identity.
    ///
    /// # Panics
    /// Panics if `n` is outside `1..=MAX_N`.
    pub fn new(n: usize) -> Self {
        assert!((1..=MAX_N).contains(&n), "PermIter size {n} out of range");
        PermIter {
            current: Some(Perm::identity(n)),
            remaining: factorial(n),
        }
    }
}

/// Advances `data` to its lexicographic successor; returns `false` if it
/// was the last permutation (the symbols need not be `1..=n`).
pub fn next_permutation(data: &mut [u8]) -> bool {
    let n = data.len();
    if n < 2 {
        return false;
    }
    // Longest non-increasing suffix.
    let mut i = n - 1;
    while i > 0 && data[i - 1] >= data[i] {
        i -= 1;
    }
    if i == 0 {
        return false;
    }
    // Rightmost element greater than the pivot data[i-1].
    let mut j = n - 1;
    while data[j] <= data[i - 1] {
        j -= 1;
    }
    data.swap(i - 1, j);
    data[i..].reverse();
    true
}

impl Iterator for PermIter {
    type Item = Perm;

    fn next(&mut self) -> Option<Perm> {
        let cur = self.current?;
        self.remaining -= 1;
        let mut buf = [0u8; MAX_N];
        let n = cur.n();
        buf[..n].copy_from_slice(cur.as_slice());
        self.current = if next_permutation(&mut buf[..n]) {
            Some(Perm::from_slice(&buf[..n]).expect("successor is a permutation"))
        } else {
            None
        };
        Some(cur)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let r = self.remaining as usize;
        (r, Some(r))
    }
}

impl ExactSizeIterator for PermIter {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn yields_n_factorial_distinct_perms_in_rank_order() {
        let all: Vec<Perm> = PermIter::new(5).collect();
        assert_eq!(all.len(), 120);
        for (expected_rank, p) in all.iter().enumerate() {
            assert_eq!(p.rank() as usize, expected_rank);
        }
    }

    #[test]
    fn size_hint_is_exact() {
        let mut it = PermIter::new(4);
        assert_eq!(it.len(), 24);
        it.next();
        it.next();
        assert_eq!(it.len(), 22);
    }

    #[test]
    fn n_equals_one() {
        let all: Vec<Perm> = PermIter::new(1).collect();
        assert_eq!(all, vec![Perm::identity(1)]);
    }
}
