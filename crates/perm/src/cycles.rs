//! Cycle structure of a permutation, as used by the exact star-graph
//! distance formula of Akers and Krishnamurthy (1989).
//!
//! Sorting a vertex `p` of `S_n` to the identity by star moves is the
//! "repeatedly swap the first symbol home" process, and the minimum number
//! of moves depends only on the cycle structure of `p`. With `t` the total
//! number of symbols on nontrivial cycles and `c` the number of nontrivial
//! cycles:
//!
//! ```text
//! d(p, id) = t + c       if position 0 is a fixed point of p,
//! d(p, id) = t + c - 2   if position 0 lies on a nontrivial cycle
//! ```
//!
//! (a cycle through the pivot is entered and exited for free). The formula
//! is cross-validated against BFS for small `n` in `star-graph`'s tests.
//!
//! The same decomposition, with the cycle through position 0 marked and
//! walked in order, is what classifies a permutation under conjugation by
//! the stabilizer of symbol 1: `star-oracle`'s canonical search reads the
//! marked cycle type off [`CycleStructure`] and builds its conjugators
//! from the recorded cycles.

use crate::{Perm, MAX_N};

/// Cycle decomposition summary of a permutation, relative to the identity.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CycleStructure {
    /// Number of symbols that are not at their home position.
    pub displaced: usize,
    /// Number of cycles of length >= 2 in the decomposition.
    pub nontrivial_cycles: usize,
    /// Whether position 0 lies on a cycle of length >= 2.
    pub zero_on_nontrivial_cycle: bool,
    /// Lengths of all nontrivial cycles, in order of their smallest
    /// position.
    pub cycle_lengths: Vec<usize>,
    /// Smallest position on each nontrivial cycle, parallel to
    /// `cycle_lengths` (so ascending).
    pub cycle_starts: Vec<usize>,
    /// The cycle through position 0, walked from 0: `zero_cycle[t]` is
    /// where `t` steps of `position -> symbol - 1` take position 0. Just
    /// `[0]` when position 0 is a fixed point.
    pub zero_cycle: Vec<usize>,
}

impl CycleStructure {
    /// Computes the cycle structure of `p` (as a map `position -> symbol`,
    /// with home position of symbol `s` being `s - 1`).
    pub fn of(p: &Perm) -> Self {
        let n = p.n();
        let mut seen = [false; MAX_N];
        let mut displaced = 0usize;
        let mut nontrivial = 0usize;
        let mut lengths = Vec::new();
        let mut starts = Vec::new();
        let mut zero_cycle = Vec::new();
        for start in 0..n {
            if seen[start] {
                continue;
            }
            let mut len = 0usize;
            let mut i = start;
            while !seen[i] {
                seen[i] = true;
                if start == 0 {
                    // Position 0 is the smallest position, so its cycle is
                    // the first one walked, and walked from 0.
                    zero_cycle.push(i);
                }
                i = (p.get(i) - 1) as usize;
                len += 1;
            }
            if len >= 2 {
                nontrivial += 1;
                displaced += len;
                lengths.push(len);
                starts.push(start);
            }
        }
        CycleStructure {
            displaced,
            nontrivial_cycles: nontrivial,
            zero_on_nontrivial_cycle: zero_cycle.len() >= 2,
            cycle_lengths: lengths,
            cycle_starts: starts,
            zero_cycle,
        }
    }

    /// The nontrivial cycles that avoid position 0, as
    /// `(smallest position, length)`.
    pub fn cycles_avoiding_zero(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.cycle_starts
            .iter()
            .zip(&self.cycle_lengths)
            .filter(|&(&start, _)| start != 0)
            .map(|(&start, &len)| (start, len))
    }

    /// Exact star-graph distance from the permutation to the identity
    /// (Akers–Krishnamurthy): with `t` = displaced symbols and `c` =
    /// nontrivial cycles,
    ///
    /// * `d = t + c`     if position 0 holds its own symbol (symbol 1), and
    /// * `d = t + c - 2` otherwise (the cycle through position 0 is entered
    ///   for free and exited for free).
    pub fn star_distance_to_identity(&self) -> usize {
        if self.displaced == 0 {
            return 0;
        }
        if self.zero_on_nontrivial_cycle {
            self.displaced + self.nontrivial_cycles - 2
        } else {
            self.displaced + self.nontrivial_cycles
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_has_no_cycles() {
        let c = CycleStructure::of(&Perm::identity(6));
        assert_eq!(c.displaced, 0);
        assert_eq!(c.nontrivial_cycles, 0);
        assert!(!c.zero_on_nontrivial_cycle);
        assert_eq!(c.zero_cycle, vec![0]);
        assert_eq!(c.star_distance_to_identity(), 0);
    }

    #[test]
    fn single_transposition_with_zero() {
        // 2134: one 2-cycle through position 0 -> distance 2 + 1 - 2 = 1.
        let c = CycleStructure::of(&Perm::from_digits(4, 2134));
        assert_eq!(c.displaced, 2);
        assert_eq!(c.nontrivial_cycles, 1);
        assert!(c.zero_on_nontrivial_cycle);
        assert_eq!(c.star_distance_to_identity(), 1);
    }

    #[test]
    fn single_transposition_without_zero() {
        // 1324: one 2-cycle avoiding position 0 -> distance 2 + 1 = 3
        // (1324 -> 3124 -> 2134 -> 1234).
        let c = CycleStructure::of(&Perm::from_digits(4, 1324));
        assert_eq!(c.displaced, 2);
        assert_eq!(c.nontrivial_cycles, 1);
        assert!(!c.zero_on_nontrivial_cycle);
        assert_eq!(c.star_distance_to_identity(), 3);
    }

    #[test]
    fn three_cycle_through_zero() {
        // 2314: positions 0->1->2->0 form a 3-cycle; d = 3 + 1 - 2 = 2.
        let p = Perm::from_digits(4, 2314);
        let c = CycleStructure::of(&p);
        assert_eq!(c.displaced, 3);
        assert_eq!(c.nontrivial_cycles, 1);
        assert!(c.zero_on_nontrivial_cycle);
        assert_eq!(c.star_distance_to_identity(), 2);
    }

    #[test]
    fn cycle_lengths_recorded() {
        // 21435: two 2-cycles.
        let c = CycleStructure::of(&Perm::from_digits(5, 21435));
        let mut ls = c.cycle_lengths.clone();
        ls.sort_unstable();
        assert_eq!(ls, vec![2, 2]);
        // One through 0 (free entry), one not: d = 4 + 2 - 2 = 4.
        assert_eq!(c.star_distance_to_identity(), 4);
    }

    #[test]
    fn cycles_are_recorded_with_their_members() {
        // 3516247 is (0 2)(1 4)(3 5) on positions, with position 6 fixed.
        let p = Perm::from_digits(7, 3516247);
        let c = CycleStructure::of(&p);
        assert_eq!(c.cycle_lengths, vec![2, 2, 2]);
        assert_eq!(c.cycle_starts, vec![0, 1, 3]);
        assert_eq!(c.zero_cycle, vec![0, 2]);
        // A 4-cycle through 0, walked in order: 0 -> 3 -> 1 -> 2 -> 0.
        let p = Perm::from_digits(5, 43125);
        let c = CycleStructure::of(&p);
        assert_eq!(c.zero_cycle, vec![0, 3, 1, 2]);
        assert_eq!(c.cycle_lengths, vec![4]);
        assert_eq!(c.cycle_starts, vec![0]);
        // Position 0 fixed: its cycle is just [0], and the other cycles
        // keep their smallest positions as starts.
        let c = CycleStructure::of(&Perm::from_digits(5, 13254));
        assert_eq!(c.zero_cycle, vec![0]);
        assert_eq!(c.cycle_starts, vec![1, 3]);
        assert_eq!(
            c.cycles_avoiding_zero().collect::<Vec<_>>(),
            [(1, 2), (3, 2)]
        );
        // With position 0 on a cycle, that cycle is the one left out.
        let c = CycleStructure::of(&Perm::from_digits(7, 3516247));
        assert_eq!(
            c.cycles_avoiding_zero().collect::<Vec<_>>(),
            [(1, 2), (3, 2)]
        );
    }
}
