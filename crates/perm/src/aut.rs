//! Automorphisms of the star graph `S_n`.
//!
//! `S_n` is the Cayley graph of `Sym(n)` with the generating set
//! `T = { (1, i) : 2 <= i <= n }` (our `star_move(d)` right-multiplies by
//! the transposition `(1, d+1)`). Its automorphism group is
//!
//! ```text
//! Aut(S_n) = { p ↦ g ∘ p ∘ h : g ∈ Sym(n), h ∈ Stab_1 }
//! ```
//!
//! where `Stab_1 = { h : h(1) = 1 }` is the stabilizer of symbol 1 —
//! left multiplication by any `g` permutes vertices freely (Cayley graphs
//! are vertex-transitive), while right multiplication must normalize the
//! generating set, and `h^{-1} (1, i) h = (h^{-1}(1), h^{-1}(i))` lands
//! back in `T` exactly when `h` fixes 1. The group has order
//! `n! * (n-1)!`. Right multiplication by `h` relabels edge *dimensions*:
//! the dimension-`d` edge maps to dimension `h^{-1}(d+1) - 1`
//! ([`Aut::map_dimension`]).
//!
//! [`Aut`] is the workspace's witness type for the symmetry-canonical
//! oracle: canonicalizing a fault set produces the automorphism that maps
//! the caller's frame to the canonical frame, and the inverse maps a
//! stored ring back.

use crate::{factorial, Perm, PermError, MAX_N};

/// An automorphism of `S_n`: the map `p ↦ g ∘ p ∘ h` with `h(1) = 1`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct Aut {
    g: Perm,
    h: Perm,
}

impl Aut {
    /// The identity automorphism of `S_n`.
    ///
    /// # Panics
    /// Panics if `n` is outside `1..=MAX_N` (via [`Perm::identity`]).
    pub fn identity(n: usize) -> Self {
        Aut {
            g: Perm::identity(n),
            h: Perm::identity(n),
        }
    }

    /// Builds an automorphism from its left part `g` and right part `h`,
    /// validating that they have the same size and that `h` fixes symbol 1
    /// (otherwise `p ↦ g ∘ p ∘ h` is not a graph automorphism of `S_n`).
    pub fn new(g: Perm, h: Perm) -> Result<Self, PermError> {
        if g.n() != h.n() {
            return Err(PermError::SizeMismatch {
                left: g.n(),
                right: h.n(),
            });
        }
        if h.get(0) != 1 {
            return Err(PermError::NotAnAutomorphism);
        }
        Ok(Aut { g, h })
    }

    /// The number of automorphisms of `S_n`: `n! * (n-1)!`.
    pub fn order(n: usize) -> u64 {
        factorial(n) * factorial(n - 1)
    }

    /// The number of valid right parts `h` (the stabilizer of symbol 1):
    /// `(n-1)!`.
    pub fn stab_count(n: usize) -> u64 {
        factorial(n - 1)
    }

    /// Decodes the `r`-th element of `Stab_1` (`0 <= r < (n-1)!`): the
    /// permutation fixing 1 whose action on `{2..n}` is the rank-`r`
    /// permutation in Lehmer order.
    ///
    /// # Panics
    /// Panics if `n < 2`, `n > MAX_N`, or `r >= (n-1)!`.
    pub fn stab_unrank(n: usize, r: u64) -> Perm {
        assert!((2..=MAX_N).contains(&n), "stab_unrank: n {n} out of range");
        let sub = Perm::unrank(n - 1, u32::try_from(r).expect("stab rank fits u32"))
            .expect("stab rank in range");
        let mut symbols = [0u8; MAX_N];
        symbols[0] = 1;
        for i in 0..n - 1 {
            symbols[i + 1] = sub.get(i) + 1;
        }
        Perm::from_slice_trusted(&symbols[..n])
    }

    /// The rank of `h ∈ Stab_1` in [`Aut::stab_unrank`]'s order, its
    /// inverse: `stab_unrank(n, stab_rank(h)) == h`.
    ///
    /// # Panics
    /// Panics if `h` has fewer than 2 symbols or does not fix symbol 1.
    pub fn stab_rank(h: &Perm) -> u64 {
        let n = h.n();
        assert!(
            n >= 2 && h.get(0) == 1,
            "stab_rank: {h} does not fix symbol 1"
        );
        let mut sub = [0u8; MAX_N];
        for i in 1..n {
            sub[i - 1] = h.get(i) - 1;
        }
        u64::from(Perm::from_slice_trusted(&sub[..n - 1]).rank())
    }

    /// Builds the automorphism indexed by `(g_rank, h_rank)` with
    /// `g_rank < n!` and `h_rank < (n-1)!`; ranks are reduced modulo those
    /// bounds, so any `u64` pair (e.g. from an RNG) selects a uniform
    /// automorphism when the inputs are uniform.
    ///
    /// # Panics
    /// Panics if `n` is outside `2..=MAX_N`.
    pub fn from_ranks(n: usize, g_rank: u64, h_rank: u64) -> Self {
        assert!((2..=MAX_N).contains(&n), "from_ranks: n {n} out of range");
        let g = Perm::unrank(n, (g_rank % factorial(n)) as u32).expect("reduced rank in range");
        let h = Aut::stab_unrank(n, h_rank % factorial(n - 1));
        Aut { g, h }
    }

    /// The permutation size `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.g.n()
    }

    /// The left part `g` (free vertex relabeling).
    #[inline]
    pub fn g(&self) -> &Perm {
        &self.g
    }

    /// The right part `h` (dimension relabeling; fixes symbol 1).
    #[inline]
    pub fn h(&self) -> &Perm {
        &self.h
    }

    /// `true` iff this is the identity automorphism.
    pub fn is_identity(&self) -> bool {
        self.g == Perm::identity(self.n()) && self.h == Perm::identity(self.n())
    }

    /// Applies the automorphism to a vertex: `g ∘ p ∘ h`.
    #[inline]
    pub fn apply(&self, p: &Perm) -> Perm {
        self.g.compose(&p.compose(&self.h))
    }

    /// The inverse automorphism: `p ↦ g^{-1} ∘ p ∘ h^{-1}`.
    pub fn inverse(&self) -> Aut {
        Aut {
            g: self.g.inverse(),
            h: self.h.inverse(),
        }
    }

    /// Composition `self ∘ other` (apply `other` first, then `self`):
    /// `(self ∘ other)(p) = g_s ∘ (g_o ∘ p ∘ h_o) ∘ h_s`.
    pub fn compose(&self, other: &Aut) -> Aut {
        Aut {
            g: self.g.compose(&other.g),
            h: other.h.compose(&self.h),
        }
    }

    /// Where the dimension-`d` edge class lands under this automorphism:
    /// `p —d— p.star_move(d)` maps to an edge of dimension
    /// `h^{-1}(d+1) - 1`.
    ///
    /// # Panics
    /// Panics if `d == 0` or `d >= n`.
    pub fn map_dimension(&self, d: usize) -> usize {
        assert!(d >= 1 && d < self.n(), "invalid star dimension {d}");
        let hinv = self.h.inverse();
        hinv.get(d) as usize - 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn perms(n: usize) -> impl Iterator<Item = Perm> {
        (0..factorial(n) as u32).map(move |r| Perm::unrank(n, r).unwrap())
    }

    #[test]
    fn new_rejects_h_not_fixing_one() {
        let g = Perm::identity(4);
        let h = Perm::from_digits(4, 2134);
        assert!(Aut::new(g, h).is_err());
        let h = Perm::from_digits(4, 1342);
        assert!(Aut::new(g, h).is_ok());
    }

    #[test]
    fn new_rejects_size_mismatch() {
        assert!(Aut::new(Perm::identity(4), Perm::identity(5)).is_err());
    }

    #[test]
    fn identity_acts_trivially() {
        let a = Aut::identity(5);
        assert!(a.is_identity());
        let p = Perm::from_digits(5, 35214);
        assert_eq!(a.apply(&p), p);
        assert_eq!(a.map_dimension(3), 3);
    }

    #[test]
    fn apply_preserves_adjacency_and_maps_dimension() {
        let n = 5;
        for g_rank in [0u64, 17, 103] {
            for h_rank in 0..Aut::stab_count(n) {
                let a = Aut::from_ranks(n, g_rank, h_rank);
                for p in perms(n).step_by(7) {
                    for d in 1..n {
                        let q = p.star_move(d);
                        let pa = a.apply(&p);
                        let qa = a.apply(&q);
                        assert_eq!(
                            pa.edge_dimension_to(&qa),
                            Some(a.map_dimension(d)),
                            "aut ({g_rank},{h_rank}) broke edge p={p} d={d}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn inverse_round_trips_vertices() {
        let n = 6;
        let a = Aut::from_ranks(n, 12345, 67);
        let inv = a.inverse();
        for p in perms(n).step_by(101) {
            assert_eq!(inv.apply(&a.apply(&p)), p);
            assert_eq!(a.apply(&inv.apply(&p)), p);
        }
        assert!(a.compose(&inv).is_identity());
        assert!(inv.compose(&a).is_identity());
    }

    #[test]
    fn compose_matches_sequential_application() {
        let n = 5;
        let a = Aut::from_ranks(n, 31, 4);
        let b = Aut::from_ranks(n, 77, 19);
        let ab = a.compose(&b);
        for p in perms(n).step_by(13) {
            assert_eq!(ab.apply(&p), a.apply(&b.apply(&p)));
        }
    }

    #[test]
    fn stab_unrank_enumerates_the_stabilizer_without_repeats() {
        let n = 5;
        let mut seen = std::collections::HashSet::new();
        for r in 0..Aut::stab_count(n) {
            let h = Aut::stab_unrank(n, r);
            assert_eq!(h.get(0), 1, "stab element must fix symbol 1");
            assert!(seen.insert(h), "duplicate stab element at rank {r}");
        }
        assert_eq!(seen.len() as u64, factorial(n - 1));
    }

    #[test]
    fn stab_rank_inverts_stab_unrank() {
        for n in 2..=7 {
            for r in 0..Aut::stab_count(n) {
                let h = Aut::stab_unrank(n, r);
                assert_eq!(Aut::stab_rank(&h), r, "n={n} h={h}");
            }
        }
        let h = Aut::stab_unrank(12, 39_916_799);
        assert_eq!(Aut::stab_rank(&h), 39_916_799, "last rank at MAX_N");
    }

    #[test]
    #[should_panic(expected = "does not fix symbol 1")]
    fn stab_rank_rejects_h_moving_one() {
        Aut::stab_rank(&Perm::from_digits(4, 2134));
    }

    #[test]
    fn from_ranks_reduces_out_of_range_ranks() {
        let n = 4;
        let a = Aut::from_ranks(n, factorial(n), factorial(n - 1));
        assert!(a.is_identity());
    }
}
