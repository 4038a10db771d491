//! Property tests: [`PackedPerm`] is a lossless, operation-preserving
//! mirror of [`Perm`].
//!
//! The flat-arena expansion core trusts the packed representation for
//! seam endpoints and block templates, so every primitive it uses —
//! conversion, position reads, swaps, star moves, adjacency, parity —
//! must agree with the byte-array reference implementation on all inputs.

use proptest::prelude::*;
use star_perm::{factorial, packed::PackedPerm, Perm};

/// Strategy: a random permutation of size `n` for `n in 2..=9`.
fn arb_perm() -> impl Strategy<Value = Perm> {
    (2usize..=9).prop_flat_map(|n| {
        (Just(n), 0..factorial(n) as u32)
            .prop_map(|(n, rank)| Perm::unrank(n, rank).expect("rank in range"))
    })
}

/// Strategy: two same-size permutations.
fn arb_perm_pair() -> impl Strategy<Value = (Perm, Perm)> {
    (2usize..=9).prop_flat_map(|n| {
        let f = factorial(n) as u32;
        (0..f, 0..f).prop_map(move |(a, b)| {
            (
                Perm::unrank(n, a).expect("rank in range"),
                Perm::unrank(n, b).expect("rank in range"),
            )
        })
    })
}

proptest! {
    #[test]
    fn pack_unpack_roundtrip(p in arb_perm()) {
        let q = PackedPerm::from_perm(&p);
        prop_assert_eq!(q.to_perm(), p);
        prop_assert_eq!(PackedPerm::from_raw(q.n(), q.bits()).unwrap(), q);
        prop_assert_eq!(Perm::from(q), p);
        prop_assert_eq!(PackedPerm::from(p), q);
    }

    #[test]
    fn reads_match(p in arb_perm(), raw in 0usize..16) {
        let q = PackedPerm::from_perm(&p);
        let pos = raw % p.n();
        prop_assert_eq!(q.get(pos), p.get(pos));
        prop_assert_eq!(q.first(), p.first());
        prop_assert_eq!(q.n(), p.n());
    }

    #[test]
    fn swap_and_star_move_match(p in arb_perm(), ri in 0usize..16, rj in 0usize..16) {
        let q = PackedPerm::from_perm(&p);
        let (i, j) = (ri % p.n(), rj % p.n());
        prop_assert_eq!(q.swapped(i, j).to_perm(), p.swapped(i, j));
        if j >= 1 {
            prop_assert_eq!(q.star_move(j).to_perm(), p.star_move(j));
            // Involution, in the packed domain.
            prop_assert_eq!(q.star_move(j).star_move(j), q);
        }
    }

    #[test]
    fn adjacency_matches((a, b) in arb_perm_pair()) {
        let (qa, qb) = (PackedPerm::from_perm(&a), PackedPerm::from_perm(&b));
        prop_assert_eq!(qa.edge_dimension_to(&qb), a.edge_dimension_to(&b));
        prop_assert_eq!(qa.is_adjacent(&qb), a.is_adjacent(&b));
    }

    #[test]
    fn parity_matches(p in arb_perm()) {
        prop_assert_eq!(PackedPerm::from_perm(&p).parity(), p.parity());
    }

    #[test]
    fn ordering_and_hashing_agree_with_equality((a, b) in arb_perm_pair()) {
        let (qa, qb) = (PackedPerm::from_perm(&a), PackedPerm::from_perm(&b));
        prop_assert_eq!(qa == qb, a == b);
        // Same-size packed ordering is positionwise from the low nibble,
        // which is position 0 — the same most-significant position a
        // lexicographic comparison of the byte array starts at only when
        // they differ there; all we guarantee (and rely on) is equality
        // consistency.
        prop_assert_eq!(qa.cmp(&qb) == std::cmp::Ordering::Equal,
                        a.cmp(&b) == std::cmp::Ordering::Equal);
    }

    #[test]
    fn corrupted_raw_bits_rejected(p in arb_perm(), pos in 0usize..9, nib in 0u64..16) {
        let q = PackedPerm::from_perm(&p);
        let pos = pos % p.n();
        let cleared = q.bits() & !(0xF << (4 * pos));
        let mutated = cleared | (nib << (4 * pos));
        if mutated != q.bits() {
            // Any single-nibble change breaks the permutation property
            // (duplicate, zero, or out-of-range symbol).
            prop_assert!(PackedPerm::from_raw(p.n(), mutated).is_err());
        }
    }
}

/// `PackedPerm::rank` is the Lehmer rank: it inverts the independent
/// `Perm::unrank` on every permutation of `S_1..=S_9`.
#[test]
fn rank_inverts_unrank_exhaustively_through_s9() {
    for n in 1..=9usize {
        for rank in 0..factorial(n) {
            let p = Perm::unrank(n, rank as u32).expect("rank in range");
            assert_eq!(PackedPerm::from_perm(&p).rank(), rank, "{p}");
            assert_eq!(p.rank() as u64, rank, "{p}");
        }
    }
}

/// Above `S_9`, sampled ranks spread over `0..n!` plus both ends.
#[test]
fn rank_inverts_unrank_on_samples_for_s10_to_s12() {
    for n in 10..=12usize {
        let total = factorial(n);
        let spread = (0..4096u64).map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15) % total);
        for rank in spread.chain([0, 1, total - 2, total - 1]) {
            let p = Perm::unrank(n, rank as u32).expect("rank in range");
            assert_eq!(PackedPerm::from_perm(&p).rank(), rank, "{p}");
        }
    }
}
