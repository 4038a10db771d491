//! Property tests: the byte-wide [`RingDelta::map_through`] and
//! [`RingDelta::windows`] produce exactly the step streams of a
//! nibble-by-nibble relabel and slice, and every output reassembles
//! through [`RingDelta::from_parts`].

use proptest::prelude::*;
use star_perm::{delta::RingDelta, factorial, packed::PackedPerm, Aut, Perm};

/// Strategy: a random delta (not necessarily a ring) of `n in 2..=12`
/// with 1..=300 vertices.
fn arb_delta() -> impl Strategy<Value = RingDelta> {
    (2usize..=12).prop_flat_map(|n| {
        (
            Just(n),
            0..factorial(n) as u32,
            proptest::collection::vec(1..n as u8, 0..300usize),
        )
            .prop_map(|(n, rank, dims)| {
                let start = PackedPerm::from_perm(&Perm::unrank(n, rank).expect("rank in range"));
                let mut packed = vec![0u8; dims.len().div_ceil(2)];
                for (i, d) in dims.iter().enumerate() {
                    packed[i / 2] |= d << (4 * (i % 2));
                }
                RingDelta::from_parts(n, dims.len() as u32 + 1, start.bits(), packed)
                    .expect("dims in 1..n")
            })
    })
}

/// The nibble-at-a-time step stream of `dims`.
fn nibble_pack(dims: impl Iterator<Item = usize>) -> Vec<u8> {
    let mut out = Vec::new();
    for (i, d) in dims.enumerate() {
        if i % 2 == 0 {
            out.push(d as u8);
        } else {
            *out.last_mut().expect("pushed at the even step") |= (d as u8) << 4;
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn byte_wide_map_through_matches_the_nibble_relabel(delta in arb_delta(),
                                                         g in 0u64..=u64::MAX,
                                                         h in 0u64..=u64::MAX) {
        let n = delta.n();
        let aut = Aut::from_ranks(n, g, h);
        let mapped = delta.map_through(&aut);
        let steps = delta.len() as usize - 1;
        let want = nibble_pack((0..steps).map(|i| aut.map_dimension(delta.dim_at(i))));
        prop_assert_eq!(mapped.dims(), &want[..]);
        prop_assert_eq!(mapped.start().to_perm(), aut.apply(&delta.start().to_perm()));
        let parts = RingDelta::from_parts(n, mapped.len(), mapped.start().bits(), want);
        prop_assert_eq!(parts, Ok(mapped));
    }

    #[test]
    fn whole_byte_segments_match_the_nibble_slice(delta in arb_delta(),
                                                  from in 0u32..=u32::MAX,
                                                  count in 0u32..=u32::MAX) {
        let len = delta.len();
        let from = from % len;
        let count = 1 + count % (len - from);
        let start_at = delta.walk().nth(from as usize).expect("from < len");
        let mut at = from;
        for (pos, segment) in delta.windows(from, start_at, count) {
            prop_assert_eq!(pos, at);
            let steps = segment.len() as usize - 1;
            let want = nibble_pack((0..steps).map(|i| delta.dim_at(pos as usize + i)));
            prop_assert_eq!(segment.dims(), &want[..]);
            prop_assert_eq!(Some(segment.start()), delta.walk().nth(pos as usize));
            at += segment.len();
            let parts = RingDelta::from_parts(delta.n(), segment.len(), segment.start().bits(), want);
            prop_assert_eq!(parts, Ok(segment));
        }
        prop_assert_eq!(at, len);
    }
}

#[test]
fn segments_cover_odd_and_even_offsets_and_counts() {
    // One delta, every (from, count) parity pair, against the decoded
    // vertex list: the windows from `from` tile the rest of it.
    let mut v = PackedPerm::from_perm(&Perm::identity(6));
    let mut ring = vec![v];
    for i in 0..40 {
        v = v.star_move(1 + i % 5);
        ring.push(v);
    }
    let perms: Vec<Perm> = ring.iter().map(PackedPerm::to_perm).collect();
    let delta = RingDelta::encode(&perms).unwrap();
    for from in [0u32, 1, 2, 7, 10, 36, 37] {
        for count in [1u32, 2, 3, 4] {
            let mut windows = delta.windows(from, ring[from as usize], count);
            let (_, first) = windows.next().expect("from < len");
            assert_eq!(
                first.decode(),
                &perms[from as usize..(from + count) as usize],
                "from {from} count {count}"
            );
            let rest: Vec<Perm> = windows.flat_map(|(_, w)| w.decode()).collect();
            assert_eq!(
                rest,
                &perms[(from + count) as usize..],
                "from {from} count {count}"
            );
        }
    }
}
