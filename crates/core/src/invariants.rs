//! Debug-mode invariant assertions for the embedding pipeline.
//!
//! Every construction path (expand, repair, mixed) funnels its result
//! through these checks before handing it to a caller. In release builds
//! they compile to nothing; in debug builds (the mode `cargo test` and the
//! audit CI job run in) they catch a corrupted ring at the point of
//! production instead of at the next consumer.
//!
//! The check is the same [`star_fault::RingCheck`] fold `star-verify`
//! runs externally — simplicity, adjacency, health — called here so it
//! guards *internal* paths (per-block repairs, salt-retry sweeps) that
//! never cross the public verify API.

use star_fault::FaultSet;
#[cfg(debug_assertions)]
use star_fault::RingCheck;
#[cfg(debug_assertions)]
use star_perm::packed::PackedPerm;
use star_perm::Perm;

use crate::expand::BlockSegment;

/// Asserts (debug builds only) that `ring` is a simple, healthy cycle of
/// adjacent vertices with alternating permutation parity.
#[inline]
pub fn debug_assert_ring(n: usize, faults: &FaultSet, ring: &[Perm], context: &str) {
    #[cfg(debug_assertions)]
    check_ring_impl(n, faults, ring, context);
    #[cfg(not(debug_assertions))]
    {
        let _ = (n, faults, ring, context);
    }
}

/// Asserts (debug builds only) that the concatenated segment paths form a
/// valid ring. Used by the structured expand and repair paths.
#[inline]
pub fn debug_assert_segments(
    n: usize,
    faults: &FaultSet,
    segments: &[BlockSegment],
    context: &str,
) {
    #[cfg(debug_assertions)]
    {
        let ring: Vec<Perm> = segments
            .iter()
            .flat_map(|s| s.path.iter().copied())
            .collect();
        check_ring_impl(n, faults, &ring, context);
        for (i, s) in segments.iter().enumerate() {
            debug_assert!(
                !s.path.is_empty(),
                "invariant [{context}]: segment {i} is empty"
            );
            debug_assert_eq!(
                s.path.first(),
                Some(&s.entry),
                "invariant [{context}]: segment {i} does not start at its entry"
            );
            debug_assert_eq!(
                s.path.last(),
                Some(&s.exit),
                "invariant [{context}]: segment {i} does not end at its exit"
            );
        }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = (n, faults, segments, context);
    }
}

/// Panics unless `ring` passes [`RingCheck`]. Star moves are
/// transpositions, so adjacency alone makes the parity alternate around
/// the cycle and the length even (the bipartite structure the length
/// bound rests on).
#[cfg(debug_assertions)]
fn check_ring_impl(n: usize, faults: &FaultSet, ring: &[Perm], context: &str) {
    let checked = RingCheck::new(n, faults).and_then(|mut check| {
        check.push_all(ring.iter().map(PackedPerm::from_perm))?;
        check.finish()
    });
    if let Err(e) = checked {
        panic!("invariant [{context}]: {e}");
    }
}
