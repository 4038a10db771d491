//! Property tests: the v2 generator-delta codec is lossless against the
//! embedder's real output.
//!
//! `RingDelta` is the wire, cache, and oracle-store representation of a
//! ring, so `decode(encode(ring))` must reproduce the embedded ring
//! byte-identically — for every dimension, every fault budget, and every
//! chunking of the stream — and mapping it through an automorphism must
//! give a valid ring for the mapped faults.

use proptest::prelude::*;
use star_fault::{gen, FaultSet};
use star_perm::Aut;
use star_ring::embed_longest_ring;
use star_serve::proto::{chunk_stream, RingDelta};

/// Strategy: `(n, fault budget k, seed)` for seeded embed scenarios in
/// the dimensions where embeds are cheap enough to run under proptest.
fn arb_scenario() -> impl Strategy<Value = (usize, usize, u64)> {
    (4usize..=8).prop_flat_map(|n| (Just(n), 0..=n - 3, 0u64..=u64::MAX))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// decode ∘ encode is the identity on real embedder output.
    #[test]
    fn delta_roundtrips_embedded_rings((n, k, seed) in arb_scenario()) {
        let faults = gen::random_vertex_faults(n, k, seed).expect("budget is valid");
        let ring = embed_longest_ring(n, &faults)
            .expect("embed succeeds within budget")
            .into_vertices();
        let delta = RingDelta::encode(&ring).expect("rings delta-encode");
        prop_assert_eq!(delta.len() as usize, ring.len());
        let decoded = delta.decode();
        prop_assert_eq!(&decoded, &ring);
        // The walker agrees with the materialized decode.
        for (walked, vertex) in delta.walk().zip(&ring) {
            prop_assert_eq!(&walked.to_perm(), vertex);
        }
    }

    /// Chunking is a pure re-framing: concatenating the segments of any
    /// chunk granularity reproduces the ring exactly.
    #[test]
    fn chunked_segments_tile_the_ring((n, k, seed) in arb_scenario(),
                                      chunk_vertices in 2u32..=512) {
        let faults = gen::random_vertex_faults(n, k, seed).expect("budget is valid");
        let ring = embed_longest_ring(n, &faults)
            .expect("embed succeeds within budget")
            .into_vertices();
        let delta = RingDelta::encode(&ring).expect("rings delta-encode");
        let chunks = chunk_stream(&delta, 0, chunk_vertices).expect("cursor 0 is valid");
        let mut rebuilt = Vec::with_capacity(ring.len());
        for (i, chunk) in chunks.iter().enumerate() {
            prop_assert_eq!(chunk.cursor as usize, rebuilt.len());
            prop_assert_eq!(chunk.last, i == chunks.len() - 1);
            rebuilt.extend(chunk.segment.decode());
        }
        prop_assert_eq!(rebuilt, ring);
    }

    /// A canonical-frame ring mapped back through an automorphism is a
    /// valid ring for the mapped faults, of the same length, and maps
    /// back to itself byte for byte.
    #[test]
    fn mapped_delta_is_a_valid_ring_for_the_mapped_faults((n, k, seed) in arb_scenario(),
                                                          g in 0u64..=u64::MAX,
                                                          h in 0u64..=u64::MAX) {
        let faults = gen::random_vertex_faults(n, k, seed).expect("budget is valid");
        let ring = embed_longest_ring(n, &faults)
            .expect("embed succeeds within budget")
            .into_vertices();
        let delta = RingDelta::encode(&ring).expect("rings delta-encode");
        let aut = Aut::from_ranks(n, g, h);
        let mapped = delta.map_through(&aut);
        let mapped_faults = FaultSet::from_vertices(n, faults.vertices().iter().map(|f| aut.apply(f)))
            .expect("automorphisms keep faults distinct");
        prop_assert_eq!(mapped.len(), delta.len());
        let walked = mapped.decode();
        prop_assert!(star_verify::check_ring(n, &walked, &mapped_faults).is_ok());
        prop_assert_eq!(mapped.map_through(&aut.inverse()), delta);
    }
}
