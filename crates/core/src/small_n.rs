//! The small-dimension cases of Theorem 1.
//!
//! * `n = 3`: `S_3` *is* a 6-cycle; with the budget `n-3 = 0` there are no
//!   faults and the ring is the graph itself.
//! * `n = 4`: at most one fault; Lemma 4's regime. We answer by exact
//!   search on the 24-vertex graph minus any faulty edges (and the
//!   exhaustive tests confirm the result is always `4! - 2|F_v|`).
//! * `n = 5`: at most two faults. Per Theorem 1's proof: one `a_1`-partition
//!   splits the faults into different 4-vertices (Lemma 2), the five
//!   4-vertices form a `K_5` whose cyclic order is chosen with the faulty
//!   ones non-adjacent — (P1), (P2) (all difs equal, symbols distinct) and
//!   (P3) hold — and Lemma 7 finishes.

use star_fault::FaultSet;
use star_graph::partition::i_partition;
use star_graph::{Pattern, SuperRing};
use star_perm::delta::RingDelta;
use star_perm::Perm;

use crate::blockctx::BlockCtx;
use crate::positions::select_positions;
use crate::{expand, oracle, EmbedError};

/// `n = 3`: the 6-cycle (no fault budget).
pub(crate) fn embed_n3(faults: &FaultSet) -> Result<RingDelta, EmbedError> {
    debug_assert_eq!(faults.vertex_fault_count(), 0);
    let mut v = Perm::identity(3);
    let mut ring = vec![v];
    for d in [1usize, 2, 1, 2, 1] {
        v = v.star_move(d);
        ring.push(v);
    }
    Ok(RingDelta::encode(&ring).expect("star moves"))
}

/// `n = 4`: exact search on `S_4` minus its faulty edges for the longest
/// healthy cycle (`24 - 2|F_v|`, `|F_v| <= 1`; edge faults cost nothing).
pub(crate) fn embed_n4(faults: &FaultSet) -> Result<RingDelta, EmbedError> {
    debug_assert!(faults.vertex_fault_count() <= 1);
    let g = oracle::local_s4(&BlockCtx::new(&Pattern::full(4)), faults);
    let mut blocked = vec![false; 24];
    for f in faults.vertices() {
        blocked[f.rank() as usize] = true;
    }
    let (cycle, exhausted) = g.longest_cycle(&blocked, u64::MAX);
    debug_assert!(!exhausted);
    let expected = 24 - 2 * faults.vertex_fault_count();
    if cycle.len() != expected {
        return Err(EmbedError::ExpansionFailed { block: 0 });
    }
    let ring: Vec<Perm> = cycle
        .into_iter()
        .map(|id| Perm::unrank(4, id as u32).expect("rank < 24"))
        .collect();
    RingDelta::encode(&ring).map_err(|_| EmbedError::ExpansionFailed { block: 0 })
}

/// `n = 5`: the `K_5` construction with faulty 4-vertices kept apart,
/// with explicit spare-position index and seam salt (retry knobs for the
/// mixed vertex+edge embedder).
pub(crate) fn embed_n5_with(
    faults: &FaultSet,
    spare_index: usize,
    salt: usize,
) -> Result<RingDelta, EmbedError> {
    debug_assert!(faults.vertex_fault_count() <= 2);
    let mut sp = star_obs::span("embed.positions");
    let plan = select_positions(5, faults)?;
    sp.record("sequence", plan.sequence.as_slice());
    sp.record("spare", plan.spare.as_slice());
    drop(sp);
    // The salt also varies the partition position among the valid choices
    // (any position separating the fault pair works; the mixed embedder
    // retries over salts to dodge awkward edge faults).
    let fv = faults.vertices();
    let valid_a1: Vec<usize> = (1..5)
        .filter(|&p| {
            fv.len() < 2
                || (0..fv.len()).all(|i| (i + 1..fv.len()).all(|j| fv[i].get(p) != fv[j].get(p)))
        })
        .collect();
    let a1 = if valid_a1.is_empty() {
        plan.sequence[0]
    } else {
        valid_a1[(salt / 4) % valid_a1.len()]
    };
    let mut parts = i_partition(&Pattern::full(5), a1)
        .map_err(|_| EmbedError::RefinementFailed { level: 5 })?;
    // Rotate the block order for extra seam diversity (all blocks are
    // pairwise adjacent, so any cyclic order is valid).
    let rot = salt % parts.len();
    parts.rotate_left(rot);

    // Order the K_5 cyclically with faulty blocks non-adjacent.
    let faulty: Vec<Pattern> = parts
        .iter()
        .copied()
        .filter(|p| faults.count_vertex_faults_in(p) > 0)
        .collect();
    let healthy: Vec<Pattern> = parts
        .iter()
        .copied()
        .filter(|p| faults.count_vertex_faults_in(p) == 0)
        .collect();
    let order: Vec<Pattern> = match faulty.len() {
        0 => parts,
        1 => {
            let mut v = vec![faulty[0]];
            v.extend(healthy);
            v
        }
        _ => {
            debug_assert_eq!(faulty.len(), 2, "Lemma 2 separates the two faults");
            // f h f h h — faulty at cyclic distance 2.
            vec![faulty[0], healthy[0], faulty[1], healthy[1], healthy[2]]
        }
    };
    let r4 = SuperRing::new(order).map_err(|_| EmbedError::RefinementFailed { level: 5 })?;
    debug_assert!(r4.satisfies_p2());
    // Spare positions are whatever the chosen partition position left free
    // (recomputed here because the salt may have overridden a1).
    let spares: Vec<usize> = (1..5).filter(|&p| p != a1).collect();
    let spare = spares[spare_index % spares.len()];
    expand::expand(&r4, faults, spare, salt, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed_impl::verify_ring;
    use star_fault::gen;

    #[test]
    fn n3_six_ring() {
        let ring = embed_n3(&FaultSet::empty(3)).unwrap();
        assert_eq!(ring.len(), 6);
        verify_ring(&ring, &FaultSet::empty(3)).unwrap();
    }

    #[test]
    fn n4_all_single_faults() {
        for rank in 0..24u32 {
            let f = Perm::unrank(4, rank).unwrap();
            let faults = FaultSet::from_vertices(4, [f]).unwrap();
            let ring = embed_n4(&faults).unwrap();
            assert_eq!(ring.len(), 22);
            verify_ring(&ring, &faults).unwrap();
        }
    }

    #[test]
    fn n4_fault_free() {
        let ring = embed_n4(&FaultSet::empty(4)).unwrap();
        assert_eq!(ring.len(), 24);
    }

    #[test]
    fn n5_random_fault_pairs() {
        for seed in 0..20 {
            let faults = gen::random_vertex_faults(5, 2, seed).unwrap();
            let ring = embed_n5_with(&faults, 0, 0).unwrap();
            assert_eq!(ring.len(), 116, "seed {seed}");
            verify_ring(&ring, &faults).unwrap();
        }
    }

    #[test]
    fn n5_single_and_zero_faults() {
        let ring = embed_n5_with(&FaultSet::empty(5), 0, 0).unwrap();
        assert_eq!(ring.len(), 120);
        let faults = FaultSet::from_vertices(5, [Perm::from_digits(5, 53412)]).unwrap();
        let ring = embed_n5_with(&faults, 0, 0).unwrap();
        assert_eq!(ring.len(), 118);
    }
}
