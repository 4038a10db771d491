//! The Tseng–Chang–Sheu vertex-fault baseline: `n! - 4|F_v|`.
//!
//! Tseng et al. (IEEE TPDS, "Fault-tolerant ring embedding in star graphs")
//! route around each vertex fault at a cost of **4** ring vertices; the
//! paper reproduced by this workspace halves that to 2 via the (P2)/(P3)
//! seam discipline plus Lemma 4. Their TPDS article was "to appear" at the
//! time and is reimplemented here *to its stated bound*: the same
//! hierarchical pipeline, but each faulty 4-vertex is traversed by a
//! coarser `4! - 4`-vertex path (the fault plus three vertices of slack —
//! what one loses without the entry/exit finesse). Every output is
//! machine-verified, so the baseline is a faithful *bound* model even
//! though the original construction details are unavailable (documented in
//! DESIGN.md).

use star_fault::FaultSet;
use star_ring::{expand, hierarchy, positions, EmbeddedRing};

use crate::BaselineError;

/// Embeds a healthy ring of length `n! - 4|F_v|` (`|F_v| <= n-3`,
/// `n >= 6`; smaller dimensions fall back to the optimal embedder since
/// the baseline's slack is not even representable there).
pub fn tseng_vertex_ring(n: usize, faults: &FaultSet) -> Result<EmbeddedRing, BaselineError> {
    let budget = n.saturating_sub(3);
    if faults.vertex_fault_count() > budget {
        return Err(BaselineError::TooManyFaults {
            supplied: faults.vertex_fault_count(),
            budget,
        });
    }
    if n < 6 || faults.vertex_fault_count() == 0 {
        return Ok(star_ring::embed_longest_ring(n, faults)?);
    }
    let plan = positions::select_positions(n, faults)?;
    let r4 = hierarchy::build_r4(n, faults, &plan)?;
    let ring = expand::expand(&r4, faults, plan.spare[0], 0, 4)?;
    Ok(EmbeddedRing::from_delta(ring))
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_fault::gen;
    use star_perm::factorial;

    #[test]
    fn achieves_the_stated_bound() {
        for n in [6usize, 7] {
            for fv in 1..=(n - 3) {
                for seed in 0..3 {
                    let faults = gen::random_vertex_faults(n, fv, seed).unwrap();
                    let ring = tseng_vertex_ring(n, &faults).unwrap();
                    assert_eq!(
                        ring.len() as u64,
                        factorial(n) - 4 * fv as u64,
                        "n={n} fv={fv} seed={seed}"
                    );
                    // Validity.
                    let vs = ring.vertices();
                    for i in 0..vs.len() {
                        assert!(vs[i].is_adjacent(&vs[(i + 1) % vs.len()]));
                        assert!(faults.is_vertex_healthy(&vs[i]));
                    }
                }
            }
        }
    }

    #[test]
    fn dominated_by_the_paper() {
        let n = 7;
        let faults = gen::worst_case_same_partite(n, n - 3, star_perm::Parity::Even, 9).unwrap();
        let ours = star_ring::embed_longest_ring(n, &faults).unwrap();
        let theirs = tseng_vertex_ring(n, &faults).unwrap();
        assert_eq!(ours.len() - theirs.len(), 2 * (n - 3));
    }

    #[test]
    fn over_budget_rejected() {
        let faults = gen::random_vertex_faults(6, 4, 0).unwrap();
        assert!(matches!(
            tseng_vertex_ring(6, &faults),
            Err(BaselineError::TooManyFaults { .. })
        ));
    }
}
