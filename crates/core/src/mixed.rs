//! The concluding remark: mixed vertex + edge faults.
//!
//! Tseng et al. showed `S_n` with `|F_v| + |F_e| <= n-3` embeds a healthy
//! ring of length `n! - 4|F_v|`; the paper's concluding remark observes
//! that its technique lengthens this to `n! - 2|F_v|` — edge faults cost
//! nothing as long as they can be dodged.
//!
//! Implementation: the vertex-fault pipeline already ignores edge faults at
//! the super-ring level (they do not affect (P1)-(P3)); the expansion is
//! edge-aware (a block holding a faulty edge takes the oracle's exact
//! search on `S_4` minus that edge, and seam crossings check edge health),
//! and so is the `n = 4` search. Because the vertex walk is parity-forced,
//! a faulty seam edge can require a different seam assignment, so this
//! module runs Theorem 1's own construction dispatch once per (spare
//! position, seam salt) pair — the expander also tries both starting
//! vertices, and for `n = 5` the salt varies the partition position and
//! block order. Each retry is a fully independent valid configuration. If
//! every configuration is exhausted (not observed in practice within the
//! budget; the theory says a ring exists), the embedder degrades
//! gracefully by *promoting* an edge fault to a vertex fault on one
//! endpoint (total fault count is unchanged, so the budget still holds)
//! and recursing; each promotion costs exactly 2 ring vertices and the
//! achieved length is reported honestly in the returned ring.

use star_fault::{FaultSet, RingCheck};

use crate::window::Windows;
use crate::{EmbedError, EmbeddedRing};

/// Embeds a healthy ring into `S_n` under mixed faults
/// (`|F_v| + |F_e| <= n-3`). The target length is `n! - 2|F_v|`; see the
/// module docs for the (theoretically unreachable) degradation path.
pub fn embed_with_mixed_faults(n: usize, faults: &FaultSet) -> Result<EmbeddedRing, EmbedError> {
    if !(3..=star_perm::MAX_N).contains(&n) {
        return Err(EmbedError::UnsupportedDimension { n });
    }
    if faults.n() != n {
        return Err(EmbedError::DimensionMismatch);
    }
    let budget = n.saturating_sub(3);
    if faults.total_fault_count() > budget {
        return Err(EmbedError::TooManyFaults {
            supplied: faults.total_fault_count(),
            budget,
        });
    }
    if faults.edge_fault_count() == 0 {
        return crate::embed_longest_ring(n, faults);
    }

    match try_embed_mixed(n, faults) {
        Some(ring) => {
            crate::invariants::debug_assert_ring(faults, ring.delta(), "mixed");
            Ok(ring)
        }
        None => {
            // Degradation: promote one edge fault to a vertex fault on a
            // healthy endpoint and recurse (total count preserved).
            let mut promoted = FaultSet::empty(n);
            for v in faults.vertices() {
                promoted.add_vertex(*v).expect("copy");
            }
            let mut promoted_one = false;
            for e in faults.edges() {
                if !promoted_one {
                    let endpoint = if promoted.is_vertex_healthy(e.lo()) {
                        *e.lo()
                    } else {
                        *e.hi()
                    };
                    if promoted.is_vertex_healthy(&endpoint) {
                        promoted.add_vertex(endpoint).expect("healthy endpoint");
                        promoted_one = true;
                        continue;
                    }
                }
                promoted.add_edge(*e).expect("copy");
            }
            if !promoted_one {
                return Err(EmbedError::ExpansionFailed { block: 0 });
            }
            embed_with_mixed_faults(n, &promoted)
        }
    }
}

/// One full attempt sweep over (spare position, salt) configurations of
/// the shared construction, at the target length `n! - 2|F_v|`.
fn try_embed_mixed(n: usize, faults: &FaultSet) -> Option<EmbeddedRing> {
    for spare_index in 0..3 {
        for salt in 0..16 {
            // One window, checked against the edge faults too and closed
            // only at `n! - 2|F_v|`.
            let mut windows = Windows::whole().checked(RingCheck::new(n, faults).ok()?);
            let built = crate::embed_impl::construct(n, faults, spare_index, salt, &mut windows);
            if let Ok(ring) = built {
                if windows.close(&ring).is_ok() {
                    return Some(EmbeddedRing::from_delta(ring));
                }
            }
            if n <= 4 {
                break; // n = 3, 4 builders have no salt/spare freedom
            }
        }
        if n <= 4 {
            break;
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_fault::gen;
    use star_perm::factorial;

    #[test]
    fn pure_edge_faults_keep_full_length() {
        for n in [5usize, 6] {
            for seed in 0..5 {
                let faults = gen::random_edge_faults(n, n - 3, seed).unwrap();
                let ring = embed_with_mixed_faults(n, &faults).unwrap();
                assert_eq!(ring.len() as u64, factorial(n), "n={n} seed={seed}");
            }
        }
    }

    #[test]
    fn mixed_faults_cost_only_vertices() {
        for n in [6usize, 7] {
            for seed in 0..5 {
                let fv = 1;
                let fe = n - 4;
                let faults = gen::mixed_faults(n, fv, fe, seed).unwrap();
                let ring = embed_with_mixed_faults(n, &faults).unwrap();
                assert_eq!(
                    ring.len() as u64,
                    factorial(n) - 2 * fv as u64,
                    "n={n} seed={seed}"
                );
            }
        }
    }

    #[test]
    fn same_dimension_edge_faults_adversarial() {
        for n in [5usize, 6, 7] {
            let faults = gen::same_dimension_edge_faults(n, n - 3, 2, 3).unwrap();
            let ring = embed_with_mixed_faults(n, &faults).unwrap();
            assert_eq!(ring.len() as u64, factorial(n), "n={n}");
        }
    }

    #[test]
    fn n4_one_edge_fault() {
        let faults = gen::random_edge_faults(4, 1, 1).unwrap();
        let ring = embed_with_mixed_faults(4, &faults).unwrap();
        assert_eq!(ring.len(), 24);
    }

    #[test]
    fn rejects_over_budget() {
        let faults = gen::mixed_faults(6, 2, 2, 0).unwrap();
        assert!(matches!(
            embed_with_mixed_faults(6, &faults),
            Err(EmbedError::TooManyFaults { .. })
        ));
    }
}
