//! Batch embedding: many independent fault scenarios, one call.
//!
//! Fault-tolerance sweeps (in the style of Li & Xu's generalized
//! fault-tolerance measures) run thousands of independent embeds over the
//! same `S_n`. Two things make the batch path faster than a loop around
//! [`crate::embed_longest_ring`]:
//!
//! 1. the Lemma-4 oracle is [`warm`](crate::oracle::warm)ed once up
//!    front, so no scenario ever pays for a canonical search — every
//!    block query in every embed is a lock-free table read;
//! 2. scenarios fan out over the shared `star-pool` (respecting
//!    `star_pool::set_threads` / `serve --threads`); each embed's own
//!    expansion is one serial pass.
//!
//! Results come back in input order, one `Result` per scenario, so a
//! sweep can mix in-budget and out-of-budget fault sets and tally
//! failures without aborting the batch.

use star_fault::FaultSet;

use crate::embed_impl::{embed_with_options, EmbedOptions};
use crate::{oracle, EmbedError, EmbeddedRing};

/// Minimum batch size that amortizes a full-table oracle warm-up; smaller
/// batches only pay for the keys they touch.
const WARM_BATCH_THRESHOLD: usize = 8;

/// Embeds one longest ring per fault scenario, in parallel, preserving
/// input order. Equivalent to calling [`crate::embed_longest_ring`] per
/// element (identical rings — embeds are deterministic), but warms the
/// Lemma-4 oracle once for batches of 8+ scenarios and spreads scenarios
/// across the `star-pool`.
pub fn embed_many(n: usize, fault_sets: &[FaultSet]) -> Vec<Result<EmbeddedRing, EmbedError>> {
    embed_many_with_options(n, fault_sets, &EmbedOptions::default())
}

/// [`embed_many`] with explicit [`EmbedOptions`] applied to every
/// scenario.
pub fn embed_many_with_options(
    n: usize,
    fault_sets: &[FaultSet],
    opts: &EmbedOptions,
) -> Vec<Result<EmbeddedRing, EmbedError>> {
    let mut sp = star_obs::span("embed.batch");
    sp.record("n", n);
    sp.record("scenarios", fault_sets.len());
    sp.hold(|| {
        if fault_sets.len() >= WARM_BATCH_THRESHOLD {
            oracle::warm();
        }
        star_pool::sweep(fault_sets.iter().collect(), |faults| {
            embed_with_options(n, faults, opts)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_fault::gen;
    use star_perm::factorial;

    #[test]
    fn batch_matches_one_by_one() {
        let n = 6;
        let scenarios: Vec<FaultSet> = (0..12)
            .map(|seed| gen::random_vertex_faults(n, (seed % 4) as usize, seed).unwrap())
            .collect();
        let batch = embed_many(n, &scenarios);
        assert_eq!(batch.len(), scenarios.len());
        for (faults, got) in scenarios.iter().zip(&batch) {
            let solo = crate::embed_longest_ring(n, faults).unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(
                got.vertices(),
                solo.vertices(),
                "batch must be byte-identical"
            );
            assert_eq!(
                got.len() as u64,
                factorial(n) - 2 * faults.vertex_fault_count() as u64
            );
        }
        // A large batch warms the whole table.
        assert_eq!(crate::oracle::entries(), crate::oracle::TABLE_SLOTS);
    }

    #[test]
    fn batch_reports_per_scenario_errors_in_order() {
        let n = 5;
        let over_budget = gen::random_vertex_faults(n, 3, 1).unwrap();
        let scenarios = vec![
            FaultSet::empty(n),
            over_budget,
            gen::random_vertex_faults(n, 1, 2).unwrap(),
        ];
        let out = embed_many(n, &scenarios);
        assert!(out[0].is_ok());
        assert!(matches!(out[1], Err(EmbedError::TooManyFaults { .. })));
        assert_eq!(out[2].as_ref().unwrap().len(), 118);
    }

    #[test]
    fn invalid_scenarios_do_not_poison_siblings() {
        // Regression guard for the serve batch path: every *kind* of
        // invalid scenario — wrong-dimension fault set, edge faults,
        // over-budget — must surface as a per-item `Err` in its own slot
        // while every valid sibling still embeds byte-identically to a
        // solo run.
        use star_graph::Edge;
        use star_perm::Perm;

        let n = 6;
        let wrong_dim = FaultSet::empty(5);
        let mut edge_faults = FaultSet::empty(n);
        let u = Perm::identity(n);
        edge_faults
            .add_edge(Edge::new(u, u.star_move(2)).unwrap())
            .unwrap();
        let over_budget = gen::random_vertex_faults(n, n - 2, 7).unwrap();
        let valid_a = gen::random_vertex_faults(n, 2, 11).unwrap();
        let valid_b = gen::random_vertex_faults(n, 3, 13).unwrap();

        let scenarios = vec![
            valid_a.clone(),
            wrong_dim,
            edge_faults,
            valid_b.clone(),
            over_budget,
            FaultSet::empty(n),
        ];
        let out = embed_many(n, &scenarios);
        assert_eq!(out.len(), scenarios.len());
        assert!(matches!(out[1], Err(EmbedError::DimensionMismatch)));
        assert!(matches!(out[2], Err(EmbedError::EdgeFaultsUnsupported)));
        assert!(matches!(out[4], Err(EmbedError::TooManyFaults { .. })));
        for (i, faults) in [(0, &valid_a), (3, &valid_b), (5, &FaultSet::empty(n))] {
            let solo = crate::embed_longest_ring(n, faults).unwrap();
            assert_eq!(
                out[i].as_ref().unwrap().vertices(),
                solo.vertices(),
                "valid scenario {i} must be unaffected by invalid siblings"
            );
        }
    }

    #[test]
    fn small_batches_skip_the_warmup() {
        // Below the threshold the call must still work (and not insist on
        // filling all 14,400 slots first).
        let out = embed_many(6, &[FaultSet::empty(6)]);
        assert_eq!(out[0].as_ref().unwrap().len(), 720);
    }
}
