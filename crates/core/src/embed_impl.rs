//! Public entry points: Theorem 1.

use star_fault::{FaultSet, RingCheck, RingError};
use star_perm::factorial;
use star_perm::packed::PackedPerm;

use crate::{expand, hierarchy, positions, small_n, EmbedError, EmbeddedRing};

/// Options controlling the embedder.
#[derive(Debug, Clone)]
pub struct EmbedOptions {
    /// Re-verify the output ring (adjacency, distinctness, health, length)
    /// before returning. O(ring length); on by default.
    pub verify: bool,
    /// Seam-choice salt (see [`expand::expand_with_salt`]); 0 is the
    /// canonical choice. Used by the mixed embedder's retry loop.
    pub salt: usize,
    /// Index (0..3) into the spare-position list used for the Lemma-7
    /// partition.
    pub spare_index: usize,
}

impl Default for EmbedOptions {
    fn default() -> Self {
        EmbedOptions {
            verify: true,
            salt: 0,
            spare_index: 0,
        }
    }
}

/// **Theorem 1.** Embeds a healthy ring of length `n! - 2|F_v|` into `S_n`
/// with `|F_v| <= n-3` vertex faults (`3 <= n <= 12`).
///
/// The result is worst-case optimal: when all faults share a partite set no
/// healthy cycle can be longer (the star graph is bipartite with equal
/// sides). Errors are returned for out-of-budget fault sets, dimension
/// mismatches, and edge faults (see [`crate::mixed`] for those).
///
/// # Examples
///
/// ```
/// use star_fault::FaultSet;
/// use star_perm::Perm;
/// use star_ring::embed_longest_ring;
///
/// let faults = FaultSet::from_vertices(5, [Perm::from_digits(5, 21345)]).unwrap();
/// let ring = embed_longest_ring(5, &faults).unwrap();
/// assert_eq!(ring.len(), 120 - 2);
/// assert!(ring.edges().all(|(a, b)| a.is_adjacent(b)));
/// ```
pub fn embed_longest_ring(n: usize, faults: &FaultSet) -> Result<EmbeddedRing, EmbedError> {
    embed_with_options(n, faults, &EmbedOptions::default())
}

/// Convenience: the fault-free Hamiltonian cycle of `S_n` (length `n!`).
pub fn embed_hamiltonian_cycle(n: usize) -> Result<EmbeddedRing, EmbedError> {
    embed_longest_ring(n, &FaultSet::empty(n))
}

/// [`embed_longest_ring`] with explicit [`EmbedOptions`].
pub fn embed_with_options(
    n: usize,
    faults: &FaultSet,
    opts: &EmbedOptions,
) -> Result<EmbeddedRing, EmbedError> {
    if !(3..=star_perm::MAX_N).contains(&n) {
        return Err(EmbedError::UnsupportedDimension { n });
    }
    if faults.n() != n {
        return Err(EmbedError::DimensionMismatch);
    }
    if faults.edge_fault_count() > 0 {
        return Err(EmbedError::EdgeFaultsUnsupported);
    }
    let budget = n.saturating_sub(3);
    if faults.vertex_fault_count() > budget {
        return Err(EmbedError::TooManyFaults {
            supplied: faults.vertex_fault_count(),
            budget,
        });
    }

    let mut root = star_obs::span("embed");
    root.record("n", n);
    root.record("faults", faults.vertex_fault_count());
    if let Some(trace) = star_obs::current_trace() {
        // Serving sets the request's trace id on the worker thread; the
        // whole construction transcript joins to it through this field
        // (flight-recorder events pick it up thread-locally on their own).
        root.record("trace", star_obs::format_trace(trace));
    }

    let embed = || -> Result<EmbeddedRing, EmbedError> {
        let vertices = match n {
            3 => star_obs::span("embed.expand").hold(|| small_n::embed_n3(faults))?,
            4 => star_obs::span("embed.expand").hold(|| small_n::embed_n4(faults))?,
            5 => star_obs::span("embed.expand")
                .hold(|| small_n::embed_n5_with(faults, opts.spare_index, opts.salt))?,
            _ => {
                let mut sp = star_obs::span("embed.positions");
                let plan = positions::select_positions(n, faults)?;
                sp.record("sequence", plan.sequence.as_slice());
                sp.record("spare", plan.spare.as_slice());
                drop(sp);
                let r4 = star_obs::span("embed.hierarchy")
                    .hold(|| hierarchy::build_r4(n, faults, &plan))?;
                let spare = plan.spare[opts.spare_index % plan.spare.len()];
                let mut sp = star_obs::span("embed.expand");
                sp.record("spare_pos", spare);
                sp.record("salt", opts.salt);
                sp.hold(|| expand::expand_with_salt(&r4, faults, spare, opts.salt))?
            }
        };

        let ring = EmbeddedRing::new(n, vertices);
        let expected = factorial(n) - 2 * faults.vertex_fault_count() as u64;
        debug_assert_eq!(ring.len() as u64, expected);
        if opts.verify {
            let mut sp = star_obs::span("embed.verify");
            sp.record("len", ring.len());
            sp.hold(|| verify_ring(&ring, faults))?;
            if ring.len() as u64 != expected {
                return Err(EmbedError::ExpansionFailed { block: 0 });
            }
        }
        Ok(ring)
    };

    let result = embed();
    match &result {
        Ok(ring) => {
            root.record("len", ring.len());
            star_obs::incr("embed.success", 1);
        }
        Err(e) => {
            root.record("error", 1u64);
            star_obs::incr("embed.error", 1);
            if star_obs::flightrec::enabled() {
                star_obs::flightrec::record("embed.error", e.to_string(), &[]);
                star_obs::flightrec::dump_on_failure("embed.error");
            }
        }
    }
    result
}

/// Internal verification: one [`RingCheck`] fold over the ring (simple,
/// healthy, cyclically adjacent). A defect is reported as
/// `ExpansionFailed` at the ring position the check found it.
pub(crate) fn verify_ring(ring: &EmbeddedRing, faults: &FaultSet) -> Result<(), EmbedError> {
    let fail = |e: RingError| EmbedError::ExpansionFailed { block: e.index() };
    let mut check = RingCheck::new(ring.n(), faults).map_err(fail)?;
    check
        .push_all(ring.vertices().iter().map(PackedPerm::from_perm))
        .map_err(fail)?;
    check.finish().map(drop).map_err(fail)
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_fault::gen;
    use star_perm::{Parity, Perm};

    #[test]
    fn theorem_1_random_faults_n6_n7() {
        for n in [6usize, 7] {
            for fv in 0..=(n - 3) {
                for seed in 0..5 {
                    let faults = gen::random_vertex_faults(n, fv, seed).unwrap();
                    let ring = embed_longest_ring(n, &faults).unwrap();
                    assert_eq!(
                        ring.len() as u64,
                        factorial(n) - 2 * fv as u64,
                        "n={n} fv={fv} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn theorem_1_worst_case_faults() {
        for n in [5usize, 6, 7] {
            let faults = gen::worst_case_same_partite(n, n - 3, Parity::Odd, 17).unwrap();
            let ring = embed_longest_ring(n, &faults).unwrap();
            assert_eq!(ring.len() as u64, factorial(n) - 2 * (n as u64 - 3));
        }
    }

    #[test]
    fn rejects_bad_inputs() {
        assert!(matches!(
            embed_longest_ring(2, &FaultSet::empty(2)),
            Err(EmbedError::UnsupportedDimension { .. })
        ));
        assert!(matches!(
            embed_longest_ring(6, &FaultSet::empty(5)),
            Err(EmbedError::DimensionMismatch)
        ));
        let too_many = gen::random_vertex_faults(5, 3, 0).unwrap();
        assert!(matches!(
            embed_longest_ring(5, &too_many),
            Err(EmbedError::TooManyFaults { .. })
        ));
        let edges = gen::random_edge_faults(5, 1, 0).unwrap();
        assert!(matches!(
            embed_longest_ring(5, &edges),
            Err(EmbedError::EdgeFaultsUnsupported)
        ));
    }

    #[test]
    fn hamiltonian_cycles_small() {
        for n in 3..=7 {
            let ring = embed_hamiltonian_cycle(n).unwrap();
            assert_eq!(ring.len() as u64, factorial(n));
        }
    }

    #[test]
    fn adversarial_neighborhood_full_budget() {
        for n in [6usize, 7] {
            let faults = gen::adversarial_neighborhood(n, n - 3).unwrap();
            let ring = embed_longest_ring(n, &faults).unwrap();
            assert_eq!(ring.len() as u64, factorial(n) - 2 * (n as u64 - 3));
            // The stranded-victim neighborhood: the victim itself is healthy
            // and must be on the ring.
            assert!(ring.vertices().contains(&Perm::identity(n)));
        }
    }

    #[test]
    fn all_spare_positions_work() {
        let faults = gen::random_vertex_faults(6, 3, 5).unwrap();
        for spare_index in 0..3 {
            let opts = EmbedOptions {
                spare_index,
                ..Default::default()
            };
            let ring = embed_with_options(6, &faults, &opts).unwrap();
            assert_eq!(ring.len(), 714);
        }
    }

    /// The tamper matrix, for the embedder's self-verify: every defect
    /// is `ExpansionFailed` at the ring position where it sits (the first
    /// vertex of a bad step). `EmbeddedRing::new` already refuses a
    /// vertex of another dimension, so the wrong `n` here is the fault
    /// set's.
    #[test]
    fn verify_ring_rejects_every_tampered_ring_at_its_position() {
        let n = 5;
        let faults = gen::random_vertex_faults(n, 1, 3).unwrap();
        let ring = embed_longest_ring(n, &faults).unwrap().into_vertices();
        let len = ring.len();
        let verify = |vertices: Vec<Perm>, faults: &FaultSet| {
            verify_ring(&EmbeddedRing::new(n, vertices), faults)
        };
        let at = |block: usize| Err(EmbedError::ExpansionFailed { block });
        let with_edge = |a: Perm, b: Perm| {
            let mut f = faults.clone();
            f.add_edge(star_graph::Edge::new(a, b).unwrap()).unwrap();
            f
        };
        assert_eq!(verify(ring.clone(), &faults), Ok(()));
        for p in [2usize, 7, 60] {
            let repeat = [&ring[..p], &ring[p - 2..len - 2]].concat();
            assert_eq!(verify(repeat, &faults), at(p), "repeat at {p}");
            let faulty = FaultSet::from_vertices(n, [ring[p]]).unwrap();
            assert_eq!(verify(ring.clone(), &faulty), at(p), "fault at {p}");
            let dead_link = with_edge(ring[p - 1], ring[p]);
            assert_eq!(verify(ring.clone(), &dead_link), at(p - 1), "edge into {p}");
            let skip = [&ring[..p], &ring[p + 1..]].concat();
            assert_eq!(verify(skip, &faults), at(p - 1), "skip {p}");
        }
        assert_eq!(verify(ring.clone(), &FaultSet::empty(n + 1)), at(0));
        assert_eq!(verify(ring[..len - 1].to_vec(), &faults), at(len - 2));
        let dead_closing = with_edge(ring[len - 1], ring[0]);
        assert_eq!(verify(ring.clone(), &dead_closing), at(len - 1));
        assert_eq!(verify(ring[..2].to_vec(), &faults), at(2));
    }
}
