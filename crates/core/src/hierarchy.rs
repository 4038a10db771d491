//! Lemma 3: building the `R^4` with properties (P1), (P2), (P3).
//!
//! Starting from the clique ring `R^{n-1}` (an `a_1`-partition of `S_n`
//! yields `n` pairwise-adjacent super-vertices), each refinement step
//! partitions every super-vertex `A_k` of the current `R^{r+1}` at the next
//! position into a clique `K_{r+1}` of `r`-vertices and threads a
//! Hamiltonian path through it, interleaved with super-edges at the seams.
//!
//! The seam discipline that makes everything work (paper's Lemmas 1 and 3):
//!
//! * consecutive super-vertices `A_k, A_{k+1}` hand over through a **shared
//!   free symbol** `w_k`: the exit of `A_k` is its sub-vertex pinned to
//!   `w_k`, the entry of `A_{k+1}` is *its* sub-vertex pinned to `w_k` —
//!   those two are adjacent;
//! * inside `A_k`, the path's **second** element must be connected to
//!   `A_{k-1}` and its **second-to-last** to `A_{k+1}` (each super-vertex
//!   has exactly one sub-vertex *not* connected to a given neighbor, the
//!   one pinned to Lemma 1's blocked symbol); this is precisely what makes
//!   property **(P2)** hold across every seam triple;
//! * on the final step (producing the `R^4`), choices are additionally
//!   fault-aware: no two consecutive faulty 4-vertices inside a path or
//!   across a seam — property **(P3)** — while Lemma 2's position plan
//!   already guarantees **(P1)**.
//!
//! Seam symbols are chosen by the seam scan Lemma 7 also uses
//! (`seam::scan`): each seam has `r-1` candidate symbols and the
//! constraints are local, so backtracking is rare; a failure is reported
//! as an error, never silently absorbed.

use star_fault::FaultSet;
use star_graph::partition::i_partition;
use star_graph::{Pattern, SuperRing, SymbolSet};
use star_perm::iter::next_permutation;

use crate::positions::PositionPlan;
use crate::seam::{self, Seat, Symbols};
use crate::EmbedError;

/// Builds the initial `R^{n-1}`: the `a_1`-partition of `S_n` produces `n`
/// super-vertices that are pairwise adjacent (all difs equal `a_1`), so any
/// cyclic order — we use increasing symbol order — is a super-ring, and
/// (P2) holds vacuously (distinct symbols at the shared dif).
pub fn initial_ring(n: usize, a1: usize) -> Result<SuperRing, EmbedError> {
    let parts = i_partition(&Pattern::full(n), a1)
        .map_err(|_| EmbedError::RefinementFailed { level: n })?;
    SuperRing::new(parts).map_err(|_| EmbedError::RefinementFailed { level: n })
}

/// What the seam scan reads of one super-vertex, computed once per
/// refinement step: 8 bytes, with no heap of its own.
#[derive(Debug, Clone, Copy)]
struct Clique {
    seat: Seat,
    /// Free symbols: one sub-vertex each at the partition position.
    free: SymbolSet,
    /// Free symbols whose sub-vertex holds a vertex fault (fault-aware
    /// step only).
    faulty: SymbolSet,
}

impl Clique {
    /// A path through the clique from `w_in` to `w_out`, if one exists.
    fn path(&self, w_in: u8, w_out: u8) -> Option<Symbols> {
        arrange_path(
            self.free,
            w_in,
            w_out,
            self.seat.blocked_prev,
            self.seat.blocked_next,
            self.faulty,
        )
    }
}

/// Refines `R^{r+1} -> R^r` by partitioning at `pos`. With `fault_aware`
/// the result additionally satisfies (P3) and keeps faulty sub-vertices
/// non-adjacent inside paths.
pub fn refine(
    ring: &SuperRing,
    pos: usize,
    faults: &FaultSet,
    fault_aware: bool,
) -> Result<SuperRing, EmbedError> {
    refine_opts(ring, pos, faults, fault_aware, None)
}

/// [`refine`] with an *interior* constraint: when
/// `keep_interior = Some(child)` names a sub-pattern produced by this
/// partition (i.e. `child` = some super-vertex of `ring` pinned at `pos`),
/// the refinement keeps that child strictly inside its parent's path —
/// never at a seam. Its two ring neighbors are then siblings differing at
/// `pos`, hence adjacent to *each other*, which is what lets the
/// Latifi-style construction later skip the child entirely and still close
/// the ring.
pub fn refine_opts(
    ring: &SuperRing,
    pos: usize,
    faults: &FaultSet,
    fault_aware: bool,
    keep_interior: Option<&Pattern>,
) -> Result<SuperRing, EmbedError> {
    let len = ring.len();
    let order = ring.r();
    debug_assert!(order >= 5, "refinement keeps order >= 4");
    let failed = || EmbedError::RefinementFailed { level: order };
    // The fault-aware step starts the chain, and the refined ring, at the
    // scan's healthy start.
    let start = if fault_aware {
        seam::healthy_start(len, |k| faults.count_vertex_faults_in(ring.get(k)) > 0)
    } else {
        0
    };
    let at = |k: usize| ring.get_wrapped(start + k);

    let cliques: Vec<Clique> = seam::seats(len, at)
        .enumerate()
        .map(|(k, seat)| {
            let cur = at(k);
            let mut faulty = SymbolSet::empty();
            if fault_aware {
                for f in faults.vertices().iter().filter(|f| cur.contains(f)) {
                    faulty.insert(f.get(pos));
                }
            }
            Clique {
                seat,
                free: cur.free_symbols(),
                faulty,
            }
        })
        .collect();

    // The interior constraint translates to: the two seams flanking the
    // child's parent must not use the child's symbol at `pos`.
    let interior = keep_interior.and_then(|child| {
        let child_sym = child
            .fixed_symbol(pos)
            .expect("keep_interior child pinned at partition position");
        let parent = (0..len).find(|&k| at(k).sub(pos, child_sym).ok() == Some(*child))?;
        Some((parent, child_sym))
    });

    // Seam k's candidates: the symbols free in both A_k and A_{k+1}, that
    // is A_k's free symbols but the one blocked toward A_{k+1}.
    let candidates = |k: usize| {
        let (cur, next) = (&cliques[k], &cliques[(k + 1) % len]);
        let mut common = cur.free;
        common.remove(cur.seat.blocked_next);
        // (P3) across the seam: the exit of k and the entry of k+1 must
        // not both be faulty.
        for w in cur.faulty.intersection(&next.faulty).iter() {
            common.remove(w);
        }
        if let Some((parent, child_sym)) = interior {
            if k == parent || (k + 1) % len == parent {
                common.remove(child_sym);
            }
        }
        Symbols::of(common)
    };
    let crosses =
        |k: usize, w_in: u8, w_out: u8| w_in != w_out && cliques[k].path(w_in, w_out).is_some();
    let seams = seam::scan(len, candidates, crosses).map_err(|_| failed())?;

    // Materialize: for each super-vertex, arrange its sub-vertices along
    // the chosen Hamiltonian path of the clique.
    let mut out: Vec<Pattern> = Vec::with_capacity(len * order);
    for (k, clique) in cliques.iter().enumerate() {
        let path = clique
            .path(seams[(k + len - 1) % len], seams[k])
            .ok_or_else(failed)?;
        let cur = at(k);
        for &z in path.as_slice() {
            out.push(cur.sub(pos, z).expect("free symbol at free position"));
        }
    }
    let refined = SuperRing::new(out).map_err(|_| failed())?;
    debug_assert!(refined.satisfies_p2(), "seam discipline implies (P2)");
    Ok(refined)
}

/// Runs the whole Lemma-3 pipeline for `n >= 6`: initial `a_1`-partition,
/// then one refinement per remaining position (the last one fault-aware),
/// yielding the `R^4` with (P1), (P2), (P3).
pub fn build_r4(n: usize, faults: &FaultSet, plan: &PositionPlan) -> Result<SuperRing, EmbedError> {
    debug_assert!(n >= 6);
    debug_assert_eq!(plan.sequence.len(), n - 4);
    let mut sp = star_obs::span("embed.hierarchy.level");
    sp.record("position", plan.sequence[0]);
    let mut ring = initial_ring(n, plan.sequence[0])?;
    sp.record("order", ring.r());
    sp.record("supervertices", ring.len());
    drop(sp);
    for (idx, &pos) in plan.sequence.iter().enumerate().skip(1) {
        let fault_aware = idx == plan.sequence.len() - 1;
        let mut sp = star_obs::span("embed.hierarchy.level");
        sp.record("position", pos);
        sp.record("fault_aware", u64::from(fault_aware));
        ring = refine(&ring, pos, faults, fault_aware)?;
        sp.record("order", ring.r());
        sp.record("supervertices", ring.len());
    }
    Ok(ring)
}

/// Arranges the free symbols of a super-vertex into a path order:
/// `[w_in, ..., w_out]` such that the second element is not `blocked_prev`,
/// the second-to-last is not `blocked_next`, and no two consecutive symbols
/// are both faulty. Returns `None` iff no order exists.
pub(crate) fn arrange_path(
    free: SymbolSet,
    w_in: u8,
    w_out: u8,
    blocked_prev: u8,
    blocked_next: u8,
    faulty: SymbolSet,
) -> Option<Symbols> {
    debug_assert!(free.contains(w_in) && free.contains(w_out) && w_in != w_out);
    let mut inner = free;
    inner.remove(w_in);
    inner.remove(w_out);
    let mut middle = Symbols::of(inner);
    let m = middle.as_slice().len();
    debug_assert_eq!(m, free.len() - 2);

    let check = |mid: &[u8]| -> bool {
        // Slot constraints.
        if !mid.is_empty() {
            if mid[0] == blocked_prev {
                return false;
            }
            if mid[m - 1] == blocked_next {
                return false;
            }
        } else {
            // Path is just [w_in, w_out]: second == w_out must connect to
            // the predecessor and second-to-last == w_in to the successor.
            if w_out == blocked_prev || w_in == blocked_next {
                return false;
            }
        }
        // Fault adjacency along the whole sequence.
        if !faulty.is_empty() {
            let mut prev = w_in;
            for &s in mid.iter().chain(std::iter::once(&w_out)) {
                if faulty.contains(prev) && faulty.contains(s) {
                    return false;
                }
                prev = s;
            }
        }
        true
    };
    let path = |mid: &[u8]| {
        let mut out = Symbols::EMPTY;
        out.push(w_in);
        for &s in mid {
            out.push(s);
        }
        out.push(w_out);
        out
    };

    if m <= 6 || !faulty.is_empty() {
        // Exhaustive over middle orders, from the increasing one (m! <= 720
        // in the exhaustive regime; the fault-aware step always has m = 3).
        loop {
            if check(middle.as_slice()) {
                return Some(path(middle.as_slice()));
            }
            if !next_permutation(middle.as_mut_slice()) {
                return None;
            }
        }
    }

    // Constructive placement for large fault-free cliques: blocked_next
    // first and blocked_prev last, or one symbol blocked both ways strictly
    // inside; the rest keep their increasing order.
    let mut rest = inner;
    rest.remove(blocked_prev);
    rest.remove(blocked_next);
    let rest = Symbols::of(rest);
    let rest = rest.as_slice();
    let mut placed = Symbols::EMPTY;
    let (bp, bn) = (inner.contains(blocked_prev), inner.contains(blocked_next));
    if bp && bn && blocked_prev == blocked_next {
        // Strictly interior since m >= 7 here.
        for (i, &s) in rest.iter().enumerate() {
            if i == m / 2 {
                placed.push(blocked_prev);
            }
            placed.push(s);
        }
    } else {
        if bn {
            placed.push(blocked_next);
        }
        for &s in rest {
            placed.push(s);
        }
        if bp {
            placed.push(blocked_prev);
        }
    }
    check(placed.as_slice()).then(|| path(placed.as_slice()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::positions::select_positions;
    use star_fault::gen;

    #[test]
    fn initial_ring_is_k_n() {
        let ring = initial_ring(6, 3).unwrap();
        assert_eq!(ring.len(), 6);
        assert_eq!(ring.r(), 5);
        assert!(ring.satisfies_p2());
        assert!(ring.covers_partition());
    }

    #[test]
    fn fault_free_r4_for_n6_and_n7() {
        for n in [6usize, 7] {
            let faults = FaultSet::empty(n);
            let plan = select_positions(n, &faults).unwrap();
            let r4 = build_r4(n, &faults, &plan).unwrap();
            assert_eq!(r4.r(), 4);
            assert!(r4.covers_partition(), "R^4 covers all of S_{n}");
            assert!(r4.satisfies_p2());
        }
    }

    #[test]
    fn faulty_r4_has_p1_p2_p3() {
        for n in [6usize, 7] {
            for seed in 0..10 {
                let faults = gen::random_vertex_faults(n, n - 3, seed).unwrap();
                let plan = select_positions(n, &faults).unwrap();
                let r4 = build_r4(n, &faults, &plan).unwrap();
                assert!(r4.satisfies_p2(), "n={n} seed={seed}");
                // P1 + P3:
                let len = r4.len();
                let counts: Vec<usize> = r4
                    .iter()
                    .map(|p| faults.count_vertex_faults_in(p))
                    .collect();
                assert!(counts.iter().all(|&c| c <= 1), "P1 n={n} seed={seed}");
                for i in 0..len {
                    assert!(
                        !(counts[i] > 0 && counts[(i + 1) % len] > 0),
                        "P3 violated at {i}, n={n} seed={seed}"
                    );
                }
            }
        }
    }

    #[test]
    fn worst_case_faults_r4() {
        for n in [6usize, 7, 8] {
            let faults =
                gen::worst_case_same_partite(n, n - 3, star_perm::Parity::Even, 3).unwrap();
            let plan = select_positions(n, &faults).unwrap();
            let r4 = build_r4(n, &faults, &plan).unwrap();
            assert!(r4.satisfies_p2());
            assert!(r4.covers_partition());
        }
    }

    #[test]
    fn keep_interior_places_child_mid_path() {
        // Refine a K_7 ring of 6-vertices in S_7 while keeping one child
        // interior: its ring neighbors must then be siblings (adjacent to
        // each other), which is what lets a caller excise it.
        let n = 7;
        let ring = initial_ring(n, 1).unwrap();
        let child = ring
            .get(2)
            .sub(2, ring.get(2).free_symbols().iter().next().unwrap())
            .unwrap();
        let refined = refine_opts(&ring, 2, &FaultSet::empty(n), false, Some(&child)).unwrap();
        let idx = (0..refined.len())
            .find(|&i| refined.get(i) == &child)
            .expect("child appears on the refined ring");
        let prev = refined.get_wrapped(idx + refined.len() - 1);
        let next = refined.get_wrapped(idx + 1);
        assert!(
            prev.is_adjacent(next),
            "interior child's neighbors must be mutually adjacent"
        );
    }

    fn set(symbols: impl IntoIterator<Item = u8>) -> SymbolSet {
        symbols.into_iter().collect()
    }

    #[test]
    fn arrange_path_respects_all_constraints() {
        // 5 symbols, faulty {2, 4}, blocked ends.
        let faulty = set([2, 4]);
        let p = arrange_path(set(1..=5), 1, 5, 3, 2, faulty).unwrap();
        let p = p.as_slice();
        assert_eq!(p.len(), 5);
        assert_eq!(p[0], 1);
        assert_eq!(p[4], 5);
        assert_ne!(p[1], 3);
        assert_ne!(p[3], 2);
        for w in p.windows(2) {
            assert!(!(faulty.contains(w[0]) && faulty.contains(w[1])));
        }
    }

    #[test]
    fn arrange_path_reports_infeasible() {
        // Three symbols, middle slot is both blocked_prev and blocked_next:
        // [w_in, b, w_out] violates the second-slot rule no matter what.
        assert!(arrange_path(set(1..=3), 1, 3, 2, 2, SymbolSet::empty()).is_none());
    }

    #[test]
    fn arrange_path_constructive_branch() {
        // Large clique, no faults: blocked_next first, blocked_prev last,
        // the rest in increasing order.
        let p = arrange_path(set(1..=11), 1, 11, 5, 7, SymbolSet::empty()).unwrap();
        assert_eq!(p.as_slice(), &[1, 7, 2, 3, 4, 6, 8, 9, 10, 5, 11]);
        // A symbol blocked both ways goes strictly inside, after m/2 of
        // the rest.
        let p = arrange_path(set(1..=11), 1, 11, 3, 3, SymbolSet::empty()).unwrap();
        assert_eq!(p.as_slice(), &[1, 2, 4, 5, 6, 3, 7, 8, 9, 10, 11]);
    }
}
