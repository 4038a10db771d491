//! Incremental ring maintenance: local repair when new faults arrive.
//!
//! The global construction is O(n!); but a *new* fault usually damages
//! only one 4-vertex of the stored block structure. [`MaintainedRing`]
//! keeps the [`expand::BlockSegment`] decomposition alive and, when a
//! processor dies:
//!
//! 1. if the dead vertex is strictly inside one block's segment (not its
//!    entry or exit), it recomputes **only that block's path** with the
//!    same endpoints — a 24-vertex oracle query, microseconds, and every
//!    other segment (and therefore almost the entire ring) is untouched;
//! 2. otherwise (the fault hits a seam vertex, or the local query cannot
//!    reach the target length) it falls back to a global re-embed.
//!
//! A local repair shrinks the segment by exactly 2 vertices, so the ring
//! length remains `n! - 2|F_v|` — and because the repair is per-block, it
//! keeps working **beyond the paper's `n-3` budget** as long as faults
//! keep landing in distinct, repairable blocks (up to one fault per block
//! in the best case). The theorem guarantees repairs only within the
//! budget; beyond it this is best-effort, and every outcome is reported
//! honestly via [`RepairOutcome`].

use std::collections::HashMap;

use star_fault::FaultSet;
use star_perm::{factorial, Perm};

use crate::expand::BlockSegment;
use crate::{expand, hierarchy, oracle, positions, EmbedError, EmbeddedRing};

/// How a failure was absorbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepairOutcome {
    /// Only the named block's segment was recomputed.
    Local {
        /// Index of the repaired block in the segment list.
        block: usize,
    },
    /// The whole ring was re-embedded from scratch.
    Global,
}

/// A ring embedding kept alive across fault arrivals.
///
/// # Examples
///
/// ```
/// use star_fault::FaultSet;
/// use star_ring::repair::MaintainedRing;
///
/// let mut mr = MaintainedRing::new(6, &FaultSet::empty(6)).unwrap();
/// assert_eq!(mr.len(), 720);
/// // Kill a processor strictly inside some block: O(block) local repair.
/// let victim = mr.ring().vertices()[10];
/// mr.fail(victim).unwrap();
/// assert_eq!(mr.len(), 718);
/// assert!(mr.at_optimum());
/// ```
#[derive(Debug, Clone)]
pub struct MaintainedRing {
    n: usize,
    faults: FaultSet,
    segments: Vec<BlockSegment>,
    /// Maps a vertex's block (identified by its pinned-symbol key) to the
    /// segment index, for O(1) fault location.
    block_index: HashMap<star_graph::Pattern, usize>,
}

impl MaintainedRing {
    /// Builds the initial embedding (optimal for the given faults) and
    /// retains its block structure. Requires `n >= 6` (smaller dimensions
    /// have no block structure worth maintaining — embed directly).
    pub fn new(n: usize, faults: &FaultSet) -> Result<Self, EmbedError> {
        if !(6..=star_perm::MAX_N).contains(&n) {
            return Err(EmbedError::UnsupportedDimension { n });
        }
        let segments = build_segments(n, faults)?;
        let block_index = segments
            .iter()
            .enumerate()
            .map(|(i, s)| (s.block, i))
            .collect();
        Ok(MaintainedRing {
            n,
            faults: faults.clone(),
            segments,
            block_index,
        })
    }

    /// Host dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// Current fault set.
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// Current ring length.
    pub fn len(&self) -> usize {
        self.segments.iter().map(|s| s.path.len()).sum()
    }

    /// Rings are never empty.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Materializes the current ring.
    pub fn ring(&self) -> EmbeddedRing {
        let mut vs = Vec::with_capacity(self.len());
        for s in &self.segments {
            vs.extend_from_slice(&s.path);
        }
        EmbeddedRing::new(self.n, vs)
    }

    /// `true` iff the ring length still matches `n! - 2|F_v|` (always true
    /// within the budget; informative beyond it).
    pub fn at_optimum(&self) -> bool {
        self.len() as u64 == factorial(self.n) - 2 * self.faults.vertex_fault_count() as u64
    }

    /// Absorbs the failure of processor `v`.
    ///
    /// Errors if `v` is already faulty, or if neither local nor global
    /// repair can produce a valid ring (beyond-budget exhaustion).
    pub fn fail(&mut self, v: Perm) -> Result<RepairOutcome, EmbedError> {
        let mut sp = star_obs::span("repair");
        let result = self.fail_inner(v);
        match &result {
            Ok(RepairOutcome::Local { block }) => {
                sp.record("outcome", "local");
                sp.record("block", *block);
                star_obs::incr("repair.local", 1);
            }
            Ok(RepairOutcome::Global) => {
                sp.record("outcome", "global");
                star_obs::incr("repair.global", 1);
            }
            Err(_) => {
                sp.record("outcome", "error");
                star_obs::incr("repair.error", 1);
            }
        }
        result
    }

    fn fail_inner(&mut self, v: Perm) -> Result<RepairOutcome, EmbedError> {
        if v.n() != self.n {
            return Err(EmbedError::DimensionMismatch);
        }
        if self.faults.is_vertex_faulty(&v) {
            return Err(EmbedError::ExpansionFailed { block: 0 });
        }

        // Locate the block containing v *before* recording the fault: pin
        // the same positions its patterns pin. All blocks share the
        // pinned-position set, so read it off segment 0. If the stored
        // block structure is corrupt (empty, or pinned for a different
        // dimension) the locate cannot succeed — report it instead of
        // panicking, leaving the maintained state untouched.
        let home = match self.locate_home(&v) {
            Ok(home) => home,
            Err(e) => {
                star_obs::incr("repair.invariant_violation", 1);
                star_obs::flightrec::record("repair.locate_failed", e.to_string(), &[]);
                star_obs::flightrec::dump_on_failure("repair.locate_failed");
                return Err(e);
            }
        };

        // Record the fault. Keep a snapshot so any failed repair path can
        // roll back (the current ring must never contain a recorded fault).
        let saved = self.faults.clone();
        if self.faults.add_vertex(v).is_err() {
            return Err(EmbedError::InvariantViolation {
                context: "fault set rejected a vertex already checked healthy",
            });
        }
        if let Some(&idx) = self.block_index.get(&home) {
            let seg = &self.segments[idx];
            // Local repair: endpoints must survive and the block must
            // still admit a path of the required length.
            if v != seg.entry && v != seg.exit {
                let block_faults = self.faults.count_vertex_faults_in(&home);
                let target = oracle::HEALTHY_BLOCK_VERTICES - 2 * block_faults;
                let repaired = if !self.faults.edge_faults_within(&home).is_empty() {
                    // The block carries faulty edges (mixed extension):
                    // the replacement path must dodge them too.
                    oracle::block_path_avoiding_edges(
                        &home,
                        &seg.entry,
                        &seg.exit,
                        &self.faults,
                        target,
                    )
                } else if block_faults <= 1 {
                    // The paper's regime: answered from the dense memo
                    // table, lock-free once warm.
                    oracle::block_path(&home, &seg.entry, &seg.exit, &self.faults)
                } else {
                    // Beyond-budget pile-up in one block: exact search.
                    oracle::block_path_with_target(
                        &home,
                        &seg.entry,
                        &seg.exit,
                        &self.faults,
                        target,
                    )
                };
                if let Some(path) = repaired {
                    self.segments[idx].path = path;
                    crate::invariants::debug_assert_segments(
                        self.n,
                        &self.faults,
                        &self.segments,
                        "repair.local",
                    );
                    return Ok(RepairOutcome::Local { block: idx });
                }
            }
        }

        // Global fallback (only valid within the paper's budget). Any
        // failure restores the pre-fault snapshot so the maintained state
        // stays consistent (the current ring never contains a recorded
        // fault).
        let budget = self.n - 3;
        if self.faults.vertex_fault_count() > budget {
            self.faults = saved;
            return Err(EmbedError::TooManyFaults {
                supplied: budget + 1,
                budget,
            });
        }
        match build_segments(self.n, &self.faults) {
            Ok(segments) => {
                self.block_index = segments
                    .iter()
                    .enumerate()
                    .map(|(i, s)| (s.block, i))
                    .collect();
                self.segments = segments;
                crate::invariants::debug_assert_segments(
                    self.n,
                    &self.faults,
                    &self.segments,
                    "repair.global",
                );
                Ok(RepairOutcome::Global)
            }
            Err(e) => {
                self.faults = saved;
                Err(e)
            }
        }
    }

    /// Pins `v` into the block partition recorded by the stored segments.
    ///
    /// Fails (instead of panicking) when the block structure cannot answer
    /// the question: no segments at all, or pins that lie outside `v`'s
    /// dimension because a stored pattern was built for a different `n`.
    fn locate_home(&self, v: &Perm) -> Result<star_graph::Pattern, EmbedError> {
        let first = self
            .segments
            .first()
            .ok_or(EmbedError::InvariantViolation {
                context: "maintained ring has no segments",
            })?;
        let pins: Vec<usize> = first.block.fixed_positions().collect();
        if pins.iter().any(|&p| p == 0 || p >= self.n) {
            return Err(EmbedError::InvariantViolation {
                context: "stored block pins positions outside the host dimension",
            });
        }
        star_graph::partition::locate(v, &pins).map_err(|_| EmbedError::InvariantViolation {
            context: "vertex does not locate into the stored block partition",
        })
    }
}

fn build_segments(n: usize, faults: &FaultSet) -> Result<Vec<BlockSegment>, EmbedError> {
    let plan = positions::select_positions(n, faults)?;
    let r4 = hierarchy::build_r4(n, faults, &plan)?;
    expand::expand_structured(&r4, faults, plan.spare[0], 0, 2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_fault::gen;

    fn verify(mr: &MaintainedRing) {
        crate::embed_impl::verify_ring(&mr.ring(), mr.faults()).unwrap();
    }

    #[test]
    fn local_repairs_within_budget() {
        let n = 6;
        let mut mr = MaintainedRing::new(n, &FaultSet::empty(n)).unwrap();
        assert_eq!(mr.len(), 720);
        let mut locals = 0;
        for seed in 0..3u64 {
            // Pick a healthy vertex strictly inside some segment.
            let seg = &mr.segments[(seed as usize * 7) % mr.segments.len()];
            let v = seg.path[seg.path.len() / 2];
            match mr.fail(v).unwrap() {
                RepairOutcome::Local { .. } => locals += 1,
                RepairOutcome::Global => {}
            }
            assert!(mr.at_optimum());
            verify(&mr);
        }
        assert!(locals >= 2, "interior faults should repair locally");
        assert_eq!(mr.len(), 714);
    }

    #[test]
    fn seam_fault_forces_global() {
        let n = 6;
        let mut mr = MaintainedRing::new(n, &FaultSet::empty(n)).unwrap();
        let seam_vertex = mr.segments[5].entry;
        let outcome = mr.fail(seam_vertex).unwrap();
        assert_eq!(outcome, RepairOutcome::Global);
        assert!(mr.at_optimum());
        verify(&mr);
    }

    #[test]
    fn beyond_budget_keeps_repairing_locally() {
        // n = 6 budget is 3; drive 8 interior faults into distinct blocks.
        let n = 6;
        let mut mr = MaintainedRing::new(n, &FaultSet::empty(n)).unwrap();
        let mut applied = 0;
        let mut block = 0;
        while applied < 8 {
            let seg = &mr.segments[block % mr.segments.len()];
            let v = seg.path[seg.path.len() / 2];
            block += 3;
            if mr.faults().is_vertex_faulty(&v) {
                continue;
            }
            match mr.fail(v) {
                Ok(RepairOutcome::Local { .. }) => applied += 1,
                Ok(RepairOutcome::Global) => applied += 1,
                Err(EmbedError::TooManyFaults { .. }) => {
                    // Ring unchanged and still valid; pick another block.
                    verify(&mr);
                    continue;
                }
                Err(e) => panic!("unexpected error {e}"),
            }
            verify(&mr);
        }
        assert_eq!(mr.faults().vertex_fault_count(), 8);
        assert_eq!(mr.len() as u64, 720 - 16, "2 lost per fault, beyond budget");
        assert!(mr.at_optimum());
    }

    #[test]
    fn random_fault_initialization() {
        let faults = gen::random_vertex_faults(7, 4, 5).unwrap();
        let mr = MaintainedRing::new(7, &faults).unwrap();
        assert_eq!(mr.len(), 5032);
        verify(&mr);
    }

    #[test]
    fn edge_faults_survive_maintenance() {
        // Initialize with an edge fault (handled by the edge-aware
        // expansion), then take a vertex failure on top.
        let n = 6;
        let u = Perm::identity(n);
        let e = star_graph::Edge::new(u, u.star_move(3)).unwrap();
        let faults = FaultSet::from_edges(n, [e]).unwrap();
        let mut mr = MaintainedRing::new(n, &faults).unwrap();
        assert_eq!(mr.len(), 720);
        let victim = mr.segments[3].path[10];
        mr.fail(victim).unwrap();
        assert_eq!(mr.len(), 718);
        // The ring still avoids the faulty edge.
        verify(&mr);
    }

    #[test]
    fn double_fault_rejected() {
        let n = 6;
        let mut mr = MaintainedRing::new(n, &FaultSet::empty(n)).unwrap();
        let v = mr.segments[0].path[3];
        mr.fail(v).unwrap();
        assert!(mr.fail(v).is_err());
    }

    #[test]
    fn corrupt_block_structure_errors_instead_of_panicking() {
        // Regression: a stored block pattern pinned for a different host
        // dimension used to panic inside `locate` (out-of-bounds position
        // read) via `.expect("pins are valid positions")`. It must now
        // surface as `InvariantViolation` and leave the state untouched.
        let n = 6;
        let mut mr = MaintainedRing::new(n, &FaultSet::empty(n)).unwrap();
        let victim = mr.segments[0].path[3];
        mr.segments[0].block = star_graph::Pattern::full(12).sub(7, 1).unwrap();
        let err = mr.fail(victim).unwrap_err();
        assert!(
            matches!(err, EmbedError::InvariantViolation { .. }),
            "unexpected error: {err}"
        );
        // The failed call recorded nothing: no fault, ring length intact.
        assert_eq!(mr.faults().vertex_fault_count(), 0);
        assert_eq!(mr.len(), 720);
    }

    #[test]
    fn empty_segment_list_errors_instead_of_panicking() {
        let n = 6;
        let mut mr = MaintainedRing::new(n, &FaultSet::empty(n)).unwrap();
        let victim = mr.segments[0].path[3];
        mr.segments.clear();
        let err = mr.fail(victim).unwrap_err();
        assert!(
            matches!(err, EmbedError::InvariantViolation { .. }),
            "unexpected error: {err}"
        );
        assert_eq!(mr.faults().vertex_fault_count(), 0);
    }
}
