//! [`RingCheck`]: the one incremental ring validator.
//!
//! Every path that accepts a ring — the embedder's self-verify,
//! `star_verify::check_ring`, the v2 stream client, the oracle store's
//! audit and the server's `--verify` mode — folds it through this check,
//! one packed vertex at a time. Each push costs one O(n) Lehmer rank,
//! one probe of an `n!`-bit seen set, one XOR adjacency test and one
//! checksum round; nothing grows with the ring.

use core::fmt;

use star_perm::delta::RingDelta;
use star_perm::packed::PackedPerm;
use star_perm::{factorial, Perm, MAX_N};

use crate::FaultSet;

/// FNV-1a basis: the STARRING-CERT checksum before any rank is folded in.
pub const CHECKSUM_BASIS: u64 = 0xcbf29ce484222325;

/// Folds one ring rank into a running STARRING-CERT checksum:
/// `ranks.fold(CHECKSUM_BASIS, fold_checksum)` is the `checksum` line a
/// certificate carries for the same ranks in the same order.
#[inline]
pub fn fold_checksum(mut hash: u64, rank: u32) -> u64 {
    for byte in rank.to_le_bytes() {
        hash ^= byte as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// Why a ring or path failed its check. Indices are ring positions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RingError {
    /// The check was asked for a dimension outside `1..=MAX_N`.
    UnsupportedDimension {
        /// The requested dimension.
        n: usize,
    },
    /// The fault set belongs to a different star graph.
    FaultDimensionMismatch {
        /// The dimension being checked.
        n: usize,
        /// The fault set's dimension.
        faults: usize,
    },
    /// The sequence is empty or too short to be a ring.
    TooShort {
        /// Number of vertices supplied.
        len: usize,
    },
    /// A vertex has the wrong permutation size for `S_n`.
    WrongDimension {
        /// Index in the sequence.
        index: usize,
    },
    /// A vertex appears more than once.
    RepeatedVertex {
        /// Index of the second occurrence.
        index: usize,
        /// The repeated vertex.
        vertex: Perm,
    },
    /// Two consecutive vertices are not adjacent in `S_n`.
    NotAdjacent {
        /// Index of the first vertex of the offending step.
        index: usize,
    },
    /// A vertex on the ring is faulty.
    FaultyVertex {
        /// Index of the faulty vertex.
        index: usize,
        /// The vertex.
        vertex: Perm,
    },
    /// A step of the ring uses a faulty edge.
    FaultyEdge {
        /// Index of the first endpoint.
        index: usize,
    },
}

impl RingError {
    /// The ring position the defect was found at: the vertex or the
    /// first vertex of the step, the length for [`RingError::TooShort`],
    /// and 0 for errors raised before the first vertex.
    pub fn index(&self) -> usize {
        match self {
            RingError::UnsupportedDimension { .. } | RingError::FaultDimensionMismatch { .. } => 0,
            RingError::TooShort { len } => *len,
            RingError::WrongDimension { index }
            | RingError::RepeatedVertex { index, .. }
            | RingError::NotAdjacent { index }
            | RingError::FaultyVertex { index, .. }
            | RingError::FaultyEdge { index } => *index,
        }
    }
}

impl fmt::Display for RingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RingError::UnsupportedDimension { n } => {
                write!(f, "cannot check rings of S_{n} (supported: 1..={MAX_N})")
            }
            RingError::FaultDimensionMismatch { n, faults } => {
                write!(f, "fault set is for S_{faults}, not S_{n}")
            }
            RingError::TooShort { len } => write!(f, "sequence of {len} vertices is too short"),
            RingError::WrongDimension { index } => {
                write!(f, "vertex at index {index} has the wrong dimension")
            }
            RingError::RepeatedVertex { index, vertex } => {
                write!(f, "vertex {vertex} repeated at index {index}")
            }
            RingError::NotAdjacent { index } => {
                write!(
                    f,
                    "vertices at indices {index}, {} are not adjacent",
                    index + 1
                )
            }
            RingError::FaultyVertex { index, vertex } => {
                write!(f, "faulty vertex {vertex} on ring at index {index}")
            }
            RingError::FaultyEdge { index } => {
                write!(f, "faulty edge used at step {index} -> {}", index + 1)
            }
        }
    }
}

impl std::error::Error for RingError {}

/// What a completed check reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RingSummary {
    /// Vertices checked.
    pub ring_len: u64,
    /// STARRING-CERT checksum of the checked rank sequence.
    pub checksum: u64,
    /// Whether the length matches the paper's `n! - 2|F_v|` guarantee.
    pub at_guarantee: bool,
}

/// An incremental ring check over `S_n` against a fault set.
///
/// [`RingCheck::push`] takes the vertices in ring order and checks each
/// one — dimension, fault avoidance, uniqueness — before the step into
/// it — adjacency to the previous vertex, edge faults — so the first
/// defect in ring order is the one reported. [`RingCheck::finish`]
/// closes the ring. The state is an `n!`-bit seen set (44 KiB at
/// `n = 9`, 57 MiB at `n = 12`), the first and last vertex and the
/// running checksum. Once a push fails the check is spent.
///
/// # Examples
///
/// ```
/// use star_fault::{FaultSet, RingCheck};
/// use star_perm::{packed::PackedPerm, Perm};
///
/// // S_3 is itself a 6-cycle.
/// let mut check = RingCheck::new(3, &FaultSet::empty(3)).unwrap();
/// let mut v = PackedPerm::from_perm(&Perm::identity(3));
/// for d in [1, 2, 1, 2, 1, 2] {
///     check.push(v).unwrap();
///     v = v.star_move(d);
/// }
/// assert!(check.finish().unwrap().at_guarantee);
/// ```
pub struct RingCheck {
    n: usize,
    /// Bit `r` is set once rank `r` is on the ring. Vertex faults are
    /// pre-marked, so one probe catches both a repeat and a fault.
    seen: Vec<u64>,
    /// Sorted vertex-fault ranks, read only after a probe hits.
    fault_ranks: Vec<u32>,
    /// Sorted `(lo, hi)` rank pairs of the edge faults.
    edge_faults: Vec<(u32, u32)>,
    first: Option<(PackedPerm, u32)>,
    last: Option<(PackedPerm, u32)>,
    len: u64,
    checksum: u64,
}

impl RingCheck {
    /// Starts a check of a ring in `S_n` avoiding `faults`. Rejects `n`
    /// outside `1..=MAX_N` and a fault set for another dimension before
    /// allocating the seen set.
    pub fn new(n: usize, faults: &FaultSet) -> Result<RingCheck, RingError> {
        if !(1..=MAX_N).contains(&n) {
            return Err(RingError::UnsupportedDimension { n });
        }
        if faults.n() != n {
            return Err(RingError::FaultDimensionMismatch {
                n,
                faults: faults.n(),
            });
        }
        let mut seen = vec![0u64; factorial(n).div_ceil(64) as usize];
        let mut fault_ranks: Vec<u32> = faults.vertices().iter().map(Perm::rank).collect();
        for &r in &fault_ranks {
            seen[r as usize / 64] |= 1 << (r % 64);
        }
        fault_ranks.sort_unstable();
        let mut edge_faults: Vec<(u32, u32)> = faults
            .edges()
            .iter()
            .map(|e| ordered(e.lo().rank(), e.hi().rank()))
            .collect();
        edge_faults.sort_unstable();
        Ok(RingCheck {
            n,
            seen,
            fault_ranks,
            edge_faults,
            first: None,
            last: None,
            len: 0,
            checksum: CHECKSUM_BASIS,
        })
    }

    /// Checks the next vertex and the step into it, and folds its rank
    /// into the checksum.
    #[inline]
    pub fn push(&mut self, v: PackedPerm) -> Result<(), RingError> {
        let index = self.len as usize;
        if v.n() != self.n {
            return Err(RingError::WrongDimension { index });
        }
        let rank = v.rank() as u32;
        let (word, bit) = (rank as usize / 64, 1u64 << (rank % 64));
        if self.seen[word] & bit != 0 {
            return Err(self.fault_or_repeat(index, v, rank));
        }
        self.seen[word] |= bit;
        match self.last {
            Some((prev, prev_rank)) => self.check_step(index - 1, prev, prev_rank, v, rank)?,
            None => self.first = Some((v, rank)),
        }
        self.last = Some((v, rank));
        self.checksum = fold_checksum(self.checksum, rank);
        self.len += 1;
        Ok(())
    }

    /// Pushes every vertex of `vertices` in order.
    #[inline]
    pub fn push_all(
        &mut self,
        vertices: impl IntoIterator<Item = PackedPerm>,
    ) -> Result<(), RingError> {
        vertices.into_iter().try_for_each(|v| self.push(v))
    }

    /// Pushes every vertex a delta encodes, walking it without decoding.
    /// Steps inside the delta are checked like any other.
    pub fn push_delta(&mut self, delta: &RingDelta) -> Result<(), RingError> {
        self.push_all(delta.walk())
    }

    /// Vertices pushed so far.
    #[inline]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// `true` before the first push.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Closes the ring: at least 3 vertices, and a healthy edge from the
    /// last vertex back to the first.
    pub fn finish(&self) -> Result<RingSummary, RingError> {
        let (Some((first, first_rank)), Some((last, last_rank)), true) =
            (self.first, self.last, self.len >= 3)
        else {
            return Err(RingError::TooShort {
                len: self.len as usize,
            });
        };
        self.check_step(self.len as usize - 1, last, last_rank, first, first_rank)?;
        let guarantee = factorial(self.n).checked_sub(2 * self.fault_ranks.len() as u64);
        Ok(RingSummary {
            ring_len: self.len,
            checksum: self.checksum,
            at_guarantee: guarantee == Some(self.len),
        })
    }

    /// The step `a -> b`, whose first vertex sits at ring position `index`.
    #[inline]
    fn check_step(
        &self,
        index: usize,
        a: PackedPerm,
        a_rank: u32,
        b: PackedPerm,
        b_rank: u32,
    ) -> Result<(), RingError> {
        if !a.is_adjacent(&b) {
            return Err(RingError::NotAdjacent { index });
        }
        if !self.edge_faults.is_empty()
            && self
                .edge_faults
                .binary_search(&ordered(a_rank, b_rank))
                .is_ok()
        {
            return Err(RingError::FaultyEdge { index });
        }
        Ok(())
    }

    /// Classifies a vertex whose seen bit was already set.
    #[cold]
    fn fault_or_repeat(&self, index: usize, v: PackedPerm, rank: u32) -> RingError {
        let vertex = v.to_perm();
        if self.fault_ranks.binary_search(&rank).is_ok() {
            RingError::FaultyVertex { index, vertex }
        } else {
            RingError::RepeatedVertex { index, vertex }
        }
    }
}

fn ordered(a: u32, b: u32) -> (u32, u32) {
    if a <= b {
        (a, b)
    } else {
        (b, a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_graph::Edge;

    /// The 6-cycle that is all of `S_3`, as packed vertices.
    fn six_ring() -> Vec<PackedPerm> {
        let mut v = PackedPerm::from_perm(&Perm::identity(3));
        let mut out = vec![v];
        for d in [1, 2, 1, 2, 1] {
            v = v.star_move(d);
            out.push(v);
        }
        out
    }

    fn check(n: usize, ring: &[PackedPerm], faults: &FaultSet) -> Result<RingSummary, RingError> {
        let mut c = RingCheck::new(n, faults)?;
        c.push_all(ring.iter().copied())?;
        c.finish()
    }

    #[test]
    fn accepts_s3_and_folds_the_certificate_checksum() {
        let ring = six_ring();
        let summary = check(3, &ring, &FaultSet::empty(3)).unwrap();
        let want = ring
            .iter()
            .map(|v| v.rank() as u32)
            .fold(CHECKSUM_BASIS, fold_checksum);
        assert_eq!(summary.ring_len, 6);
        assert_eq!(summary.checksum, want);
        assert!(summary.at_guarantee);
    }

    #[test]
    fn pre_marked_faults_and_repeats_are_told_apart() {
        let ring = six_ring();
        let faults = FaultSet::from_vertices(3, [ring[2].to_perm()]).unwrap();
        assert!(matches!(
            check(3, &ring, &faults),
            Err(RingError::FaultyVertex { index: 2, .. })
        ));
        let mut repeated = ring.clone();
        repeated[4] = ring[0];
        assert!(matches!(
            check(3, &repeated, &FaultSet::empty(3)),
            Err(RingError::RepeatedVertex { index: 4, .. })
        ));
    }

    #[test]
    fn steps_and_the_closing_edge_are_checked() {
        let ring = six_ring();
        let closing = Edge::new(ring[5].to_perm(), ring[0].to_perm()).unwrap();
        let faults = FaultSet::from_edges(3, [closing]).unwrap();
        assert_eq!(
            check(3, &ring, &faults),
            Err(RingError::FaultyEdge { index: 5 })
        );
        assert_eq!(
            check(3, &ring[..5], &FaultSet::empty(3)),
            Err(RingError::NotAdjacent { index: 4 })
        );
        assert_eq!(
            check(3, &ring[..2], &FaultSet::empty(3)),
            Err(RingError::TooShort { len: 2 })
        );
    }

    #[test]
    fn the_vertex_is_checked_before_the_step_into_it() {
        // ring[3] is faulty and the step 1 -> 3 is not an edge: the
        // vertex defect at index 2 wins.
        let ring = six_ring();
        let faults = FaultSet::from_vertices(3, [ring[3].to_perm()]).unwrap();
        let skipping = [ring[0], ring[1], ring[3]];
        assert!(matches!(
            check(3, &skipping, &faults),
            Err(RingError::FaultyVertex { index: 2, .. })
        ));
    }

    #[test]
    fn new_rejects_unsupported_and_mismatched_dimensions() {
        assert!(matches!(
            RingCheck::new(13, &FaultSet::empty(13)),
            Err(RingError::UnsupportedDimension { n: 13 })
        ));
        assert!(matches!(
            RingCheck::new(0, &FaultSet::empty(0)),
            Err(RingError::UnsupportedDimension { n: 0 })
        ));
        assert!(matches!(
            RingCheck::new(7, &FaultSet::empty(6)),
            Err(RingError::FaultDimensionMismatch { n: 7, faults: 6 })
        ));
        let mut c = RingCheck::new(4, &FaultSet::empty(4)).unwrap();
        assert_eq!(
            c.push(six_ring()[0]),
            Err(RingError::WrongDimension { index: 0 })
        );
    }

    #[test]
    fn guarantee_never_underflows() {
        // A 6-cycle of S_4 (symbol 4 parked at position 3) with 13 of the
        // 18 vertices off it faulty: 4! - 2*13 would underflow.
        let mut v = PackedPerm::from_perm(&Perm::identity(4));
        let mut ring = vec![v];
        for d in [1, 2, 1, 2, 1] {
            v = v.star_move(d);
            ring.push(v);
        }
        let off_ring = (0..24u32)
            .map(|r| Perm::unrank(4, r).unwrap())
            .filter(|p| p.get(3) != 4)
            .take(13);
        let faults = FaultSet::from_vertices(4, off_ring).unwrap();
        let summary = check(4, &ring, &faults).unwrap();
        assert!(!summary.at_guarantee);
    }
}
