//! Validity checks for embedded rings and paths: thin adapters over
//! [`star_fault::RingCheck`], the one ring validator.

use star_fault::{FaultSet, RingCheck, RingSummary};
use star_perm::{packed::PackedPerm, Perm};

/// Why a ring or path failed verification: [`star_fault::RingError`],
/// which every ring check in the workspace reports.
pub use star_fault::RingError as VerifyError;

/// Verifies that `vertices` is a simple, healthy **ring** of `S_n`: all
/// distinct healthy vertices, consecutive (and wrap-around) pairs adjacent
/// via healthy edges, and length at least 3 (the star graph's girth is 6,
/// so any real ring has length >= 6; 3 is the structural minimum for a
/// cycle). Reports the first defect in ring order; a valid ring yields
/// its length, STARRING-CERT checksum and Theorem-1 comparison.
pub fn check_ring(
    n: usize,
    vertices: &[Perm],
    faults: &FaultSet,
) -> Result<RingSummary, VerifyError> {
    let mut check = RingCheck::new(n, faults)?;
    check.push_all(vertices.iter().map(PackedPerm::from_perm))?;
    check.finish()
}

/// Verifies that `vertices` is a simple, healthy **path** of `S_n` (no
/// wrap-around requirement; a single vertex is a valid path).
pub fn check_path(n: usize, vertices: &[Perm], faults: &FaultSet) -> Result<(), VerifyError> {
    let mut check = RingCheck::new(n, faults)?;
    check.push_all(vertices.iter().map(PackedPerm::from_perm))?;
    if check.is_empty() {
        return Err(VerifyError::TooShort { len: 0 });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_graph::Edge;

    fn six_ring() -> Vec<Perm> {
        // S_3 is a 6-cycle; walk it.
        let mut v = Perm::identity(3);
        let mut out = vec![v];
        for d in [1, 2, 1, 2, 1] {
            v = v.star_move(d);
            out.push(v);
        }
        out
    }

    #[test]
    fn accepts_s3_six_cycle() {
        let ring = six_ring();
        assert_eq!(ring.len(), 6);
        check_ring(3, &ring, &FaultSet::empty(3)).unwrap();
    }

    #[test]
    fn rejects_broken_adjacency() {
        let mut ring = six_ring();
        ring.swap(1, 3);
        assert!(matches!(
            check_ring(3, &ring, &FaultSet::empty(3)),
            Err(VerifyError::NotAdjacent { .. })
        ));
    }

    #[test]
    fn rejects_repeats() {
        let mut ring = six_ring();
        ring[4] = ring[0];
        assert!(matches!(
            check_ring(3, &ring, &FaultSet::empty(3)),
            Err(VerifyError::RepeatedVertex { .. })
        ));
    }

    #[test]
    fn rejects_faulty_vertex_and_edge() {
        let ring = six_ring();
        let faults = FaultSet::from_vertices(3, [ring[2]]).unwrap();
        assert!(matches!(
            check_ring(3, &ring, &faults),
            Err(VerifyError::FaultyVertex { .. })
        ));
        let e = Edge::new(ring[5], ring[0]).unwrap();
        let efaults = FaultSet::from_edges(3, [e]).unwrap();
        assert!(matches!(
            check_ring(3, &ring, &efaults),
            Err(VerifyError::FaultyEdge { index: 5 })
        ));
    }

    #[test]
    fn rejects_short_and_wrong_dimension() {
        assert!(matches!(
            check_ring(3, &six_ring()[..2], &FaultSet::empty(3)),
            Err(VerifyError::TooShort { len: 2 })
        ));
        assert!(matches!(
            check_ring(4, &six_ring(), &FaultSet::empty(4)),
            Err(VerifyError::WrongDimension { index: 0 })
        ));
    }

    #[test]
    fn path_checks() {
        let ring = six_ring();
        check_path(3, &ring[..4], &FaultSet::empty(3)).unwrap();
        check_path(3, &ring[..1], &FaultSet::empty(3)).unwrap();
        assert!(check_path(3, &[], &FaultSet::empty(3)).is_err());
    }
}
