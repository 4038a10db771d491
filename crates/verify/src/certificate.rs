//! Ring certificates: a self-contained, re-checkable text artifact.
//!
//! An embedding is only as trustworthy as its verification, and
//! verification is only portable if the *object* is. A certificate bundles
//! everything needed to re-check a ring — dimension, fault set, the ring
//! as Lehmer ranks — plus an FNV-1a checksum for transport integrity, in a
//! line-oriented text format (`STARRING-CERT v1`):
//!
//! ```text
//! STARRING-CERT v1
//! n 6
//! fault 41523 6            # rank and (redundantly) n, one line per fault
//! efault 12 450            # faulty link, endpoint ranks
//! ring 714 0 5 17 ...      # length then the ranks
//! checksum 2f9a11bc0de455aa
//! ```
//!
//! [`verify_certificate`] re-derives everything from scratch — it does not
//! trust any field it can recompute.

use core::fmt;

use star_fault::FaultSet;
use star_perm::Perm;

use crate::{check_ring, VerifyError};

/// Errors raised when parsing or checking a certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CertificateError {
    /// Not a `STARRING-CERT v1` document, or a malformed line.
    Malformed(String),
    /// The checksum line does not match the ring data.
    ChecksumMismatch,
    /// The embedded ring fails verification.
    Invalid(VerifyError),
}

impl fmt::Display for CertificateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CertificateError::Malformed(what) => write!(f, "malformed certificate: {what}"),
            CertificateError::ChecksumMismatch => write!(f, "certificate checksum mismatch"),
            CertificateError::Invalid(e) => write!(f, "certified ring is invalid: {e}"),
        }
    }
}

impl std::error::Error for CertificateError {}

/// Summary of a successfully verified certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CertificateSummary {
    /// Host dimension.
    pub n: usize,
    /// Number of vertex faults the ring avoids.
    pub fault_count: usize,
    /// Ring length.
    pub ring_len: usize,
    /// Whether the length matches the paper's `n! - 2|F_v|` guarantee.
    pub at_guarantee: bool,
}

/// The running STARRING-CERT checksum lives with [`star_fault::RingCheck`],
/// which folds it while checking; streaming consumers (wire protocol v2)
/// verify a certificate checksum chunk by chunk through it.
pub use star_fault::{fold_checksum, CHECKSUM_BASIS};

/// The STARRING-CERT checksum of a full rank sequence.
pub fn ring_checksum(ranks: impl Iterator<Item = u32>) -> u64 {
    ranks.fold(CHECKSUM_BASIS, fold_checksum)
}

/// Produces the certificate text for a verified ring. (The caller should
/// hold a ring it believes in; the *consumer* re-verifies regardless.)
///
/// # Examples
///
/// ```
/// use star_fault::FaultSet;
/// use star_perm::Perm;
/// use star_verify::certificate::{certificate_for, verify_certificate};
///
/// // S_3 is itself a 6-cycle.
/// let mut v = Perm::identity(3);
/// let mut ring = vec![v];
/// for d in [1, 2, 1, 2, 1] {
///     v = v.star_move(d);
///     ring.push(v);
/// }
/// let cert = certificate_for(3, &FaultSet::empty(3), &ring);
/// assert!(verify_certificate(&cert).unwrap().at_guarantee);
/// ```
pub fn certificate_for(n: usize, faults: &FaultSet, ring: &[Perm]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "STARRING-CERT v1");
    let _ = writeln!(out, "n {n}");
    for f in faults.vertices() {
        let _ = writeln!(out, "fault {} {n}", f.rank());
    }
    for e in faults.edges() {
        let _ = writeln!(out, "efault {} {}", e.lo().rank(), e.hi().rank());
    }
    let _ = write!(out, "ring {}", ring.len());
    for v in ring {
        let _ = write!(out, " {}", v.rank());
    }
    out.push('\n');
    let checksum = ring_checksum(ring.iter().map(Perm::rank));
    let _ = writeln!(out, "checksum {checksum:016x}");
    out
}

/// Parses and fully re-verifies a certificate: checksum, permutation
/// validity, ring validity against the declared faults, and the
/// paper-guarantee comparison.
pub fn verify_certificate(text: &str) -> Result<CertificateSummary, CertificateError> {
    let mut lines = text.lines();
    if lines.next().map(str::trim) != Some("STARRING-CERT v1") {
        return Err(CertificateError::Malformed("missing header".into()));
    }
    let mut n: Option<usize> = None;
    let mut fault_ranks: Vec<u32> = Vec::new();
    let mut edge_fault_ranks: Vec<(u32, u32)> = Vec::new();
    let mut ring_ranks: Vec<u32> = Vec::new();
    let mut checksum: Option<u64> = None;
    for line in lines {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("n") => {
                n = Some(
                    parts
                        .next()
                        .and_then(|t| t.parse().ok())
                        .ok_or_else(|| CertificateError::Malformed("bad n line".into()))?,
                );
            }
            Some("fault") => {
                let rank: u32 = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| CertificateError::Malformed("bad fault line".into()))?;
                fault_ranks.push(rank);
            }
            Some("efault") => {
                let a: u32 = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| CertificateError::Malformed("bad efault line".into()))?;
                let b: u32 = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| CertificateError::Malformed("bad efault line".into()))?;
                edge_fault_ranks.push((a, b));
            }
            Some("ring") => {
                let declared: usize = parts
                    .next()
                    .and_then(|t| t.parse().ok())
                    .ok_or_else(|| CertificateError::Malformed("bad ring length".into()))?;
                ring_ranks = parts
                    .map(|t| t.parse::<u32>())
                    .collect::<Result<_, _>>()
                    .map_err(|_| CertificateError::Malformed("bad ring rank".into()))?;
                if ring_ranks.len() != declared {
                    return Err(CertificateError::Malformed(format!(
                        "ring declares {declared} vertices but lists {}",
                        ring_ranks.len()
                    )));
                }
            }
            Some("checksum") => {
                checksum = Some(
                    parts
                        .next()
                        .and_then(|t| u64::from_str_radix(t, 16).ok())
                        .ok_or_else(|| CertificateError::Malformed("bad checksum".into()))?,
                );
            }
            Some(other) => {
                return Err(CertificateError::Malformed(format!(
                    "unknown field {other}"
                )))
            }
            None => {}
        }
    }
    let n = n.ok_or_else(|| CertificateError::Malformed("missing n".into()))?;
    if !(1..=star_perm::MAX_N).contains(&n) {
        return Err(CertificateError::Malformed(format!("n = {n} out of range")));
    }
    let expected_checksum =
        checksum.ok_or_else(|| CertificateError::Malformed("missing checksum".into()))?;
    if ring_checksum(ring_ranks.iter().copied()) != expected_checksum {
        return Err(CertificateError::ChecksumMismatch);
    }
    let decode = |rank: u32| {
        Perm::unrank(n, rank)
            .map_err(|_| CertificateError::Malformed(format!("rank {rank} out of range")))
    };
    let mut faults = FaultSet::from_vertices(
        n,
        fault_ranks
            .iter()
            .map(|&r| decode(r))
            .collect::<Result<Vec<_>, _>>()?,
    )
    .map_err(|e| CertificateError::Malformed(e.to_string()))?;
    for &(a, b) in &edge_fault_ranks {
        let edge = star_graph::Edge::new(decode(a)?, decode(b)?)
            .map_err(|e| CertificateError::Malformed(e.to_string()))?;
        faults
            .add_edge(edge)
            .map_err(|e| CertificateError::Malformed(e.to_string()))?;
    }
    let ring: Vec<Perm> = ring_ranks
        .iter()
        .map(|&r| decode(r))
        .collect::<Result<_, _>>()?;
    let checked = check_ring(n, &ring, &faults).map_err(CertificateError::Invalid)?;
    Ok(CertificateSummary {
        n,
        fault_count: faults.vertex_fault_count(),
        ring_len: ring.len(),
        at_guarantee: checked.at_guarantee,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn six_ring() -> Vec<Perm> {
        let mut v = Perm::identity(3);
        let mut out = vec![v];
        for d in [1usize, 2, 1, 2, 1] {
            v = v.star_move(d);
            out.push(v);
        }
        out
    }

    #[test]
    fn roundtrip_verifies() {
        let ring = six_ring();
        let cert = certificate_for(3, &FaultSet::empty(3), &ring);
        let summary = verify_certificate(&cert).unwrap();
        assert_eq!(summary.n, 3);
        assert_eq!(summary.ring_len, 6);
        assert_eq!(summary.fault_count, 0);
        assert!(summary.at_guarantee);
    }

    #[test]
    fn tampering_is_detected() {
        let ring = six_ring();
        let cert = certificate_for(3, &FaultSet::empty(3), &ring);
        // Flip one ring rank without fixing the checksum.
        let tampered = cert.replace("ring 6 0", "ring 6 1");
        assert_eq!(
            verify_certificate(&tampered),
            Err(CertificateError::ChecksumMismatch)
        );
    }

    #[test]
    fn checksum_fixup_still_caught_by_reverification() {
        // An attacker who also fixes the checksum is caught by the actual
        // ring check (repeat vertex).
        let mut ranks: Vec<u32> = six_ring().iter().map(Perm::rank).collect();
        ranks[0] = ranks[1];
        let ring: Vec<Perm> = ranks.iter().map(|&r| Perm::unrank(3, r).unwrap()).collect();
        let cert = certificate_for(3, &FaultSet::empty(3), &ring);
        assert!(matches!(
            verify_certificate(&cert),
            Err(CertificateError::Invalid(_))
        ));
    }

    #[test]
    fn malformed_documents_rejected() {
        assert!(matches!(
            verify_certificate("not a cert"),
            Err(CertificateError::Malformed(_))
        ));
        assert!(matches!(
            verify_certificate("STARRING-CERT v1\nring 2 0 1\nchecksum 0\n"),
            Err(CertificateError::Malformed(_)) // missing n
        ));
        assert!(matches!(
            verify_certificate("STARRING-CERT v1\nn 99\nring 0\nchecksum cbf29ce484222325\n"),
            Err(CertificateError::Malformed(_)) // n out of range
        ));
    }

    #[test]
    fn edge_faults_are_certified_and_enforced() {
        // A ring that crosses a declared-faulty link must be rejected.
        let ring = six_ring();
        let e = star_graph::Edge::new(ring[0], ring[1]).unwrap();
        let faults = FaultSet::from_edges(3, [e]).unwrap();
        let cert = certificate_for(3, &faults, &ring);
        assert!(cert.contains("efault"));
        assert!(matches!(
            verify_certificate(&cert),
            Err(CertificateError::Invalid(_))
        ));
        // A certified faulty link *off* the ring is fine: use a 22-ring of
        // S_4 and fault one of the edges it skips.
        let g = star_graph::smallgraph::SmallGraph::from_star(4);
        let dead = Perm::identity(4);
        let mut blocked = vec![false; 24];
        blocked[dead.rank() as usize] = true;
        let (cycle, _) = g.longest_cycle(&blocked, u64::MAX);
        let ring4: Vec<Perm> = cycle
            .into_iter()
            .map(|id| Perm::unrank(4, id as u32).unwrap())
            .collect();
        // Any edge incident to the skipped vertex is off the ring.
        let off_ring = star_graph::Edge::new(dead, dead.star_move(1)).unwrap();
        let mut faults4 = FaultSet::from_vertices(4, [dead]).unwrap();
        faults4.add_edge(off_ring).unwrap();
        let cert = certificate_for(4, &faults4, &ring4);
        let summary = verify_certificate(&cert).unwrap();
        assert_eq!(summary.ring_len, 22);
    }

    #[test]
    fn hamiltonian_ring_certificate_via_search() {
        // Certify a Hamiltonian ring of S_4 found by exhaustive search
        // (faulty embedded rings are certified in the root integration
        // tests, where the embedder is available).
        let g = star_graph::smallgraph::SmallGraph::from_star(4);
        let (cycle, _) = g.longest_cycle(&[false; 24], u64::MAX);
        let ring: Vec<Perm> = cycle
            .into_iter()
            .map(|id| Perm::unrank(4, id as u32).unwrap())
            .collect();
        let cert = certificate_for(4, &FaultSet::empty(4), &ring);
        let summary = verify_certificate(&cert).unwrap();
        assert_eq!(summary.ring_len, 24);
        assert!(summary.at_guarantee);
    }
}
