//! The output type of the embedder.

use star_perm::{factorial, Perm};

/// A fault-free ring embedded in `S_n`, as the cyclic vertex sequence.
///
/// Lengths: `n!` with no faults, `n! - 2|F_v|` with `|F_v| <= n-3` vertex
/// faults (Theorem 1). Consecutive vertices (including last-to-first) are
/// adjacent in `S_n` — the embedding has dilation 1 and unit load, so ring
/// algorithms run on the faulty star with no slowdown.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EmbeddedRing {
    n: usize,
    vertices: Vec<Perm>,
}

impl EmbeddedRing {
    /// Wraps a vertex sequence. The embedder validates before constructing;
    /// external users should prefer running `star-verify::check_ring` on
    /// anything they build by hand.
    pub fn new(n: usize, vertices: Vec<Perm>) -> Self {
        debug_assert!(vertices.iter().all(|v| v.n() == n));
        EmbeddedRing { n, vertices }
    }

    /// The host dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Ring length (number of vertices = number of edges).
    #[inline]
    pub fn len(&self) -> usize {
        self.vertices.len()
    }

    /// Rings are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertices.is_empty()
    }

    /// The cyclic vertex sequence.
    #[inline]
    pub fn vertices(&self) -> &[Perm] {
        &self.vertices
    }

    /// Consumes the ring, returning the vertex sequence.
    pub fn into_vertices(self) -> Vec<Perm> {
        self.vertices
    }

    /// Fraction of `S_n`'s processors kept usable by this ring.
    pub fn utilization(&self) -> f64 {
        self.vertices.len() as f64 / factorial(self.n) as f64
    }

    /// How many vertices were lost relative to a full Hamiltonian ring.
    pub fn deficiency(&self) -> u64 {
        factorial(self.n) - self.vertices.len() as u64
    }

    /// Rebuilds a ring from Lehmer ranks. The caller is responsible for
    /// the sequence actually being a ring; run `star-verify::check_ring` on
    /// anything untrusted.
    pub fn from_ranks(n: usize, ranks: &[u32]) -> Result<Self, star_perm::PermError> {
        let vertices = ranks
            .iter()
            .map(|&r| Perm::unrank(n, r))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(EmbeddedRing { n, vertices })
    }

    /// The position of `v` on the ring, if present. O(len).
    pub fn position_of(&self, v: &Perm) -> Option<usize> {
        self.vertices.iter().position(|x| x == v)
    }

    /// Iterates the ring's edges as `(vertex, successor)` pairs, including
    /// the wrap-around edge.
    pub fn edges(&self) -> impl Iterator<Item = (&Perm, &Perm)> + '_ {
        let len = self.vertices.len();
        (0..len).map(move |i| (&self.vertices[i], &self.vertices[(i + 1) % len]))
    }

    /// The same ring started at position `start` (rings are
    /// rotation-invariant; this is a convenience for aligning outputs).
    pub fn rotated(&self, start: usize) -> EmbeddedRing {
        let len = self.vertices.len();
        let start = start % len;
        let mut vertices = Vec::with_capacity(len);
        vertices.extend_from_slice(&self.vertices[start..]);
        vertices.extend_from_slice(&self.vertices[..start]);
        EmbeddedRing {
            n: self.n,
            vertices,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_ring() -> EmbeddedRing {
        crate::embed_hamiltonian_cycle(4).unwrap()
    }

    #[test]
    fn rank_roundtrip() {
        let ring = small_ring();
        let ranks: Vec<u32> = ring.vertices().iter().map(Perm::rank).collect();
        assert_eq!(ranks.len(), 24);
        let back = EmbeddedRing::from_ranks(4, &ranks).unwrap();
        assert_eq!(back, ring);
    }

    #[test]
    fn edges_cover_wraparound() {
        let ring = small_ring();
        let edges: Vec<_> = ring.edges().collect();
        assert_eq!(edges.len(), 24);
        for (a, b) in edges {
            assert!(a.is_adjacent(b));
        }
    }

    #[test]
    fn rotation_preserves_membership_and_adjacency() {
        let ring = small_ring();
        let rot = ring.rotated(7);
        assert_eq!(rot.len(), ring.len());
        assert_eq!(rot.vertices()[0], ring.vertices()[7]);
        for (a, b) in rot.edges() {
            assert!(a.is_adjacent(b));
        }
        assert_eq!(ring.rotated(0), ring);
    }

    #[test]
    fn position_and_metrics() {
        let ring = small_ring();
        let v = ring.vertices()[5];
        assert_eq!(ring.position_of(&v), Some(5));
        assert_eq!(ring.deficiency(), 0);
        assert!((ring.utilization() - 1.0).abs() < 1e-12);
    }
}
