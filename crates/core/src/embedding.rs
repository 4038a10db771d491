//! The output type of the embedder.

use std::sync::OnceLock;

use star_perm::delta::RingDelta;
use star_perm::{factorial, Perm};

/// A fault-free ring embedded in `S_n`, held as the [`RingDelta`] the
/// expander writes: the start vertex plus one star dimension per step.
///
/// Lengths: `n!` with no faults, `n! - 2|F_v|` with `|F_v| <= n-3` vertex
/// faults (Theorem 1). Consecutive vertices (including last-to-first) are
/// adjacent in `S_n` — the embedding has dilation 1 and unit load, so ring
/// algorithms run on the faulty star with no slowdown. The vertex list is
/// decoded once, on first use of [`EmbeddedRing::vertices`]; two rings
/// are equal when their deltas are.
#[derive(Debug, Clone)]
pub struct EmbeddedRing {
    delta: RingDelta,
    vertices: OnceLock<Vec<Perm>>,
}

impl EmbeddedRing {
    /// Wraps a vertex sequence, encoding it as a delta. The embedder
    /// validates before constructing; external users should prefer
    /// running `star-verify::check_ring` on anything they build by hand.
    ///
    /// # Panics
    /// Panics if `vertices` is empty, holds a vertex of another
    /// dimension, or has two consecutive vertices that are not adjacent.
    pub fn new(n: usize, vertices: Vec<Perm>) -> Self {
        assert!(vertices.iter().all(|v| v.n() == n), "vertex outside S_{n}");
        let delta = RingDelta::encode(&vertices).unwrap_or_else(|e| panic!("not a ring: {e}"));
        EmbeddedRing {
            delta,
            vertices: OnceLock::from(vertices),
        }
    }

    /// Wraps a delta.
    pub fn from_delta(delta: RingDelta) -> Self {
        EmbeddedRing {
            delta,
            vertices: OnceLock::new(),
        }
    }

    /// The host dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.delta.n()
    }

    /// Ring length (number of vertices = number of edges).
    #[inline]
    pub fn len(&self) -> usize {
        self.delta.len() as usize
    }

    /// Rings are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The ring as a delta.
    #[inline]
    pub fn delta(&self) -> &RingDelta {
        &self.delta
    }

    /// Consumes the ring, returning the delta.
    pub fn into_delta(self) -> RingDelta {
        self.delta
    }

    /// The cyclic vertex sequence, decoded on first use.
    pub fn vertices(&self) -> &[Perm] {
        self.vertices.get_or_init(|| self.delta.decode())
    }

    /// Consumes the ring, returning the vertex sequence.
    pub fn into_vertices(self) -> Vec<Perm> {
        let delta = self.delta;
        self.vertices.into_inner().unwrap_or_else(|| delta.decode())
    }

    /// How many vertices were lost relative to a full Hamiltonian ring.
    pub fn deficiency(&self) -> u64 {
        factorial(self.n()) - self.len() as u64
    }
}

impl PartialEq for EmbeddedRing {
    fn eq(&self, other: &Self) -> bool {
        self.delta == other.delta
    }
}

impl Eq for EmbeddedRing {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertices_decode_the_delta_once_and_match_the_encoded_list() {
        let ring = crate::embed_hamiltonian_cycle(4).unwrap();
        assert_eq!(ring.len(), 24);
        assert_eq!(ring.deficiency(), 0);
        let vertices = ring.vertices().to_vec();
        assert!(std::ptr::eq(ring.vertices(), ring.vertices()));
        let rebuilt = EmbeddedRing::new(4, vertices.clone());
        assert_eq!(rebuilt, ring);
        assert_eq!(rebuilt.delta(), ring.delta());
        assert_eq!(ring.clone().into_vertices(), vertices);
        assert_eq!(
            EmbeddedRing::from_delta(ring.into_delta()).vertices(),
            vertices
        );
    }

    #[test]
    #[should_panic(expected = "not a ring")]
    fn new_refuses_a_non_adjacent_list() {
        let v = Perm::identity(4);
        EmbeddedRing::new(4, vec![v, v.star_move(1).star_move(2).star_move(1)]);
    }
}
