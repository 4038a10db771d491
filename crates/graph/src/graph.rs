//! The [`StarGraph`] facade.

use star_perm::{iter::PermIter, Perm, MAX_N};

use crate::{Edge, GraphError};

/// The n-dimensional star graph `S_n`.
///
/// `StarGraph` is a *combinatorial* graph: it stores only `n` and answers
/// adjacency/membership queries in O(n); vertex sets are never materialized
/// unless explicitly iterated. This keeps `S_10` (3.6M vertices) free until
/// an algorithm actually walks it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarGraph {
    n: usize,
}

impl StarGraph {
    /// Creates `S_n`. The paper considers `n >= 4` for ring embeddings,
    /// but the graph itself is defined for any `1 <= n <= MAX_N`
    /// (`S_1` is a vertex, `S_2` an edge, `S_3` a 6-cycle).
    pub fn new(n: usize) -> Result<Self, GraphError> {
        if !(1..=MAX_N).contains(&n) {
            return Err(GraphError::DimensionOutOfRange { n });
        }
        Ok(StarGraph { n })
    }

    /// The dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Number of vertices, `n!`.
    #[inline]
    pub fn vertex_count(&self) -> u64 {
        star_perm::factorial(self.n)
    }

    /// Number of edges, `n! (n-1) / 2`.
    #[inline]
    pub fn edge_count(&self) -> u64 {
        star_perm::factorial(self.n) * (self.n as u64 - 1) / 2
    }

    /// The regular degree, `n - 1`.
    #[inline]
    pub fn degree(&self) -> usize {
        self.n - 1
    }

    /// `true` iff `v` is a vertex of this graph (a permutation of the right
    /// size).
    #[inline]
    pub fn contains(&self, v: &Perm) -> bool {
        v.n() == self.n
    }

    /// The neighbors of `v`, in dimension order.
    pub fn neighbors(&self, v: &Perm) -> impl Iterator<Item = Perm> + use<> {
        debug_assert!(self.contains(v));
        let v = *v;
        (1..v.n()).map(move |d| v.star_move(d))
    }

    /// The edge between `u` and `v`, if adjacent.
    pub fn edge(&self, u: Perm, v: Perm) -> Result<Edge, GraphError> {
        Edge::new(u, v)
    }

    /// All vertices in Lehmer-rank order. O(n!) — only for walks and small-n
    /// exhaustive checks.
    pub fn vertices(&self) -> PermIter {
        PermIter::new(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts() {
        let g = StarGraph::new(5).unwrap();
        assert_eq!(g.vertex_count(), 120);
        assert_eq!(g.edge_count(), 240);
        assert_eq!(g.degree(), 4);
    }

    #[test]
    fn rejects_bad_dimension() {
        assert!(StarGraph::new(0).is_err());
        assert!(StarGraph::new(13).is_err());
    }

    #[test]
    fn handshake_lemma_small() {
        // Sum of degrees equals twice the edge count for S_4 by explicit
        // enumeration.
        let g = StarGraph::new(4).unwrap();
        let total: usize = g.vertices().map(|v| g.neighbors(&v).count()).sum();
        assert_eq!(total as u64, 2 * g.edge_count());
    }
}
