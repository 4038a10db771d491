//! The [`FaultSet`] type.

use std::collections::HashSet;

use star_graph::{Edge, Pattern};
use star_perm::Perm;

use crate::FaultError;

/// A set of vertex and edge faults in `S_n`.
///
/// Vertex faults model dead processors, edge faults dead links. Queries are
/// O(1) via Lehmer-rank hash sets; iteration uses insertion order so
/// experiments are reproducible.
///
/// # Examples
///
/// ```
/// use star_fault::FaultSet;
/// use star_perm::Perm;
///
/// let dead = Perm::from_digits(4, 2134);
/// let faults = FaultSet::from_vertices(4, [dead]).unwrap();
/// assert!(faults.is_vertex_faulty(&dead));
/// assert!(faults.is_vertex_healthy(&Perm::identity(4)));
/// assert_eq!(faults.total_fault_count(), 1); // the n - 3 = 1 budget
/// ```
#[derive(Debug, Clone, Default)]
pub struct FaultSet {
    n: usize,
    vertex_ranks: HashSet<u32>,
    vertex_list: Vec<Perm>,
    edge_ranks: HashSet<(u32, u32)>,
    edge_list: Vec<Edge>,
}

impl FaultSet {
    /// An empty fault set over `S_n`.
    pub fn empty(n: usize) -> Self {
        FaultSet {
            n,
            ..Default::default()
        }
    }

    /// Builds a vertex-fault-only set.
    pub fn from_vertices<I>(n: usize, vertices: I) -> Result<Self, FaultError>
    where
        I: IntoIterator<Item = Perm>,
    {
        let mut fs = FaultSet::empty(n);
        for v in vertices {
            fs.add_vertex(v)?;
        }
        Ok(fs)
    }

    /// Builds an edge-fault-only set.
    pub fn from_edges<I>(n: usize, edges: I) -> Result<Self, FaultError>
    where
        I: IntoIterator<Item = Edge>,
    {
        let mut fs = FaultSet::empty(n);
        for e in edges {
            fs.add_edge(e)?;
        }
        Ok(fs)
    }

    /// The star-graph dimension this fault set applies to.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// Adds a vertex fault.
    pub fn add_vertex(&mut self, v: Perm) -> Result<(), FaultError> {
        if v.n() != self.n {
            return Err(FaultError::DimensionMismatch {
                expected: self.n,
                found: v.n(),
            });
        }
        if !self.vertex_ranks.insert(v.rank()) {
            return Err(FaultError::DuplicateFault);
        }
        self.vertex_list.push(v);
        Ok(())
    }

    /// Adds an edge fault.
    pub fn add_edge(&mut self, e: Edge) -> Result<(), FaultError> {
        if e.lo().n() != self.n {
            return Err(FaultError::DimensionMismatch {
                expected: self.n,
                found: e.lo().n(),
            });
        }
        if !self.edge_ranks.insert((e.lo().rank(), e.hi().rank())) {
            return Err(FaultError::DuplicateFault);
        }
        self.edge_list.push(e);
        Ok(())
    }

    /// `|F_v|`.
    #[inline]
    pub fn vertex_fault_count(&self) -> usize {
        self.vertex_list.len()
    }

    /// `|F_e|`.
    #[inline]
    pub fn edge_fault_count(&self) -> usize {
        self.edge_list.len()
    }

    /// `|F_v| + |F_e|`.
    #[inline]
    pub fn total_fault_count(&self) -> usize {
        self.vertex_list.len() + self.edge_list.len()
    }

    /// `true` iff there are no faults at all.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vertex_list.is_empty() && self.edge_list.is_empty()
    }

    /// `true` iff `v` is a faulty processor.
    #[inline]
    pub fn is_vertex_faulty(&self, v: &Perm) -> bool {
        v.n() == self.n && self.vertex_ranks.contains(&v.rank())
    }

    /// `true` iff `v` is healthy.
    #[inline]
    pub fn is_vertex_healthy(&self, v: &Perm) -> bool {
        !self.is_vertex_faulty(v)
    }

    /// `true` iff the link `{u, v}` is faulty (only meaningful for adjacent
    /// pairs; non-edges report `false`).
    pub fn is_edge_faulty(&self, u: &Perm, v: &Perm) -> bool {
        let (a, b) = if u.rank() <= v.rank() {
            (u.rank(), v.rank())
        } else {
            (v.rank(), u.rank())
        };
        self.edge_ranks.contains(&(a, b))
    }

    /// `true` iff the step `u -> v` may be used: both processors and the
    /// link between them are healthy.
    pub fn is_step_healthy(&self, u: &Perm, v: &Perm) -> bool {
        self.is_vertex_healthy(u) && self.is_vertex_healthy(v) && !self.is_edge_faulty(u, v)
    }

    /// The faulty vertices, in insertion order.
    pub fn vertices(&self) -> &[Perm] {
        &self.vertex_list
    }

    /// The faulty edges, in insertion order.
    pub fn edges(&self) -> &[Edge] {
        &self.edge_list
    }

    /// The vertex faults that lie inside an embedded sub-star.
    pub fn vertex_faults_in(&self, pattern: &Pattern) -> Vec<Perm> {
        self.vertex_list
            .iter()
            .filter(|v| pattern.contains(v))
            .copied()
            .collect()
    }

    /// Number of vertex faults inside an embedded sub-star.
    pub fn count_vertex_faults_in(&self, pattern: &Pattern) -> usize {
        self.vertex_list
            .iter()
            .filter(|v| pattern.contains(v))
            .count()
    }

    /// The edge faults with **both** endpoints inside the pattern.
    pub fn edge_faults_within(&self, pattern: &Pattern) -> Vec<Edge> {
        self.edge_list
            .iter()
            .filter(|e| pattern.contains(e.lo()) && pattern.contains(e.hi()))
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_queries() {
        let f1 = Perm::from_digits(5, 21345);
        let f2 = Perm::from_digits(5, 32145);
        let fs = FaultSet::from_vertices(5, [f1, f2]).unwrap();
        assert_eq!(fs.vertex_fault_count(), 2);
        assert!(fs.is_vertex_faulty(&f1));
        assert!(fs.is_vertex_healthy(&Perm::identity(5)));
    }

    #[test]
    fn duplicate_and_mismatch_rejected() {
        let mut fs = FaultSet::empty(5);
        let f = Perm::from_digits(5, 21345);
        fs.add_vertex(f).unwrap();
        assert_eq!(fs.add_vertex(f), Err(FaultError::DuplicateFault));
        assert!(matches!(
            fs.add_vertex(Perm::identity(4)),
            Err(FaultError::DimensionMismatch { .. })
        ));
    }

    #[test]
    fn edge_faults() {
        let u = Perm::identity(4);
        let v = u.star_move(2);
        let e = Edge::new(u, v).unwrap();
        let fs = FaultSet::from_edges(4, [e]).unwrap();
        assert!(fs.is_edge_faulty(&u, &v));
        assert!(fs.is_edge_faulty(&v, &u));
        assert!(!fs.is_edge_faulty(&u, &u.star_move(1)));
        assert!(!fs.is_step_healthy(&u, &v));
        assert!(fs.is_step_healthy(&u, &u.star_move(1)));
    }

    #[test]
    fn pattern_queries() {
        let p = Pattern::from_spec(&[0, 0, 0, 4, 5]).unwrap();
        let inside = Perm::from_digits(5, 21345);
        let outside = Perm::from_digits(5, 21354);
        let fs = FaultSet::from_vertices(5, [inside, outside]).unwrap();
        assert_eq!(fs.vertex_faults_in(&p), vec![inside]);
        assert_eq!(fs.count_vertex_faults_in(&p), 1);

        // Edge fully inside vs crossing.
        let e_in = Edge::new(inside, inside.star_move(1)).unwrap();
        let e_cross = Edge::new(inside, inside.star_move(3)).unwrap();
        let fs2 = FaultSet::from_edges(5, [e_in, e_cross]).unwrap();
        assert_eq!(fs2.edge_faults_within(&p), vec![e_in]);
    }
}
