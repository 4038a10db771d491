//! Super-vertices and super-edges.
//!
//! When an `(i_1,...,i_{n-r})`-partition decomposes `S_n`, the embedded
//! `S_r`'s are treated as *super-vertices* ("r-vertices"). Two r-vertices
//! are adjacent iff their patterns differ in exactly one pinned position
//! (`dif`); the *super-edge* ("r-edge") between them bundles the `(r-1)!`
//! real edges of `S_n` that cross between them.
//!
//! The geometry of a super-edge (with `d = dif(A, B)`, `x` = A's symbol at
//! `d`, `y` = B's symbol at `d`):
//!
//! * the members of `A` adjacent to `B` are exactly those with symbol `y`
//!   at position 0; the partner of such `u` is `u` with positions `0` and
//!   `d` swapped;
//! * if both sides are partitioned at a free position `j`, the sub-vertex
//!   of `A` pinned to `z` at `j` has an adjacent counterpart in `B`'s
//!   subdivision iff `z != y` (Lemma 1's mechanism) — [`blocked_symbol`]
//!   returns that excluded `y`.

use star_perm::Perm;

use crate::{GraphError, Pattern};

/// A super-edge between two adjacent patterns, with its crossing geometry
/// precomputed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SuperEdge {
    a: Pattern,
    b: Pattern,
    dif: usize,
    /// `b`'s pinned symbol at `dif`.
    y: u8,
}

impl SuperEdge {
    /// The super-edge between `a` and `b`, or an error if they are not
    /// adjacent.
    pub fn between(a: Pattern, b: Pattern) -> Result<Self, GraphError> {
        let dif = a.dif(&b).ok_or_else(|| {
            GraphError::InvalidSuperRing(format!("{a} and {b} are not adjacent super-vertices"))
        })?;
        Ok(SuperEdge {
            a,
            b,
            dif,
            y: b.fixed_symbol(dif).expect("dif position is pinned in b"),
        })
    }

    /// The `dif` position.
    #[inline]
    pub fn dif(&self) -> usize {
        self.dif
    }

    /// `b`'s pinned symbol at the dif position.
    #[inline]
    pub(crate) fn symbol_b(&self) -> u8 {
        self.y
    }

    /// `true` iff `u` (a member of `a`) has a neighbor in `b` — i.e. its
    /// position-0 symbol is `b`'s dif symbol.
    #[inline]
    pub fn is_cross_vertex(&self, u: &Perm) -> bool {
        debug_assert!(self.a.contains(u));
        u.first() == self.y
    }

    /// The neighbor in `b` of a cross vertex `u` of `a`.
    ///
    /// # Panics
    /// Panics if `u` is not a cross vertex.
    pub fn partner(&self, u: &Perm) -> Perm {
        assert!(
            self.is_cross_vertex(u),
            "{u} has no neighbor across {self:?}"
        );
        let v = u.swapped(0, self.dif);
        debug_assert!(self.b.contains(&v));
        debug_assert!(u.is_adjacent(&v));
        v
    }
}

/// For patterns `a` adjacent to `b`, both about to be partitioned at free
/// position `j`: the unique free symbol `z` of `a` whose sub-vertex
/// `a.sub(j, z)` has **no** adjacent counterpart `b.sub(j, z)` — namely
/// `b`'s symbol at the dif position (it is not free in `b`).
///
/// This is the mechanism behind Lemma 1: a sub-vertex of the middle
/// super-vertex `V` fails to connect to neighbor `U` only for one symbol,
/// so if the two neighbors' excluded symbols differ, every sub-vertex of
/// `V` connects to `U` or `W`.
pub fn blocked_symbol(a: &Pattern, b: &Pattern) -> Result<u8, GraphError> {
    let edge = SuperEdge::between(*a, *b)?;
    Ok(edge.symbol_b())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(spec: &[u8]) -> Pattern {
        Pattern::from_spec(spec).unwrap()
    }

    #[test]
    fn super_edge_geometry() {
        // <**23>_2 vs <**13>_2 in S_4: dif = 2, x = 2, y = 1.
        let a = pat(&[0, 0, 2, 3]);
        let b = pat(&[0, 0, 1, 3]);
        let e = SuperEdge::between(a, b).unwrap();
        assert_eq!(e.dif(), 2);
        assert_eq!(e.symbol_b(), 1);
        let cross: Vec<Perm> = a.vertices().filter(|u| e.is_cross_vertex(u)).collect();
        assert_eq!(cross.len(), 1);
        let (u, v) = (cross[0], e.partner(&cross[0]));
        assert!(b.contains(&v));
        assert!(u.is_adjacent(&v));
        assert_eq!(u.first(), 1);
    }

    #[test]
    fn real_edges_are_all_crossing_edges() {
        // <*4**5>_3 vs <*2**5>_3 in S_5: 2! = 2 real edges; verify against a
        // brute-force scan of all cross pairs.
        let a = pat(&[0, 4, 0, 0, 5]);
        let b = pat(&[0, 2, 0, 0, 5]);
        let e = SuperEdge::between(a, b).unwrap();
        let from_struct: std::collections::HashSet<(Perm, Perm)> = a
            .vertices()
            .filter(|u| e.is_cross_vertex(u))
            .map(|u| (u, e.partner(&u)))
            .collect();
        let mut brute = std::collections::HashSet::new();
        for u in a.vertices() {
            for v in b.vertices() {
                if u.is_adjacent(&v) {
                    brute.insert((u, v));
                }
            }
        }
        assert_eq!(from_struct, brute);
        assert_eq!(brute.len(), 2);
    }

    #[test]
    fn blocked_symbol_matches_lemma_1_mechanism() {
        // a = <***45>_3, b = <***35>_3 (dif = 3, x = 4, y = 3): partitioning
        // both at position 1, a.sub(1, z) pairs with b.sub(1, z) iff z != 3.
        let a = pat(&[0, 0, 0, 4, 5]);
        let b = pat(&[0, 0, 0, 3, 5]);
        assert_eq!(blocked_symbol(&a, &b).unwrap(), 3);
        for z in a.free_symbols().iter() {
            let sub_a = a.sub(1, z).unwrap();
            let counterpart_exists = b.free_symbols().contains(z);
            if counterpart_exists {
                let sub_b = b.sub(1, z).unwrap();
                assert!(sub_a.is_adjacent(&sub_b), "z = {z}");
            } else {
                assert_eq!(z, 3, "only the blocked symbol lacks a counterpart");
            }
            // Whatever the counterpart, sub_a must not be adjacent to any
            // *other* sub of b.
            for z2 in b.free_symbols().iter() {
                if z2 != z {
                    let sub_b2 = b.sub(1, z2).unwrap();
                    assert!(!sub_a.is_adjacent(&sub_b2), "z = {z}, z2 = {z2}");
                }
            }
        }
    }

    #[test]
    fn non_adjacent_patterns_rejected() {
        let a = pat(&[0, 0, 2, 3]);
        let c = pat(&[0, 0, 3, 2]);
        assert!(SuperEdge::between(a, c).is_err());
    }
}
