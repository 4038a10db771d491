//! Super-rings: the paper's `R^r` (Definition 4).

use star_perm::factorial;

use crate::{GraphError, Pattern};

/// A ring of `r`-vertices: every two cyclically-consecutive patterns are
/// adjacent super-vertices. When the ring covers a full
/// `(i_1,...,i_{n-r})`-partition of `S_n` it is the paper's `R^r`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SuperRing {
    patterns: Vec<Pattern>,
}

impl SuperRing {
    /// Builds a super-ring, validating cyclic adjacency, uniform order `r`,
    /// and distinctness.
    pub fn new(patterns: Vec<Pattern>) -> Result<Self, GraphError> {
        if patterns.len() < 3 {
            return Err(GraphError::InvalidSuperRing(format!(
                "a super-ring needs at least 3 super-vertices, got {}",
                patterns.len()
            )));
        }
        let r = patterns[0].r();
        let n = patterns[0].n();
        for p in &patterns {
            if p.r() != r || p.n() != n {
                return Err(GraphError::InvalidSuperRing(
                    "mixed pattern orders in super-ring".into(),
                ));
            }
        }
        let len = patterns.len();
        for i in 0..len {
            let a = &patterns[i];
            let b = &patterns[(i + 1) % len];
            if a.dif(b).is_none() {
                return Err(GraphError::InvalidSuperRing(format!(
                    "consecutive super-vertices {a} and {b} (index {i}) are not adjacent"
                )));
            }
        }
        let mut sorted = patterns.clone();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.len() != len {
            return Err(GraphError::InvalidSuperRing(
                "duplicate super-vertices in ring".into(),
            ));
        }
        Ok(SuperRing { patterns })
    }

    /// The common sub-star order `r`.
    #[inline]
    pub fn r(&self) -> usize {
        self.patterns[0].r()
    }

    /// The ambient dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.patterns[0].n()
    }

    /// Number of super-vertices on the ring.
    #[inline]
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Super-rings are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The super-vertex at ring index `i` (not wrapped).
    #[inline]
    pub fn get(&self, i: usize) -> &Pattern {
        &self.patterns[i]
    }

    /// The super-vertex at cyclic index `i mod len`.
    #[inline]
    pub fn get_wrapped(&self, i: usize) -> &Pattern {
        &self.patterns[i % self.patterns.len()]
    }

    /// Iterates the super-vertices in ring order.
    pub fn iter(&self) -> impl Iterator<Item = &Pattern> {
        self.patterns.iter()
    }

    /// The underlying vector.
    pub fn into_inner(self) -> Vec<Pattern> {
        self.patterns
    }

    /// `true` iff the ring covers a full partition of `S_n` into
    /// `r`-vertices (i.e. has `n!/r!` super-vertices; distinctness plus the
    /// shared don't-care structure then force a partition).
    pub fn covers_partition(&self) -> bool {
        self.patterns.len() as u64 == factorial(self.n()) / factorial(self.r())
    }

    /// Property **(P2)** of the paper: for every three cyclically
    /// consecutive super-vertices `U, V, W`,
    /// `u_{dif(U,V)} != w_{dif(V,W)}`.
    ///
    /// By Lemma 1 this guarantees that after one more partition every
    /// sub-vertex of `V` is connected to `U` or `W`.
    pub fn satisfies_p2(&self) -> bool {
        let len = self.patterns.len();
        (0..len).all(|i| {
            let u = &self.patterns[i];
            let v = &self.patterns[(i + 1) % len];
            let w = &self.patterns[(i + 2) % len];
            let p = u.dif(v).expect("ring adjacency");
            let q = v.dif(w).expect("ring adjacency");
            u.fixed_symbol(p).unwrap() != w.fixed_symbol(q).unwrap()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pat(spec: &[u8]) -> Pattern {
        Pattern::from_spec(spec).unwrap()
    }

    #[test]
    fn k4_cycle_is_a_super_ring_with_p2() {
        // Partition S_4 at position 3: four S_3's pairwise adjacent (K_4).
        // Any cyclic order is a ring; P2 holds because all difs equal 3 and
        // symbols differ.
        let ps = vec![
            pat(&[0, 0, 0, 1]),
            pat(&[0, 0, 0, 2]),
            pat(&[0, 0, 0, 3]),
            pat(&[0, 0, 0, 4]),
        ];
        let ring = SuperRing::new(ps).unwrap();
        assert_eq!(ring.r(), 3);
        assert_eq!(ring.len(), 4);
        assert!(ring.covers_partition());
        assert!(ring.satisfies_p2());
    }

    #[test]
    fn rejects_non_adjacent_sequence() {
        // <**34>_2's neighbor must differ at exactly one pinned position.
        let ps = vec![pat(&[0, 0, 3, 4]), pat(&[0, 0, 4, 3]), pat(&[0, 0, 1, 4])];
        assert!(SuperRing::new(ps).is_err());
    }

    #[test]
    fn rejects_duplicates_and_short_rings() {
        let a = pat(&[0, 0, 0, 1]);
        let b = pat(&[0, 0, 0, 2]);
        assert!(SuperRing::new(vec![a, b]).is_err());
        assert!(SuperRing::new(vec![a, b, a, b]).is_err());
    }

    #[test]
    fn p2_fails_on_palindromic_triple() {
        // U and W identical symbols around V would violate P2; build a
        // 4-ring where some triple has u_p == w_q.
        // Patterns pinned at position 1 in S_4: <*1**>, <*2**>, ... all
        // pairwise adjacent with dif = 1.
        let ring = SuperRing::new(vec![
            pat(&[0, 1, 0, 0]),
            pat(&[0, 2, 0, 0]),
            pat(&[0, 3, 0, 0]),
            pat(&[0, 4, 0, 0]),
        ])
        .unwrap();
        // Here every triple has distinct symbols at the shared dif, so P2
        // holds...
        assert!(ring.satisfies_p2());
        // ...but a mixed-dif ring can violate it. Take S_4 patterns of
        // order 2: A=<**34>, B=<**14>, C=<**13>, D=<**43>? C and D are not
        // adjacent; use the 6-ring over pairs instead.
        let six = SuperRing::new(vec![
            pat(&[0, 0, 3, 4]),
            pat(&[0, 0, 1, 4]),
            pat(&[0, 0, 1, 3]),
            pat(&[0, 0, 4, 3]),
            pat(&[0, 0, 4, 1]),
            pat(&[0, 0, 3, 1]),
        ])
        .unwrap();
        // Triple (<**34>, <**14>, <**13>): p = 2 (u_p = 3), q = 3 (w_q = 3):
        // u_p == w_q, so P2 must fail.
        assert!(!six.satisfies_p2());
    }
}
