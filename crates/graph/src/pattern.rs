//! Embedded sub-stars of `S_n`: the paper's `<s_1 s_2 ... s_n>_r` notation.
//!
//! An embedded `S_r` inside `S_n` is described by a *pattern*: position 0 is
//! always a don't-care, exactly `r` positions are don't-cares in total, and
//! every other position is pinned to a fixed symbol. The pattern's vertices
//! are the `r!` permutations that agree with every pinned position; the
//! subgraph they induce is isomorphic to `S_r` ([`Pattern::to_local`] is the
//! isomorphism, which the tests verify).

use core::fmt;

use star_perm::{factorial, iter::PermIter, Perm, MAX_N};

use crate::GraphError;

/// A set of symbols drawn from `1..=MAX_N`, as a bitmask (bit `s-1` set iff
/// symbol `s` is present).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct SymbolSet(u16);

impl SymbolSet {
    /// The empty set.
    #[inline]
    pub fn empty() -> Self {
        SymbolSet(0)
    }

    /// The full set `{1..=n}`.
    #[inline]
    pub fn full(n: usize) -> Self {
        SymbolSet(((1u32 << n) - 1) as u16)
    }

    /// Inserts a symbol.
    #[inline]
    pub fn insert(&mut self, s: u8) {
        debug_assert!((1..=MAX_N as u8).contains(&s));
        self.0 |= 1 << (s - 1);
    }

    /// Removes a symbol.
    #[inline]
    pub fn remove(&mut self, s: u8) {
        self.0 &= !(1 << (s - 1));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, s: u8) -> bool {
        s >= 1 && (self.0 >> (s - 1)) & 1 == 1
    }

    /// Number of symbols in the set.
    #[inline]
    pub fn len(&self) -> usize {
        self.0.count_ones() as usize
    }

    /// `true` iff empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.0 == 0
    }

    /// Set intersection.
    #[inline]
    pub fn intersection(&self, other: &SymbolSet) -> SymbolSet {
        SymbolSet(self.0 & other.0)
    }

    /// Iterates the symbols in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = u8> + '_ {
        (1..=MAX_N as u8).filter(move |&s| self.contains(s))
    }
}

impl FromIterator<u8> for SymbolSet {
    fn from_iter<I: IntoIterator<Item = u8>>(iter: I) -> Self {
        let mut set = SymbolSet::empty();
        for s in iter {
            set.insert(s);
        }
        set
    }
}

/// An embedded `S_r` in `S_n` (`<s_1 s_2 ... s_n>_r` in the paper).
///
/// Internally `sym[i] == 0` encodes a don't-care; `sym[0]` is always 0.
///
/// # Examples
///
/// ```
/// use star_graph::Pattern;
///
/// // <**3*>_3: position 2 pinned to symbol 3 inside S_4.
/// let p = Pattern::from_spec(&[0, 0, 3, 0]).unwrap();
/// assert_eq!(p.r(), 3);
/// assert_eq!(p.vertex_count(), 6);
/// assert!(p.vertices().all(|v| v.get(2) == 3));
/// ```
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Pattern {
    n: u8,
    sym: [u8; MAX_N],
}

impl Pattern {
    /// The trivial pattern: all positions free, i.e. `S_n` itself.
    pub fn full(n: usize) -> Self {
        assert!((1..=MAX_N).contains(&n), "Pattern size {n} out of range");
        Pattern {
            n: n as u8,
            sym: [0; MAX_N],
        }
    }

    /// Builds a pattern from a spec slice of length `n`, with 0 meaning
    /// don't-care. Validates: position 0 free, pinned symbols distinct and
    /// in `1..=n`.
    pub fn from_spec(spec: &[u8]) -> Result<Self, GraphError> {
        let n = spec.len();
        if !(1..=MAX_N).contains(&n) {
            return Err(GraphError::DimensionOutOfRange { n });
        }
        if spec[0] != 0 {
            return Err(GraphError::InvalidPattern(
                "position 0 must be a don't-care".into(),
            ));
        }
        let mut seen = [false; MAX_N + 1];
        let mut sym = [0u8; MAX_N];
        for (i, &s) in spec.iter().enumerate() {
            if s == 0 {
                continue;
            }
            if s as usize > n {
                return Err(GraphError::InvalidPattern(format!(
                    "symbol {s} out of range for n = {n}"
                )));
            }
            if seen[s as usize] {
                return Err(GraphError::InvalidPattern(format!("duplicate symbol {s}")));
            }
            seen[s as usize] = true;
            sym[i] = s;
        }
        Ok(Pattern { n: n as u8, sym })
    }

    /// The ambient dimension `n`.
    #[inline]
    pub fn n(&self) -> usize {
        self.n as usize
    }

    /// The order `r` of the embedded sub-star: the number of don't-cares.
    #[inline]
    pub fn r(&self) -> usize {
        self.sym[..self.n as usize]
            .iter()
            .filter(|&&s| s == 0)
            .count()
    }

    /// `true` iff position `pos` is a don't-care.
    #[inline]
    pub(crate) fn is_free_position(&self, pos: usize) -> bool {
        debug_assert!(pos < self.n as usize);
        self.sym[pos] == 0
    }

    /// The pinned symbol at `pos`, or `None` for a don't-care.
    #[inline]
    pub fn fixed_symbol(&self, pos: usize) -> Option<u8> {
        debug_assert!(pos < self.n as usize);
        match self.sym[pos] {
            0 => None,
            s => Some(s),
        }
    }

    /// Don't-care positions in increasing order (position 0 is always
    /// first).
    pub fn free_positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n as usize).filter(move |&i| self.sym[i] == 0)
    }

    /// Pinned positions in increasing order.
    pub fn fixed_positions(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.n as usize).filter(move |&i| self.sym[i] != 0)
    }

    /// The symbols not pinned anywhere — the symbols that circulate among
    /// the don't-care positions.
    pub fn free_symbols(&self) -> SymbolSet {
        let mut set = SymbolSet::full(self.n());
        for i in 0..self.n as usize {
            if self.sym[i] != 0 {
                set.remove(self.sym[i]);
            }
        }
        set
    }

    /// Number of vertices in the embedded sub-star: `r!`.
    #[inline]
    pub fn vertex_count(&self) -> u64 {
        factorial(self.r())
    }

    /// Membership test: does `v` match every pinned position?
    pub fn contains(&self, v: &Perm) -> bool {
        if v.n() != self.n() {
            return false;
        }
        (0..self.n as usize).all(|i| self.sym[i] == 0 || self.sym[i] == v.get(i))
    }

    /// Pins don't-care position `pos` to `symbol`, producing the sub-pattern
    /// (an embedded `S_{r-1}`). Fails if `pos` is 0, already pinned, or
    /// `symbol` is not free.
    pub fn sub(&self, pos: usize, symbol: u8) -> Result<Pattern, GraphError> {
        if pos == 0 || pos >= self.n as usize || self.sym[pos] != 0 {
            return Err(GraphError::InvalidPartitionPosition { pos });
        }
        if !self.free_symbols().contains(symbol) {
            return Err(GraphError::InvalidPattern(format!(
                "symbol {symbol} is not free in {self}"
            )));
        }
        let mut out = *self;
        out.sym[pos] = symbol;
        Ok(out)
    }

    /// The pattern's vertices, enumerated by placing each arrangement of the
    /// free symbols into the don't-care positions. The enumeration order is
    /// the local rank order (see [`Pattern::to_local`]).
    pub fn vertices(&self) -> impl Iterator<Item = Perm> + '_ {
        let r = self.r();
        PermIter::new(r).map(move |local| self.from_local(&local))
    }

    /// The lexicographically-first vertex of the pattern.
    pub fn representative(&self) -> Perm {
        self.from_local(&Perm::identity(self.r()))
    }

    /// Projects a member vertex to its *local coordinates*: a permutation of
    /// `1..=r` where local position `i` is the i-th don't-care position (in
    /// increasing order) and local symbol `j` is the j-th free symbol (in
    /// increasing order).
    ///
    /// This map is an isomorphism from the induced subgraph onto `S_r`
    /// (swapping global position 0 with the i-th free position is exactly a
    /// local star move along dimension `i`).
    ///
    /// # Panics
    /// Panics if `v` is not a member of the pattern.
    pub fn to_local(&self, v: &Perm) -> Perm {
        assert!(self.contains(v), "vertex {v} not in pattern {self}");
        let free_syms: Vec<u8> = self.free_symbols().iter().collect();
        let mut buf = [0u8; MAX_N];
        let mut k = 0usize;
        for pos in 0..self.n as usize {
            if self.sym[pos] == 0 {
                let s = v.get(pos);
                let local = free_syms
                    .iter()
                    .position(|&fs| fs == s)
                    .expect("member symbol is free") as u8
                    + 1;
                buf[k] = local;
                k += 1;
            }
        }
        Perm::from_slice(&buf[..k]).expect("local coordinates form a permutation")
    }

    /// Inverse of [`Pattern::to_local`]: lifts a permutation of `1..=r` to
    /// the member vertex it denotes.
    pub fn from_local(&self, local: &Perm) -> Perm {
        let r = self.r();
        assert_eq!(local.n(), r, "local perm size must equal pattern order");
        let free_syms: Vec<u8> = self.free_symbols().iter().collect();
        let mut buf = [0u8; MAX_N];
        let mut k = 0usize;
        for (pos, slot) in buf.iter_mut().enumerate().take(self.n as usize) {
            *slot = if self.sym[pos] == 0 {
                let s = free_syms[(local.get(k) - 1) as usize];
                k += 1;
                s
            } else {
                self.sym[pos]
            };
        }
        Perm::from_slice(&buf[..self.n as usize]).expect("lifted vertex is a permutation")
    }

    /// `dif` (the paper's notation): if the two patterns are *adjacent*
    /// (same don't-care positions, pinned symbols equal everywhere except
    /// exactly one position), returns that position; otherwise `None`.
    pub fn dif(&self, other: &Pattern) -> Option<usize> {
        if self.n != other.n {
            return None;
        }
        let mut diff_pos = None;
        for i in 0..self.n as usize {
            let (a, b) = (self.sym[i], other.sym[i]);
            if a == b {
                continue;
            }
            if a == 0 || b == 0 {
                return None; // don't-care structure differs
            }
            if diff_pos.is_some() {
                return None; // differs in more than one pinned position
            }
            diff_pos = Some(i);
        }
        diff_pos
    }

    /// `true` iff the patterns are adjacent super-vertices.
    #[inline]
    pub fn is_adjacent(&self, other: &Pattern) -> bool {
        self.dif(other).is_some()
    }
}

impl fmt::Display for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "<")?;
        let wide = self.n > 9;
        for i in 0..self.n as usize {
            if wide && i > 0 {
                write!(f, ".")?;
            }
            match self.sym[i] {
                0 => write!(f, "*")?,
                s => write!(f, "{s}")?,
            }
        }
        write!(f, ">_{}", self.r())
    }
}

impl fmt::Debug for Pattern {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{self}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn symbol_set_basics() {
        let mut s = SymbolSet::empty();
        assert!(s.is_empty());
        s.insert(3);
        s.insert(7);
        assert!(s.contains(3) && s.contains(7) && !s.contains(4));
        assert_eq!(s.len(), 2);
        assert_eq!(s.iter().collect::<Vec<_>>(), vec![3, 7]);
        s.remove(3);
        assert_eq!(s.len(), 1);
        assert_eq!(SymbolSet::full(5).len(), 5);
    }

    #[test]
    fn paper_example_pattern() {
        // The paper's example: <**3 4>_... in S_4 — pattern with positions
        // 2,3 pinned to 3,4 — has 2! = 2 vertices; <* * 3 *>_3 has 6.
        let p = Pattern::from_spec(&[0, 0, 3, 0]).unwrap();
        assert_eq!(p.r(), 3);
        assert_eq!(p.vertex_count(), 6);
        let members: Vec<Perm> = p.vertices().collect();
        assert_eq!(members.len(), 6);
        for m in &members {
            assert_eq!(m.get(2), 3);
            assert!(p.contains(m));
        }
    }

    #[test]
    fn from_spec_validation() {
        assert!(Pattern::from_spec(&[1, 0, 0, 0]).is_err()); // pos 0 pinned
        assert!(Pattern::from_spec(&[0, 2, 2, 0]).is_err()); // duplicate
        assert!(Pattern::from_spec(&[0, 5, 0, 0]).is_err()); // out of range
        assert!(Pattern::from_spec(&[0, 2, 3, 0]).is_ok());
    }

    #[test]
    fn sub_pins_a_position() {
        let p = Pattern::full(5);
        let q = p.sub(2, 4).unwrap();
        assert_eq!(q.r(), 4);
        assert_eq!(q.fixed_symbol(2), Some(4));
        assert!(q.sub(2, 1).is_err()); // already pinned
        assert!(q.sub(3, 4).is_err()); // 4 no longer free
        assert!(p.sub(0, 1).is_err()); // position 0 never pinned
    }

    #[test]
    fn local_roundtrip_and_isomorphism() {
        // <*4*2*>_3 in S_5: free positions {0,2,4}, free symbols {1,3,5}.
        let p = Pattern::from_spec(&[0, 4, 0, 2, 0]).unwrap();
        assert_eq!(p.r(), 3);
        for v in p.vertices() {
            let l = p.to_local(&v);
            assert_eq!(p.from_local(&l), v, "roundtrip through local coords");
        }
        // Isomorphism: global adjacency within the pattern == local star
        // adjacency.
        let members: Vec<Perm> = p.vertices().collect();
        for a in &members {
            for b in &members {
                let global_adj = a.is_adjacent(b);
                let local_adj = p.to_local(a).is_adjacent(&p.to_local(b));
                assert_eq!(global_adj, local_adj, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn vertices_enumerate_in_local_rank_order() {
        let p = Pattern::from_spec(&[0, 0, 5, 0, 0]).unwrap();
        let vs: Vec<Perm> = p.vertices().collect();
        assert_eq!(vs.len(), 24);
        for (i, v) in vs.iter().enumerate() {
            assert_eq!(p.to_local(v).rank() as usize, i);
        }
    }

    #[test]
    fn dif_detects_adjacency() {
        // <**23>_2 and <**13>_2 differ exactly at position 2.
        let a = Pattern::from_spec(&[0, 0, 2, 3]).unwrap();
        let b = Pattern::from_spec(&[0, 0, 1, 3]).unwrap();
        assert_eq!(a.dif(&b), Some(2));
        assert!(a.is_adjacent(&b));
        // Same pattern: not adjacent.
        assert_eq!(a.dif(&a), None);
        // Different don't-care structure: not adjacent.
        let c = Pattern::from_spec(&[0, 2, 0, 3]).unwrap();
        assert_eq!(a.dif(&c), None);
        // Two pinned differences: not adjacent.
        let d = Pattern::from_spec(&[0, 0, 1, 4]).unwrap();
        assert_eq!(a.dif(&d), None);
    }

    #[test]
    fn free_symbols_complement_fixed() {
        let p = Pattern::from_spec(&[0, 6, 0, 2, 0, 0]).unwrap();
        let free: Vec<u8> = p.free_symbols().iter().collect();
        assert_eq!(free, vec![1, 3, 4, 5]);
    }

    #[test]
    fn full_pattern_is_whole_graph() {
        let p = Pattern::full(4);
        assert_eq!(p.r(), 4);
        assert_eq!(p.vertex_count(), 24);
        assert_eq!(p.vertices().count(), 24);
    }

    #[test]
    fn display_format() {
        let p = Pattern::from_spec(&[0, 0, 1, 5, 0]).unwrap();
        assert_eq!(p.to_string(), "<**15*>_3");
    }
}
