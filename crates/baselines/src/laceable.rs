//! Constructive Hamiltonian laceability of (embedded) star graphs.
//!
//! `S_n` is Hamiltonian-laceable for `n >= 4`: any two vertices from
//! opposite partite sets are joined by a Hamiltonian path. This module
//! constructs such paths recursively:
//!
//! * pick a free position `p` where the endpoints differ, so they land in
//!   different blocks of the `p`-partition;
//! * order the blocks (a clique — any order) from the entry block to the
//!   exit block and walk them: each block is traversed by a recursive
//!   Hamiltonian path between its forced entry (the predecessor's exit,
//!   crossed over the super-edge) and a parity-correct cross vertex toward
//!   its successor;
//! * base cases `r <= 4` are answered exactly (the memoized `S_4` oracle
//!   for `r = 4`, direct search below).
//!
//! Parity bookkeeping: a block of order `r-1` contributes `(r-1)!` vertices
//! (even for `r >= 4`), so entries all share the parity of the global start
//! vertex and the final block's endpoints are automatically compatible.
//!
//! The same walk generalizes to rings over arbitrary block sequences
//! (`ring_through_blocks`), optionally with one *hole* block that is only
//! partially traversed — the engine behind the Latifi–Bagherzadeh
//! baseline and the laceable-based Hamiltonian cycle.

use star_fault::FaultSet;
use star_graph::partition::i_partition;
use star_graph::smallgraph::SmallGraph;
use star_graph::Pattern;
use star_perm::Perm;
use star_ring::oracle;

use crate::BaselineError;

/// A Hamiltonian path of the embedded sub-star `pattern` from `u` to `v`
/// (which must lie in opposite partite sets). Covers all `r!` vertices.
///
/// # Examples
///
/// ```
/// use star_baselines::laceable::hamiltonian_path;
/// use star_graph::Pattern;
/// use star_perm::Perm;
///
/// let s5 = Pattern::full(5);
/// let u = Perm::identity(5);
/// let v = u.star_move(2); // adjacent => opposite parity
/// let path = hamiltonian_path(&s5, &u, &v).unwrap();
/// assert_eq!(path.len(), 120);
/// assert_eq!(path[0], u);
/// assert_eq!(path[119], v);
/// ```
pub fn hamiltonian_path(pattern: &Pattern, u: &Perm, v: &Perm) -> Result<Vec<Perm>, BaselineError> {
    assert!(
        pattern.contains(u) && pattern.contains(v),
        "endpoints in pattern"
    );
    if u.parity() == v.parity() {
        return Err(BaselineError::SameParityEndpoints);
    }
    ham_path_rec(pattern, u, v).ok_or(BaselineError::ConstructionFailed(
        "hamiltonian path recursion",
    ))
}

fn ham_path_rec(pattern: &Pattern, u: &Perm, v: &Perm) -> Option<Vec<Perm>> {
    let r = pattern.r();
    if r <= 4 {
        return base_case(pattern, u, v);
    }
    // A free position (other than the pivot) where the endpoints differ;
    // it exists because distinct permutations differ in at least two
    // positions, at most one of which is position 0, and all differing
    // positions are free (both endpoints match the pattern's pins).
    let p = pattern
        .free_positions()
        .find(|&p| p != 0 && u.get(p) != v.get(p))
        .expect("differing free position exists");
    let blocks = i_partition(pattern, p).ok()?;
    // Order: u's block first, v's block last, the rest in between (all
    // blocks are pairwise adjacent).
    let mut order: Vec<Pattern> = Vec::with_capacity(blocks.len());
    let u_block = *blocks.iter().find(|b| b.contains(u))?;
    let v_block = *blocks.iter().find(|b| b.contains(v))?;
    order.push(u_block);
    order.extend(
        blocks
            .iter()
            .copied()
            .filter(|b| *b != u_block && *b != v_block),
    );
    order.push(v_block);

    let mut out: Vec<Perm> = Vec::new();
    let mut x = *u;
    let last = order.len() - 1;
    for (i, block) in order.iter().enumerate() {
        if i == last {
            out.extend(ham_path_rec(block, &x, v)?);
            break;
        }
        let next = &order[i + 1];
        let d = block.dif(next).expect("clique blocks adjacent");
        let cross_sym = next.fixed_symbol(d).expect("pinned at dif");
        let want = !x.parity();
        // Try parity-correct cross vertices until the recursive path
        // succeeds (the first always does in practice; the loop is a
        // correctness belt against pathological block shapes).
        let mut found = false;
        for y in block
            .vertices()
            .filter(|y| y.first() == cross_sym && y.parity() == want && *y != x)
            .take(8)
        {
            if let Some(path) = ham_path_rec(block, &x, &y) {
                out.extend(path);
                x = y.swapped(0, d);
                found = true;
                break;
            }
        }
        if !found {
            return None;
        }
    }
    Some(out)
}

/// Exact base case for `r <= 4`.
fn base_case(pattern: &Pattern, u: &Perm, v: &Perm) -> Option<Vec<Perm>> {
    let r = pattern.r();
    if r == 4 {
        // Memoized oracle (empty fault set, Hamiltonian target).
        let faults = FaultSet::empty(pattern.n());
        return oracle::block_path(pattern, u, v, &faults, oracle::HEALTHY_BLOCK_VERTICES);
    }
    // r <= 3: tiny direct search.
    let g = SmallGraph::from_star(r);
    let blocked = vec![false; star_perm::factorial(r) as usize];
    let path = g.hamiltonian_path(
        pattern.to_local(u).rank() as u16,
        pattern.to_local(v).rank() as u16,
        &blocked,
    )?;
    Some(
        path.into_iter()
            .map(|id| pattern.from_local(&Perm::unrank(r, id as u32).expect("rank in range")))
            .collect(),
    )
}

/// A hole in a block ring: the block at `index` is traversed only on its
/// vertices *outside* `excluded` (an embedded sub-star of that block).
#[derive(Debug, Clone)]
pub struct Hole {
    /// Ring index of the partially-traversed block.
    pub index: usize,
    /// The sub-star whose vertices are skipped.
    pub excluded: Pattern,
}

/// Walks a cyclic sequence of pairwise-consecutive-adjacent blocks (all of
/// the same order) into a ring: each block contributes a Hamiltonian path
/// between seam-forced endpoints; a [`Hole`] block contributes an exact
/// path over its non-excluded vertices instead.
///
/// This is the generic engine behind the laceable Hamiltonian cycle and
/// the Latifi–Bagherzadeh construction. Returns the full vertex sequence.
pub(crate) fn ring_through_blocks(
    blocks: &[Pattern],
    hole: Option<&Hole>,
) -> Result<Vec<Perm>, BaselineError> {
    let len = blocks.len();
    assert!(len >= 3, "need at least three blocks");
    for i in 0..len {
        assert!(
            blocks[i].is_adjacent(&blocks[(i + 1) % len]),
            "blocks must be cyclically adjacent"
        );
    }
    // Entry candidates for block 0: cross vertices toward the last block.
    let d_back = blocks[0].dif(&blocks[len - 1]).expect("cyclic adjacency");
    let back_sym = blocks[len - 1].fixed_symbol(d_back).expect("pinned at dif");
    let x0_candidates: Vec<Perm> = blocks[0]
        .vertices()
        .filter(|x| x.first() == back_sym && !excluded_by(hole, 0, x))
        .take(16)
        .collect();
    for x0 in &x0_candidates {
        if let Some(ring) = walk(blocks, hole, x0) {
            return Ok(ring);
        }
    }
    Err(BaselineError::ConstructionFailed("block-ring walk"))
}

fn excluded_by(hole: Option<&Hole>, index: usize, v: &Perm) -> bool {
    hole.is_some_and(|h| h.index == index && h.excluded.contains(v))
}

fn walk(blocks: &[Pattern], hole: Option<&Hole>, x0: &Perm) -> Option<Vec<Perm>> {
    let len = blocks.len();
    let mut out: Vec<Perm> = Vec::new();
    let mut x = *x0;
    for i in 0..len {
        let block = &blocks[i];
        let next = &blocks[(i + 1) % len];
        let d = block.dif(next).expect("cyclic adjacency");
        let cross_sym = next.fixed_symbol(d).expect("pinned at dif");
        let y = if i == len - 1 {
            // Close the ring on x0's unique backward neighbor.
            let y = x0.swapped(0, d_back_of(blocks));
            if !block.contains(&y) || excluded_by(hole, i, &y) {
                return None;
            }
            y
        } else {
            let want = !x.parity();
            let next_is_hole = hole.is_some_and(|h| h.index == i + 1);
            block
                .vertices()
                .filter(|y| y.first() == cross_sym && y.parity() == want)
                .find(|y| {
                    !excluded_by(hole, i, y)
                        && (!next_is_hole || !excluded_by(hole, i + 1, &y.swapped(0, d)))
                })?
        };
        let segment = match hole {
            Some(h) if h.index == i => hole_path(block, &h.excluded, &x, &y)?,
            _ => ham_path_rec(block, &x, &y)?,
        };
        out.extend(segment);
        if i + 1 < len {
            x = y.swapped(0, d);
        }
    }
    Some(out)
}

fn d_back_of(blocks: &[Pattern]) -> usize {
    blocks[blocks.len() - 1]
        .dif(&blocks[0])
        .expect("cyclic adjacency")
}

/// Exact path through `block` from `x` to `y` covering every vertex except
/// those of `excluded` (a sub-star of the block). Only supported for block
/// order 4 (the Latifi small-`m` case); the search is on 24 vertices.
fn hole_path(block: &Pattern, excluded: &Pattern, x: &Perm, y: &Perm) -> Option<Vec<Perm>> {
    debug_assert_eq!(block.r(), 4, "hole blocks are 4-vertices");
    let g = SmallGraph::from_star(4);
    let mut blocked = vec![false; 24];
    let mut excluded_count = 0usize;
    for v in excluded.vertices() {
        blocked[block.to_local(&v).rank() as usize] = true;
        excluded_count += 1;
    }
    let target = 24 - excluded_count;
    let (path, _) = g.path_with_exact_count(
        block.to_local(x).rank() as u16,
        block.to_local(y).rank() as u16,
        &blocked,
        target,
        u64::MAX,
    );
    Some(
        path?
            .into_iter()
            .map(|id| block.from_local(&Perm::unrank(4, id as u32).expect("rank < 24")))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_ham_path(pattern: &Pattern, path: &[Perm], u: &Perm, v: &Perm) {
        assert_eq!(path.len() as u64, pattern.vertex_count());
        assert_eq!(&path[0], u);
        assert_eq!(path.last().unwrap(), v);
        for w in path.windows(2) {
            assert!(w[0].is_adjacent(&w[1]));
        }
        let mut seen: Vec<Perm> = path.to_vec();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), path.len(), "no repeats");
        for p in path {
            assert!(pattern.contains(p));
        }
    }

    #[test]
    fn laceable_s5_exhaustive_anchor() {
        let p = Pattern::full(5);
        let u = Perm::identity(5);
        for rank in 0..120u32 {
            let v = Perm::unrank(5, rank).unwrap();
            if v.parity() == u.parity() {
                continue;
            }
            let path = hamiltonian_path(&p, &u, &v).unwrap();
            check_ham_path(&p, &path, &u, &v);
        }
    }

    #[test]
    fn laceable_s6_sampled() {
        let p = Pattern::full(6);
        let u = Perm::from_digits(6, 261534);
        for rank in (0..720u32).step_by(37) {
            let v = Perm::unrank(6, rank).unwrap();
            if v.parity() == u.parity() || v == u {
                continue;
            }
            let path = hamiltonian_path(&p, &u, &v).unwrap();
            check_ham_path(&p, &path, &u, &v);
        }
    }

    #[test]
    fn laceable_inside_embedded_substar() {
        // An embedded S_4 in S_6.
        let p = Pattern::from_spec(&[0, 5, 0, 0, 1, 0]).unwrap();
        let members: Vec<Perm> = p.vertices().collect();
        let u = members[3];
        let v = *members.iter().find(|m| m.parity() != u.parity()).unwrap();
        let path = hamiltonian_path(&p, &u, &v).unwrap();
        check_ham_path(&p, &path, &u, &v);
    }

    #[test]
    fn same_parity_rejected() {
        let p = Pattern::full(5);
        let u = Perm::identity(5);
        let v = Perm::from_digits(5, 23145); // even
        assert_eq!(
            hamiltonian_path(&p, &u, &v),
            Err(BaselineError::SameParityEndpoints)
        );
    }

    #[test]
    fn ring_through_k5_blocks() {
        let blocks = i_partition(&Pattern::full(5), 2).unwrap();
        let ring = ring_through_blocks(&blocks, None).unwrap();
        assert_eq!(ring.len(), 120);
        for i in 0..ring.len() {
            assert!(ring[i].is_adjacent(&ring[(i + 1) % ring.len()]));
        }
        let mut seen = ring.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), 120);
    }

    #[test]
    fn ring_with_a_hole() {
        // Blocks of S_5 at position 4; skip an embedded S_2 inside block 2.
        let blocks = i_partition(&Pattern::full(5), 4).unwrap();
        let free: Vec<u8> = blocks[2].free_symbols().iter().collect();
        let excluded = blocks[2].sub(1, free[0]).unwrap().sub(2, free[1]).unwrap();
        assert_eq!(excluded.r(), 2);
        let hole = Hole { index: 2, excluded };
        let ring = ring_through_blocks(&blocks, Some(&hole)).unwrap();
        assert_eq!(ring.len(), 118);
        for i in 0..ring.len() {
            assert!(ring[i].is_adjacent(&ring[(i + 1) % ring.len()]));
        }
        for v in excluded_vertices(&hole) {
            assert!(!ring.contains(&v));
        }
    }

    fn excluded_vertices(h: &Hole) -> Vec<Perm> {
        h.excluded.vertices().collect()
    }
}
