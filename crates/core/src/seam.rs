//! The seam scan that Lemma 3's refinements and Lemma 7's plan share.
//!
//! Both lemmas walk a cyclic chain of super-vertices `A_0 .. A_{L-1}`.
//! Seam `k` joins `A_k` to `A_{k+1}` through a shared free symbol `w_k`:
//! `A_k` is left through its sub-vertex pinned to `w_k` and `A_{k+1}` is
//! entered through its own. [`scan`] picks the seams from left to right
//! with bounded backtracking. Super-vertex `k` is checked once seam `k` is
//! chosen, against seam `k - 1`; super-vertex 0 closes the cycle. The
//! callers differ only in the candidates they offer and in when a
//! super-vertex can be crossed:
//!
//! * each level of Lemma 3 threads a path through the clique of `A_k`'s
//!   sub-vertices, so it needs `w_{k-1} ≠ w_k` and an arrangement of the
//!   rest (`hierarchy::arrange_path`); its last level keeps faulty
//!   sub-vertices apart;
//! * Lemma 7 is the level below the `R^4`: a block may also be entered and
//!   left through the same 3-vertex, and a faulty block must be.
//!
//! A fault-aware scan starts at [`healthy_start`], so that the wrap-around
//! check stays slack.

use star_graph::{Pattern, SymbolSet};
use star_perm::MAX_N;

/// Up to [`MAX_N`] symbols in a chosen order, on the stack: a seam's
/// candidates in preference order, or a path through a clique.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Symbols {
    syms: [u8; MAX_N],
    len: u8,
}

impl Symbols {
    /// No symbols.
    pub(crate) const EMPTY: Symbols = Symbols {
        syms: [0; MAX_N],
        len: 0,
    };

    /// The symbols of `set` in increasing order.
    pub(crate) fn of(set: SymbolSet) -> Symbols {
        let mut out = Symbols::EMPTY;
        for s in set.iter() {
            out.push(s);
        }
        out
    }

    /// Appends `s`.
    pub(crate) fn push(&mut self, s: u8) {
        self.syms[self.len as usize] = s;
        self.len += 1;
    }

    /// The symbols, in order.
    pub(crate) fn as_slice(&self) -> &[u8] {
        &self.syms[..self.len as usize]
    }

    /// The symbols, in order, to reorder in place.
    pub(crate) fn as_mut_slice(&mut self) -> &mut [u8] {
        &mut self.syms[..self.len as usize]
    }
}

/// Where super-vertex `A_k` meets its neighbours, with Lemma 1's blocked
/// symbols: of the sub-vertices of `A_k` at any free position, exactly
/// one has no neighbour in an adjacent `B`, the one pinned to `B`'s
/// symbol at `dif(A_k, B)` (that symbol is not free in `B`). (P2) makes
/// the two blocked symbols differ.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Seat {
    /// Position where `A_k` and `A_{k+1}` differ.
    pub(crate) dif_next: u8,
    /// `A_{k-1}`'s symbol at `dif(A_{k-1}, A_k)`.
    pub(crate) blocked_prev: u8,
    /// `A_{k+1}`'s symbol at `dif(A_k, A_{k+1})`: also the first symbol a
    /// member of `A_k` must hold to cross forward.
    pub(crate) blocked_next: u8,
}

/// The seats of a cyclic chain of `len` super-vertices, `at(k)` being
/// `A_k`, in chain order: one `dif` per super-edge.
pub(crate) fn seats<'a>(
    len: usize,
    at: impl Fn(usize) -> &'a Pattern,
) -> impl Iterator<Item = Seat> {
    // The super-edge from A_k to A_{k+1}: dif, then each side's symbol
    // there (each is the one blocked toward it on the other side).
    let edge = move |k: usize| {
        let (a, b) = (at(k % len), at((k + 1) % len));
        let d = a.dif(b).expect("ring adjacency");
        let symbol = |p: &Pattern| p.fixed_symbol(d).expect("pinned at dif");
        (d as u8, symbol(a), symbol(b))
    };
    let mut before = edge(len - 1);
    (0..len).map(move |k| {
        let after = edge(k);
        let seat = Seat {
            dif_next: after.0,
            blocked_prev: before.1,
            blocked_next: after.2,
        };
        before = after;
        seat
    })
}

/// Where a fault-aware scan starts on a ring of `len` super-vertices: the
/// first healthy one after a healthy one, else the first healthy one,
/// else 0. A faulty super-vertex pins both its seams, so finding one only
/// at the wrap would force the backtracking around the whole ring again.
/// Two healthy neighbours exist whenever faulty super-vertices are not
/// adjacent and fewer than half the ring, as (P3) and the fault budget
/// guarantee.
pub(crate) fn healthy_start(len: usize, faulty: impl Fn(usize) -> bool) -> usize {
    (0..len)
        .find(|&k| !faulty(k) && !faulty((k + len - 1) % len))
        .or_else(|| (0..len).find(|&k| !faulty(k)))
        .unwrap_or(0)
}

/// Chooses one symbol for each seam of a cyclic chain of `len`
/// super-vertices, seam `k` from `candidates(k)` in its order, so that
/// `crosses(k, w_{k-1}, w_k)` holds for every `k` (`w_{-1}` is
/// `w_{len-1}`). Returns the seams, or the chain position where the scan
/// gave up: a seam with no candidate, the backtracking exhausted at seam
/// 0, or the budget of `max(1_000_000, 50·len)` steps spent. Constraints
/// are local, so backtracking is rare; the budget guards pathological
/// inputs. Holds one seam byte and one candidate byte per super-vertex.
pub(crate) fn scan(
    len: usize,
    candidates: impl Fn(usize) -> Symbols,
    mut crosses: impl FnMut(usize, u8, u8) -> bool,
) -> Result<Vec<u8>, usize> {
    if (0..len).any(|k| candidates(k).len == 0) {
        return Err(0);
    }
    let mut seams = vec![0u8; len];
    // `seams[j]` is candidate `choice[j]` of seam `j` for every `j < k`.
    let mut choice = vec![0u8; len];
    let mut budget: u64 = 1_000_000u64.max(len as u64 * 50);
    let mut k = 0usize;
    loop {
        if budget == 0 {
            return Err(k);
        }
        budget -= 1;
        let Some(&w) = candidates(k).as_slice().get(choice[k] as usize) else {
            // Exhausted: backtrack.
            choice[k] = 0;
            if k == 0 {
                return Err(0);
            }
            k -= 1;
            choice[k] += 1;
            continue;
        };
        seams[k] = w;
        if k >= 1 && !crosses(k, seams[k - 1], w) {
            choice[k] += 1;
            continue;
        }
        if k + 1 == len {
            // Close the cycle through super-vertex 0.
            if crosses(0, w, seams[0]) {
                return Ok(seams);
            }
            choice[k] += 1;
            continue;
        }
        k += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cands(set: &[u8]) -> Symbols {
        Symbols::of(set.iter().copied().collect())
    }

    #[test]
    fn symbols_keep_increasing_order_and_reorder_in_place() {
        let mut s = cands(&[5, 2, 9]);
        assert_eq!(s.as_slice(), &[2, 5, 9]);
        s.as_mut_slice().rotate_left(1);
        assert_eq!(s.as_slice(), &[5, 9, 2]);
        assert_eq!(Symbols::EMPTY.as_slice(), &[] as &[u8]);
    }

    #[test]
    fn scan_takes_the_first_choice_that_closes_the_cycle() {
        // Every super-vertex needs a different symbol in and out: on a
        // chain of three with candidates {1, 2}, no choice closes.
        let distinct = |_: usize, a: u8, b: u8| a != b;
        assert_eq!(scan(3, |_| cands(&[1, 2]), distinct), Err(0));
        // With {1, 2, 3} the first closing assignment in candidate order
        // is 1, 2, 3.
        assert_eq!(scan(3, |_| cands(&[1, 2, 3]), distinct), Ok(vec![1, 2, 3]));
        // Pass-through everywhere: the first candidate throughout.
        assert_eq!(
            scan(4, |_| cands(&[3, 4]), |_, a, b| a == b),
            Ok(vec![3; 4])
        );
    }

    #[test]
    fn scan_reports_where_it_gave_up() {
        // A seam without candidates stops the scan before it starts.
        let none = |k: usize| if k == 2 { Symbols::EMPTY } else { cands(&[1]) };
        assert_eq!(scan(4, none, |_, _, _| true), Err(0));
        // A chain no choice can cross exhausts the backtracking at seam 0.
        assert_eq!(scan(5, |_| cands(&[1, 2]), |_, _, _| false), Err(0));
    }

    #[test]
    fn the_blocked_symbols_are_lemma_1s() {
        // The 4-cycle <***15> <***45> <***43> <***13> of 3-vertices in S_5,
        // seated at <***45>: partitioned at position 1, its sub-vertex
        // pinned to z has a neighbour in an adjacent b's subdivision iff z
        // is not b's symbol at their dif.
        let pat = |spec: &[u8]| Pattern::from_spec(spec).unwrap();
        let chain = [
            pat(&[0, 0, 0, 1, 5]),
            pat(&[0, 0, 0, 4, 5]),
            pat(&[0, 0, 0, 4, 3]),
            pat(&[0, 0, 0, 1, 3]),
        ];
        let seat = seats(4, |k| &chain[k]).nth(1).unwrap();
        assert_eq!(
            seat,
            Seat {
                dif_next: 4,
                blocked_prev: 1,
                blocked_next: 3
            }
        );
        let (prev, a, next) = (chain[0], chain[1], chain[2]);
        for (b, blocked) in [(prev, seat.blocked_prev), (next, seat.blocked_next)] {
            for z in a.free_symbols().iter() {
                let sub_a = a.sub(1, z).unwrap();
                let linked = b
                    .free_symbols()
                    .iter()
                    .any(|y| sub_a.is_adjacent(&b.sub(1, y).unwrap()));
                assert_eq!(linked, z != blocked, "{a} -> {b}, z = {z}");
            }
        }
    }

    #[test]
    fn healthy_start_prefers_two_healthy_neighbours() {
        let faulty = |set: &'static [usize]| move |k: usize| set.contains(&k);
        assert_eq!(healthy_start(5, faulty(&[0, 2])), 4);
        assert_eq!(healthy_start(4, faulty(&[0, 2])), 1);
        assert_eq!(healthy_start(3, faulty(&[0, 1, 2])), 0);
        assert_eq!(healthy_start(5, faulty(&[])), 0);
    }
}
