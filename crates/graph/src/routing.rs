//! Constructive shortest-path routing in `S_n`.
//!
//! The classic optimal strategy for sorting a permutation to the identity
//! with star moves (Akers–Krishnamurthy):
//!
//! 1. if the symbol at position 0 is not `1`, send it home (swap position 0
//!    with that symbol's home position);
//! 2. otherwise pick any displaced symbol and bring it to position 0.
//!
//! Step 1 strictly shrinks the cycle containing position 0; step 2 opens a
//! new cycle at the cost of one move. The move count matches the
//! closed-form distance, which the tests verify exhaustively for small `n`.

use star_perm::Perm;

/// The sequence of star-move dimensions that sorts `w` to the identity
/// optimally. Empty iff `w` is the identity.
pub(crate) fn sorting_moves(w: &Perm) -> Vec<usize> {
    let n = w.n();
    let mut cur = *w;
    let mut moves = Vec::new();
    loop {
        let first = cur.first();
        if first != 1 {
            // Send the pivot symbol home.
            let home = (first - 1) as usize;
            moves.push(home);
            cur.star_move_in_place(home);
        } else {
            // Pivot holds 1; find any displaced symbol to start a new cycle.
            let mut displaced = None;
            for i in 1..n {
                if cur.get(i) != (i + 1) as u8 {
                    displaced = Some(i);
                    break;
                }
            }
            match displaced {
                Some(i) => {
                    moves.push(i);
                    cur.star_move_in_place(i);
                }
                None => break, // identity reached
            }
        }
    }
    moves
}

/// A shortest path from `u` to `v` in `S_n`, as the full vertex sequence
/// `[u, ..., v]` (length `distance(u, v) + 1`).
///
/// # Panics
/// Panics if the permutations have different sizes.
pub fn shortest_path(u: &Perm, v: &Perm) -> Vec<Perm> {
    assert_eq!(u.n(), v.n(), "routing between different-size permutations");
    // Sorting w = u^{-1}∘v to the identity by right-multiplications yields,
    // applied from v, a walk that ends at u; reverse it.
    let w = u.inverse().compose(v);
    let moves = sorting_moves(&w);
    let mut path = Vec::with_capacity(moves.len() + 1);
    let mut cur = *v;
    path.push(cur);
    for d in moves {
        cur.star_move_in_place(d);
        path.push(cur);
    }
    debug_assert_eq!(*path.last().unwrap(), *u);
    path.reverse();
    path
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distance;

    fn is_valid_path(path: &[Perm]) -> bool {
        path.windows(2).all(|w| w[0].is_adjacent(&w[1]))
    }

    #[test]
    fn path_endpoints_and_validity() {
        let u = Perm::from_digits(5, 45312);
        let v = Perm::from_digits(5, 21534);
        let p = shortest_path(&u, &v);
        assert_eq!(p.first(), Some(&u));
        assert_eq!(p.last(), Some(&v));
        assert!(is_valid_path(&p));
    }

    #[test]
    fn path_length_is_distance_exhaustive_s4() {
        let anchor = Perm::from_digits(4, 3142);
        for rank in 0..24u32 {
            let v = Perm::unrank(4, rank).unwrap();
            let p = shortest_path(&anchor, &v);
            assert!(is_valid_path(&p), "{anchor} -> {v}");
            assert_eq!(p.len() - 1, distance(&anchor, &v), "{anchor} -> {v}");
        }
    }

    #[test]
    fn path_length_is_distance_sampled_s7() {
        let u = Perm::from_digits(7, 7361524);
        for rank in (0..5040u32).step_by(311) {
            let v = Perm::unrank(7, rank).unwrap();
            let p = shortest_path(&u, &v);
            assert!(is_valid_path(&p));
            assert_eq!(p.len() - 1, distance(&u, &v));
        }
    }

    #[test]
    fn identity_route_is_trivial() {
        let u = Perm::identity(6);
        assert_eq!(shortest_path(&u, &u), vec![u]);
        assert!(sorting_moves(&u).is_empty());
    }
}
