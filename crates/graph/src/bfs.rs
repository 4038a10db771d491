//! Brute-force breadth-first search over `S_n`.
//!
//! Used to cross-validate the closed-form distance/diameter formulas for
//! small `n` and by the exhaustive optimality checks in `star-verify`.
//! Distances are indexed by Lehmer rank, so a full BFS over `S_n` costs
//! `O(n! · n)` time and `n!` bytes.

use std::collections::VecDeque;

use star_perm::{factorial, Perm};

/// Distance (in edges) from `src` to every vertex of `S_n`, indexed by
/// Lehmer rank. `u32::MAX` marks unreachable vertices (never happens on the
/// full graph, which is connected, but can when `blocked` is used).
pub(crate) fn distances_from(n: usize, src: &Perm) -> Vec<u32> {
    distances_from_avoiding(n, src, |_| false)
}

/// BFS distances avoiding vertices for which `blocked` returns `true`
/// (faulty processors). The source must not be blocked.
pub(crate) fn distances_from_avoiding<F>(n: usize, src: &Perm, blocked: F) -> Vec<u32>
where
    F: Fn(&Perm) -> bool,
{
    assert_eq!(src.n(), n);
    assert!(!blocked(src), "BFS source is blocked");
    let total = factorial(n) as usize;
    let mut dist = vec![u32::MAX; total];
    let mut queue = VecDeque::new();
    dist[src.rank() as usize] = 0;
    queue.push_back(*src);
    while let Some(u) = queue.pop_front() {
        let du = dist[u.rank() as usize];
        for v in u.neighbors() {
            let r = v.rank() as usize;
            if dist[r] == u32::MAX && !blocked(&v) {
                dist[r] = du + 1;
                queue.push_back(v);
            }
        }
    }
    dist
}

/// The eccentricity of `src`: the largest finite BFS distance.
pub fn eccentricity(n: usize, src: &Perm) -> u32 {
    distances_from(n, src)
        .into_iter()
        .filter(|&d| d != u32::MAX)
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties::diameter;

    #[test]
    fn s3_is_a_six_cycle() {
        let dist = distances_from(3, &Perm::identity(3));
        let mut sorted = dist.clone();
        sorted.sort_unstable();
        // On a 6-cycle: one vertex at distance 0, two at 1, two at 2, one at 3.
        assert_eq!(sorted, vec![0, 1, 1, 2, 2, 3]);
    }

    #[test]
    fn eccentricity_matches_diameter_formula() {
        // S_n is vertex-transitive, so any vertex's eccentricity is the
        // diameter ⌊3(n-1)/2⌋.
        for n in 2..=6 {
            assert_eq!(
                eccentricity(n, &Perm::identity(n)) as usize,
                diameter(n),
                "diameter of S_{n}"
            );
        }
    }
}
