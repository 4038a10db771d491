//! Closed-form topological properties of `S_n`.

use star_perm::factorial;

/// Number of vertices of `S_n`: `n!`.
#[inline]
pub fn vertex_count(n: usize) -> u64 {
    factorial(n)
}

/// Number of edges of `S_n`: `n!(n-1)/2`.
#[inline]
pub fn edge_count(n: usize) -> u64 {
    factorial(n) * (n as u64).saturating_sub(1) / 2
}

/// Diameter of `S_n`: `⌊3(n-1)/2⌋` (Akers–Krishnamurthy).
#[inline]
pub fn diameter(n: usize) -> usize {
    3 * (n - 1) / 2
}

/// Girth of `S_n` for `n >= 3`: 6. The star graph is bipartite (no odd
/// cycles) and triangle/4-cycle-free; `S_3` itself is a 6-cycle.
#[inline]
pub fn girth(n: usize) -> Option<usize> {
    if n >= 3 {
        Some(6)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::StarGraph;
    use star_perm::Perm;

    #[test]
    fn formulas_small() {
        assert_eq!(vertex_count(4), 24);
        assert_eq!(edge_count(4), 36);
        assert_eq!(diameter(4), 4);
        assert_eq!(diameter(5), 6);
        assert_eq!(girth(3), Some(6));
        assert_eq!(girth(2), None);
    }

    #[test]
    fn girth_six_no_short_cycles_s4() {
        // Exhaustively verify there is no cycle of length < 6 through the
        // identity of S_4 (vertex-transitivity extends this to all
        // vertices): count closed walks avoiding immediate backtracking.
        let g = StarGraph::new(4).unwrap();
        let id = Perm::identity(4);
        // DFS for simple cycles through `id` of length 3..=5.
        fn dfs(
            g: &StarGraph,
            start: &Perm,
            current: &Perm,
            visited: &mut Vec<Perm>,
            max_len: usize,
            found: &mut bool,
        ) {
            if *found || visited.len() > max_len {
                return;
            }
            for nb in g.neighbors(current) {
                if nb == *start && visited.len() >= 3 {
                    *found = true;
                    return;
                }
                if !visited.contains(&nb) && nb != *start {
                    visited.push(nb);
                    dfs(g, start, &nb, visited, max_len, found);
                    visited.pop();
                }
            }
        }
        let mut found = false;
        let mut visited = vec![id];
        dfs(&g, &id, &id, &mut visited, 5, &mut found);
        assert!(!found, "S_4 must have no cycle shorter than 6");

        let mut found6 = false;
        let mut visited = vec![id];
        dfs(&g, &id, &id, &mut visited, 6, &mut found6);
        assert!(found6, "S_4 must have a 6-cycle");
    }
}
