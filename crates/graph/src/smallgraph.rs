//! Explicitly materialized small graphs with exhaustive path/cycle search.
//!
//! Two callers need exact answers on small graphs:
//!
//! * the Lemma-4 **block oracle** in `star-ring`: every 4-vertex of the
//!   `R^4` is isomorphic to `S_4` (24 vertices), and the construction needs
//!   longest healthy paths between prescribed endpoints inside a block;
//! * the **optimality experiments** in `star-verify`: brute-force longest
//!   healthy cycles in `S_4` (and budgeted searches in `S_5`) to witness
//!   that `n! - 2|F_v|` cannot be beaten.
//!
//! The searches are plain DFS with two strong prunes (reachability of all
//! remaining vertices, and unreachable-target cutoff), which is exact and
//! fast at these sizes.

use star_perm::factorial;

use crate::Pattern;

/// A dense small graph over vertex ids `0..n_vertices`.
#[derive(Debug, Clone)]
pub struct SmallGraph {
    adj: Vec<Vec<u16>>,
}

/// A growable bitset sized for a [`SmallGraph`].
#[derive(Debug, Clone, PartialEq, Eq)]
struct Bits {
    words: Vec<u64>,
}

impl Bits {
    fn new(len: usize) -> Self {
        Bits {
            words: vec![0; len.div_ceil(64)],
        }
    }

    #[inline]
    fn set(&mut self, i: u16) {
        self.words[i as usize / 64] |= 1 << (i % 64);
    }

    #[inline]
    fn clear(&mut self, i: u16) {
        self.words[i as usize / 64] &= !(1 << (i % 64));
    }

    #[inline]
    fn get(&self, i: u16) -> bool {
        (self.words[i as usize / 64] >> (i % 64)) & 1 == 1
    }
}

impl SmallGraph {
    /// An edgeless graph on `n_vertices` vertices.
    pub fn new(n_vertices: usize) -> Self {
        assert!(n_vertices <= u16::MAX as usize);
        SmallGraph {
            adj: vec![Vec::new(); n_vertices],
        }
    }

    /// Adds an undirected edge.
    pub fn add_edge(&mut self, u: u16, v: u16) {
        assert_ne!(u, v, "no self-loops");
        if !self.adj[u as usize].contains(&v) {
            self.adj[u as usize].push(v);
            self.adj[v as usize].push(u);
        }
    }

    /// `S_n` materialized with vertex ids equal to Lehmer ranks. Intended
    /// for `n <= 7`.
    pub fn from_star(n: usize) -> Self {
        let total = factorial(n) as usize;
        let mut g = SmallGraph::new(total);
        for u in Pattern::full(n).vertices() {
            let ur = u.rank() as u16;
            for v in u.neighbors() {
                let vr = v.rank() as u16;
                if ur < vr {
                    g.add_edge(ur, vr);
                }
            }
        }
        g
    }

    /// Number of vertices.
    #[inline]
    pub(crate) fn n_vertices(&self) -> usize {
        self.adj.len()
    }

    /// Neighbor list of `v`.
    #[inline]
    pub fn neighbors(&self, v: u16) -> &[u16] {
        &self.adj[v as usize]
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Exact Hamiltonian path search: a path from `from` to `to` visiting
    /// **every** unblocked vertex exactly once. `blocked[v]` removes `v`
    /// from the graph. Returns the vertex sequence or `None`.
    pub fn hamiltonian_path(&self, from: u16, to: u16, blocked: &[bool]) -> Option<Vec<u16>> {
        let need = blocked.iter().filter(|&&b| !b).count();
        self.search_path(from, to, blocked, need, u64::MAX).0
    }

    /// Path search with an exact vertex-count target and a node budget.
    /// Returns `(path_if_found, budget_exhausted)`.
    pub fn path_with_exact_count(
        &self,
        from: u16,
        to: u16,
        blocked: &[bool],
        count: usize,
        budget: u64,
    ) -> (Option<Vec<u16>>, bool) {
        self.search_path(from, to, blocked, count, budget)
    }

    fn search_path(
        &self,
        from: u16,
        to: u16,
        blocked_slice: &[bool],
        need: usize,
        mut budget: u64,
    ) -> (Option<Vec<u16>>, bool) {
        let n = self.n_vertices();
        assert_eq!(blocked_slice.len(), n);
        let mut blocked = Bits::new(n);
        for (i, &b) in blocked_slice.iter().enumerate() {
            if b {
                blocked.set(i as u16);
            }
        }
        if blocked.get(from) || blocked.get(to) || need == 0 {
            return (None, false);
        }
        if from == to {
            return (if need == 1 { Some(vec![from]) } else { None }, false);
        }
        let mut visited = Bits::new(n);
        visited.set(from);
        let mut path = vec![from];
        let found = self.dfs_path(
            from,
            to,
            need,
            &mut visited,
            &mut path,
            &blocked,
            &mut budget,
        );
        if found {
            (Some(path), false)
        } else {
            (None, budget == 0)
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_path(
        &self,
        cur: u16,
        to: u16,
        need: usize,
        visited: &mut Bits,
        path: &mut Vec<u16>,
        blocked: &Bits,
        budget: &mut u64,
    ) -> bool {
        if *budget == 0 {
            return false;
        }
        *budget -= 1;
        if path.len() == need {
            return cur == to;
        }
        if cur == to {
            return false; // reached the target too early
        }
        // Prune: the target must still be reachable, and when the path must
        // cover everything (need == all unblocked), everything must remain
        // reachable from the head.
        if !self.target_reachable(cur, to, visited, blocked) {
            return false;
        }
        for &w in self.neighbors(cur) {
            if visited.get(w) || blocked.get(w) {
                continue;
            }
            visited.set(w);
            path.push(w);
            if self.dfs_path(w, to, need, visited, path, blocked, budget) {
                return true;
            }
            path.pop();
            visited.clear(w);
        }
        false
    }

    fn target_reachable(&self, from: u16, to: u16, visited: &Bits, blocked: &Bits) -> bool {
        let n = self.n_vertices();
        let mut seen = Bits::new(n);
        let mut stack = vec![from];
        seen.set(from);
        while let Some(u) = stack.pop() {
            for &w in self.neighbors(u) {
                if w == to {
                    return true;
                }
                if !seen.get(w) && !visited.get(w) && !blocked.get(w) {
                    seen.set(w);
                    stack.push(w);
                }
            }
        }
        false
    }

    /// Exact longest simple cycle avoiding blocked vertices, with a search
    /// budget. Returns `(best_cycle, exhausted)`; `best_cycle` is empty when
    /// no cycle exists. When `exhausted` is `false` the result is provably
    /// optimal.
    pub fn longest_cycle(&self, blocked_slice: &[bool], mut budget: u64) -> (Vec<u16>, bool) {
        let n = self.n_vertices();
        assert_eq!(blocked_slice.len(), n);
        let mut blocked = Bits::new(n);
        for (i, &b) in blocked_slice.iter().enumerate() {
            if b {
                blocked.set(i as u16);
            }
        }
        let mut best: Vec<u16> = Vec::new();
        // Anchor the cycle at its minimum vertex id to break symmetry: try
        // each start, forbidding smaller ids on the cycle.
        for start in 0..n as u16 {
            if blocked.get(start) {
                continue;
            }
            let mut blocked_here = blocked.clone();
            for smaller in 0..start {
                blocked_here.set(smaller);
            }
            let mut visited = Bits::new(n);
            visited.set(start);
            let mut path = vec![start];
            self.dfs_cycle(
                start,
                start,
                &mut visited,
                &mut path,
                &blocked_here,
                &mut best,
                &mut budget,
            );
            if budget == 0 {
                return (best, true);
            }
        }
        (best, false)
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs_cycle(
        &self,
        cur: u16,
        start: u16,
        visited: &mut Bits,
        path: &mut Vec<u16>,
        blocked: &Bits,
        best: &mut Vec<u16>,
        budget: &mut u64,
    ) {
        if *budget == 0 {
            return;
        }
        *budget -= 1;
        // Upper bound: current path + vertices still reachable from the
        // head cannot beat `best` -> prune.
        let n = self.n_vertices();
        let mut seen = Bits::new(n);
        let mut stack = vec![cur];
        seen.set(cur);
        let mut reachable_extra = 0usize;
        let mut start_reachable = false;
        while let Some(u) = stack.pop() {
            for &w in self.neighbors(u) {
                if w == start {
                    start_reachable = true;
                }
                if !seen.get(w) && !visited.get(w) && !blocked.get(w) {
                    seen.set(w);
                    reachable_extra += 1;
                    stack.push(w);
                }
            }
        }
        if !start_reachable || path.len() + reachable_extra <= best.len() {
            return;
        }
        for &w in self.neighbors(cur) {
            if w == start && path.len() >= 3 {
                if path.len() > best.len() {
                    *best = path.clone();
                }
                continue;
            }
            if visited.get(w) || blocked.get(w) {
                continue;
            }
            visited.set(w);
            path.push(w);
            self.dfs_cycle(w, start, visited, path, blocked, best, budget);
            path.pop();
            visited.clear(w);
            if *budget == 0 {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_perm::Perm;

    fn s4() -> SmallGraph {
        SmallGraph::from_star(4)
    }

    #[test]
    fn s4_shape() {
        let g = s4();
        assert_eq!(g.n_vertices(), 24);
        assert_eq!(g.edge_count(), 36);
    }

    #[test]
    fn s3_is_six_cycle_hamiltonian() {
        let g = SmallGraph::from_star(3);
        let blocked = vec![false; 6];
        let (cycle, exhausted) = g.longest_cycle(&blocked, u64::MAX);
        assert!(!exhausted);
        assert_eq!(cycle.len(), 6);
    }

    #[test]
    fn s4_is_hamiltonian() {
        let g = s4();
        let blocked = vec![false; 24];
        let (cycle, exhausted) = g.longest_cycle(&blocked, u64::MAX);
        assert!(!exhausted);
        assert_eq!(cycle.len(), 24, "S_4 has a Hamiltonian cycle");
        // Check it is a real cycle.
        for i in 0..cycle.len() {
            assert!(g
                .neighbors(cycle[i])
                .contains(&cycle[(i + 1) % cycle.len()]));
        }
    }

    #[test]
    fn one_fault_longest_cycle_is_22() {
        // Theorem 1 at n = 4: with one fault the longest healthy ring has
        // 4! - 2 = 22 vertices (bipartite bound), and it is achieved.
        let g = s4();
        let mut blocked = vec![false; 24];
        blocked[Perm::identity(4).rank() as usize] = true;
        let (cycle, exhausted) = g.longest_cycle(&blocked, u64::MAX);
        assert!(!exhausted);
        assert_eq!(cycle.len(), 22);
    }

    #[test]
    fn hamiltonian_path_between_adjacent_vertices() {
        let g = s4();
        let u = Perm::identity(4);
        let v = u.star_move(1);
        let blocked = vec![false; 24];
        let p = g
            .hamiltonian_path(u.rank() as u16, v.rank() as u16, &blocked)
            .expect("S_4 is Hamiltonian-laceable for adjacent endpoints");
        assert_eq!(p.len(), 24);
        for w in p.windows(2) {
            assert!(g.neighbors(w[0]).contains(&w[1]));
        }
        assert_eq!(p[0], u.rank() as u16);
        assert_eq!(p[23], v.rank() as u16);
    }

    #[test]
    fn lemma_4_shape_via_exact_count_path() {
        // Lemma 4: with one fault, adjacent healthy u, v admit a healthy
        // path of length 4! - 3 (22 vertices). Exhaustive check for one
        // configuration here; the oracle tests in star-ring sweep all.
        let g = s4();
        let u = Perm::from_digits(4, 1234);
        let v = Perm::from_digits(4, 3214); // u.star_move(2)
        assert!(u.is_adjacent(&v));
        let f = Perm::from_digits(4, 2314);
        let mut blocked = vec![false; 24];
        blocked[f.rank() as usize] = true;
        let (p, exhausted) =
            g.path_with_exact_count(u.rank() as u16, v.rank() as u16, &blocked, 22, u64::MAX);
        assert!(!exhausted);
        assert_eq!(
            p.expect("path exists").len(),
            22,
            "4! - 2 vertices = length 4! - 3 edges"
        );
    }

    #[test]
    fn no_path_when_endpoint_blocked() {
        let g = s4();
        let mut blocked = vec![false; 24];
        blocked[0] = true;
        assert!(g.hamiltonian_path(0, 5, &blocked).is_none());
    }

    #[test]
    fn budget_exhaustion_reported() {
        let g = s4();
        let blocked = vec![false; 24];
        let (_, exhausted) = g.longest_cycle(&blocked, 10);
        assert!(exhausted);
    }

    #[test]
    fn path_with_exact_count_finds_and_fails() {
        let g = SmallGraph::from_star(3);
        let blocked = vec![false; 6];
        // On a 6-cycle, between adjacent vertices there are paths with 2 and
        // 6 vertices but none with 3 (parity).
        let u = Perm::identity(3);
        let v = u.star_move(1);
        let (p2, _) =
            g.path_with_exact_count(u.rank() as u16, v.rank() as u16, &blocked, 2, u64::MAX);
        assert!(p2.is_some());
        let (p3, _) =
            g.path_with_exact_count(u.rank() as u16, v.rank() as u16, &blocked, 3, u64::MAX);
        assert!(p3.is_none());
        let (p6, _) =
            g.path_with_exact_count(u.rank() as u16, v.rank() as u16, &blocked, 6, u64::MAX);
        assert!(p6.is_some());
    }
}
