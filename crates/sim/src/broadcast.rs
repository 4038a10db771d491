//! Broadcasting on the faulty machine — the other communication pattern
//! the paper's introduction motivates (it cites optimal star-graph
//! broadcasting alongside ring embeddings).
//!
//! A broadcast tree is a BFS tree over the *healthy* part of the machine;
//! in the all-port model its depth is the broadcast round count, and with
//! no faults that depth is the graph's diameter-bounded eccentricity. The
//! module also provides the ring-based broadcast figure for comparison:
//! an embedded ring broadcasts in `ceil((len-1)/2)` rounds (both
//! directions), trading latency for the ring's simplicity and locality.

use std::collections::VecDeque;

use star_perm::{factorial, Perm};

use crate::network::FaultyStarNetwork;

/// A BFS broadcast tree over the healthy processors.
#[derive(Debug, Clone)]
pub struct BroadcastTree {
    root: Perm,
    reached: usize,
    max_depth: u32,
}

impl BroadcastTree {
    /// Builds the tree from `root` (which must be alive).
    pub fn build(net: &FaultyStarNetwork, root: &Perm) -> Self {
        assert!(net.is_alive(root), "broadcast root must be alive");
        let n = net.n();
        let total = factorial(n) as usize;
        let mut depth = vec![u32::MAX; total];
        let mut queue = VecDeque::new();
        depth[root.rank() as usize] = 0;
        queue.push_back(*root);
        let mut reached = 1usize;
        let mut max_depth = 0u32;
        while let Some(u) = queue.pop_front() {
            let du = depth[u.rank() as usize];
            for v in u.neighbors() {
                let r = v.rank() as usize;
                if depth[r] == u32::MAX && net.can_send(&u, &v) {
                    depth[r] = du + 1;
                    max_depth = max_depth.max(du + 1);
                    reached += 1;
                    queue.push_back(v);
                }
            }
        }
        BroadcastTree {
            root: *root,
            reached,
            max_depth,
        }
    }

    /// The root processor.
    pub fn root(&self) -> &Perm {
        &self.root
    }

    /// Healthy processors the broadcast reaches (including the root).
    pub fn reached(&self) -> usize {
        self.reached
    }

    /// Broadcast rounds in the all-port model (= tree depth).
    pub fn rounds(&self) -> u32 {
        self.max_depth
    }

    /// Messages sent (one per non-root reached processor).
    pub fn messages(&self) -> usize {
        self.reached - 1
    }
}

/// Rounds for a broadcast over an embedded ring of `len` slots, sending in
/// both directions simultaneously.
pub fn ring_broadcast_rounds(len: usize) -> usize {
    len.saturating_sub(1).div_ceil(2)
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_fault::{gen, FaultSet};
    use star_graph::diameter;

    #[test]
    fn fault_free_tree_reaches_everything_at_diameter_depth() {
        for n in [4usize, 5] {
            let net = FaultyStarNetwork::new(n, FaultSet::empty(n));
            let tree = BroadcastTree::build(&net, &Perm::identity(n));
            assert_eq!(tree.reached() as u64, factorial(n));
            assert_eq!(tree.rounds() as usize, diameter(n));
            assert_eq!(tree.messages() as u64, factorial(n) - 1);
        }
    }

    #[test]
    fn faulty_tree_skips_the_dead() {
        let n = 6;
        let faults = gen::random_vertex_faults(n, 3, 9).unwrap();
        let root = (0..720u32)
            .map(|r| Perm::unrank(n, r).unwrap())
            .find(|v| faults.is_vertex_healthy(v))
            .unwrap();
        let net = FaultyStarNetwork::new(n, faults.clone());
        let tree = BroadcastTree::build(&net, &root);
        // With only 3 faults in S_6 the healthy part stays connected
        // (connectivity is n-1 = 5).
        assert_eq!(tree.reached() as u64, factorial(n) - 3);
    }

    #[test]
    fn encircled_root_reaches_only_itself() {
        let n = 4;
        let root = Perm::identity(n);
        let wall = FaultSet::from_vertices(n, root.neighbors()).unwrap();
        let net = FaultyStarNetwork::new(n, wall);
        let tree = BroadcastTree::build(&net, &root);
        assert_eq!(tree.reached(), 1);
        assert_eq!(tree.rounds(), 0);
    }

    #[test]
    fn ring_vs_tree_latency() {
        // Ring broadcast trades latency for structure: tree rounds are the
        // diameter (7 for S_6), ring rounds are ~len/2.
        let n = 6;
        let ring_len = factorial(n) as usize;
        assert!(ring_broadcast_rounds(ring_len) > diameter(n));
        assert_eq!(ring_broadcast_rounds(ring_len), (ring_len - 1).div_ceil(2));
        assert_eq!(ring_broadcast_rounds(1), 0);
    }
}
