//! The machine model: `S_n` with dead processors and links.

use star_fault::FaultSet;
use star_graph::routing;
use star_perm::Perm;

/// A faulty star-graph multiprocessor: `n!` processors at the vertices of
/// `S_n`, minus the fault set.
#[derive(Debug, Clone)]
pub struct FaultyStarNetwork {
    n: usize,
    faults: FaultSet,
}

impl FaultyStarNetwork {
    /// Builds the machine.
    pub fn new(n: usize, faults: FaultSet) -> Self {
        assert_eq!(faults.n(), n);
        FaultyStarNetwork { n, faults }
    }

    /// Dimension of the host star graph.
    #[inline]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The fault set.
    #[inline]
    pub fn faults(&self) -> &FaultSet {
        &self.faults
    }

    /// `true` iff processor `p` is alive.
    #[inline]
    pub(crate) fn is_alive(&self, p: &Perm) -> bool {
        self.faults.is_vertex_healthy(p)
    }

    /// `true` iff the physical link `u -- v` may carry a message (both
    /// endpoints alive, link healthy, and actually an edge of `S_n`).
    pub(crate) fn can_send(&self, u: &Perm, v: &Perm) -> bool {
        u.is_adjacent(v) && self.faults.is_step_healthy(u, v)
    }

    /// Number of physical link traversals needed to deliver a message from
    /// `u` to `v` along a shortest route of the *fault-free* topology.
    ///
    /// Used for dilation accounting of naive (non-embedded) ring mappings;
    /// if a route happens to pass a faulty element the message pays a
    /// detour penalty of 2 per hit (model: one sidestep and return). For
    /// an exact route through the faulty graph, see
    /// [`star_graph::fault_routing::route_avoiding`].
    pub(crate) fn route_cost(&self, u: &Perm, v: &Perm) -> u64 {
        let path = routing::shortest_path(u, v);
        let mut cost = (path.len() - 1) as u64;
        for w in path.windows(2) {
            if self.faults.is_vertex_faulty(&w[1]) || self.faults.is_edge_faulty(&w[0], &w[1]) {
                cost += 2;
            }
        }
        cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn can_send_respects_faults() {
        let u = Perm::identity(5);
        let v = u.star_move(2);
        let w = u.star_move(3);
        let faults = FaultSet::from_vertices(5, [v]).unwrap();
        let net = FaultyStarNetwork::new(5, faults);
        assert!(!net.can_send(&u, &v));
        assert!(net.can_send(&u, &w));
        // Non-adjacent pairs can never send directly.
        assert!(!net.can_send(&u, &u.star_move(2).star_move(3)));
    }

    #[test]
    fn route_cost_is_at_least_distance() {
        let u = Perm::identity(6);
        let v = Perm::from_digits(6, 654321);
        let net = FaultyStarNetwork::new(6, FaultSet::empty(6));
        assert_eq!(
            net.route_cost(&u, &v) as usize,
            star_graph::distance(&u, &v)
        );
    }
}
