//! Logical-ring-to-machine mappings.
//!
//! A ring workload sees `L` logical slots `0..L` with hops `i -> i+1 mod
//! L`. A mapping assigns each slot a live processor and each hop a link
//! cost:
//!
//! * [`RingMapping::embedded`] — the paper's embedding: consecutive slots
//!   sit on adjacent processors, so every hop costs exactly one link
//!   (dilation 1);
//! * [`RingMapping::naive_by_rank`] — the strawman: take the healthy
//!   processors in Lehmer-rank order; consecutive slots are *not* adjacent
//!   and each hop pays a full route.

use star_perm::Perm;

use crate::network::FaultyStarNetwork;

/// A logical ring mapped onto processors, with per-hop link costs.
#[derive(Debug, Clone)]
pub struct RingMapping {
    slots: Vec<Perm>,
    hop_cost: Vec<u64>,
}

impl RingMapping {
    /// Maps the logical ring onto an embedded ring (dilation 1). The
    /// caller supplies the embedding's vertex sequence (e.g. from
    /// `star_ring::embed_longest_ring`).
    pub fn embedded(net: &FaultyStarNetwork, ring: &[Perm]) -> Self {
        assert!(ring.len() >= 3);
        for i in 0..ring.len() {
            let (a, b) = (&ring[i], &ring[(i + 1) % ring.len()]);
            assert!(net.can_send(a, b), "embedded ring must use healthy links");
        }
        RingMapping {
            slots: ring.to_vec(),
            hop_cost: vec![1; ring.len()],
        }
    }

    /// Maps the logical ring onto all healthy processors in rank order —
    /// what a topology-oblivious runtime would do. Hops pay routed costs.
    pub fn naive_by_rank(net: &FaultyStarNetwork) -> Self {
        let n = net.n();
        let slots: Vec<Perm> = star_graph::StarGraph::new(n)
            .expect("valid dimension")
            .vertices()
            .filter(|p| net.is_alive(p))
            .collect();
        let len = slots.len();
        let hop_cost = (0..len)
            .map(|i| net.route_cost(&slots[i], &slots[(i + 1) % len]))
            .collect();
        RingMapping { slots, hop_cost }
    }

    /// Number of logical slots (usable processors).
    #[inline]
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Mappings are never empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// The processor at logical slot `i`.
    #[inline]
    pub fn slot(&self, i: usize) -> &Perm {
        &self.slots[i]
    }

    /// Link cost of the hop `i -> i+1 (mod len)`.
    #[inline]
    pub(crate) fn hop_cost(&self, i: usize) -> u64 {
        self.hop_cost[i]
    }

    /// The worst single-hop cost — the mapping's dilation.
    pub fn dilation(&self) -> u64 {
        self.hop_cost.iter().copied().max().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_fault::{gen, FaultSet};

    #[test]
    fn embedded_mapping_has_dilation_1() {
        let faults = gen::random_vertex_faults(5, 2, 3).unwrap();
        let ring = star_ring::embed_longest_ring(5, &faults).unwrap();
        let net = FaultyStarNetwork::new(5, faults);
        let map = RingMapping::embedded(&net, ring.vertices());
        assert_eq!(map.len(), 116);
        assert_eq!(map.dilation(), 1);
    }

    #[test]
    fn naive_mapping_pays_dilation() {
        let net = FaultyStarNetwork::new(5, FaultSet::empty(5));
        let map = RingMapping::naive_by_rank(&net);
        assert_eq!(map.len(), 120);
        assert!(map.dilation() > 1, "rank order is not an embedding");
    }
}
