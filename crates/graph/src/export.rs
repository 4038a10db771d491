//! Graphviz (DOT) export of embedded rings.
//!
//! For small `n` it is genuinely useful to *look* at `S_n` with a ring
//! highlighted; [`ring_to_dot`] emits standard DOT for `dot`/`neato`.

use std::fmt::Write as _;

use star_perm::Perm;

use crate::StarGraph;

/// Renders `S_n` with a ring overlay: ring edges bold/colored, faulty
/// vertices filled red, off-ring healthy vertices gray.
pub fn ring_to_dot(n: usize, ring: &[Perm], faulty: &[Perm]) -> String {
    let g = StarGraph::new(n).expect("valid dimension");
    let mut out = String::new();
    let _ = writeln!(out, "graph ring{n} {{");
    let _ = writeln!(out, "  layout=neato; node [shape=circle, fontsize=9];");
    let on_ring: std::collections::HashSet<u32> = ring.iter().map(Perm::rank).collect();
    for f in faulty {
        let _ = writeln!(out, "  \"{f}\" [style=filled, fillcolor=\"#d62728\"];");
    }
    for u in g.vertices() {
        if !on_ring.contains(&u.rank()) && !faulty.contains(&u) {
            let _ = writeln!(out, "  \"{u}\" [color=gray, fontcolor=gray];");
        }
    }
    // Ring edges (bold), then remaining graph edges (thin).
    let mut ring_edges = std::collections::HashSet::new();
    for i in 0..ring.len() {
        let (a, b) = (&ring[i], &ring[(i + 1) % ring.len()]);
        debug_assert!(a.is_adjacent(b), "ring overlay requires a real ring");
        let key = (a.rank().min(b.rank()), a.rank().max(b.rank()));
        ring_edges.insert(key);
        let _ = writeln!(
            out,
            "  \"{a}\" -- \"{b}\" [penwidth=2.5, color=\"#1f77b4\"];"
        );
    }
    for u in g.vertices() {
        for v in g.neighbors(&u) {
            let key = (u.rank().min(v.rank()), u.rank().max(v.rank()));
            if u.rank() < v.rank() && !ring_edges.contains(&key) {
                let _ = writeln!(out, "  \"{u}\" -- \"{v}\" [color=\"#cccccc\"];");
            }
        }
    }
    out.push_str("}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_overlay_marks_everything() {
        // A 22-ring of S_4 avoiding one faulty vertex: the fault is red,
        // the ring bold, and the one remaining healthy vertex gray.
        use crate::smallgraph::SmallGraph;
        let g = SmallGraph::from_star(4);
        let faulty = vec![Perm::identity(4)];
        let mut blocked = vec![false; 24];
        blocked[faulty[0].rank() as usize] = true;
        let (cycle, _) = g.longest_cycle(&blocked, u64::MAX);
        assert_eq!(cycle.len(), 22);
        let ring: Vec<Perm> = cycle
            .into_iter()
            .map(|id| Perm::unrank(4, id as u32).unwrap())
            .collect();
        let dot = ring_to_dot(4, &ring, &faulty);
        assert!(dot.contains("fillcolor=\"#d62728\""));
        assert_eq!(dot.matches("penwidth=2.5").count(), 22);
        assert!(dot.contains("color=gray"));
    }
}
