//! Fault-tolerant point-to-point routing.
//!
//! [`routing`](crate::routing) gives optimal routes on the healthy graph;
//! this module routes **around** dead processors and links. The router is
//! A* over the implicit graph with the closed-form fault-free distance as
//! its heuristic — admissible (faults only lengthen routes), so returned
//! routes are *shortest in the faulty graph*, and the search touches only
//! the neighborhood the detour actually needs instead of materializing
//! `n!` vertices.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};

use star_perm::Perm;

use crate::distance;

/// Outcome of a fault-avoiding route query.
#[derive(Debug, Clone)]
pub struct Route {
    /// The full vertex sequence `[src, ..., dst]`.
    pub path: Vec<Perm>,
    /// Number of vertices the search expanded (effort diagnostic).
    pub expanded: usize,
}

impl Route {
    /// Route length in hops.
    pub fn hops(&self) -> usize {
        self.path.len() - 1
    }
}

/// Shortest route from `src` to `dst` through healthy vertices and links
/// only, or `None` if every route is cut. `is_blocked_vertex(v)` and
/// `is_blocked_edge(a, b)` describe the faults (the source and destination
/// must not be blocked).
///
/// # Examples
///
/// ```
/// use star_graph::fault_routing::route_avoiding;
/// use star_perm::Perm;
///
/// let u = Perm::identity(5);
/// let v = u.star_move(3);
/// // With the direct neighbor healthy the route is one hop...
/// let direct = route_avoiding(&u, &v, |_| false, |_, _| false).unwrap();
/// assert_eq!(direct.hops(), 1);
/// // ...and a detour is found when intermediate processors die.
/// let via = u.star_move(2);
/// let far = Perm::from_digits(5, 54321);
/// let route = route_avoiding(&u, &far, |w| *w == via, |_, _| false).unwrap();
/// assert!(route.path.iter().all(|w| *w != via));
/// ```
pub fn route_avoiding<V, E>(
    src: &Perm,
    dst: &Perm,
    is_blocked_vertex: V,
    is_blocked_edge: E,
) -> Option<Route>
where
    V: Fn(&Perm) -> bool,
    E: Fn(&Perm, &Perm) -> bool,
{
    assert_eq!(src.n(), dst.n(), "routing between different dimensions");
    assert!(
        !is_blocked_vertex(src) && !is_blocked_vertex(dst),
        "endpoints must be healthy"
    );
    if src == dst {
        return Some(Route {
            path: vec![*src],
            expanded: 0,
        });
    }

    // A* with g = hops so far, h = fault-free distance (admissible and
    // consistent: one hop changes the true distance by at most 1).
    let mut open: BinaryHeap<Reverse<(usize, u32)>> = BinaryHeap::new();
    let mut g_score: HashMap<u32, usize> = HashMap::new();
    let mut parent: HashMap<u32, u32> = HashMap::new();
    let n = src.n();
    let src_rank = src.rank();
    let dst_rank = dst.rank();
    g_score.insert(src_rank, 0);
    open.push(Reverse((distance(src, dst), src_rank)));
    let mut expanded = 0usize;

    while let Some(Reverse((_, rank))) = open.pop() {
        let u = Perm::unrank(n, rank).expect("rank from the frontier");
        let g_u = g_score[&rank];
        if rank == dst_rank {
            // Reconstruct.
            let mut path = vec![u];
            let mut cur = rank;
            while let Some(&p) = parent.get(&cur) {
                path.push(Perm::unrank(n, p).expect("parent rank"));
                cur = p;
            }
            path.reverse();
            return Some(Route { path, expanded });
        }
        expanded += 1;
        for w in u.neighbors() {
            if is_blocked_vertex(&w) || is_blocked_edge(&u, &w) {
                continue;
            }
            let w_rank = w.rank();
            let tentative = g_u + 1;
            if g_score.get(&w_rank).is_none_or(|&g| tentative < g) {
                g_score.insert(w_rank, tentative);
                parent.insert(w_rank, rank);
                open.push(Reverse((tentative + distance(&w, dst), w_rank)));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bfs;

    fn route_avoiding_vertices(src: &Perm, dst: &Perm, faulty: &[Perm]) -> Option<Route> {
        route_avoiding(src, dst, |v| faulty.contains(v), |_, _| false)
    }

    #[test]
    fn matches_plain_distance_without_faults() {
        let u = Perm::from_digits(6, 351624);
        let v = Perm::from_digits(6, 123456);
        let route = route_avoiding_vertices(&u, &v, &[]).unwrap();
        assert_eq!(route.hops(), distance(&u, &v));
        for w in route.path.windows(2) {
            assert!(w[0].is_adjacent(&w[1]));
        }
    }

    #[test]
    fn detours_around_a_wall_optimally() {
        // Block several vertices near the straight-line route and compare
        // against brute-force BFS distances in the faulty graph.
        let n = 5;
        let u = Perm::identity(n);
        let faulty: Vec<Perm> = u.neighbors().take(2).collect();
        let blocked = |v: &Perm| faulty.contains(v);
        let dist = bfs::distances_from_avoiding(n, &u, blocked);
        for rank in (0..120u32).step_by(11) {
            let v = Perm::unrank(n, rank).unwrap();
            if blocked(&v) {
                continue;
            }
            let route = route_avoiding_vertices(&u, &v, &faulty);
            match route {
                Some(r) => {
                    assert_eq!(r.hops() as u32, dist[rank as usize], "to {v}");
                    assert!(r.path.iter().all(|w| !blocked(w)));
                }
                None => assert_eq!(dist[rank as usize], u32::MAX),
            }
        }
    }

    #[test]
    fn edge_faults_respected() {
        let u = Perm::identity(4);
        let v = u.star_move(2);
        // Cut the direct edge; route must take a detour of odd length >= 3.
        let route = route_avoiding(
            &u,
            &v,
            |_| false,
            |a, b| (a == &u && b == &v) || (a == &v && b == &u),
        )
        .unwrap();
        assert!(route.hops() >= 3);
        assert_eq!(route.path.first(), Some(&u));
        assert_eq!(route.path.last(), Some(&v));
        for w in route.path.windows(2) {
            assert!(!(w[0] == u && w[1] == v || w[0] == v && w[1] == u));
        }
    }

    #[test]
    fn fully_enclosed_target_is_unreachable() {
        let n = 4;
        let dst = Perm::identity(n);
        let wall: Vec<Perm> = dst.neighbors().collect();
        let src = Perm::from_digits(4, 4321);
        assert!(route_avoiding_vertices(&src, &dst, &wall).is_none());
    }

    #[test]
    fn search_effort_stays_local_for_easy_routes() {
        // With no faults the A* heuristic is exact, so expansions stay
        // around the route length even in S_7 (5040 vertices).
        let u = Perm::from_digits(7, 7654321);
        let v = Perm::from_digits(7, 1234567);
        let route = route_avoiding_vertices(&u, &v, &[]).unwrap();
        assert!(
            route.expanded <= 20 * route.hops().max(1),
            "{}",
            route.expanded
        );
    }
}
