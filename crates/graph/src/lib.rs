//! # star-graph
//!
//! The n-dimensional star graph `S_n` and the decomposition machinery the
//! paper's construction is built on.
//!
//! ## The graph
//!
//! Vertices of [`StarGraph`] are permutations of `1..=n` ([`star_perm::Perm`]);
//! `u ~ v` iff `v = u` with position 0 swapped with some position `d`
//! (`1 <= d <= n-1`, the *dimension-`d` edge*). `S_n` is `(n-1)`-regular,
//! vertex- and edge-transitive, bipartite with partite sets the even/odd
//! permutations, and has diameter `⌊3(n-1)/2⌋`.
//!
//! - [`distance`] — exact distance via the Akers–Krishnamurthy cycle
//!   formula; [`routing::shortest_path`] constructs an optimal route;
//!   [`fault_routing::route_avoiding`] routes around dead
//!   processors/links (A* with the exact distance as heuristic).
//! - [`bfs`] — brute-force breadth-first search used to cross-validate the
//!   closed forms for small `n` and to power exhaustive verification.
//!
//! ## Decomposition (Section 2 of the paper)
//!
//! - [`Pattern`] — an embedded `S_r` written `<s_1 s_2 ... s_n>_r`, where
//!   position 0 is always a don't-care and exactly `r` positions are
//!   don't-cares.
//! - [`partition`] — the `i`-partition and `(i_1,...,i_m)`-partition
//!   (Definitions 2 and 3).
//! - [`supervertex`] — adjacency of embedded sub-stars, `dif`, and the real
//!   edges inside a super-edge (an `r`-edge comprises `(r-1)!` edges).
//! - [`SuperRing`] — an `R^r`: a ring of `r`-vertices (Definition 4), plus
//!   the paper's structural property **(P2)**.
//! - [`smallgraph`] — exhaustive path/cycle search on explicitly
//!   materialized small graphs (the 24-vertex `S_4` blocks, and exhaustive
//!   optimality checks).
//! - [`export`] — a Graphviz DOT writer for ring overlays on small `S_n`.

mod distance;
mod edge;
mod error;
mod graph;
mod pattern;
mod properties;
mod ring;

pub mod bfs;
pub mod export;
pub mod fault_routing;
pub mod partition;
pub mod routing;
pub mod smallgraph;
pub mod supervertex;

pub use distance::distance;
pub use edge::Edge;
pub use error::GraphError;
pub use graph::StarGraph;
pub use pattern::{Pattern, SymbolSet};
pub use properties::{diameter, edge_count, girth, vertex_count};
pub use ring::SuperRing;
