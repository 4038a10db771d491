//! # star-rings
//!
//! Umbrella crate for the reproduction of *"Embed Longest Rings onto Star
//! Graphs with Vertex Faults"* (Sun-Yuan Hsieh, Gen-Huey Chen, Chin-Wen Ho;
//! ICPP 1998).
//!
//! Re-exports the workspace crates under short module names so that the
//! examples and integration tests can use a single dependency:
//!
//! - [`perm`] — permutations (vertices of `S_n`).
//! - [`graph`] — the star graph `S_n`, sub-stars, partitions, super-rings.
//! - [`fault`] — vertex/edge fault sets and generators.
//! - [`ring`] — **the paper's algorithm**: longest fault-free ring
//!   embeddings (`n! - 2|F_v|` with `|F_v| <= n-3`).
//! - [`baselines`] — prior-art comparators (Tseng et al.,
//!   Latifi–Bagherzadeh).
//! - [`verify`] — ring/path validity and optimality checkers.
//! - [`sim`] — ring-workload simulation on faulty star networks.
//! - [`obs`] — structured tracing and metrics (spans, counters,
//!   histograms) used by every layer above, and the workspace's one JSON
//!   module ([`obs::json`]).
//! - [`pool`] — the shared work pool: order-preserving parallel maps and
//!   the process-wide thread-count knob ([`pool::set_threads`], surfaced
//!   as `--threads` on the CLI).
//! - [`mod@bench`] — the harness above the library and the server: perf
//!   baselines (`BENCH_*.json`), the regression comparator, the load
//!   generator (`star-rings loadgen`), the differential audit
//!   (`star-rings audit`) and the command-line flag parser.
//! - [`serve`] — the networked embedding service: TCP server with a
//!   length-prefixed JSON protocol, bounded request queue and sharded LRU
//!   result cache (`star-rings serve`).
//! - [`oracle`] — the symmetry-canonical embedding oracle: an
//!   `Aut(S_n)`-canonicalizer that folds fault scenarios onto orbit
//!   representatives, plus a crash-safe disk store of canonical rings
//!   (`star-rings oracle warm|stats|verify`, `serve --oracle-path`).
//!
//! ## Quickstart
//!
//! ```
//! use star_rings::fault::FaultSet;
//! use star_rings::perm::Perm;
//! use star_rings::ring::embed_longest_ring;
//! use star_rings::verify::check_ring;
//!
//! // S_6 with 3 vertex faults (the maximum n-3 allows).
//! let n = 6;
//! let faults = FaultSet::from_vertices(
//!     n,
//!     [
//!         Perm::from_digits(6, 123456),
//!         Perm::from_digits(6, 213456),
//!         Perm::from_digits(6, 321456),
//!     ],
//! )
//! .unwrap();
//!
//! let ring = embed_longest_ring(n, &faults).unwrap();
//! assert_eq!(ring.len(), 720 - 2 * 3); // n! - 2|F_v|
//! check_ring(n, ring.vertices(), &faults).unwrap();
//! ```

pub use star_baselines as baselines;
pub use star_bench as bench;
pub use star_fault as fault;
pub use star_graph as graph;
pub use star_obs as obs;
pub use star_oracle as oracle;
pub use star_perm as perm;
pub use star_pool as pool;
pub use star_ring as ring;
pub use star_serve as serve;
pub use star_sim as sim;
pub use star_verify as verify;
