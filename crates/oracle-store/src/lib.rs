//! # star-oracle
//!
//! The symmetry-canonical embedding oracle: exploit `Aut(S_n)` so that
//! fault sets differing only by a star-graph automorphism share one
//! cached answer, and persist those answers in a checksummed, shippable,
//! crash-safe disk store.
//!
//! `S_n` is vertex- and edge-transitive; its automorphism group
//! `{ p ↦ g∘p∘h : g ∈ Sym(n), h(1) = 1 }` has order `n!·(n-1)!`
//! ([`star_perm::Aut`]). Two fault sets in the same orbit have
//! *isomorphic* longest-ring answers, so a cache keyed on the literal
//! fault set recomputes work it has already done up to `n!·(n-1)!` times
//! per orbit. This crate turns the cache into a true oracle:
//!
//! - [`canonicalize`] / [`Canonicalizer`] — map `(n, F_v)` to the
//!   lexicographically minimal orbit representative, returning the
//!   witness automorphism `σ` (`σ(F) = canonical`); rings computed for
//!   the canonical frame map back through `σ^{-1}`.
//! - [`OracleKey`] — the one key type shared by the in-memory LRU and the
//!   disk store (canonical ranks + seam salt + spare index), so the two
//!   layers can never disagree.
//! - [`Store`] — append-only checksummed segments of ring deltas
//!   (`star_perm::delta::RingDelta`, ½ byte per vertex) plus a
//!   rebuildable index, written tempfile-then-rename; survives `kill -9`
//!   mid-write and ships warm between hosts with a plain recursive copy.
//! - [`WriteBehind`] — background batch population so the serve path
//!   never waits on segment I/O.
//!
//! Observability: `oracle.canon.*` counters/histogram classify memo hits
//! vs factorial searches, `oracle.store.*` counters track hits, misses,
//! corruption, and write traffic; flight-recorder events fire on
//! canonical searches and store write errors when tracing is enabled.

pub mod canon;
pub mod key;
pub mod store;
pub mod writebehind;

pub use canon::{canonicalize, Canon, Canonicalizer, MAX_EXACT_FAULTS, MAX_EXACT_N};
pub use key::OracleKey;
pub use store::{pack_ring, Store, StoreStats, VerifyReport};
pub use writebehind::WriteBehind;
