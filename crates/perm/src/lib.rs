//! # star-perm
//!
//! Permutation substrate for star-graph algorithms.
//!
//! The vertices of the n-dimensional star graph `S_n` are the `n!`
//! permutations of the symbols `1..=n`. Every algorithm in this workspace
//! therefore bottoms out in operations on small, dense permutations:
//! star moves (swapping the first symbol with the symbol at position `d`),
//! parity (the bipartition of `S_n`), cycle structure (exact star-graph
//! distance), and Lehmer ranking (compact `u32` vertex ids).
//!
//! This crate provides exactly those operations with no heap allocation on
//! the hot paths:
//!
//! - [`Perm`] — an inline permutation of up to [`MAX_N`] symbols.
//! - [`Perm::rank`] / [`Perm::unrank`] — Lehmer-code ranking, giving a
//!   bijection between permutations of `n` symbols and `0..n!`.
//! - [`Parity`] — even/odd sign, the two partite sets of `S_n`.
//! - [`cycles::CycleStructure`] — the cycle decomposition used by the
//!   Akers–Krishnamurthy distance formula.
//! - [`iter::PermIter`] — iteration over all permutations of `n` symbols in
//!   rank order.
//! - [`packed::PackedPerm`] — the same permutation nibble-packed into one
//!   `u64`, for register-resident hot loops (flat-arena ring expansion).
//! - [`block::BlockFrame`] / [`block::BlockRank`] — exact Lehmer ranks
//!   in O(1) per star move that stays inside an `S_4` block, for ring
//!   checks that follow a ring step by step.
//! - [`delta::RingDelta`] — a whole ring as a start vertex plus one star
//!   dimension per step (~½ byte/vertex), the representation the oracle
//!   store, the serve cache and the v2 wire share.
//!
//! Positions are **0-based** throughout the workspace; the paper uses
//! 1-based positions, so the paper's "dimension `i`" edge (`2 <= i <= n`)
//! is our dimension `d = i - 1` (`1 <= d <= n-1`).

mod error;
mod factorial;
mod parity;
mod perm;

pub mod aut;
pub mod block;
pub mod cycles;
pub mod delta;
pub mod iter;
pub mod packed;

pub use aut::Aut;
pub use error::PermError;
pub use factorial::{factorial, FACTORIALS};
pub use parity::Parity;
pub use perm::{Perm, MAX_N};
