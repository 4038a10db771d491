//! # star-verify
//!
//! Verification utilities for ring embeddings in faulty star graphs.
//!
//! Every construction in this workspace returns machine-checkable objects;
//! this crate holds the checkers:
//!
//! - [`check_ring`] / [`check_path`] — a vertex sequence is a valid,
//!   healthy, simple ring/path of `S_n` (adjacency, distinctness, fault
//!   avoidance, edge health).
//! - [`invariants`] — the paper's super-ring properties **(P1)**, **(P2)**,
//!   **(P3)** (Lemma 3) checked against a fault set.
//! - [`exhaustive`] — brute-force longest healthy cycles for small `n`
//!   (optimality witnesses for Experiment E2).
//! - [`lemmas`] — the paper's structural Lemmas 1, 5, 6 as executable
//!   predicates, validated exhaustively on small configurations.
//! - [`bounds`] — the closed-form bounds of the paper and of the prior art
//!   it compares against.
//! - [`certificate`] — portable, re-checkable ring certificates.
//!
//! The differential correctness gate that cross-checks the embedder
//! against these checkers and the prior-art baselines is
//! `star_bench::audit`; this crate stays below the baselines.

mod ring_check;

pub mod bounds;
pub mod certificate;
pub mod exhaustive;
pub mod invariants;
pub mod lemmas;

pub use ring_check::{check_path, check_ring, VerifyError};
