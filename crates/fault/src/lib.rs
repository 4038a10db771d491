//! # star-fault
//!
//! Fault models for star-graph multiprocessors.
//!
//! The paper studies `S_n` with a set `F_v` of *vertex faults* (dead
//! processors) and, in the prior work it improves on, a set `F_e` of *edge
//! faults* (dead links). This crate provides:
//!
//! - [`FaultSet`] — a combined vertex/edge fault set over `S_n`, with O(1)
//!   health queries by Lehmer rank.
//! - [`gen`] — reproducible fault-set generators covering the regimes the
//!   experiments need: uniform random, **worst-case** (all faults in one
//!   partite set, the configuration that makes `n! - 2|F_v|` tight),
//!   clustered inside a minimal sub-star (the Latifi–Bagherzadeh regime),
//!   adversarial same-neighborhood placements, and random/same-dimension
//!   edge faults.
//! - [`schedule`] — *ordered* failure timelines (random, partite attack,
//!   neighborhood attack, spreading damage) for degradation studies.
//! - [`RingCheck`] — the one incremental ring validator: every ring the
//!   workspace accepts is folded through it, one packed vertex per push.

mod error;
mod ring_check;
mod set;

pub mod gen;
pub mod schedule;

pub use error::FaultError;
pub use ring_check::{fold_checksum, RingCheck, RingError, RingSummary, CHECKSUM_BASIS};
pub use set::FaultSet;
