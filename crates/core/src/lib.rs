//! # star-ring
//!
//! The paper's contribution: **longest fault-free ring embeddings in star
//! graphs with vertex faults** (Hsieh, Chen, Ho; ICPP 1998).
//!
//! Given `S_n` (`n >= 3`) and a fault set `F_v` with `|F_v| <= n-3`,
//! [`embed_longest_ring`] returns a healthy ring of length exactly
//! `n! - 2|F_v|`, which is worst-case optimal (the bipartite bound).
//!
//! ## Pipeline (mirrors the paper)
//!
//! 1. [`positions`] — Lemma 2: choose partition positions `a_1..a_{n-4}` so
//!    every resulting 4-vertex holds at most one fault, with the prefix
//!    condition Lemma 3 needs at the `R^5` stage.
//! 2. [`hierarchy`] — Lemma 3: refine `R^{n-1} -> ... -> R^4`, threading a
//!    Hamiltonian path through the clique each super-vertex splits into;
//!    keeping the *first two / last two* path elements connected to the
//!    neighboring super-vertices yields property **(P2)**, and fault-aware
//!    seam/path choices at the last step yield **(P1)** and **(P3)**.
//! 3. [`oracle`] — Lemma 4 as a verified computation: all 4-vertices are
//!    isomorphic to `S_4`, so block path queries are canonicalized and
//!    answered from a dense lock-free memo table (lazily filled, or
//!    precomputed wholesale with [`oracle::warm`]); queries outside the
//!    paper's regime run one exact search on the block.
//! 4. [`expand`] — Lemma 7: pick entry/exit 3-vertices per block (Lemmas 1,
//!    5, 6 fix the geometry), then write per-block Hamiltonian (healthy,
//!    24 vertices) or Lemma-4 (faulty, 22 vertices) paths as step
//!    dimensions straight into the ring's `RingDelta`.
//!
//! Small dimensions (`n = 3, 4, 5`) use the paper's special cases
//! ([`small_n`]). The concluding remark's mixed vertex+edge fault extension
//! lives in [`mixed`], and [`repair`] maintains an embedding across fault
//! arrivals with O(block) local fixes.
//!
//! A single embed is one serial pass; [`embed_many`] spreads independent
//! fault scenarios over the shared `star-pool` with a pre-warmed oracle.

mod batch;
mod embedding;
mod error;

pub mod blockctx;
pub mod expand;
pub mod hierarchy;
pub mod invariants;
pub mod mixed;
pub mod oracle;
pub mod paths;
pub mod positions;
pub mod repair;
pub mod report;
pub mod small_n;

mod embed_impl;

pub use batch::{embed_many, embed_many_with_options};
pub use embed_impl::{
    embed_hamiltonian_cycle, embed_longest_ring, embed_with_options, EmbedOptions,
};
pub use embedding::EmbeddedRing;
pub use error::EmbedError;
