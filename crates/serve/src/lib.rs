//! star-serve: a networked ring-embedding service for star graphs.
//!
//! Exposes the workspace's fault-tolerant ring embedder (the ICPP 1998
//! longest-ring construction) over TCP with a length-prefixed JSON
//! protocol, so many clients can share one warmed oracle and one result
//! cache instead of paying per-process startup.
//!
//! ## Wire protocol
//!
//! Every message — both directions — is one *frame*: a 4-byte
//! big-endian length prefix followed by that many bytes
//! ([`proto::MAX_FRAME`] caps the length). Under protocol v1 (the
//! default) every frame body is UTF-8 JSON. Requests carry a `kind`
//! (`embed`, `embed_batch`, `verify`, `stats`, `health`), an optional
//! client-chosen `id` echoed back verbatim, and an optional
//! `deadline_ms`. Responses are `{"ok": true, ...}` or `{"ok": false,
//! "error": <code>, "message": ...}` with codes from
//! [`proto::ErrorCode`]. Requests on one connection may be pipelined;
//! responses are matched by `id`, not order.
//!
//! A request carrying `"proto": 2` negotiates wire protocol v2 for its
//! embed response: the ring rides as a generator-delta stream — a JSON
//! header frame followed by binary [`proto::ChunkFrame`]s (~4.5
//! bits/vertex instead of ~13 JSON bytes) with resumable cursors, so an
//! `n = 10` ring (~3.6 M vertices, far past what a JSON frame can
//! carry) streams in constant memory on both ends. See [`proto`] for
//! the frame layout and [`stream`] for incremental client-side
//! verification.
//!
//! ## Architecture
//!
//! - [`proto`] — framing, request parsing, response building.
//! - [`queue`] — the bounded MPMC queue between connection handlers and
//!   workers; the server's single backpressure point.
//! - [`cache`] — sharded LRU keyed by `(n, canonical fault set, salt,
//!   spare index)`; embeds are deterministic, so hits are exact.
//! - [`server`] — accept loop, connection handlers, worker pool,
//!   deadline enforcement, graceful drain.
//! - [`client`] — a small blocking client used by tests and by
//!   `star-bench`'s load generator.
//! - [`stream`] — chunk-by-chunk verification of v2 ring streams
//!   (adjacency, fault avoidance, duplicates, the STARRING-CERT
//!   checksum) in O(n!) bits of state.

pub mod cache;
pub mod client;
pub mod fuzz;
pub mod proto;
pub mod queue;
pub mod server;
pub mod slo;
pub mod stream;

pub use client::Client;
pub use server::{request_shutdown, run, ServeConfig, ServeSummary};
pub use slo::SloConfig;
pub use stream::{fetch_verified, StreamSummary, StreamVerifier};
