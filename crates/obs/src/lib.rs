//! `star-obs`: structured tracing and metrics for the star-rings
//! workspace. Std-only, no external dependencies.
//!
//! Three cooperating layers:
//!
//! * **Spans** ([`fn@span`]) — hierarchical RAII-timed regions with typed
//!   fields. Closed spans feed duration histograms, registered sinks
//!   (when tracing is on) and thread-local [`capture`] buffers (how
//!   `embed_with_report` assembles its transcript).
//! * **Registry** ([`registry::Registry`]) — named [`Counter`]s and
//!   log-scale latency [`Hist`]ograms (p50/p95/p99/max). Handles are
//!   cheap `Arc`s; hot paths cache them so recording is one relaxed
//!   atomic RMW.
//! * **Export** ([`fn@snapshot`]) — a point-in-time [`Snapshot`] renders to
//!   Prometheus text, JSON, or a pretty table.
//!
//! [`json`] is the workspace's one JSON module — value, parser,
//! serializer and string escaper — shared by these emitters, the
//! `star-serve` wire protocol and the `star-bench` baselines.
//!
//! Everything is gated: with metrics and tracing disabled and no capture
//! active, [`fn@span`] and [`Counter::incr`] cost a couple of relaxed
//! atomic loads. Metrics default **on** (atomic counters are nearly
//! free), tracing defaults **off**.
//!
//! # Metric families emitted by the workspace
//!
//! * `oracle.hit` / `oracle.miss` — Lemma-4 table queries served from a
//!   filled slot vs. queries that ran the exact search; `oracle.warm`
//!   counts slots filled by precompute, and `oracle.build` table
//!   constructions.
//! * `pool.jobs` / `pool.workers` / `pool.items` — every `star-pool`
//!   fan-out records one job, the worker count it chose, and the items
//!   it spread across them (utilization = items / workers).
//! * `embed.*` / `expand.*` / `repair.*` — span-duration histograms for
//!   the pipeline stages, plus `embed.batch` around `embed_many`.
//!
//! ```
//! let _pipeline = star_obs::span("embed");
//! {
//!     let mut s = star_obs::span("embed.positions");
//!     s.record("n", 7u64);
//! } // closing records a `embed.positions` duration sample
//! star_obs::counter("oracle.hit").incr(1);
//! let snap = star_obs::snapshot();
//! assert!(snap.counter("oracle.hit").unwrap() >= 1);
//! println!("{}", snap.to_prometheus());
//! ```

pub mod flightrec;
pub mod hist;
pub mod json;
pub mod profile;
pub mod registry;
pub mod sink;
pub mod snapshot;
pub mod span;
pub mod trace;

pub use flightrec::FlightEvent;
pub use hist::{Histogram, HistogramSnapshot, LocalHistogram};
pub use profile::{Profile, ProfileNode};
pub use registry::{global, Counter, Hist, Registry};
pub use sink::{
    add_sink, clear_sinks, flush_sinks, format_ns, JsonlSink, RingBufferSink, Sink,
    StderrPrettySink, SINK_ERROR_COUNTER,
};
pub use snapshot::Snapshot;
pub use span::{
    capture, metrics_enabled, process_clock_ns, set_metrics_enabled, set_trace_enabled, span,
    trace_enabled, Capture, FieldValue, SpanGuard, SpanRecord,
};
pub use trace::{current_trace, format_trace, parse_trace, with_trace, TraceGuard};

/// The global counter named `name` (cache the handle on hot paths).
pub fn counter(name: &str) -> Counter {
    registry::global().counter(name)
}

/// The global histogram named `name`.
pub fn histogram(name: &str) -> Hist {
    registry::global().histogram(name)
}

/// Adds `delta` to the global counter `name`.
pub fn incr(name: &str, delta: u64) {
    registry::global().incr(name, delta);
}

/// Records a nanosecond sample into the global histogram `name`.
pub fn observe_ns(name: &str, ns: u64) {
    registry::global().observe_ns(name, ns);
}

/// A snapshot of the global registry.
pub fn snapshot() -> Snapshot {
    registry::global().snapshot()
}

/// Zeroes the global registry (names stay registered).
pub fn reset() {
    registry::global().reset();
}

#[cfg(test)]
mod tests {
    #[test]
    fn spans_feed_global_histograms() {
        drop(crate::span("libtest.span"));
        drop(crate::span("libtest.span"));
        let snap = crate::snapshot();
        assert!(snap.histogram("libtest.span").unwrap().count >= 2);
    }

    #[test]
    fn counters_round_trip_through_snapshot() {
        crate::incr("libtest.ctr", 3);
        crate::counter("libtest.ctr").incr(4);
        assert!(crate::snapshot().counter("libtest.ctr").unwrap() >= 7);
    }
}
