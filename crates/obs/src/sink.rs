//! Span sinks: where traced spans go.
//!
//! Sinks receive every [`SpanRecord`] closed while tracing is enabled
//! ([`crate::set_trace_enabled`]). Three implementations cover the usual
//! needs: an in-memory ring buffer (tests, `stats`-style introspection),
//! a JSONL writer (machine-readable traces), and a pretty stderr printer
//! (interactive `--trace`).

use std::collections::VecDeque;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, RwLock};

use crate::span::SpanRecord;

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A consumer of closed spans. Implementations must tolerate concurrent
/// `record` calls.
pub trait Sink: Send + Sync {
    /// Delivers one closed span.
    fn record(&self, span: &SpanRecord);

    /// Flushes buffered output (default: nothing to do).
    fn flush(&self) {}
}

fn sinks() -> &'static RwLock<Vec<Arc<dyn Sink>>> {
    static SINKS: OnceLock<RwLock<Vec<Arc<dyn Sink>>>> = OnceLock::new();
    SINKS.get_or_init(|| RwLock::new(Vec::new()))
}

/// Registers a sink for traced spans.
pub fn add_sink(sink: Arc<dyn Sink>) {
    sinks()
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .push(sink);
}

/// Removes every registered sink (flushing them first).
pub fn clear_sinks() {
    let drained: Vec<_> = sinks()
        .write()
        .unwrap_or_else(|e| e.into_inner())
        .drain(..)
        .collect();
    for s in &drained {
        s.flush();
    }
}

/// Flushes every registered sink.
pub fn flush_sinks() {
    let held: Vec<_> = sinks()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect();
    for s in &held {
        s.flush();
    }
}

/// Fans one record out to all sinks (called by the span machinery).
pub(crate) fn dispatch(rec: &SpanRecord) {
    let held: Vec<_> = sinks()
        .read()
        .unwrap_or_else(|e| e.into_inner())
        .iter()
        .cloned()
        .collect();
    for s in &held {
        s.record(rec);
    }
}

/// Keeps the most recent `capacity` spans in memory.
pub struct RingBufferSink {
    capacity: usize,
    buf: Mutex<VecDeque<SpanRecord>>,
}

impl RingBufferSink {
    /// A ring holding at most `capacity` spans (oldest evicted first).
    pub fn new(capacity: usize) -> Self {
        RingBufferSink {
            capacity: capacity.max(1),
            buf: Mutex::new(VecDeque::new()),
        }
    }

    /// Removes and returns the buffered spans, oldest first.
    pub fn drain(&self) -> Vec<SpanRecord> {
        lock(&self.buf).drain(..).collect()
    }

    /// Number of buffered spans.
    pub fn len(&self) -> usize {
        lock(&self.buf).len()
    }

    /// Whether the buffer is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Sink for RingBufferSink {
    fn record(&self, span: &SpanRecord) {
        let mut buf = lock(&self.buf);
        if buf.len() == self.capacity {
            buf.pop_front();
        }
        buf.push_back(span.clone());
    }
}

/// Name of the counter that records sink write/flush failures (a failing
/// trace destination must degrade to telemetry, never panic or spam).
pub const SINK_ERROR_COUNTER: &str = "obs.sink.error";

/// Writes one JSON object per span to a buffered writer (see
/// [`SpanRecord::to_json`] for the schema).
///
/// I/O errors never propagate out of [`Sink::record`]: each failure
/// increments [`SINK_ERROR_COUNTER`] in the global registry and the span
/// is dropped, so tracing to a dead disk degrades instead of killing the
/// traced pipeline.
pub struct JsonlSink {
    out: Mutex<BufWriter<Box<dyn Write + Send>>>,
}

impl JsonlSink {
    /// A sink writing to `writer`.
    pub fn new(writer: Box<dyn Write + Send>) -> Self {
        JsonlSink {
            out: Mutex::new(BufWriter::new(writer)),
        }
    }

    /// A sink writing to (truncating) the file at `path`.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(Self::new(Box::new(File::create(path)?)))
    }
}

fn note_sink_error() {
    crate::registry::global()
        .counter(SINK_ERROR_COUNTER)
        .incr(1);
}

impl Sink for JsonlSink {
    fn record(&self, span: &SpanRecord) {
        let mut out = lock(&self.out);
        if writeln!(out, "{}", span.to_json()).is_err() {
            note_sink_error();
        }
    }

    fn flush(&self) {
        if lock(&self.out).flush().is_err() {
            note_sink_error();
        }
    }
}

impl Drop for JsonlSink {
    fn drop(&mut self) {
        self.flush();
    }
}

/// Pretty-prints spans to stderr, indented by nesting depth.
pub struct StderrPrettySink;

impl Sink for StderrPrettySink {
    fn record(&self, span: &SpanRecord) {
        let mut line = String::with_capacity(96);
        for _ in 0..span.depth {
            line.push_str("  ");
        }
        line.push_str(span.name);
        line.push_str(&format!(" [{}]", format_ns(span.dur_ns)));
        for (k, v) in &span.fields {
            line.push(' ');
            line.push_str(k);
            line.push('=');
            let mut val = String::new();
            v.push_json(&mut val);
            line.push_str(&val);
        }
        eprintln!("{line}");
    }
}

/// Human-readable duration: `17ns`, `4.2µs`, `1.3ms`, `2.17s`.
pub(crate) fn format_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{ns}ns"),
        1_000..=999_999 => format!("{:.1}µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.1}ms", ns as f64 / 1e6),
        _ => format!("{:.2}s", ns as f64 / 1e9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::FieldValue;

    fn rec(id: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent: None,
            depth: 0,
            name: "t.sink",
            thread: 1,
            start_ns: 0,
            dur_ns: id,
            fields: vec![("i", FieldValue::U64(id))],
        }
    }

    #[test]
    fn ring_buffer_evicts_oldest() {
        let ring = RingBufferSink::new(3);
        for id in 1..=5 {
            ring.record(&rec(id));
        }
        let ids: Vec<u64> = ring.drain().iter().map(|s| s.id).collect();
        assert_eq!(ids, [3, 4, 5]);
        assert!(ring.is_empty());
    }

    #[test]
    fn jsonl_writes_one_line_per_span() {
        let path = std::env::temp_dir().join("star_obs_jsonl_test.jsonl");
        {
            let sink = JsonlSink::create(&path).unwrap();
            sink.record(&rec(1));
            sink.record(&rec(2));
        }
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].starts_with("{\"type\":\"span\",\"id\":1"));
        assert!(lines[1].contains("\"fields\":{\"i\":2}"));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn format_ns_scales() {
        assert_eq!(format_ns(17), "17ns");
        assert_eq!(format_ns(4_200), "4.2µs");
        assert_eq!(format_ns(1_300_000), "1.3ms");
        assert_eq!(format_ns(2_170_000_000), "2.17s");
    }
}
