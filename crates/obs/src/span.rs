//! Hierarchical RAII spans with thread-local capture.
//!
//! [`span`] opens a timed region; dropping the returned [`SpanGuard`]
//! closes it. Spans nest per thread (a thread-local stack tracks parent
//! ids and depth) and on close are fanned out to:
//!
//! * the global registry (duration histogram under the span's name);
//! * any registered [`crate::sink::Sink`]s when tracing is enabled;
//! * the thread-local [`Capture`] buffer when one is active (how
//!   `embed_with_report` collects a single embed's transcript without
//!   global state).

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use crate::registry;
use crate::sink;

const TRACE_BIT: u8 = 1;

/// Global enable bits; tracing defaults off.
static STATE: AtomicU8 = AtomicU8::new(0);

/// Globally unique span ids (across threads).
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);

/// Monotonic small thread ids for span records.
static NEXT_THREAD_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static THREAD_ID: u64 = NEXT_THREAD_ID.fetch_add(1, Ordering::Relaxed);
    /// Open spans on this thread (`(id, name)`), innermost last.
    static SPAN_STACK: RefCell<Vec<(u64, &'static str)>> = const { RefCell::new(Vec::new()) };
    /// Whether a [`Capture`] is collecting on this thread.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
    /// The active capture buffer.
    static CAPTURE_BUF: RefCell<Vec<SpanRecord>> = const { RefCell::new(Vec::new()) };
}

/// Are closed spans forwarded to the registered sinks?
pub fn trace_enabled() -> bool {
    STATE.load(Ordering::Relaxed) & TRACE_BIT != 0
}

/// Enables or disables span tracing to sinks. Off by default.
pub fn set_trace_enabled(on: bool) {
    if on {
        STATE.fetch_or(TRACE_BIT, Ordering::Relaxed);
    } else {
        STATE.fetch_and(!TRACE_BIT, Ordering::Relaxed);
    }
}

/// Nanoseconds since the first observability call in this process.
/// Monotonic; used as the `start_ns` origin of span records.
pub(crate) fn process_clock_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// The innermost span currently open on this thread, or `""` — the
/// "phase" the flight recorder stamps onto events.
pub(crate) fn current_phase() -> &'static str {
    SPAN_STACK.with(|s| s.borrow().last().map_or("", |(_, name)| name))
}

/// This thread's small monotonic id (same numbering span records use).
pub(crate) fn current_thread_id() -> u64 {
    THREAD_ID.with(|t| *t)
}

/// A typed span-field value.
#[derive(Debug, Clone, PartialEq)]
pub enum FieldValue {
    /// Unsigned integer.
    U64(u64),
    /// Floating point.
    F64(f64),
    /// Text.
    Str(String),
    /// A list of unsigned integers (e.g. a position sequence).
    List(Vec<u64>),
}

impl FieldValue {
    /// The value as `u64` when it is one.
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            FieldValue::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// The value as a `u64` list when it is one.
    pub fn as_list(&self) -> Option<&[u64]> {
        match self {
            FieldValue::List(v) => Some(v),
            _ => None,
        }
    }

    pub(crate) fn push_json(&self, out: &mut String) {
        use std::fmt::Write as _;
        match self {
            FieldValue::U64(v) => {
                let _ = write!(out, "{v}");
            }
            FieldValue::F64(v) => crate::json::push_json_f64(out, *v),
            FieldValue::Str(s) => crate::json::push_json_str(out, s),
            FieldValue::List(vs) => {
                out.push('[');
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    let _ = write!(out, "{v}");
                }
                out.push(']');
            }
        }
    }
}

macro_rules! impl_field_from_uint {
    ($($t:ty),*) => {$(
        impl From<$t> for FieldValue {
            fn from(v: $t) -> Self {
                FieldValue::U64(v as u64)
            }
        }
    )*};
}
impl_field_from_uint!(u8, u16, u32, u64, usize);

impl From<f64> for FieldValue {
    fn from(v: f64) -> Self {
        FieldValue::F64(v)
    }
}

impl From<&str> for FieldValue {
    fn from(v: &str) -> Self {
        FieldValue::Str(v.to_string())
    }
}

impl From<String> for FieldValue {
    fn from(v: String) -> Self {
        FieldValue::Str(v)
    }
}

impl From<Vec<u64>> for FieldValue {
    fn from(v: Vec<u64>) -> Self {
        FieldValue::List(v)
    }
}

impl From<&[usize]> for FieldValue {
    fn from(v: &[usize]) -> Self {
        FieldValue::List(v.iter().map(|&x| x as u64).collect())
    }
}

/// A closed span as delivered to sinks and capture buffers.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRecord {
    /// Process-unique span id.
    pub id: u64,
    /// Enclosing span on the same thread, if any.
    pub parent: Option<u64>,
    /// Nesting depth on the opening thread (0 = root).
    pub depth: u32,
    /// Span name (static, dot-separated, e.g. `embed.hierarchy.level`).
    pub name: &'static str,
    /// Small monotonic id of the opening thread.
    pub thread: u64,
    /// Start offset on the process clock (nanoseconds since the first
    /// observability call in this process).
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
    /// Attached fields, in attachment order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl SpanRecord {
    /// Looks up a field by key.
    pub fn field(&self, key: &str) -> Option<&FieldValue> {
        self.fields.iter().find(|(k, _)| *k == key).map(|(_, v)| v)
    }

    /// One JSONL line: `{"type":"span","id":…,"parent":…,"name":…,
    /// "thread":…,"start_ns":…,"dur_ns":…,"fields":{…}}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(128);
        let _ = write!(out, "{{\"type\":\"span\",\"id\":{}", self.id);
        match self.parent {
            Some(p) => {
                let _ = write!(out, ",\"parent\":{p}");
            }
            None => out.push_str(",\"parent\":null"),
        }
        out.push_str(",\"name\":");
        crate::json::push_json_str(&mut out, self.name);
        let _ = write!(
            out,
            ",\"thread\":{},\"start_ns\":{},\"dur_ns\":{}",
            self.thread, self.start_ns, self.dur_ns
        );
        out.push_str(",\"fields\":{");
        for (i, (k, v)) in self.fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            crate::json::push_json_str(&mut out, k);
            out.push(':');
            v.push_json(&mut out);
        }
        out.push_str("}}");
        out
    }
}

struct ActiveSpan {
    name: &'static str,
    id: u64,
    parent: Option<u64>,
    depth: u32,
    start_ns: u64,
    start: Instant,
    fields: Vec<(&'static str, FieldValue)>,
}

/// RAII guard for an open span; closing (dropping) records it.
pub struct SpanGuard {
    active: Box<ActiveSpan>,
}

/// Opens a span named `name` on the current thread.
///
/// `name` should be static, lowercase and dot-separated
/// (`embed.expand`); the registry histogram for the span's duration uses
/// the same name.
pub fn span(name: &'static str) -> SpanGuard {
    let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
    let (parent, depth) = SPAN_STACK.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().map(|(id, _)| *id);
        let depth = s.len() as u32;
        s.push((id, name));
        (parent, depth)
    });
    if crate::flightrec::enabled() {
        crate::flightrec::record(
            "span.open",
            name,
            &[("depth", FieldValue::U64(depth as u64))],
        );
    }
    SpanGuard {
        active: Box::new(ActiveSpan {
            name,
            id,
            parent,
            depth,
            start_ns: process_clock_ns(),
            start: Instant::now(),
            fields: Vec::new(),
        }),
    }
}

impl SpanGuard {
    /// Attaches a field to the span.
    pub fn record(&mut self, key: &'static str, value: impl Into<FieldValue>) {
        self.active.fields.push((key, value.into()));
    }

    /// Runs `f` inside this span, closing the span as soon as `f`
    /// returns (scoped alternative to holding the guard in a binding).
    pub fn hold<T>(self, f: impl FnOnce() -> T) -> T {
        let out = f();
        drop(self);
        out
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let a = &mut *self.active;
        let dur_ns = a.start.elapsed().as_nanos() as u64;
        SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            // Robust to out-of-order drops: remove this id, wherever it is.
            if let Some(pos) = s.iter().rposition(|&(id, _)| id == a.id) {
                s.remove(pos);
            }
        });
        if crate::flightrec::enabled() {
            crate::flightrec::record("span.close", a.name, &[("dur_ns", FieldValue::U64(dur_ns))]);
        }
        registry::global().histogram(a.name).inner().record(dur_ns);
        let capturing = CAPTURING.with(Cell::get);
        let tracing = trace_enabled();
        if !capturing && !tracing {
            return;
        }
        let rec = SpanRecord {
            id: a.id,
            parent: a.parent,
            depth: a.depth,
            name: a.name,
            thread: THREAD_ID.with(|t| *t),
            start_ns: a.start_ns,
            dur_ns,
            fields: std::mem::take(&mut a.fields),
        };
        if tracing {
            sink::dispatch(&rec);
        }
        if capturing {
            CAPTURE_BUF.with(|b| b.borrow_mut().push(rec));
        }
    }
}

/// A thread-local span capture session (see [`capture`]).
pub struct Capture {
    /// Buffer displaced by this (nested) capture, restored on finish.
    saved: Vec<SpanRecord>,
    was_capturing: bool,
    finished: bool,
}

/// Starts capturing every span closed on **this thread** until the
/// returned [`Capture`] is finished (or dropped). Captures nest: an inner
/// capture temporarily displaces the outer buffer.
pub fn capture() -> Capture {
    let was_capturing = CAPTURING.with(|c| c.replace(true));
    let saved = CAPTURE_BUF.with(|b| std::mem::take(&mut *b.borrow_mut()));
    Capture {
        saved,
        was_capturing,
        finished: false,
    }
}

impl Capture {
    /// Stops capturing and returns the spans closed since [`capture`], in
    /// close order (children before parents).
    pub fn finish(mut self) -> Vec<SpanRecord> {
        self.finished = true;
        self.teardown()
    }

    fn teardown(&mut self) -> Vec<SpanRecord> {
        CAPTURING.with(|c| c.set(self.was_capturing));
        CAPTURE_BUF
            .with(|b| std::mem::replace(&mut *b.borrow_mut(), std::mem::take(&mut self.saved)))
    }
}

impl Drop for Capture {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.teardown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capture_collects_nested_spans() {
        let cap = capture();
        {
            let mut outer = span("test.outer");
            outer.record("k", 7u64);
            let inner = span("test.inner");
            drop(inner);
        }
        let spans = cap.finish();
        assert_eq!(spans.len(), 2);
        // Close order: inner first.
        assert_eq!(spans[0].name, "test.inner");
        assert_eq!(spans[1].name, "test.outer");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert_eq!(spans[0].depth, spans[1].depth + 1);
        assert_eq!(spans[1].field("k").and_then(FieldValue::as_u64), Some(7));
        // Capture is off again: nothing accumulates.
        drop(span("test.after"));
        assert!(capture().finish().is_empty());
    }

    #[test]
    fn captures_nest() {
        let outer = capture();
        drop(span("test.a"));
        let inner = capture();
        drop(span("test.b"));
        let inner_spans = inner.finish();
        drop(span("test.c"));
        let outer_spans = outer.finish();
        assert_eq!(
            inner_spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["test.b"]
        );
        assert_eq!(
            outer_spans.iter().map(|s| s.name).collect::<Vec<_>>(),
            ["test.a", "test.c"]
        );
    }

    #[test]
    fn record_json_shape() {
        let rec = SpanRecord {
            id: 3,
            parent: Some(1),
            depth: 1,
            name: "embed.verify",
            thread: 2,
            start_ns: 10,
            dur_ns: 20,
            fields: vec![
                ("n", FieldValue::U64(7)),
                ("seq", FieldValue::List(vec![1, 2])),
                ("why", FieldValue::Str("ok \"fine\"".into())),
            ],
        };
        assert_eq!(
            rec.to_json(),
            "{\"type\":\"span\",\"id\":3,\"parent\":1,\"name\":\"embed.verify\",\
             \"thread\":2,\"start_ns\":10,\"dur_ns\":20,\
             \"fields\":{\"n\":7,\"seq\":[1,2],\"why\":\"ok \\\"fine\\\"\"}}"
        );
    }
}
