//! Flight recorder: a fixed-capacity, lock-free ring of recent
//! structured events for post-mortem analysis.
//!
//! The metrics registry answers "how much, how fast, in aggregate"; the
//! flight recorder answers "what happened *just before* it went wrong".
//! While enabled it keeps the most recent `capacity` events — span
//! opens/closes, counter deltas, pool dispatches, oracle misses, sim
//! chaos injections — each stamped with the process clock, the recording
//! thread, and the innermost open span on that thread (the event's
//! **phase**). On a panic (via [`install_panic_hook`]) or an explicit
//! failure-path call ([`dump_on_failure`]) the buffer is drained to a
//! JSONL file (`flightrec.jsonl` by default, see [`set_dump_path`]) and a
//! pretty rendering of the tail is printed to stderr.
//!
//! ## Concurrency
//!
//! The ring is an array of `AtomicPtr` slots plus one monotonically
//! increasing sequence counter. A writer claims a sequence number with
//! one `fetch_add`, boxes its event, and `swap`s it into slot
//! `seq % capacity`; whatever pointer was displaced is owned (and freed)
//! by the displacing writer. Readers never dereference a pointer that is
//! still in the buffer — [`drain`] takes ownership of every slot with the
//! same `swap`, so events move between threads only through atomic
//! pointer exchanges. Recording is wait-free apart from the allocation.
//!
//! ## Cost
//!
//! Disabled (the default), every hook is a single relaxed atomic load —
//! the embed pipeline's hot counters stay at their PR-1 cost. Enabled,
//! a recorded event is one small allocation plus two atomic RMWs. The
//! hottest hook by far is the crate-internal `counter_delta` (the oracle-hit counter fires
//! once per oracle query, hundreds of thousands of times per large
//! embed), so counter deltas are *aggregated per thread*: each increment
//! lands in a small thread-local table and one `counter` event (fields
//! `delta`, `incrs`) is recorded per [`COUNTER_FLUSH_EVERY`] increments —
//! or at [`drain`]/[`disable`] time via [`flush_pending_counters`]. E12
//! measures the end-to-end overhead on the `n = 9` embed at under 2%.

use std::cell::RefCell;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, Once, OnceLock};

use crate::span::{current_phase, process_clock_ns, FieldValue};

/// Default ring capacity installed by [`enable`].
pub const DEFAULT_CAPACITY: usize = 1024;

/// Default dump file name (in the current directory) when no explicit
/// path was configured via [`set_dump_path`].
pub const DEFAULT_DUMP_PATH: &str = "flightrec.jsonl";

static ENABLED: AtomicBool = AtomicBool::new(false);

/// One recorded event.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightEvent {
    /// Monotonic sequence number (process-wide order of recording).
    pub seq: u64,
    /// Process-clock timestamp: nanoseconds since the first
    /// observability call in this process.
    pub at_ns: u64,
    /// Small monotonic id of the recording thread (same numbering as
    /// span records).
    pub thread: u64,
    /// Innermost span open on the recording thread at record time
    /// (empty when the event fired outside any span).
    pub phase: &'static str,
    /// Trace id set on the recording thread ([`crate::trace`]) at record
    /// time; `0` = the event fired outside any traced request.
    pub trace: u128,
    /// Event kind: `span.open`, `span.close`, `counter`, `pool.dispatch`,
    /// `oracle.miss`, `chaos.inject`, `panic`, ….
    pub kind: &'static str,
    /// Subject name (span or counter name, failed vertex, …).
    pub name: String,
    /// Structured payload, in attachment order.
    pub fields: Vec<(&'static str, FieldValue)>,
}

impl FlightEvent {
    /// One JSONL line:
    /// `{"type":"event","seq":…,"at_ns":…,"thread":…,"phase":…,
    /// "kind":…,"name":…,"fields":{…}}`.
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(96);
        let _ = write!(
            out,
            "{{\"type\":\"event\",\"seq\":{},\"at_ns\":{},\"thread\":{}",
            self.seq, self.at_ns, self.thread
        );
        out.push_str(",\"phase\":");
        crate::json::push_json_str(&mut out, self.phase);
        if self.trace != 0 {
            out.push_str(",\"trace\":");
            crate::json::push_json_str(&mut out, &crate::trace::format_trace(self.trace));
        }
        out.push_str(",\"kind\":");
        crate::json::push_json_str(&mut out, self.kind);
        out.push_str(",\"name\":");
        crate::json::push_json_str(&mut out, &self.name);
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

/// The ring itself: capacity is fixed at first use.
struct Recorder {
    slots: Box<[AtomicPtr<FlightEvent>]>,
    next_seq: AtomicU64,
}

impl Recorder {
    fn with_capacity(capacity: usize) -> Self {
        Recorder {
            slots: (0..capacity.max(1))
                .map(|_| AtomicPtr::new(std::ptr::null_mut()))
                .collect(),
            next_seq: AtomicU64::new(0),
        }
    }

    fn record(&self, ev: FlightEvent) {
        let idx = (ev.seq % self.slots.len() as u64) as usize;
        let old = self.slots[idx].swap(Box::into_raw(Box::new(ev)), Ordering::AcqRel);
        if !old.is_null() {
            // SAFETY: the swap transferred sole ownership of `old` to this
            // thread; no other reference to it can exist.
            drop(unsafe { Box::from_raw(old) });
        }
    }

    fn drain(&self) -> Vec<FlightEvent> {
        let mut out: Vec<FlightEvent> = self
            .slots
            .iter()
            .filter_map(|slot| {
                let p = slot.swap(std::ptr::null_mut(), Ordering::AcqRel);
                // SAFETY: as in `record`, the swap makes this thread the
                // unique owner of `p`.
                (!p.is_null()).then(|| *unsafe { Box::from_raw(p) })
            })
            .collect();
        out.sort_by_key(|e| e.seq);
        out
    }
}

impl Drop for Recorder {
    fn drop(&mut self) {
        let _ = self.drain();
    }
}

/// Requested capacity for the lazily-built recorder (first [`enable`]
/// wins; the ring is never reallocated).
static REQUESTED_CAPACITY: AtomicU64 = AtomicU64::new(DEFAULT_CAPACITY as u64);

fn recorder() -> &'static Recorder {
    static REC: OnceLock<Recorder> = OnceLock::new();
    REC.get_or_init(|| Recorder::with_capacity(REQUESTED_CAPACITY.load(Ordering::Acquire) as usize))
}

/// Is the flight recorder recording? (One relaxed load; every hook in
/// the workspace gates on this.)
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Starts recording into a ring of [`DEFAULT_CAPACITY`] events.
pub fn enable() {
    enable_with_capacity(DEFAULT_CAPACITY);
}

/// Starts recording with an explicit ring capacity. The capacity is
/// fixed by the first `enable*` call of the process; later calls only
/// re-enable recording.
pub fn enable_with_capacity(capacity: usize) {
    REQUESTED_CAPACITY.store(capacity.max(1) as u64, Ordering::Release);
    let _ = recorder();
    ENABLED.store(true, Ordering::Release);
}

/// Stops recording (the buffered events stay available to [`drain`]).
/// Flushes this thread's pending counter aggregates first so they are
/// not stranded.
pub fn disable() {
    flush_pending_counters();
    ENABLED.store(false, Ordering::Release);
}

/// Records one event (no-op while disabled). `fields` are cloned into
/// the event; callers building expensive payloads should gate on
/// [`enabled`] first.
pub fn record(kind: &'static str, name: impl Into<String>, fields: &[(&'static str, FieldValue)]) {
    if !enabled() {
        return;
    }
    let rec = recorder();
    let seq = rec.next_seq.fetch_add(1, Ordering::Relaxed);
    rec.record(FlightEvent {
        seq,
        at_ns: process_clock_ns(),
        thread: crate::span::current_thread_id(),
        phase: current_phase(),
        trace: crate::trace::current_trace_raw(),
        kind,
        name: name.into(),
        fields: fields.to_vec(),
    });
}

/// A counter's pending delta is flushed as one aggregated `counter`
/// event after this many increments on a thread (and at [`drain`] /
/// [`disable`] time). Recording per increment would dominate the embed
/// hot loop — the oracle-hit counter alone fires ~200k times in one
/// `n = 9` embed.
pub const COUNTER_FLUSH_EVERY: u64 = 256;

const PENDING_SLOTS: usize = 8;

/// One thread-local aggregation slot. `key` is the pointer identity of
/// the counter's interned name (the registry hands every handle for a
/// name the same `Arc<str>`), so matching is one integer compare.
struct Pending {
    key: usize,
    name: Option<Arc<str>>,
    delta: u64,
    incrs: u64,
}

const EMPTY_PENDING: Pending = Pending {
    key: 0,
    name: None,
    delta: 0,
    incrs: 0,
};

thread_local! {
    static PENDING: RefCell<[Pending; PENDING_SLOTS]> =
        const { RefCell::new([EMPTY_PENDING; PENDING_SLOTS]) };
}

/// Records (and zeroes) a slot's accumulated delta. Keeps the slot's
/// name interned so a hot counter does not re-insert every window.
fn flush_slot(s: &mut Pending) {
    if s.incrs == 0 {
        return;
    }
    let name = s.name.clone().map(|n| n.to_string()).unwrap_or_default();
    let fields = [
        ("delta", FieldValue::U64(s.delta)),
        ("incrs", FieldValue::U64(s.incrs)),
    ];
    s.delta = 0;
    s.incrs = 0;
    record("counter", name, &fields);
}

/// Hot-path hook for counter deltas (called by [`crate::Counter::incr`]).
/// Deltas accumulate per thread and surface as aggregated `counter`
/// events; the phase stamped on the event is the phase at *flush* time.
#[inline]
pub(crate) fn counter_delta(name: &Arc<str>, delta: u64) {
    if !enabled() {
        return;
    }
    counter_delta_pending(name, delta);
}

fn counter_delta_pending(name: &Arc<str>, delta: u64) {
    let key = Arc::as_ptr(name) as *const u8 as usize;
    PENDING.with(|p| {
        let mut slots = p.borrow_mut();
        if let Some(s) = slots.iter_mut().find(|s| s.key == key) {
            s.delta += delta;
            s.incrs += 1;
            if s.incrs >= COUNTER_FLUSH_EVERY {
                flush_slot(s);
            }
            return;
        }
        let s = match slots.iter_mut().find(|s| s.name.is_none()) {
            Some(empty) => empty,
            None => {
                // Table full: evict the least-active counter.
                let s = slots.iter_mut().min_by_key(|s| s.incrs).expect("slots");
                flush_slot(s);
                s
            }
        };
        s.key = key;
        s.name = Some(Arc::clone(name));
        s.delta = delta;
        s.incrs = 1;
    });
}

/// Flushes this thread's pending counter aggregates into the ring as
/// `counter` events. Called automatically by [`drain`] and [`disable`];
/// a long-lived worker thread can call it directly before parking.
pub fn flush_pending_counters() {
    PENDING.with(|p| {
        for s in p.borrow_mut().iter_mut() {
            flush_slot(s);
            s.key = 0;
            s.name = None;
        }
    });
}

/// Total events recorded since the process started (including evicted
/// ones).
pub fn recorded_total() -> u64 {
    recorder().next_seq.load(Ordering::Relaxed)
}

/// Removes and returns the buffered events, oldest first. This thread's
/// pending counter aggregates are flushed first so the freshest deltas
/// make it into the drain.
pub fn drain() -> Vec<FlightEvent> {
    flush_pending_counters();
    recorder().drain()
}

fn dump_path_cell() -> &'static Mutex<Option<PathBuf>> {
    static PATH: OnceLock<Mutex<Option<PathBuf>>> = OnceLock::new();
    PATH.get_or_init(|| Mutex::new(None))
}

/// Sets the file the next dump writes to (default
/// [`DEFAULT_DUMP_PATH`]).
pub fn set_dump_path(path: impl Into<PathBuf>) {
    *dump_path_cell().lock().unwrap_or_else(|e| e.into_inner()) = Some(path.into());
}

/// The currently configured dump path.
pub fn dump_path() -> PathBuf {
    dump_path_cell()
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone()
        .unwrap_or_else(|| PathBuf::from(DEFAULT_DUMP_PATH))
}

/// Drains the ring and writes one JSONL file at `path`: a header line
/// (`{"type":"flightrec","reason":…,"events":…,"recorded_total":…}`)
/// followed by one line per event, oldest first. Returns the number of
/// events written.
pub fn dump_to(path: &Path, reason: &str) -> std::io::Result<usize> {
    let events = drain();
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut header = String::from("{\"type\":\"flightrec\",\"reason\":");
    crate::json::push_json_str(&mut header, reason);
    use std::fmt::Write as _;
    let _ = write!(
        header,
        ",\"events\":{},\"recorded_total\":{}}}",
        events.len(),
        recorded_total()
    );
    writeln!(out, "{header}")?;
    for ev in &events {
        writeln!(out, "{}", ev.to_json())?;
    }
    out.flush()?;
    Ok(events.len())
}

/// Failure-path dump: drains to the configured [`dump_path`], prints the
/// tail of the buffer (pretty-rendered) plus the file location to
/// stderr, and never panics. No-op when the recorder was never enabled
/// or holds no events.
pub fn dump_on_failure(reason: &str) {
    if recorded_total() == 0 {
        return;
    }
    let path = dump_path();
    // Render before dumping would require a copy; dump_to drains, so
    // re-render from the written events is not possible. Drain once here
    // and share.
    let events = drain();
    if events.is_empty() {
        return;
    }
    let tail_from = events.len().saturating_sub(16);
    eprintln!(
        "flight recorder: {} event(s) buffered at {reason}; last {}:",
        events.len(),
        events.len() - tail_from
    );
    eprint!("{}", render_pretty(&events[tail_from..]));
    match write_events(&path, &events, reason) {
        Ok(()) => eprintln!("flight recorder: full dump written to {}", path.display()),
        Err(e) => eprintln!("flight recorder: dump to {} failed: {e}", path.display()),
    }
}

fn write_events(path: &Path, events: &[FlightEvent], reason: &str) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    let mut header = String::from("{\"type\":\"flightrec\",\"reason\":");
    crate::json::push_json_str(&mut header, reason);
    use std::fmt::Write as _;
    let _ = write!(
        header,
        ",\"events\":{},\"recorded_total\":{}}}",
        events.len(),
        recorded_total()
    );
    writeln!(out, "{header}")?;
    for ev in events {
        writeln!(out, "{}", ev.to_json())?;
    }
    out.flush()
}

/// Human rendering of a slice of events, one line each:
/// `#seq +1.5ms t1 [embed.expand] counter oracle.miss delta=1`.
pub(crate) fn render_pretty(events: &[FlightEvent]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    for ev in events {
        let _ = write!(
            out,
            "  #{} +{} t{}",
            ev.seq,
            crate::sink::format_ns(ev.at_ns),
            ev.thread
        );
        if !ev.phase.is_empty() {
            let _ = write!(out, " [{}]", ev.phase);
        }
        if ev.trace != 0 {
            let _ = write!(out, " trace={:x}", ev.trace);
        }
        let _ = write!(out, " {} {}", ev.kind, ev.name);
        for (k, v) in &ev.fields {
            let mut val = String::new();
            v.push_json(&mut val);
            let _ = write!(out, " {k}={val}");
        }
        out.push('\n');
    }
    out
}

/// Installs (once) a panic hook that dumps the flight recorder before
/// delegating to the previous hook. Safe to call repeatedly and from
/// multiple threads; the hook itself never panics.
pub fn install_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if enabled() {
                let msg = info
                    .payload()
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| info.payload().downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "panic".to_string());
                record("panic", msg, &[]);
                dump_on_failure("panic");
            }
            previous(info);
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    // All tests share the process-global ring; they tag their events with
    // unique names and filter, so concurrent unit tests cannot confuse
    // them. Every test that touches the ring also holds `global_recorder`,
    // so no test's `disable()` or `drain()` lands inside another's
    // record-then-drain window.

    /// Serializes the tests that touch the process-global recorder.
    /// Poison-tolerant: one failing test must not fail the others.
    fn global_recorder() -> std::sync::MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn record_and_drain_preserves_order() {
        let _recorder = global_recorder();
        enable_with_capacity(DEFAULT_CAPACITY);
        for i in 0..5u64 {
            record("test.frec", format!("frec.order.{i}"), &[("i", i.into())]);
        }
        let mine: Vec<FlightEvent> = drain()
            .into_iter()
            .filter(|e| e.name.starts_with("frec.order."))
            .collect();
        assert_eq!(mine.len(), 5);
        for w in mine.windows(2) {
            assert!(w[0].seq < w[1].seq, "drain must be seq-ordered");
        }
        assert_eq!(mine[0].fields[0].1, FieldValue::U64(0));
    }

    #[test]
    fn disabled_recorder_drops_events() {
        let _recorder = global_recorder();
        // `record` while disabled must not buffer anything.
        disable();
        record("test.frec", "frec.dropped", &[]);
        enable();
        assert!(!drain().iter().any(|e| e.name == "frec.dropped"));
    }

    #[test]
    fn ring_capacity_evicts_oldest() {
        let _recorder = global_recorder();
        enable_with_capacity(DEFAULT_CAPACITY);
        let cap = recorder().slots.len();
        for i in 0..(cap + 10) {
            record("test.frec", format!("frec.evict.{i}"), &[]);
        }
        let events = drain();
        // The buffer can hold at most `cap` events; the newest survived.
        assert!(events.len() <= cap);
        assert!(events
            .iter()
            .any(|e| e.name == format!("frec.evict.{}", cap + 9)));
    }

    #[test]
    fn events_carry_the_open_span_phase() {
        let _recorder = global_recorder();
        enable_with_capacity(DEFAULT_CAPACITY);
        {
            let _sp = crate::span("frec.phase.outer");
            record("test.frec", "frec.phased", &[]);
        }
        let ev = drain()
            .into_iter()
            .find(|e| e.name == "frec.phased")
            .expect("event recorded");
        assert_eq!(ev.phase, "frec.phase.outer");
    }

    #[test]
    fn json_shape() {
        let mut ev = FlightEvent {
            seq: 7,
            at_ns: 1500,
            thread: 2,
            phase: "embed.expand",
            trace: 0,
            kind: "counter",
            name: "oracle.miss".into(),
            fields: vec![("delta", FieldValue::U64(1))],
        };
        assert_eq!(
            ev.to_json(),
            "{\"type\":\"event\",\"seq\":7,\"at_ns\":1500,\"thread\":2,\
             \"phase\":\"embed.expand\",\"kind\":\"counter\",\
             \"name\":\"oracle.miss\",\"fields\":{\"delta\":1}}"
        );
        // A traced event carries the id as padded hex, right after phase.
        ev.trace = 0xabc;
        assert_eq!(
            ev.to_json(),
            "{\"type\":\"event\",\"seq\":7,\"at_ns\":1500,\"thread\":2,\
             \"phase\":\"embed.expand\",\
             \"trace\":\"00000000000000000000000000000abc\",\
             \"kind\":\"counter\",\
             \"name\":\"oracle.miss\",\"fields\":{\"delta\":1}}"
        );
    }

    #[test]
    fn events_inherit_the_thread_trace_id() {
        let _recorder = global_recorder();
        enable_with_capacity(DEFAULT_CAPACITY);
        {
            let _t = crate::trace::with_trace(0xfeed);
            record("test.frec", "frec.traced", &[]);
        }
        record("test.frec", "frec.untraced", &[]);
        let events = drain();
        let traced = events.iter().find(|e| e.name == "frec.traced").unwrap();
        assert_eq!(traced.trace, 0xfeed);
        assert!(traced
            .to_json()
            .contains("\"trace\":\"0000000000000000000000000000feed\""));
        let untraced = events.iter().find(|e| e.name == "frec.untraced").unwrap();
        assert_eq!(untraced.trace, 0);
        assert!(!untraced.to_json().contains("\"trace\""));
    }

    #[test]
    fn dump_writes_header_and_events() {
        let _recorder = global_recorder();
        enable_with_capacity(DEFAULT_CAPACITY);
        record("test.frec", "frec.dump.a", &[]);
        record("test.frec", "frec.dump.b", &[("x", 3u64.into())]);
        let path = std::env::temp_dir().join("star_obs_flightrec_unit.jsonl");
        let n = dump_to(&path, "unit-test").unwrap();
        assert!(n >= 2);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines = text.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("{\"type\":\"flightrec\",\"reason\":\"unit-test\""));
        assert!(text.contains("\"name\":\"frec.dump.b\""));
        assert!(lines.all(|l| l.starts_with("{\"type\":\"event\"")));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn concurrent_recording_does_not_lose_the_newest() {
        let _recorder = global_recorder();
        enable_with_capacity(DEFAULT_CAPACITY);
        const THREADS: u64 = 4;
        const PER_THREAD: u64 = 500;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        record("test.frec", format!("frec.mt.{t}.{i}"), &[]);
                    }
                });
            }
        });
        let events = drain();
        let mine = events
            .iter()
            .filter(|e| e.name.starts_with("frec.mt."))
            .count();
        // 2000 recorded into a 1024 ring alongside other tests' traffic:
        // the survivors are the newest; at least half the ring is ours.
        assert!(mine >= 512, "only {mine} survived");
        // Seq numbers are unique.
        let mut seqs: Vec<u64> = events.iter().map(|e| e.seq).collect();
        seqs.dedup();
        assert_eq!(seqs.len(), events.len());
    }

    #[test]
    fn counter_deltas_aggregate_without_losing_total() {
        let _recorder = global_recorder();
        enable_with_capacity(DEFAULT_CAPACITY);
        let ctr = crate::counter("frec.agg.total");
        // One full flush window plus a remainder that only
        // flush_pending_counters can surface.
        let incrs = COUNTER_FLUSH_EVERY + 10;
        for _ in 0..incrs {
            ctr.incr(2);
        }
        let mine: Vec<FlightEvent> = drain()
            .into_iter()
            .filter(|e| e.kind == "counter" && e.name == "frec.agg.total")
            .collect();
        assert!(
            mine.len() >= 2 && mine.len() as u64 <= incrs / 8,
            "{} events for {incrs} incrs — aggregation not in effect",
            mine.len()
        );
        let field = |e: &FlightEvent, k: &str| match e.fields.iter().find(|(n, _)| *n == k) {
            Some((_, FieldValue::U64(v))) => *v,
            other => panic!("missing {k}: {other:?}"),
        };
        assert_eq!(
            mine.iter().map(|e| field(e, "delta")).sum::<u64>(),
            2 * incrs
        );
        assert_eq!(mine.iter().map(|e| field(e, "incrs")).sum::<u64>(), incrs);
        disable();
    }

    #[test]
    fn pending_table_evicts_least_active_counter() {
        let _recorder = global_recorder();
        enable_with_capacity(DEFAULT_CAPACITY);
        // More distinct counters than PENDING_SLOTS: insertions past the
        // table size must flush-evict rather than drop deltas.
        let names: Vec<String> = (0..PENDING_SLOTS + 3)
            .map(|i| format!("frec.evictagg.{i}"))
            .collect();
        for name in &names {
            crate::counter(name).incr(1);
        }
        let events = drain();
        for name in &names {
            let total: u64 = events
                .iter()
                .filter(|e| e.kind == "counter" && &e.name == name)
                .map(|e| match e.fields.iter().find(|(k, _)| *k == "delta") {
                    Some((_, FieldValue::U64(v))) => *v,
                    _ => 0,
                })
                .sum();
            assert_eq!(total, 1, "delta lost for {name}");
        }
        disable();
    }

    #[test]
    fn pretty_render_mentions_phase_and_fields() {
        let ev = FlightEvent {
            seq: 3,
            at_ns: 2_000_000,
            thread: 1,
            phase: "sim.chaos",
            trace: 0x1f,
            kind: "chaos.inject",
            name: "123456".into(),
            fields: vec![("lap", FieldValue::U64(4))],
        };
        let text = render_pretty(std::slice::from_ref(&ev));
        assert!(text.contains("#3"));
        assert!(text.contains("[sim.chaos]"));
        assert!(text.contains("trace=1f"));
        assert!(text.contains("chaos.inject 123456"));
        assert!(text.contains("lap=4"));
    }
}
