//! The global metrics registry: named counters and histograms.
//!
//! Handles ([`Counter`], [`Hist`]) are cheap `Arc` clones — resolve once
//! (e.g. into a `OnceLock`) on hot paths so recording is a single relaxed
//! atomic RMW. Names are
//! dot-separated lowercase (`oracle.hit`, `embed.expand`); exporters
//! sanitize them per format.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

use crate::hist::Histogram;
use crate::snapshot::Snapshot;

fn read_lock<T>(l: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    l.read().unwrap_or_else(|e| e.into_inner())
}

fn write_lock<T>(l: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    l.write().unwrap_or_else(|e| e.into_inner())
}

/// A monotonically increasing metric. Cloning shares the underlying cell.
#[derive(Clone)]
pub struct Counter {
    name: Arc<str>,
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds `delta`. While the flight recorder is on, the delta also accumulates into a per-thread
    /// table and surfaces as an aggregated `counter` flight event (see
    /// [`crate::flightrec::COUNTER_FLUSH_EVERY`]).
    pub fn incr(&self, delta: u64) {
        self.cell.fetch_add(delta, Ordering::Relaxed);
        crate::flightrec::counter_delta(&self.name, delta);
    }

    /// Sets the value outright (for gauges reported through counters).
    pub fn set(&self, value: u64) {
        self.cell.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }

    /// Registry name of this counter.
    pub fn name(&self) -> &str {
        &self.name
    }
}

/// A shared histogram handle. Cloning shares the underlying buckets.
#[derive(Clone)]
pub struct Hist(Arc<Histogram>);

impl Hist {
    /// Records a nanosecond sample.
    pub fn observe_ns(&self, ns: u64) {
        self.0.record(ns);
    }

    /// Times a closure and records its duration.
    pub fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.0.record(t0.elapsed().as_nanos() as u64);
        out
    }

    /// Read access to the underlying histogram.
    pub fn inner(&self) -> &Histogram {
        &self.0
    }
}

/// A thread-safe name → metric registry.
#[derive(Default)]
pub struct Registry {
    counters: RwLock<BTreeMap<Arc<str>, Arc<AtomicU64>>>,
    hists: RwLock<BTreeMap<String, Arc<Histogram>>>,
}

impl Registry {
    /// An empty registry (the process normally uses [`global`]).
    pub fn new() -> Self {
        Registry::default()
    }

    /// The counter named `name`, created on first use.
    pub fn counter(&self, name: &str) -> Counter {
        if let Some((key, c)) = read_lock(&self.counters).get_key_value(name) {
            return Counter {
                name: Arc::clone(key),
                cell: Arc::clone(c),
            };
        }
        let mut map = write_lock(&self.counters);
        let key: Arc<str> = map
            .keys()
            .find(|k| k.as_ref() == name)
            .cloned()
            .unwrap_or_else(|| Arc::from(name));
        let c = map
            .entry(Arc::clone(&key))
            .or_insert_with(|| Arc::new(AtomicU64::new(0)));
        Counter {
            name: key,
            cell: Arc::clone(c),
        }
    }

    /// The histogram named `name`, created on first use.
    pub fn histogram(&self, name: &str) -> Hist {
        if let Some(h) = read_lock(&self.hists).get(name) {
            return Hist(Arc::clone(h));
        }
        let mut map = write_lock(&self.hists);
        let h = map
            .entry(name.to_string())
            .or_insert_with(|| Arc::new(Histogram::new()));
        Hist(Arc::clone(h))
    }

    /// One-shot counter increment (resolves the handle each call; hot
    /// paths should cache a [`Counter`] instead).
    pub fn incr(&self, name: &str, delta: u64) {
        self.counter(name).incr(delta);
    }

    /// One-shot histogram observation.
    pub fn observe_ns(&self, name: &str, ns: u64) {
        self.histogram(name).observe_ns(ns);
    }

    /// A point-in-time snapshot of every metric, sorted by name.
    pub fn snapshot(&self) -> Snapshot {
        let counters = read_lock(&self.counters)
            .iter()
            .map(|(k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = read_lock(&self.hists)
            .iter()
            .map(|(k, v)| v.snapshot(k))
            .collect();
        Snapshot {
            counters,
            histograms,
        }
    }

    /// Zeroes every counter and histogram (names stay registered).
    pub fn reset(&self) {
        for c in read_lock(&self.counters).values() {
            c.store(0, Ordering::Relaxed);
        }
        for h in read_lock(&self.hists).values() {
            h.reset();
        }
    }
}

/// The process-wide registry.
pub fn global() -> &'static Registry {
    static GLOBAL: OnceLock<Registry> = OnceLock::new();
    GLOBAL.get_or_init(Registry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn handles_share_state() {
        let reg = Registry::new();
        let a = reg.counter("x");
        let b = reg.counter("x");
        a.incr(2);
        b.incr(3);
        assert_eq!(reg.counter("x").get(), 5);
    }

    #[test]
    fn concurrent_increments_do_not_lose_updates() {
        let reg = Arc::new(Registry::new());
        const THREADS: usize = 4;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    let ctr = reg.counter("concurrent.hits");
                    let hist = reg.histogram("concurrent.lat");
                    for i in 0..PER_THREAD {
                        ctr.incr(1);
                        hist.observe_ns(1_000 + (t as u64 * PER_THREAD + i) % 9_000);
                    }
                });
            }
        });
        assert_eq!(
            reg.counter("concurrent.hits").get(),
            THREADS as u64 * PER_THREAD
        );
        let h = reg.histogram("concurrent.lat");
        assert_eq!(h.inner().count(), THREADS as u64 * PER_THREAD);
        let snap = h.inner().snapshot("concurrent.lat");
        assert!(snap.p50 <= snap.p95 && snap.p95 <= snap.p99 && snap.p99 <= snap.max);
        assert!(snap.p50 >= 1_000 && snap.max < 10_000);
    }

    #[test]
    fn snapshot_is_sorted_and_reset_zeroes() {
        let reg = Registry::new();
        reg.incr("b.second", 2);
        reg.incr("a.first", 1);
        reg.observe_ns("lat", 5);
        let snap = reg.snapshot();
        assert_eq!(
            snap.counters,
            vec![("a.first".to_string(), 1), ("b.second".to_string(), 2)]
        );
        assert_eq!(snap.histograms.len(), 1);
        reg.reset();
        let snap = reg.snapshot();
        assert!(snap.counters.iter().all(|(_, v)| *v == 0));
        assert_eq!(snap.histograms[0].count, 0);
    }
}
