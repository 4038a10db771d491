//! # star-pool
//!
//! The workspace's shared work pool: order-preserving parallel maps over
//! scoped threads, with a process-wide thread-count knob.
//!
//! Promoted out of `star-sim` so that the simulator's parameter sweeps,
//! the batch embedder ([`sweep`] over independent fault scenarios) and
//! the oracle's table warm-up share one scheduling policy (and
//! `star-ring` need not depend on the simulator). Work is split into
//! **contiguous chunks**, one per worker ([`chunk_cuts`]): item costs in
//! this workspace are roughly uniform (one independent embed, or one
//! slice of the oracle table), so an even contiguous split balances as
//! well as interleaving while keeping every worker's reads adjacent in
//! memory. A single embed does not use the pool: its expansion is one
//! serial pass.
//!
//! ## Thread-count policy
//!
//! [`set_threads`] installs a process-wide override (`0` restores auto).
//! Under auto, [`sweep`] uses one worker per item up to the hardware
//! parallelism; an explicit override wins, so `set_threads(1)` forces
//! every sweep in the process serial.
//!
//! ## Utilization metrics
//!
//! Every parallel run records three `star-obs` counters: `pool.jobs`
//! (parallel invocations), `pool.workers` (scoped threads spawned) and
//! `pool.items` (inputs processed), so sweep throughput and worker
//! fan-out are visible in any metrics snapshot. Serial fallbacks record
//! nothing.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Process-wide thread override; 0 means "auto".
static CONFIGURED: AtomicUsize = AtomicUsize::new(0);

struct PoolObs {
    jobs: star_obs::Counter,
    workers: star_obs::Counter,
    items: star_obs::Counter,
}

fn obs() -> &'static PoolObs {
    static OBS: OnceLock<PoolObs> = OnceLock::new();
    OBS.get_or_init(|| PoolObs {
        jobs: star_obs::counter("pool.jobs"),
        workers: star_obs::counter("pool.workers"),
        items: star_obs::counter("pool.items"),
    })
}

/// Sets the process-wide worker-thread count for all pool entry points.
/// `0` restores the automatic policy (the hardware parallelism). Takes
/// effect for subsequent calls; in-flight parallel runs are unaffected.
pub fn set_threads(threads: usize) {
    CONFIGURED.store(threads, Ordering::Release);
}

/// The resolved thread budget: the explicit override, or the hardware
/// parallelism.
pub fn threads() -> usize {
    match CONFIGURED.load(Ordering::Acquire) {
        0 => std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1),
        t => t,
    }
}

/// Evenly partitions `0..len` into `chunks` contiguous ranges, returned
/// as ascending cut points `[0, c_1, ..., len]` (length `chunks + 1`).
/// The first `len % chunks` chunks are one longer, so sizes differ by at
/// most one. `chunks` is clamped to `1..=len.max(1)`.
pub fn chunk_cuts(len: usize, chunks: usize) -> Vec<usize> {
    let chunks = chunks.clamp(1, len.max(1));
    let (base, extra) = (len / chunks, len % chunks);
    let mut cuts = Vec::with_capacity(chunks + 1);
    let mut at = 0usize;
    cuts.push(0);
    for c in 0..chunks {
        at += base + usize::from(c < extra);
        cuts.push(at);
    }
    cuts
}

/// Applies `f` to every input in parallel, preserving input order in the
/// output. Worker count is `threads()` clamped to the input size; panics
/// in workers propagate to the caller.
pub fn sweep<T, R, F>(inputs: Vec<T>, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let n = inputs.len();
    if n == 0 {
        return Vec::new();
    }
    let workers = threads().clamp(1, n);
    if workers == 1 {
        return inputs.iter().map(f).collect();
    }
    record_run(workers, n);

    // Worker w handles the contiguous range cuts[w]..cuts[w+1]; the
    // per-worker outputs concatenate back in input order.
    let cuts = chunk_cuts(n, workers);
    let worker_outputs: Vec<Vec<R>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|w| {
                let inputs = &inputs[cuts[w]..cuts[w + 1]];
                let f = &f;
                scope.spawn(move || inputs.iter().map(f).collect::<Vec<R>>())
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
            })
            .collect()
    });

    let mut out = Vec::with_capacity(n);
    for chunk in worker_outputs {
        out.extend(chunk);
    }
    out
}

fn record_run(workers: usize, items: usize) {
    let o = obs();
    o.jobs.incr(1);
    o.workers.incr(workers as u64);
    o.items.incr(items as u64);
    if star_obs::flightrec::enabled() {
        star_obs::flightrec::record(
            "pool.dispatch",
            "pool",
            &[
                ("workers", star_obs::FieldValue::U64(workers as u64)),
                ("items", star_obs::FieldValue::U64(items as u64)),
            ],
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Serializes the tests that install the process-wide override.
    static OVERRIDE: std::sync::Mutex<()> = std::sync::Mutex::new(());

    fn lock_override() -> std::sync::MutexGuard<'static, ()> {
        OVERRIDE.lock().unwrap_or_else(|e| e.into_inner())
    }

    #[test]
    fn sweep_preserves_order() {
        let inputs: Vec<u64> = (0..100).collect();
        let out = sweep(inputs, |&x| x * x);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, (i * i) as u64);
        }
    }

    #[test]
    fn sweep_handles_empty_and_single() {
        let empty: Vec<u64> = vec![];
        assert!(sweep(empty, |&x| x).is_empty());
        assert_eq!(sweep(vec![7u64], |&x| x + 1), vec![8]);
    }

    #[test]
    fn chunk_cuts_partition_evenly() {
        assert_eq!(chunk_cuts(10, 3), vec![0, 4, 7, 10]);
        assert_eq!(chunk_cuts(9, 3), vec![0, 3, 6, 9]);
        assert_eq!(chunk_cuts(2, 5), vec![0, 1, 2]); // clamped to len
        assert_eq!(chunk_cuts(0, 4), vec![0, 0]);
        assert_eq!(chunk_cuts(5, 1), vec![0, 5]);
        for (len, chunks) in [(53, 7), (1, 1), (256, 8), (255, 8)] {
            let cuts = chunk_cuts(len, chunks);
            assert_eq!(*cuts.first().unwrap(), 0);
            assert_eq!(*cuts.last().unwrap(), len);
            let sizes: Vec<usize> = cuts.windows(2).map(|w| w[1] - w[0]).collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            assert!(max - min <= 1, "balanced within one: {sizes:?}");
        }
    }

    #[test]
    #[should_panic(expected = "sweep worker 1 failed")]
    fn sweep_propagates_a_worker_panic() {
        let _override = lock_override();
        set_threads(2);
        sweep(vec![0u32, 1], |&w| {
            if w == 1 {
                panic!("sweep worker {w} failed");
            }
            w
        });
    }

    #[test]
    fn pool_metrics_record_fanout() {
        let _override = lock_override();
        set_threads(3);
        let jobs0 = star_obs::counter("pool.jobs").get();
        let workers0 = star_obs::counter("pool.workers").get();
        let items0 = star_obs::counter("pool.items").get();
        assert_eq!(sweep((0..64u32).collect(), |&x| x + 1).len(), 64);
        set_threads(0);
        assert!(star_obs::counter("pool.jobs").get() > jobs0);
        assert!(star_obs::counter("pool.workers").get() >= workers0 + 3);
        assert!(star_obs::counter("pool.items").get() >= items0 + 64);
    }
}
