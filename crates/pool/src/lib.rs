//! # star-pool
//!
//! The workspace's shared work pool: order-preserving parallel maps over
//! scoped threads, with a process-wide thread-count knob.
//!
//! Promoted out of `star-sim` so that both the simulator's parameter
//! sweeps *and* the core embedder's per-block path materialization share
//! one scheduling policy (and `star-ring` need not depend on the
//! simulator). Work is split into **contiguous chunks**, one per worker:
//! item costs in this workspace are roughly uniform (one memoized oracle
//! query, or one independent embed), so an even contiguous split balances
//! as well as interleaving while keeping every worker's reads and writes
//! adjacent in memory — which is what lets workers fill disjoint slices
//! of one flat output arena ([`try_fill_chunks`]) instead of allocating
//! per-item vectors and stitching them back together.
//!
//! ## Thread-count policy
//!
//! [`set_threads`] installs a process-wide override (`0` restores auto).
//! Under auto, [`sweep`] uses one worker per item up to the hardware
//! parallelism, while fine-grained callers use [`workers_for`] with a
//! minimum batch size per worker so that small inputs stay serial and
//! large ones cap out before the global allocator becomes the bottleneck.
//! An explicit override wins over both heuristics — `--threads 1` forces
//! every parallel path in the process serial, which is how the
//! byte-identical serial-vs-parallel conformance tests are driven.
//! **Caveat:** on a single-core host (containers with one CPU in the
//! affinity mask included) auto resolves to one worker everywhere; a
//! benchmark that wants to *measure* the parallel machinery must install
//! an explicit override rather than trust auto (this is exactly how the
//! seed perf baseline silently degenerated to serial-vs-serial).
//!
//! ## Utilization metrics
//!
//! Every parallel run records three `star-obs` counters: `pool.jobs`
//! (parallel invocations), `pool.workers` (scoped threads spawned) and
//! `pool.items` (work items processed — inputs for [`sweep`], output
//! slots for [`try_fill_chunks`]), so sweep throughput and
//! worker fan-out are visible in any metrics snapshot. Serial fallbacks
//! record nothing: `pool.workers > 0` after a run is the definitive
//! "the pool actually engaged" signal the perf baseline asserts on.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::OnceLock;

/// Auto-mode cap on workers for fine-grained (per-block) fan-out; beyond
/// this the memory bus dominates. Explicit [`set_threads`] overrides it.
pub const MAX_AUTO_WORKERS: usize = 8;

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
/// `0` restores the automatic policy (hardware parallelism with
/// per-caller batching heuristics). Takes effect for subsequent calls;
/// in-flight parallel runs are unaffected.
pub fn set_threads(threads: usize) {
    CONFIGURED.store(threads, Ordering::Release);
}

/// The explicit thread override, if one is installed.
pub(crate) fn configured_threads() -> Option<usize> {
    match CONFIGURED.load(Ordering::Acquire) {
        0 => None,
        t => Some(t),
    }
}

/// The resolved thread budget: the explicit override, or the hardware
/// parallelism.
pub fn threads() -> usize {
    configured_threads().unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(1)
    })
}

/// Worker count for a fine-grained run of `items` uniform work items.
///
/// With an explicit [`set_threads`] override the override wins, clamped
/// to the item count. Under auto, allots at least
/// `min_items_per_worker` items to each worker and caps the fan-out at
/// [`MAX_AUTO_WORKERS`] and the hardware parallelism — so small inputs
/// run serially and large ones stop scaling before the memory bus
/// saturates.
///
/// Degenerate cases are pinned down (and unit-tested) explicitly:
/// `items == 0` is always 1 worker regardless of any override (there is
/// nothing to fan out, and clamping an override into an empty range
/// would otherwise panic); `min_items_per_worker == 0` is treated as 1;
/// `items < min_items_per_worker` stays serial under auto; an override
/// of 1 — the conformance-test mode — forces serial everywhere, which is
/// distinct from an override of 0 (auto).
pub fn workers_for(items: usize, min_items_per_worker: usize) -> usize {
    if items == 0 {
        return 1;
    }
    match configured_threads() {
        Some(t) => t.clamp(1, items),
        None => (items / min_items_per_worker.max(1))
            .min(threads())
            .clamp(1, MAX_AUTO_WORKERS),
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

/// Per-chunk context handed to [`try_fill_chunks`] closures.
pub struct ChunkCtx<'a> {
    /// Chunk index (position in the `cuts` array).
    pub index: usize,
    /// Absolute offset of this chunk's first output slot.
    pub start: usize,
    abort: &'a AtomicBool,
}

impl ChunkCtx<'_> {
    /// `true` once any chunk has failed; long-running closures should
    /// poll this between items and bail out early.
    #[inline]
    pub fn aborted(&self) -> bool {
        self.abort.load(Ordering::Relaxed)
    }
}

/// Fills disjoint contiguous slices of `out` in parallel — the flat-arena
/// work distributor. `cuts` must be ascending offsets starting at 0 and
/// ending at `out.len()` (see [`chunk_cuts`], or caller-computed cuts
/// aligned to logical record boundaries); chunk `c` receives exactly
/// `out[cuts[c]..cuts[c+1]]` plus a [`ChunkCtx`], runs on its own scoped
/// thread, and returns `false` to abort the whole run. Returns `true`
/// iff every chunk succeeded; on failure `out`'s contents are
/// unspecified (partially filled).
///
/// A single chunk runs inline with no thread or metric overhead. With
/// more, the run records `pool.workers = chunks` and `pool.items =
/// out.len()` (slots filled), so fan-out is visible to metric snapshots.
///
/// # Panics
/// Panics if `cuts` is not a monotone partition of `0..out.len()`.
pub fn try_fill_chunks<T, F>(out: &mut [T], cuts: &[usize], f: F) -> bool
where
    T: Send,
    F: Fn(&ChunkCtx<'_>, &mut [T]) -> bool + Sync,
{
    assert!(
        cuts.first() == Some(&0) && *cuts.last().expect("at least one cut") == out.len(),
        "cuts must span 0..out.len()"
    );
    assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "cuts must ascend");
    let chunks = cuts.len() - 1;
    let abort = AtomicBool::new(false);
    if chunks <= 1 {
        let ctx = ChunkCtx {
            index: 0,
            start: 0,
            abort: &abort,
        };
        return f(&ctx, out);
    }
    record_run(chunks, out.len());
    // The scope joins every chunk and re-raises a chunk's panic.
    std::thread::scope(|scope| {
        let mut rest = out;
        let mut consumed = 0usize;
        for c in 0..chunks {
            let (mine, tail) = rest.split_at_mut(cuts[c + 1] - cuts[c]);
            rest = tail;
            let f = &f;
            let abort = &abort;
            let start = consumed;
            consumed += mine.len();
            scope.spawn(move || {
                let ctx = ChunkCtx {
                    index: c,
                    start,
                    abort,
                };
                if !f(&ctx, mine) {
                    abort.store(true, Ordering::Relaxed);
                }
            });
        }
    });
    !abort.load(Ordering::Relaxed)
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
    fn workers_for_honors_override_and_batching() {
        let _override = lock_override();
        // Auto: small inputs stay serial, large ones batch.
        set_threads(0);
        assert_eq!(workers_for(10, 256), 1);
        assert!(workers_for(4096, 256) >= 1);
        assert!(workers_for(1 << 20, 1) <= MAX_AUTO_WORKERS.max(threads()));
        // Override wins, clamped to the item count.
        set_threads(4);
        assert_eq!(workers_for(100, 256), 4);
        assert_eq!(workers_for(2, 256), 2);
        assert_eq!(configured_threads(), Some(4));
        set_threads(0);
        assert_eq!(configured_threads(), None);
    }

    #[test]
    fn workers_for_degenerate_boundaries() {
        let _override = lock_override();
        // The exact boundaries that silently collapsed the bench path.
        set_threads(0);
        // items strictly below the batch minimum: serial.
        assert_eq!(workers_for(255, 256), 1);
        // At the minimum: one worker has exactly its quota.
        assert_eq!(workers_for(256, 256), 1);
        // One short of two quotas: still one worker (floor semantics).
        assert_eq!(workers_for(511, 256), 1);
        // Two quotas: fans out iff the host has a second core.
        assert_eq!(workers_for(512, 256), 2.min(threads()));
        // min_items_per_worker == 0 is treated as 1, not a panic.
        assert_eq!(workers_for(3, 0), 3.min(threads()).min(MAX_AUTO_WORKERS));
        // Zero items never fans out — with or without an override (an
        // override used to be clamped into the empty range 1..=0).
        assert_eq!(workers_for(0, 256), 1);
        set_threads(8);
        assert_eq!(workers_for(0, 256), 1);
        // set_threads(1) forces serial; set_threads(0) restores auto —
        // the two must not be conflated.
        set_threads(1);
        assert_eq!(workers_for(1 << 20, 1), 1);
        assert_eq!(configured_threads(), Some(1));
        set_threads(0);
        assert!(workers_for(1 << 20, 1) >= 1);
        assert_eq!(configured_threads(), None);
    }

    #[test]
    fn fill_chunks_fills_disjoint_slices() {
        let mut out = vec![0usize; 103];
        let cuts = chunk_cuts(out.len(), 4);
        let ok = try_fill_chunks(&mut out, &cuts, |ctx, slice| {
            for (k, slot) in slice.iter_mut().enumerate() {
                *slot = (ctx.start + k) * 2;
            }
            true
        });
        assert!(ok);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, i * 2);
        }
    }

    #[test]
    fn fill_chunks_serial_and_aborting() {
        // Single chunk: inline, no metrics.
        let jobs0 = star_obs::counter("pool.jobs").get();
        let mut out = vec![0u8; 16];
        assert!(try_fill_chunks(&mut out, &[0, 16], |_, s| {
            s.fill(7);
            true
        }));
        assert_eq!(out, vec![7u8; 16]);
        assert_eq!(star_obs::counter("pool.jobs").get(), jobs0);
        // A failing chunk aborts the whole run.
        let cuts = chunk_cuts(out.len(), 4);
        assert!(!try_fill_chunks(&mut out, &cuts, |ctx, _| ctx.index != 2));
        // Cooperative abort is visible to sibling chunks.
        let cuts = chunk_cuts(out.len(), 2);
        let ok = try_fill_chunks(&mut out, &cuts, |ctx, s| {
            if ctx.index == 0 {
                return false;
            }
            // The sibling eventually observes the abort flag.
            for _ in 0..1_000_000 {
                if ctx.aborted() {
                    break;
                }
                std::hint::spin_loop();
            }
            s.fill(1);
            true
        });
        assert!(!ok);
    }

    #[test]
    #[should_panic(expected = "cuts must span")]
    fn fill_chunks_rejects_bad_cuts() {
        let mut out = vec![0u8; 8];
        try_fill_chunks(&mut out, &[0, 4], |_, _| true);
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
    #[should_panic]
    fn fill_chunks_propagates_a_chunk_panic() {
        let mut out = vec![0u8; 12];
        try_fill_chunks(&mut out, &[0, 4, 8, 12], |ctx, s| {
            if ctx.index == 1 {
                panic!("fill chunk {} failed", ctx.index);
            }
            s.fill(1);
            true
        });
    }

    #[test]
    fn pool_metrics_record_fanout() {
        let jobs0 = star_obs::counter("pool.jobs").get();
        let workers0 = star_obs::counter("pool.workers").get();
        let items0 = star_obs::counter("pool.items").get();
        let mut out = vec![0u8; 64];
        assert!(try_fill_chunks(&mut out, &chunk_cuts(64, 3), |_, _| true));
        assert!(star_obs::counter("pool.jobs").get() > jobs0);
        assert!(star_obs::counter("pool.workers").get() >= workers0 + 3);
        assert!(star_obs::counter("pool.items").get() >= items0 + 64);
    }
}
