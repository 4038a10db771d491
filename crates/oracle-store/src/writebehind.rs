//! Write-behind population of the disk store.
//!
//! The serve path must not pay segment-write latency on a cache miss, so
//! freshly embedded rings are handed to a single background thread over a
//! channel; the thread batches them (up to [`BATCH_MAX`] records,
//! [`BATCH_MAX_VERTICES`] vertices or [`BATCH_LINGER`], whichever first)
//! and appends one segment per batch.
//! Dropping the handle (server drain) flushes everything still queued and
//! joins the thread, so a graceful shutdown never loses accepted work —
//! only a crash does, and then only rings that were still queued.

use std::sync::mpsc::{self, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use star_perm::Perm;

use crate::key::OracleKey;
use crate::store::{pack_ring, Store};

/// Records per segment before an early flush.
pub const BATCH_MAX: usize = 16;
/// Longest a queued record waits before a time-based flush.
pub const BATCH_LINGER: Duration = Duration::from_millis(200);
/// Queued vertices before an early flush. At its peak a flush holds each
/// queued vertex unpacked (13 B), packed, copied and serialized (8 B
/// each), about 37 B per vertex. An `n = 9` ring (362,868 vertices)
/// passes this bound, so it is written on arrival instead of waiting
/// for the linger while later rings are embedded.
pub const BATCH_MAX_VERTICES: usize = 1 << 18;

/// Handle to the write-behind worker. Dropping it flushes and joins.
pub struct WriteBehind {
    tx: Option<Sender<(OracleKey, Arc<Vec<Perm>>)>>,
    handle: Option<JoinHandle<()>>,
}

impl WriteBehind {
    /// Spawns the worker against `store`.
    pub fn start(store: Arc<Store>) -> WriteBehind {
        let (tx, rx) = mpsc::channel::<(OracleKey, Arc<Vec<Perm>>)>();
        let handle = std::thread::Builder::new()
            .name("oracle-writebehind".into())
            .spawn(move || {
                let mut pending: Vec<(OracleKey, Arc<Vec<Perm>>)> = Vec::new();
                let mut pending_vertices = 0usize;
                let mut oldest: Option<Instant> = None;
                loop {
                    let timeout = match oldest {
                        Some(t) => BATCH_LINGER.saturating_sub(t.elapsed()),
                        None => BATCH_LINGER,
                    };
                    match rx.recv_timeout(timeout) {
                        Ok(item) => {
                            if pending.is_empty() {
                                oldest = Some(Instant::now());
                            }
                            pending_vertices += item.1.len();
                            pending.push(item);
                            star_obs::incr("oracle.store.write_behind_enqueued", 1);
                            if batch_full(pending.len(), pending_vertices) {
                                flush(&store, &mut pending);
                                pending_vertices = 0;
                                oldest = None;
                            }
                        }
                        Err(RecvTimeoutError::Timeout) => {
                            if !pending.is_empty() {
                                flush(&store, &mut pending);
                                pending_vertices = 0;
                                oldest = None;
                            }
                        }
                        Err(RecvTimeoutError::Disconnected) => {
                            flush(&store, &mut pending);
                            return;
                        }
                    }
                }
            })
            .expect("spawn oracle-writebehind");
        WriteBehind {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// Queues one ring for persistence. Never blocks on disk; silently
    /// drops if the worker is gone (process shutting down).
    pub fn submit(&self, key: OracleKey, ring: Arc<Vec<Perm>>) {
        if let Some(tx) = &self.tx {
            let _ = tx.send((key, ring));
        }
    }

    /// Flushes all queued records and joins the worker.
    pub fn shutdown(mut self) {
        self.shutdown_inner();
    }

    fn shutdown_inner(&mut self) {
        drop(self.tx.take());
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for WriteBehind {
    fn drop(&mut self) {
        self.shutdown_inner();
    }
}

/// Whether a batch of `records` rings totalling `vertices` vertices is
/// written now rather than at the linger deadline.
fn batch_full(records: usize, vertices: usize) -> bool {
    records >= BATCH_MAX || vertices >= BATCH_MAX_VERTICES
}

fn flush(store: &Store, pending: &mut Vec<(OracleKey, Arc<Vec<Perm>>)>) {
    if pending.is_empty() {
        return;
    }
    let batch: Vec<(OracleKey, Vec<u64>)> = pending
        .drain(..)
        .map(|(key, ring)| {
            let packed = pack_ring(&ring);
            (key, packed)
        })
        .collect();
    match store.append_batch(&batch) {
        Ok(written) => {
            star_obs::incr("oracle.store.write_behind_flushed", written as u64);
        }
        Err(e) => {
            star_obs::incr("oracle.store.write_errors", 1);
            if star_obs::flightrec::enabled() {
                star_obs::flightrec::record("oracle.store.write_error", e.to_string(), &[]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn large_rings_flush_on_arrival_and_small_ones_batch() {
        let n9_ring = 362_868;
        assert!(batch_full(1, n9_ring), "an n = 9 ring is written at once");
        assert!(!batch_full(1, 40_310), "an n = 8 ring waits for company");
        assert!(
            batch_full(BATCH_MAX, 16 * 118),
            "count still caps small rings"
        );
        assert!(!batch_full(BATCH_MAX - 1, BATCH_MAX_VERTICES - 1));
    }

    #[test]
    fn shutdown_flushes_queued_records() {
        let dir = std::env::temp_dir().join(format!("star-oracle-wb-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(Store::open(&dir).unwrap());
        let wb = WriteBehind::start(Arc::clone(&store));
        let ring: Vec<Perm> = (0..6u32).map(|r| Perm::unrank(4, r).unwrap()).collect();
        let key = OracleKey::from_parts(4, vec![1], 0, 0);
        wb.submit(key.clone(), Arc::new(ring.clone()));
        wb.shutdown();
        assert_eq!(store.get(&key).expect("flushed on shutdown"), ring);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
