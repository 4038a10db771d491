//! Write-behind population of the disk store.
//!
//! The serve path must not pay segment-write latency on a cache miss, so
//! freshly embedded rings are handed to a single background thread over a
//! channel; the thread batches them (up to [`BATCH_MAX`] records or
//! [`BATCH_LINGER`], whichever first) and appends one segment per batch.
//! A queued ring is an `Arc` clone of the [`RingDelta`] the serve cache
//! already holds, so the queue costs no copy, and a batch serializes at
//! ½ byte per vertex.
//! Dropping the handle (server drain) flushes everything still queued and
//! joins the thread, so a graceful shutdown never loses accepted work —
//! only a crash does, and then only rings that were still queued.

use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use star_perm::delta::RingDelta;

use crate::key::OracleKey;
use crate::store::Store;

/// Records per segment before an early flush.
pub const BATCH_MAX: usize = 16;
/// Longest a queued record waits before a time-based flush.
pub const BATCH_LINGER: Duration = Duration::from_millis(200);

type Item = (OracleKey, Arc<RingDelta>);

/// Handle to the write-behind worker. Dropping it flushes and joins.
pub struct WriteBehind {
    tx: Option<Sender<Item>>,
    handle: Option<JoinHandle<()>>,
}

impl WriteBehind {
    /// Spawns the worker against `store`.
    pub fn start(store: Arc<Store>) -> WriteBehind {
        let (tx, rx) = mpsc::channel::<Item>();
        let handle = std::thread::Builder::new()
            .name("oracle-writebehind".into())
            .spawn(move || run(&store, &rx))
            .expect("spawn oracle-writebehind");
        WriteBehind {
            tx: Some(tx),
            handle: Some(handle),
        }
    }

    /// Queues one ring for persistence. Never blocks on disk; silently
    /// drops if the worker is gone (process shutting down).
    pub fn submit(&self, key: OracleKey, ring: Arc<RingDelta>) {
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

/// The worker loop: batch what arrives, flush at [`BATCH_MAX`] records
/// or [`BATCH_LINGER`], and flush the rest once every sender is gone.
fn run(store: &Store, rx: &Receiver<Item>) {
    let mut pending: Vec<Item> = Vec::new();
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
                pending.push(item);
                star_obs::incr("oracle.store.write_behind_enqueued", 1);
                if pending.len() >= BATCH_MAX {
                    flush(store, &mut pending);
                    oldest = None;
                }
            }
            Err(RecvTimeoutError::Timeout) => {
                flush(store, &mut pending);
                oldest = None;
            }
            Err(RecvTimeoutError::Disconnected) => {
                flush(store, &mut pending);
                return;
            }
        }
    }
}

fn flush(store: &Store, pending: &mut Vec<Item>) {
    if pending.is_empty() {
        return;
    }
    match store.append_batch(pending) {
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
    pending.clear();
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_perm::Perm;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("star-oracle-wb-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn walk(len: usize) -> Arc<RingDelta> {
        let mut v = Perm::identity(4);
        let mut out = vec![v];
        for i in 1..len {
            v = v.star_move(1 + i % 3);
            out.push(v);
        }
        Arc::new(RingDelta::encode(&out).unwrap())
    }

    #[test]
    fn batches_are_capped_by_count_and_the_rest_flush_at_disconnect() {
        let dir = tmpdir("batch");
        let store = Store::open(&dir).unwrap();
        let (tx, rx) = mpsc::channel::<Item>();
        // Everything is queued before the worker runs, so no linger can
        // fire: two full batches, then the remainder when the channel
        // closes.
        for i in 0..2 * BATCH_MAX + 1 {
            let key = OracleKey::from_parts(4, vec![i as u32], 0, 0);
            tx.send((key, walk(6 + i))).unwrap();
        }
        drop(tx);
        run(&store, &rx);
        let stats = store.stats();
        assert_eq!(stats.records, 2 * BATCH_MAX as u64 + 1);
        assert_eq!(stats.segments, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shutdown_flushes_queued_records() {
        let dir = tmpdir("shutdown");
        let store = Arc::new(Store::open(&dir).unwrap());
        let wb = WriteBehind::start(Arc::clone(&store));
        let ring = walk(6);
        let key = OracleKey::from_parts(4, vec![1], 0, 0);
        wb.submit(key.clone(), Arc::clone(&ring));
        wb.shutdown();
        assert_eq!(store.get_delta(&key), Some(Ok((*ring).clone())));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
