//! The persistent oracle store: checksummed, append-only, shippable.
//!
//! ## On-disk layout (all integers little-endian)
//!
//! A store directory holds immutable **segment** files plus one **index**:
//!
//! ```text
//! oracle/
//!   index.sos            rebuildable lookup accelerator
//!   seg-000000.sos       append-once record batches
//!   seg-000001.sos
//! ```
//!
//! Segment record, a ring as a [`RingDelta`] (½ byte per vertex):
//!
//! ```text
//! "SOSD" | n u8 | k u8 | spare u8 | flags u8 | salt u32 | ring_len u32
//!        | reserved u32 | ranks k×u32
//!        | start_bits u64 | dims ⌈(ring_len−1)/2⌉ bytes | fnv1a-64
//! ```
//!
//! Index file:
//!
//! ```text
//! "SOSI" | version u32 | next_seg u32 | count u64 | entries… | fnv1a-64
//! entry: n u8 | k u8 | spare u8 | 0 u8 | salt u32 | seg u32 | rec_len u32
//!        | offset u64 | ranks k×u32
//! ```
//!
//! ## Crash-safety argument
//!
//! Segments are written to a `.tmp` sibling, fsync'd, then renamed into
//! place — a segment either exists completely or not at all (rename is
//! atomic on POSIX). Segments are never modified after the rename. The
//! index is a pure cache of the segments' contents, rewritten the same
//! tempfile-then-rename way *after* the segment lands; a crash between
//! the two leaves an **orphan segment** that [`Store::open`] detects
//! (a segment file no index entry points into) and re-scans. A torn or
//! bit-flipped record fails its per-record FNV-1a checksum and is
//! skipped on scan / treated as a miss on read — corruption can cost a
//! recomputation, never a wrong ring. Shipping a warm store to another
//! host is `scp -r` of the directory; at worst the receiver pays one
//! index rebuild.
//!
//! Stores written with 8-byte vertex-word records (magic `"SOSR"`, index
//! version 1) have no decoder: their index is rejected, their segments
//! are rescanned, and each such segment is dropped at open as corrupt,
//! so its rings read as misses, are re-embedded, and are appended again
//! as deltas.

use std::borrow::Borrow;
use std::collections::{HashMap, HashSet};
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use star_fault::{FaultSet, RingCheck};
use star_perm::{delta::RingDelta, factorial, Perm};

use crate::key::OracleKey;

const REC_MAGIC: &[u8; 4] = b"SOSD";
const IDX_MAGIC: &[u8; 4] = b"SOSI";
const IDX_VERSION: u32 = 2;
/// Fixed-size record header bytes before the per-key ranks.
const REC_HEADER: usize = 20;
const START_LEN: usize = 8;
const CHECKSUM_LEN: usize = 8;
/// Upper bound accepted for `ring_len` when parsing (12! vertices).
const MAX_RING_LEN: u32 = 479_001_600;

/// FNV-1a 64-bit, the workspace-standard content checksum here.
fn fnv64(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

#[derive(Clone, Copy, Debug)]
struct Loc {
    seg: u32,
    offset: u64,
    len: u32,
}

struct Inner {
    map: HashMap<OracleKey, Loc>,
    next_seg: u32,
    /// Total bytes of all segment files (approximate store footprint).
    bytes: u64,
}

/// Aggregate store statistics (counts are process-lifetime for the I/O
/// counters, on-disk truth for `records`/`segments`/`bytes`).
#[derive(Clone, Debug, Default)]
pub struct StoreStats {
    /// Records currently addressable.
    pub records: u64,
    /// Distinct segment files referenced.
    pub segments: u64,
    /// Total segment bytes on disk.
    pub bytes: u64,
    /// Successful reads served.
    pub hits: u64,
    /// Lookups that found no record.
    pub misses: u64,
    /// Records dropped at open or refused on read for failing their
    /// checksum, magic, bounds or key check. An intact record that is
    /// not a valid delta is not counted here; [`Store::get_delta`]
    /// hands it to the caller.
    pub corrupt: u64,
}

/// Outcome of [`Store::verify`].
#[derive(Clone, Debug, Default)]
pub struct VerifyReport {
    /// Records examined, including those dropped at open.
    pub checked: u64,
    /// Records whose delta passed [`RingCheck`] at `n! - 2|F_v|`.
    pub ok: u64,
    /// Human-readable descriptions of every failure.
    pub failures: Vec<String>,
}

impl VerifyReport {
    /// `true` iff every checked record verified.
    pub fn all_ok(&self) -> bool {
        self.failures.is_empty()
    }
}

/// Disk-backed oracle store. Cheap to clone behind an [`Arc`]; all
/// methods take `&self`.
pub struct Store {
    dir: PathBuf,
    inner: Mutex<Inner>,
    files: Mutex<HashMap<u32, Arc<File>>>,
    /// Serializes index rewrites (segment writes race safely; the index
    /// must not be written interleaved).
    index_lock: Mutex<()>,
    /// What [`Store::open`] could not index (torn or unparsable records,
    /// entries into vanished segments); [`Store::verify`] reports them.
    dropped: Vec<String>,
    hits: AtomicU64,
    misses: AtomicU64,
    corrupt: AtomicU64,
}

impl Store {
    /// Opens (or creates) the store at `dir`, recovering from crashes:
    /// leftover `.tmp` files are removed, a missing, corrupt or
    /// older-version index is rebuilt by scanning every segment, and
    /// orphan segments (written but not yet indexed) are scanned and
    /// re-indexed.
    pub fn open(dir: &Path) -> io::Result<Store> {
        fs::create_dir_all(dir)?;
        let mut segs_on_disk: HashMap<u32, PathBuf> = HashMap::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                // Crash remnant from an interrupted atomic write.
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if let Some(id) = name
                .strip_prefix("seg-")
                .and_then(|rest| rest.strip_suffix(".sos"))
                .and_then(|digits| digits.parse::<u32>().ok())
            {
                segs_on_disk.insert(id, entry.path());
            }
        }

        let mut dropped = Vec::new();
        let mut map: HashMap<OracleKey, Loc> = HashMap::new();
        let mut next_seg = 0u32;
        let mut dirty = false;
        match load_index(&dir.join("index.sos")) {
            Some((entries, idx_next_seg)) => {
                next_seg = idx_next_seg;
                for (key, loc) in entries {
                    if segs_on_disk.contains_key(&loc.seg) {
                        map.insert(key, loc);
                    } else {
                        // Index points into a segment that vanished
                        // (partial ship): drop the entry.
                        dropped.push(format!(
                            "{key:?}: its segment {} is gone",
                            seg_name(loc.seg)
                        ));
                        dirty = true;
                    }
                }
            }
            None => dirty = true,
        }
        let covered: HashSet<u32> = map.values().map(|l| l.seg).collect();
        for (&id, path) in &segs_on_disk {
            if id >= next_seg {
                next_seg = id + 1;
            }
            if covered.contains(&id) {
                continue;
            }
            // Orphan (or index was rebuilt from scratch): scan it.
            let (records, torn) = scan_segment(path, id);
            if !records.is_empty() {
                dirty = true;
            }
            if let Some(why) = torn {
                dropped.push(why);
                dirty = true;
            }
            for (key, loc) in records {
                map.entry(key).or_insert(loc);
            }
        }
        let bytes = segs_on_disk
            .values()
            .filter_map(|p| fs::metadata(p).ok())
            .map(|m| m.len())
            .sum();

        let corrupt = dropped.len() as u64;
        let store = Store {
            dir: dir.to_path_buf(),
            inner: Mutex::new(Inner {
                map,
                next_seg,
                bytes,
            }),
            files: Mutex::new(HashMap::new()),
            index_lock: Mutex::new(()),
            dropped,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            corrupt: AtomicU64::new(corrupt),
        };
        if corrupt > 0 {
            star_obs::incr("oracle.store.corrupt", corrupt);
        }
        if dirty {
            store.rewrite_index()?;
        }
        Ok(store)
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// `true` iff `key` has a record (no I/O, no checksum verification).
    pub fn contains(&self, key: &OracleKey) -> bool {
        self.inner
            .lock()
            .expect("store poisoned")
            .map
            .contains_key(key)
    }

    /// Number of addressable records.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("store poisoned").map.len()
    }

    /// `true` iff the store holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Reads the ring stored for `key` as a validated delta: one
    /// positional read, the record checksum, the key fields, then
    /// [`RingDelta::from_parts`] (start permutation, every step
    /// dimension in `1..n`, zero padding).
    ///
    /// - `None`: no record, or one that fails its checksum, magic,
    ///   bounds or key check (counted in `oracle.store.corrupt`). The
    ///   caller recomputes; it never gets a wrong ring.
    /// - `Some(Err(why))`: an intact record that is not a valid delta.
    ///   The store does not count it; the caller does, and recomputes.
    /// - `Some(Ok(delta))`: a hit.
    pub fn get_delta(&self, key: &OracleKey) -> Option<Result<RingDelta, String>> {
        let loc = {
            let inner = self.inner.lock().expect("store poisoned");
            match inner.map.get(key) {
                Some(loc) => *loc,
                None => {
                    drop(inner);
                    self.misses.fetch_add(1, Ordering::Relaxed);
                    star_obs::incr("oracle.store.miss", 1);
                    return None;
                }
            }
        };
        match self.read_record(key, loc) {
            Some(Ok(delta)) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                star_obs::incr("oracle.store.hit", 1);
                star_obs::incr("oracle.store.read_bytes", loc.len as u64);
                Some(Ok(delta))
            }
            Some(Err(why)) => Some(Err(why)),
            None => {
                self.corrupt.fetch_add(1, Ordering::Relaxed);
                star_obs::incr("oracle.store.corrupt", 1);
                None
            }
        }
    }

    /// [`Store::get_delta`] expanded to vertices, for offline callers
    /// that need them. A record that is not a valid delta reads as
    /// `None` here.
    pub fn get(&self, key: &OracleKey) -> Option<Vec<Perm>> {
        self.get_delta(key)?.ok().map(|delta| delta.decode())
    }

    fn read_record(&self, key: &OracleKey, loc: Loc) -> Option<Result<RingDelta, String>> {
        let file = self.segment_file(loc.seg).ok()?;
        let mut buf = vec![0u8; loc.len as usize];
        read_exact_at(&file, &mut buf, loc.offset).ok()?;
        let rec = parse_record(&buf)?;
        if rec.len != buf.len() || rec.key != *key {
            return None;
        }
        Some(RingDelta::from_parts(
            key.n as usize,
            rec.ring_len,
            rec.start_bits,
            rec.dims.to_vec(),
        ))
    }

    fn segment_file(&self, seg: u32) -> io::Result<Arc<File>> {
        let mut files = self.files.lock().expect("store poisoned");
        if let Some(f) = files.get(&seg) {
            return Ok(Arc::clone(f));
        }
        let f = Arc::new(File::open(self.dir.join(seg_name(seg)))?);
        files.insert(seg, Arc::clone(&f));
        Ok(f)
    }

    /// Appends a batch of `(key, ring)` records as one new segment
    /// (tempfile + rename), then rewrites the index. Keys already present
    /// (first-wins) or duplicated within the batch are skipped. Returns
    /// the number of records written.
    pub fn append_batch<R: Borrow<RingDelta>>(
        &self,
        batch: &[(OracleKey, R)],
    ) -> io::Result<usize> {
        let (seg, fresh) = {
            let mut inner = self.inner.lock().expect("store poisoned");
            let mut seen: HashSet<&OracleKey> = HashSet::new();
            let fresh: Vec<&(OracleKey, R)> = batch
                .iter()
                .filter(|(key, _)| !inner.map.contains_key(key) && seen.insert(key))
                .collect();
            if fresh.is_empty() {
                return Ok(0);
            }
            let seg = inner.next_seg;
            inner.next_seg += 1;
            (seg, fresh)
        };

        let size = fresh
            .iter()
            .map(|(key, ring)| record_len(key.ranks.len(), ring.borrow().dims().len()))
            .sum();
        let mut bytes: Vec<u8> = Vec::with_capacity(size);
        let mut locs: Vec<(OracleKey, Loc)> = Vec::with_capacity(fresh.len());
        for (key, ring) in &fresh {
            let offset = bytes.len() as u64;
            encode_record(&mut bytes, key, ring.borrow());
            locs.push((
                key.clone(),
                Loc {
                    seg,
                    offset,
                    len: (bytes.len() as u64 - offset) as u32,
                },
            ));
        }
        let final_path = self.dir.join(seg_name(seg));
        write_atomic(&final_path, &bytes)?;

        {
            let mut inner = self.inner.lock().expect("store poisoned");
            inner.bytes += bytes.len() as u64;
            for (key, loc) in locs {
                inner.map.entry(key).or_insert(loc);
            }
        }
        star_obs::incr("oracle.store.records_written", fresh.len() as u64);
        star_obs::incr("oracle.store.bytes_written", bytes.len() as u64);
        self.rewrite_index()?;
        Ok(fresh.len())
    }

    fn rewrite_index(&self) -> io::Result<()> {
        let _guard = self.index_lock.lock().expect("store poisoned");
        let (entries, next_seg) = {
            let inner = self.inner.lock().expect("store poisoned");
            let entries: Vec<(OracleKey, Loc)> =
                inner.map.iter().map(|(k, l)| (k.clone(), *l)).collect();
            (entries, inner.next_seg)
        };
        let mut bytes: Vec<u8> = Vec::new();
        bytes.extend_from_slice(IDX_MAGIC);
        bytes.extend_from_slice(&IDX_VERSION.to_le_bytes());
        bytes.extend_from_slice(&next_seg.to_le_bytes());
        bytes.extend_from_slice(&(entries.len() as u64).to_le_bytes());
        for (key, loc) in &entries {
            bytes.push(key.n);
            bytes.push(key.ranks.len() as u8);
            bytes.push(key.spare);
            bytes.push(0);
            bytes.extend_from_slice(&key.salt.to_le_bytes());
            bytes.extend_from_slice(&loc.seg.to_le_bytes());
            bytes.extend_from_slice(&loc.len.to_le_bytes());
            bytes.extend_from_slice(&loc.offset.to_le_bytes());
            for r in &key.ranks {
                bytes.extend_from_slice(&r.to_le_bytes());
            }
        }
        let sum = fnv64(&bytes);
        bytes.extend_from_slice(&sum.to_le_bytes());
        write_atomic(&self.dir.join("index.sos"), &bytes)
    }

    /// Store statistics: on-disk truth plus this process's I/O counters.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.lock().expect("store poisoned");
        let segments = inner
            .map
            .values()
            .map(|l| l.seg)
            .collect::<HashSet<_>>()
            .len() as u64;
        StoreStats {
            records: inner.map.len() as u64,
            segments,
            bytes: inner.bytes,
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            corrupt: self.corrupt.load(Ordering::Relaxed),
        }
    }

    /// Re-reads up to `limit` records (0 = all, in unspecified order),
    /// verifying checksums, the delta, and the full ring contract: a
    /// [`RingCheck`] pass at length `n! - 2|F_v|` against the canonical
    /// fault set reconstructed from the key. Every record dropped at open
    /// is a failure too, whatever the limit.
    pub fn verify(&self, limit: usize) -> VerifyReport {
        let keys: Vec<OracleKey> = {
            let inner = self.inner.lock().expect("store poisoned");
            let iter = inner.map.keys().cloned();
            if limit == 0 {
                iter.collect()
            } else {
                iter.take(limit).collect()
            }
        };
        let mut report = VerifyReport {
            checked: self.dropped.len() as u64,
            ok: 0,
            failures: self
                .dropped
                .iter()
                .map(|why| format!("dropped at open: {why}"))
                .collect(),
        };
        for key in keys {
            report.checked += 1;
            let ring = match self.get_delta(&key) {
                Some(Ok(delta)) => delta,
                Some(Err(why)) => {
                    report
                        .failures
                        .push(format!("{key:?}: not a valid ring delta: {why}"));
                    continue;
                }
                None => {
                    report
                        .failures
                        .push(format!("{key:?}: record missing or corrupt"));
                    continue;
                }
            };
            match verify_ring_for_key(&key, &ring) {
                Ok(()) => report.ok += 1,
                Err(e) => report.failures.push(format!("{key:?}: {e}")),
            }
        }
        report
    }
}

/// Checks one stored ring against its key's contract: length
/// `n! - 2|F_v|`, then one [`RingCheck`] walk of the delta against the
/// fault set the key's ranks name. A key that names no fault set (a rank
/// out of range, more faults than `S_n` can lose) is a failure.
fn verify_ring_for_key(key: &OracleKey, ring: &RingDelta) -> Result<(), String> {
    let n = key.n as usize;
    let k = key.ranks.len();
    let expected = factorial(n)
        .checked_sub(2 * k as u64)
        .ok_or_else(|| format!("{k} faults leave no n!-2|Fv| ring in S_{n}"))?;
    if ring.len() as u64 != expected {
        return Err(format!(
            "ring length {} != n!-2|Fv| = {expected}",
            ring.len()
        ));
    }
    let faults = key
        .ranks
        .iter()
        .map(|&r| Perm::unrank(n, r).map_err(|e| format!("fault rank {r}: {e}")))
        .collect::<Result<Vec<_>, _>>()
        .and_then(|fs| FaultSet::from_vertices(n, fs).map_err(|e| e.to_string()))?;
    let mut check = RingCheck::new(n, &faults).map_err(|e| e.to_string())?;
    check.push_delta(ring).map_err(|e| e.to_string())?;
    check.finish().map(drop).map_err(|e| e.to_string())
}

fn seg_name(seg: u32) -> String {
    format!("seg-{seg:06}.sos")
}

/// Writes `bytes` to `path` atomically: tempfile sibling, fsync, rename,
/// directory fsync (POSIX).
fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = path.with_extension("sos.tmp");
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, path)?;
    if let Some(parent) = path.parent() {
        if let Ok(d) = File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

#[cfg(unix)]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::os::unix::fs::FileExt;
    file.read_exact_at(buf, offset)
}

#[cfg(not(unix))]
fn read_exact_at(file: &File, buf: &mut [u8], offset: u64) -> io::Result<()> {
    use std::io::{Read, Seek};
    let mut f = file.try_clone()?;
    f.seek(io::SeekFrom::Start(offset))?;
    f.read_exact(buf)
}

/// Total bytes of a record with `k` ranks and `dims` step bytes.
fn record_len(k: usize, dims: usize) -> usize {
    REC_HEADER + 4 * k + START_LEN + dims + CHECKSUM_LEN
}

fn encode_record(out: &mut Vec<u8>, key: &OracleKey, ring: &RingDelta) {
    debug_assert_eq!(ring.n(), key.n as usize, "a ring is stored under its own n");
    let start = out.len();
    out.extend_from_slice(REC_MAGIC);
    out.push(key.n);
    out.push(key.ranks.len() as u8);
    out.push(key.spare);
    out.push(0); // flags
    out.extend_from_slice(&key.salt.to_le_bytes());
    out.extend_from_slice(&ring.len().to_le_bytes());
    out.extend_from_slice(&[0u8; 4]); // reserved / alignment
    for r in &key.ranks {
        out.extend_from_slice(&r.to_le_bytes());
    }
    out.extend_from_slice(&ring.start().bits().to_le_bytes());
    out.extend_from_slice(ring.dims());
    let sum = fnv64(&out[start..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// A checksum-valid record, borrowing its step bytes from the buffer.
struct Record<'a> {
    key: OracleKey,
    ring_len: u32,
    start_bits: u64,
    dims: &'a [u8],
    /// Total record bytes, checksum included.
    len: usize,
}

/// Parses the record at the start of `rec`; `None` if the magic, `n` or
/// `ring_len` is out of bounds, the record is truncated, or its checksum
/// fails. The delta itself is not validated here.
fn parse_record(rec: &[u8]) -> Option<Record<'_>> {
    if rec.len() < REC_HEADER || &rec[..4] != REC_MAGIC {
        return None;
    }
    let le32 = |at: usize| u32::from_le_bytes(rec[at..at + 4].try_into().expect("4 bytes"));
    let (n, k, spare) = (rec[4], rec[5] as usize, rec[6]);
    let salt = le32(8);
    let ring_len = le32(12);
    if !(1..=star_perm::MAX_N as u8).contains(&n) || !(1..=MAX_RING_LEN).contains(&ring_len) {
        return None;
    }
    let dims_at = REC_HEADER + 4 * k + START_LEN;
    let dims_len = (ring_len as usize - 1).div_ceil(2);
    let len = record_len(k, dims_len);
    if rec.len() < len {
        return None;
    }
    let (body, sum) = rec[..len].split_at(len - CHECKSUM_LEN);
    if fnv64(body) != u64::from_le_bytes(sum.try_into().expect("8 bytes")) {
        return None;
    }
    let ranks = (0..k).map(|i| le32(REC_HEADER + 4 * i)).collect();
    let start_bits = u64::from_le_bytes(
        rec[dims_at - START_LEN..dims_at]
            .try_into()
            .expect("8 bytes"),
    );
    Some(Record {
        key: OracleKey::from_parts(n, ranks, salt, spare),
        ring_len,
        start_bits,
        dims: &rec[dims_at..dims_at + dims_len],
        len,
    })
}

/// Scans a whole segment file, returning the valid records and, if it
/// has one, a description of the corrupt or truncated tail (scanning
/// stops at the first bad record, since a torn write has no valid
/// successor).
fn scan_segment(path: &Path, seg: u32) -> (Vec<(OracleKey, Loc)>, Option<String>) {
    let buf = match fs::read(path) {
        Ok(buf) => buf,
        Err(e) => {
            return (
                Vec::new(),
                Some(format!("{}: unreadable: {e}", seg_name(seg))),
            )
        }
    };
    let mut records = Vec::new();
    let mut offset = 0usize;
    while offset < buf.len() {
        let Some(rec) = parse_record(&buf[offset..]) else {
            let why = format!(
                "{} at byte {offset}: torn, corrupt or not a delta record; {} records before it kept",
                seg_name(seg),
                records.len()
            );
            return (records, Some(why));
        };
        records.push((
            rec.key,
            Loc {
                seg,
                offset: offset as u64,
                len: rec.len as u32,
            },
        ));
        offset += rec.len;
    }
    (records, None)
}

/// Loads the index file: `Some((entries, next_seg))` when present,
/// checksum-valid and of this version, `None` otherwise (caller rebuilds
/// by scanning).
fn load_index(path: &Path) -> Option<(Vec<(OracleKey, Loc)>, u32)> {
    let buf = fs::read(path).ok()?;
    if buf.len() < 20 + CHECKSUM_LEN || &buf[..4] != IDX_MAGIC {
        return None;
    }
    let body = &buf[..buf.len() - CHECKSUM_LEN];
    let stored = u64::from_le_bytes(buf[buf.len() - CHECKSUM_LEN..].try_into().unwrap());
    if fnv64(body) != stored {
        return None;
    }
    if u32::from_le_bytes(buf[4..8].try_into().unwrap()) != IDX_VERSION {
        return None;
    }
    let next_seg = u32::from_le_bytes(buf[8..12].try_into().unwrap());
    let count = u64::from_le_bytes(buf[12..20].try_into().unwrap());
    let mut entries = Vec::with_capacity(count.min(1 << 20) as usize);
    let mut at = 20usize;
    for _ in 0..count {
        if body.len() < at + 24 {
            return None;
        }
        let n = body[at];
        let k = body[at + 1] as usize;
        let spare = body[at + 2];
        let salt = u32::from_le_bytes(body[at + 4..at + 8].try_into().unwrap());
        let seg = u32::from_le_bytes(body[at + 8..at + 12].try_into().unwrap());
        let len = u32::from_le_bytes(body[at + 12..at + 16].try_into().unwrap());
        let offset = u64::from_le_bytes(body[at + 16..at + 24].try_into().unwrap());
        at += 24;
        if body.len() < at + 4 * k {
            return None;
        }
        let mut ranks = Vec::with_capacity(k);
        for i in 0..k {
            ranks.push(u32::from_le_bytes(
                body[at + 4 * i..at + 4 * i + 4].try_into().unwrap(),
            ));
        }
        at += 4 * k;
        entries.push((
            OracleKey::from_parts(n, ranks, salt, spare),
            Loc { seg, offset, len },
        ));
    }
    if at != body.len() {
        return None;
    }
    Some((entries, next_seg))
}

/// Delta-encodes a vertex list for [`Store::append_batch`]: exactly
/// [`RingDelta::encode`], for callers that hold vertices.
///
/// # Panics
/// Panics if `ring` is empty or two consecutive vertices are not
/// star-adjacent.
pub fn pack_ring(ring: &[Perm]) -> RingDelta {
    RingDelta::encode(ring).expect("pack_ring needs a non-empty walk of adjacent vertices")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(n: u8, ranks: &[u32]) -> OracleKey {
        OracleKey::from_parts(n, ranks.to_vec(), 0, 0)
    }

    /// A walk of `len` vertices in `S_n` (not a closed ring — encode and
    /// decode tests only).
    fn tiny_delta(n: usize, len: usize) -> RingDelta {
        let mut v = Perm::identity(n);
        let mut walk = vec![v];
        for i in 1..len {
            v = v.star_move(1 + i % (n - 1));
            walk.push(v);
        }
        RingDelta::encode(&walk).unwrap()
    }

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("star-oracle-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn record_round_trips() {
        let k = key(4, &[0, 5]);
        let ring = tiny_delta(4, 7);
        let mut buf = Vec::new();
        encode_record(&mut buf, &k, &ring);
        let rec = parse_record(&buf).expect("record parses");
        assert_eq!(rec.key, k);
        assert_eq!(rec.len, buf.len());
        assert_eq!(rec.len, record_len(2, ring.dims().len()));
        let back = RingDelta::from_parts(4, rec.ring_len, rec.start_bits, rec.dims.to_vec());
        assert_eq!(back.expect("delta validates"), ring);
    }

    #[test]
    fn store_round_trips_and_survives_reopen() {
        let dir = tmpdir("roundtrip");
        let ring = tiny_delta(5, 10);
        let k = key(5, &[0, 3, 8]);
        {
            let store = Store::open(&dir).unwrap();
            assert!(store.is_empty());
            assert_eq!(store.append_batch(&[(k.clone(), &ring)]).unwrap(), 1);
            assert_eq!(store.get_delta(&k), Some(Ok(ring.clone())));
            assert_eq!(store.get(&k).expect("hit"), ring.decode());
            // Duplicate append is a no-op.
            assert_eq!(store.append_batch(&[(k.clone(), &ring)]).unwrap(), 0);
        }
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.len(), 1);
        assert_eq!(store.get_delta(&k), Some(Ok(ring)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn missing_index_is_rebuilt_from_segments() {
        let dir = tmpdir("reindex");
        let k = key(4, &[2]);
        let ring = tiny_delta(4, 6);
        {
            let store = Store::open(&dir).unwrap();
            store.append_batch(&[(k.clone(), &ring)]).unwrap();
        }
        fs::remove_file(dir.join("index.sos")).unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get_delta(&k), Some(Ok(ring)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn truncated_segment_degrades_to_miss() {
        let dir = tmpdir("truncate");
        let k1 = key(4, &[1]);
        let k2 = key(4, &[2]);
        {
            let store = Store::open(&dir).unwrap();
            store
                .append_batch(&[
                    (k1.clone(), tiny_delta(4, 6)),
                    (k2.clone(), tiny_delta(4, 8)),
                ])
                .unwrap();
        }
        // Chop the tail off the segment: second record torn.
        let seg = dir.join(seg_name(0));
        let bytes = fs::read(&seg).unwrap();
        fs::write(&seg, &bytes[..bytes.len() - 10]).unwrap();
        fs::remove_file(dir.join("index.sos")).unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(store.get(&k1).is_some(), "intact record survives");
        assert!(store.get(&k2).is_none(), "torn record is a miss");
        assert!(store.stats().corrupt > 0);
        let report = store.verify(0);
        assert!(!report.all_ok(), "the torn record must fail verify");
        assert_eq!(report.checked, 2);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_segment_torn_at_any_byte_reads_as_a_miss_and_fails_verify() {
        let dir = tmpdir("torn-every");
        let k = key(5, &[3, 7]);
        {
            let store = Store::open(&dir).unwrap();
            store
                .append_batch(&[(k.clone(), tiny_delta(5, 31))])
                .unwrap();
        }
        let seg = dir.join(seg_name(0));
        let whole = fs::read(&seg).unwrap();
        for cut in 0..whole.len() {
            fs::write(&seg, &whole[..cut]).unwrap();
            let _ = fs::remove_file(dir.join("index.sos"));
            let store = Store::open(&dir).unwrap();
            assert_eq!(store.get_delta(&k), None, "cut at {cut} must miss");
            assert_eq!(store.stats().corrupt, u64::from(cut > 0), "cut at {cut}");
            assert_eq!(store.verify(0).all_ok(), cut == 0, "cut at {cut}");
        }
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_vertex_word_store_is_dropped_at_open_and_superseded() {
        // The 8 B/vertex record and version-1 index that stores held
        // before records became deltas, built by hand.
        let dir = tmpdir("vertex-words");
        fs::create_dir_all(&dir).unwrap();
        let k = key(4, &[5]);
        let walk = tiny_delta(4, 6);
        let mut rec = Vec::new();
        rec.extend_from_slice(b"SOSR");
        rec.extend_from_slice(&[4, 1, 0, 0]);
        rec.extend_from_slice(&0u32.to_le_bytes());
        rec.extend_from_slice(&6u32.to_le_bytes());
        rec.extend_from_slice(&[0; 4]);
        rec.extend_from_slice(&5u32.to_le_bytes());
        for v in walk.walk() {
            rec.extend_from_slice(&v.bits().to_le_bytes());
        }
        let sum = fnv64(&rec);
        rec.extend_from_slice(&sum.to_le_bytes());
        fs::write(dir.join(seg_name(0)), &rec).unwrap();
        let mut idx = Vec::new();
        idx.extend_from_slice(IDX_MAGIC);
        idx.extend_from_slice(&1u32.to_le_bytes());
        idx.extend_from_slice(&1u32.to_le_bytes());
        idx.extend_from_slice(&1u64.to_le_bytes());
        idx.extend_from_slice(&[4, 1, 0, 0]);
        idx.extend_from_slice(&0u32.to_le_bytes()); // salt
        idx.extend_from_slice(&0u32.to_le_bytes()); // seg
        idx.extend_from_slice(&(rec.len() as u32).to_le_bytes());
        idx.extend_from_slice(&0u64.to_le_bytes()); // offset
        idx.extend_from_slice(&5u32.to_le_bytes());
        let sum = fnv64(&idx);
        idx.extend_from_slice(&sum.to_le_bytes());
        fs::write(dir.join("index.sos"), &idx).unwrap();

        let store = Store::open(&dir).unwrap();
        assert_eq!(
            store.stats().corrupt,
            1,
            "the old segment is dropped at open"
        );
        assert_eq!(store.get_delta(&k), None);
        assert!(!store.verify(0).all_ok());
        assert_eq!(store.append_batch(&[(k.clone(), &walk)]).unwrap(), 1);
        assert_eq!(store.get_delta(&k), Some(Ok(walk.clone())));
        drop(store);
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get_delta(&k), Some(Ok(walk)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn an_intact_record_that_is_not_a_delta_is_handed_to_the_caller() {
        let dir = tmpdir("bad-delta");
        let k = key(4, &[9]);
        {
            let store = Store::open(&dir).unwrap();
            store
                .append_batch(&[(k.clone(), tiny_delta(4, 6))])
                .unwrap();
        }
        // Step 0 becomes dimension 0; re-seal the checksum.
        let seg = dir.join(seg_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let dims_at = REC_HEADER + 4 + START_LEN;
        bytes[dims_at] &= 0xF0;
        let body = bytes.len() - CHECKSUM_LEN;
        let sum = fnv64(&bytes[..body]);
        bytes[body..].copy_from_slice(&sum.to_le_bytes());
        fs::write(&seg, &bytes).unwrap();
        let store = Store::open(&dir).unwrap();
        assert!(matches!(store.get_delta(&k), Some(Err(_))));
        assert!(store.get(&k).is_none());
        let stats = store.stats();
        assert_eq!((stats.hits, stats.corrupt), (0, 0));
        assert!(!store.verify(0).all_ok());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A checksum-valid record whose key names no fault set is a
    /// verify failure, never a panic.
    fn verify_failures_for(tag: &str, k: &OracleKey, ring: &RingDelta) -> Vec<String> {
        let dir = tmpdir(tag);
        {
            let store = Store::open(&dir).unwrap();
            assert_eq!(store.append_batch(&[(k.clone(), ring)]).unwrap(), 1);
        }
        let report = Store::open(&dir).unwrap().verify(0);
        let _ = fs::remove_dir_all(&dir);
        assert_eq!((report.checked, report.ok), (1, 0));
        report.failures
    }

    #[test]
    fn an_out_of_range_fault_rank_fails_verify() {
        let k = OracleKey::from_parts(4, vec![u32::MAX], 0, 0);
        let failures = verify_failures_for("rank-range", &k, &tiny_delta(4, 22));
        assert!(failures[0].contains("fault rank"), "{failures:?}");
    }

    #[test]
    fn more_faults_than_the_graph_can_lose_fails_verify() {
        // S_2 has 2 vertices; 2 faults would put n! - 2|F_v| below zero.
        let k = key(2, &[0, 1]);
        let failures = verify_failures_for("underflow", &k, &tiny_delta(2, 2));
        assert!(failures[0].contains("2 faults"), "{failures:?}");
    }

    #[test]
    fn bitflip_fails_checksum_and_reads_as_miss() {
        let dir = tmpdir("bitflip");
        let k = key(5, &[4, 9]);
        {
            let store = Store::open(&dir).unwrap();
            store
                .append_batch(&[(k.clone(), tiny_delta(5, 12))])
                .unwrap();
        }
        let seg = dir.join(seg_name(0));
        let mut bytes = fs::read(&seg).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        fs::write(&seg, &bytes).unwrap();
        // Index still points at the record; the read-path checksum is the
        // last line of defense.
        let store = Store::open(&dir).unwrap();
        assert!(
            store.get_delta(&k).is_none(),
            "bit flip must read as a miss"
        );
        assert!(store.stats().corrupt > 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_index_is_ignored_and_rebuilt() {
        let dir = tmpdir("badindex");
        let k = key(4, &[3]);
        let ring = tiny_delta(4, 5);
        {
            let store = Store::open(&dir).unwrap();
            store.append_batch(&[(k.clone(), &ring)]).unwrap();
        }
        let idx = dir.join("index.sos");
        let mut bytes = fs::read(&idx).unwrap();
        let at = bytes.len() / 2;
        bytes[at] ^= 0x55;
        fs::write(&idx, &bytes).unwrap();
        let store = Store::open(&dir).unwrap();
        assert_eq!(store.get_delta(&k), Some(Ok(ring)));
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn real_embeds_round_trip_byte_identically() {
        let dir = tmpdir("real");
        let mut written = Vec::new();
        {
            let store = Store::open(&dir).unwrap();
            for n in 4..=9usize {
                let faults = star_fault::gen::random_vertex_faults(n, n - 3, n as u64).unwrap();
                let ring = star_ring::embed_longest_ring(n, &faults).unwrap();
                let ranks: Vec<u32> = faults.vertices().iter().map(Perm::rank).collect();
                let k = OracleKey::from_parts(n as u8, ranks, 0, 0);
                let delta = RingDelta::encode(ring.vertices()).unwrap();
                assert_eq!(store.append_batch(&[(k.clone(), &delta)]).unwrap(), 1);
                written.push((k, delta, ring.into_vertices()));
            }
        }
        let store = Store::open(&dir).unwrap();
        for (k, delta, vertices) in &written {
            let back = store.get_delta(k).expect("hit").expect("valid delta");
            assert_eq!(&back, delta, "n = {}", k.n);
            assert_eq!(back.dims(), delta.dims());
            assert_eq!(&back.decode(), vertices, "n = {}", k.n);
        }
        let report = store.verify(0);
        assert!(report.all_ok(), "{:?}", report.failures);
        assert_eq!(report.ok, written.len() as u64);
        let _ = fs::remove_dir_all(&dir);
    }
}
