//! The traced replay: the run's exact request sequence pushed through
//! the public calls each layer exposes, in the order the server's
//! `embed_cached` and `serve_embed` make them, with a span around every
//! call.
//!
//! A span has a name, a start, an end, a parent and a request index. The
//! spans stay in memory until the run ends. A layer's self time is its
//! span minus the part its children cover. The embedder's phases come
//! from `report::embed_with_report`, which runs the same
//! `embed_with_options` path the server runs and reports each phase's
//! duration; their child spans are laid end to end from the start of the
//! `embed` span, in the order the embedder runs them.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use star_fault::FaultSet;
use star_oracle::{pack_ring, Canon, Canonicalizer, Store};
use star_perm::Perm;
use star_ring::EmbedOptions;
use star_serve::cache::{key_for, ResultCache};
use star_serve::proto::{chunk_stream, ChunkFrame, RingDelta, DEFAULT_CHUNK_VERTICES};
use star_serve::{ServeConfig, StreamVerifier};

use crate::workload::{Kind, Plan, N, RESTART_CACHE_MB, RING_LEN};

/// One recorded span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub request: usize,
    pub parent: Option<usize>,
    pub start: Duration,
    pub end: Duration,
}

/// Names of the spans that make up the server's work for one request
/// (what `server_timing`'s `embed_us + encode_us` covers). The
/// write-behind append runs on the server's own thread and the stream
/// verification on the client, so neither is in this list.
pub const SERVER_LAYERS: &[&str] = &[
    "canon",
    "cache.get",
    "store.get",
    "proto.delta_encode",
    "proto.map_through",
    "cache.insert",
    "embed",
    "embed.positions",
    "embed.hierarchy",
    "embed.expand",
    "embed.verify",
    "proto.delta_decode",
    "proto.chunk_encode",
];

/// In-memory span recorder.
pub struct Tracer {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Tracer {
    fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: &'static str, request: usize, parent: Option<usize>) -> usize {
        let now = self.origin.elapsed();
        self.spans.push(Span {
            name,
            request,
            parent,
            start: now,
            end: now,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize) {
        self.spans[span].end = self.origin.elapsed();
    }

    fn time<T>(
        &mut self,
        name: &'static str,
        request: usize,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.open(name, request, Some(parent));
        let out = f();
        self.close(span);
        out
    }

    /// Self time of every span: its length minus its children's.
    pub fn self_times(&self) -> Vec<Duration> {
        let mut covered = vec![Duration::ZERO; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                covered[p] += s.end - s.start;
            }
        }
        self.spans
            .iter()
            .zip(covered)
            .map(|(s, c)| (s.end - s.start).saturating_sub(c))
            .collect()
    }
}

/// Per-request facts the metrics need beyond span times.
#[derive(Clone, Debug, Default)]
pub struct Served {
    pub memo_hit: bool,
    pub checksum: u64,
    pub wire_bytes: u64,
    pub s4_hits: u64,
    pub s4_queries: u64,
}

/// The replay's copy of the server's state: one canonicalizer, one LRU
/// with the server's budget, one store.
struct Mirror {
    canon: Canonicalizer,
    cache: ResultCache,
    store: Store,
}

impl Mirror {
    fn open(kind: Kind, dir: &Path) -> Result<Mirror, String> {
        let budget = match kind {
            Kind::Restart => RESTART_CACHE_MB << 20,
            Kind::Cold | Kind::Orbit => ServeConfig::default().cache_bytes,
        };
        Ok(Mirror {
            canon: Canonicalizer::default(),
            cache: ResultCache::with_budget(budget),
            store: Store::open(dir).map_err(|e| format!("replay store: {e}"))?,
        })
    }

    /// One request, as `serve_embed` handles a v2 `return_ring` embed,
    /// then the client's verification of the frames it would send.
    fn serve(&self, t: &mut Tracer, req: usize, faults: &[Perm]) -> Result<Served, String> {
        let fault_set =
            FaultSet::from_vertices(N, faults.iter().cloned()).map_err(|e| e.to_string())?;
        let options = EmbedOptions::default();
        let mut served = Served::default();
        let root = t.open("request", req, None);
        let ranks: Vec<u32> = faults.iter().map(Perm::rank).collect();
        let (canon, memo_hit) = t.time("canon", req, root, || self.canon.canonicalize(N, &ranks));
        served.memo_hit = memo_hit;
        let key = key_for(&canon, &options);
        let delta = if let Some(delta_c) = t.time("cache.get", req, root, || self.cache.get(&key)) {
            map_back(t, req, root, delta_c, &canon)
        } else if let Some(ring) = t.time("store.get", req, root, || self.store.get(&key)) {
            let delta_c =
                Arc::new(t.time("proto.delta_encode", req, root, || RingDelta::encode(&ring))?);
            drop(ring);
            t.time("cache.insert", req, root, || {
                self.cache.insert(key.clone(), Arc::clone(&delta_c))
            });
            map_back(t, req, root, delta_c, &canon)
        } else {
            let span = t.open("embed", req, Some(root));
            let (ring, report) = star_ring::report::embed_with_report(N, &fault_set)
                .map_err(|e| format!("embed: {e}"))?;
            t.close(span);
            let mut at = t.spans[span].start;
            for (name, d) in [
                ("embed.positions", report.plan_time),
                ("embed.hierarchy", report.hierarchy_time),
                ("embed.expand", report.expand_time),
                ("embed.verify", report.verify_time),
            ] {
                t.spans.push(Span {
                    name,
                    request: req,
                    parent: Some(span),
                    start: at,
                    end: at + d,
                });
                at += d;
            }
            served.s4_hits = report.oracle_hits;
            served.s4_queries = report.oracle_hits + report.oracle_misses;
            let delta = Arc::new(t.time("proto.delta_encode", req, root, || {
                RingDelta::encode(ring.vertices())
            })?);
            drop(ring);
            let delta_c = if canon.witness().is_identity() {
                Arc::clone(&delta)
            } else {
                Arc::new(t.time("proto.map_through", req, root, || {
                    delta.map_through(canon.witness())
                }))
            };
            t.time("cache.insert", req, root, || {
                self.cache.insert(key.clone(), Arc::clone(&delta_c))
            });
            // The write-behind hand-off decodes on the worker; packing
            // and appending happen on the store's own thread, off the
            // request path, so they get their own root span.
            let vertices = t.time("proto.delta_decode", req, root, || delta_c.decode());
            let behind = t.open("writebehind", req, None);
            t.time("store.append", req, behind, || {
                self.store
                    .append_batch(&[(key.clone(), pack_ring(&vertices))])
                    .map_err(|e| format!("store append: {e}"))
            })?;
            t.close(behind);
            delta
        };
        let frames: Vec<Vec<u8>> = t.time("proto.chunk_encode", req, root, || {
            chunk_stream(&delta, 0, DEFAULT_CHUNK_VERTICES)
                .map(|chunks| chunks.iter().map(ChunkFrame::encode).collect())
        })?;
        t.close(root);
        served.wire_bytes = frames.iter().map(|f| f.len() as u64 + 4).sum();

        let client = t.open("client", req, None);
        let summary = t.time("stream.verify", req, client, || {
            let mut verifier = StreamVerifier::new(N, RING_LEN, &fault_set)?;
            for frame in &frames {
                verifier.feed(&ChunkFrame::parse(frame)?)?;
            }
            verifier.finish()
        })?;
        t.close(client);
        if summary.ring_len != RING_LEN || !summary.at_guarantee {
            return Err(format!("replayed ring has {} vertices", summary.ring_len));
        }
        served.checksum = summary.checksum;
        Ok(served)
    }
}

/// `map_back`: a canonical-frame delta into the caller's frame through
/// the witness inverse (free for the identity witness).
fn map_back(
    t: &mut Tracer,
    req: usize,
    root: usize,
    delta_c: Arc<RingDelta>,
    canon: &Canon,
) -> Arc<RingDelta> {
    if canon.witness().is_identity() {
        delta_c
    } else {
        Arc::new(t.time("proto.map_through", req, root, || {
            delta_c.map_through(&canon.witness().inverse())
        }))
    }
}

/// What the replay of the timed window produced.
pub struct Replay {
    pub tracer: Tracer,
    pub served: Vec<Served>,
    /// Counter growth and state of the LRU and the store over the timed
    /// window, and the store's own counters at its end.
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub cache_resident_bytes: usize,
    pub store_hits: u64,
    pub store_misses: u64,
    pub store_write_bytes: u64,
    pub store_corrupt: u64,
}

/// Replays `plan` in this process with a store under `dir`: the setup
/// requests first (untraced), then the timed requests, traced.
pub fn run(plan: &Plan, dir: &Path) -> Result<Replay, String> {
    // The server warms the Lemma-4 table at start; so does the replay.
    star_ring::oracle::warm();
    let mut untraced = Tracer::new();
    let mut mirror = Mirror::open(plan.kind, dir)?;
    for faults in &plan.setup {
        mirror.serve(&mut untraced, usize::MAX, faults)?;
    }
    if plan.kind == Kind::Restart {
        // A fresh process on the same store: empty LRU and memo.
        drop(mirror);
        mirror = Mirror::open(plan.kind, dir)?;
        for faults in &plan.memo_pass {
            mirror.serve(&mut untraced, usize::MAX, faults)?;
        }
    }
    drop(untraced);
    let cache0 = mirror.cache.stats();
    let store0 = mirror.store.stats();
    let mut tracer = Tracer::new();
    let served = plan
        .timed
        .iter()
        .enumerate()
        .map(|(i, faults)| mirror.serve(&mut tracer, i, faults))
        .collect::<Result<Vec<_>, _>>()?;
    let cache1 = mirror.cache.stats();
    let store1 = mirror.store.stats();
    Ok(Replay {
        tracer,
        served,
        cache_hits: cache1.hits - cache0.hits,
        cache_misses: cache1.misses - cache0.misses,
        cache_evictions: cache1.evictions - cache0.evictions,
        cache_resident_bytes: cache1.bytes,
        store_hits: store1.hits - store0.hits,
        store_misses: store1.misses - store0.misses,
        store_write_bytes: store1.bytes - store0.bytes,
        store_corrupt: store1.corrupt,
    })
}

/// Self time per span name over the timed window: (calls, total).
pub fn layer_totals(tracer: &Tracer) -> BTreeMap<&'static str, (u64, Duration)> {
    let mut totals: BTreeMap<&'static str, (u64, Duration)> = BTreeMap::new();
    for (span, self_time) in tracer.spans.iter().zip(tracer.self_times()) {
        let entry = totals.entry(span.name).or_default();
        entry.0 += 1;
        entry.1 += self_time;
    }
    totals
}
