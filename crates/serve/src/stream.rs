//! Incremental consumption of v2 ring streams.
//!
//! A v2 embed response arrives as a JSON header plus binary
//! [`ChunkFrame`]s, each a self-contained ring segment. The whole point
//! of the streamed encoding is that the client never holds the ring —
//! so verification must be incremental too. [`StreamVerifier`] folds
//! every chunk's vertices through one [`RingCheck`] (fault avoidance,
//! uniqueness over an `n!`-bit set, adjacency across and inside chunks,
//! the running STARRING-CERT checksum) and adds what only a stream has:
//! cursor continuity, the declared length, the last-chunk flag, and the
//! header's `cert_checksum`, compared at the end. None of the state is
//! proportional to the ring length.
//!
//! Feeding may span reconnects: after a broken stream, re-request with
//! `cursor` = [`StreamVerifier::position`] and keep feeding the same
//! verifier — the cursor check and the check's held boundary vertex make
//! the resumed stream verify exactly as an unbroken one.
//!
//! Every client reads a connection's responses through one
//! [`ResponseReader`]; [`fetch_verified`] is one request through it.

use std::collections::HashMap;
use std::mem;
use std::time::Duration;

use star_fault::{FaultSet, RingCheck, RingError};
use star_obs::json::Json;

use crate::client::{Client, Received};
use crate::proto::ChunkFrame;

/// Totals reported by a completed stream: its length, STARRING-CERT
/// checksum, and whether the length meets `n! - 2|F_v|`.
pub use star_fault::RingSummary as StreamSummary;

/// Chunk-by-chunk verifier for one logical ring stream. O(n!) bits of
/// state; per vertex one seen-set probe, one checksum round and a rank
/// that is O(1) inside the ring's `S_4` blocks and O(n) on the steps
/// between them — independent of how the stream is chunked.
pub struct StreamVerifier {
    check: RingCheck,
    ring_len: u64,
    expect_checksum: Option<u64>,
    saw_last_chunk: bool,
}

impl StreamVerifier {
    /// Starts a verifier for a declared ring of `ring_len` vertices in
    /// `S_n` avoiding `faults` (both come from the response header; the
    /// verifier re-checks everything it can recompute). `n` must be the
    /// fault set's own dimension, within `1..=MAX_N`.
    pub fn new(n: usize, ring_len: u64, faults: &FaultSet) -> Result<StreamVerifier, String> {
        let check = RingCheck::new(n, faults).map_err(|e| e.to_string())?;
        if ring_len < 3 {
            return Err(RingError::TooShort {
                len: ring_len as usize,
            }
            .to_string());
        }
        Ok(StreamVerifier {
            check,
            ring_len,
            expect_checksum: None,
            saw_last_chunk: false,
        })
    }

    /// Arms the final checksum comparison with the header's
    /// `cert_checksum` member (16 hex digits).
    pub fn expect_checksum(&mut self, hex: &str) -> Result<(), String> {
        let want =
            u64::from_str_radix(hex, 16).map_err(|_| format!("bad cert_checksum `{hex}`"))?;
        self.expect_checksum = Some(want);
        Ok(())
    }

    /// The ring position the next chunk must start at — also the
    /// `cursor` to re-request after a broken stream.
    pub fn position(&self) -> u64 {
        self.check.len()
    }

    /// Consumes one chunk: the stream checks (no chunk after the last,
    /// cursor continuity, the declared length, the last flag), then every
    /// vertex through the ring check.
    pub fn feed(&mut self, chunk: &ChunkFrame) -> Result<(), String> {
        if self.saw_last_chunk {
            return Err("chunk after the last-flagged chunk".to_string());
        }
        let position = self.position();
        if chunk.cursor != position {
            return Err(format!(
                "chunk cursor {} but stream position {position}",
                chunk.cursor
            ));
        }
        let end = position + chunk.segment.len() as u64;
        if end > self.ring_len {
            return Err(format!(
                "chunk runs to position {end} past the declared ring length {}",
                self.ring_len
            ));
        }
        if chunk.last != (end == self.ring_len) {
            return Err(format!(
                "last flag {} at position {end} of {}",
                chunk.last, self.ring_len
            ));
        }
        self.check
            .push_delta(&chunk.segment)
            .map_err(|e| e.to_string())?;
        self.saw_last_chunk = chunk.last;
        Ok(())
    }

    /// Final whole-ring checks once the stream is complete: full length,
    /// the closing edge, and the certificate checksum.
    pub fn finish(self) -> Result<StreamSummary, String> {
        if !self.saw_last_chunk || self.position() != self.ring_len {
            return Err(format!(
                "stream ended at position {} of {}",
                self.position(),
                self.ring_len
            ));
        }
        let summary = self.check.finish().map_err(|e| e.to_string())?;
        if let Some(want) = self.expect_checksum {
            if summary.checksum != want {
                return Err(format!(
                    "certificate checksum mismatch: computed {:016x}, header claims {want:016x}",
                    summary.checksum
                ));
            }
        }
        Ok(summary)
    }
}

/// What one response settled to: the JSON document (a v2 stream's
/// header) plus, for a ring stream that verified, its summary — or why
/// the response failed.
pub type Response = Result<(Json, Option<StreamSummary>), String>;

/// Where the reader is between frames.
enum Stream<T> {
    /// Between responses: the next frame must be JSON.
    Idle,
    /// Inside a v2 ring stream: its request, its header, and the
    /// verifier its chunks feed.
    Open(T, Json, Box<StreamVerifier>),
    /// Inside a stream that already failed: its remaining chunks are
    /// skipped until the next JSON frame.
    Skipping,
}

/// Reads one connection's responses in frame order and settles each
/// expected request once. A JSON frame settles the request its `id`
/// names, except a v2 ring header (`ok`, `"encoding":"delta-v2"`): that
/// starts a [`StreamVerifier`], which the following chunk frames feed up
/// to the chunk flagged `last`. Chunks carry no `id`; they belong to the
/// last header because the server writes a stream's header and all of
/// its chunks under one connection lock. A stream that fails
/// verification, or that a JSON frame cuts short, settles its request as
/// failed, and its leftover chunks are skipped.
pub struct ResponseReader<T> {
    expected: HashMap<Option<String>, (Option<FaultSet>, T)>,
    stream: Stream<T>,
}

impl<T> Default for ResponseReader<T> {
    fn default() -> Self {
        ResponseReader {
            expected: HashMap::new(),
            stream: Stream::Idle,
        }
    }
}

impl<T> ResponseReader<T> {
    /// Expects an answer to the request with `id` (`None` for a request
    /// without one), tagged `request`. `faults` is the request's fault
    /// set, which a v2 ring stream is verified against.
    pub fn expect(&mut self, id: Option<String>, faults: Option<FaultSet>, request: T) {
        self.expected.insert(id, (faults, request));
    }

    /// Stops expecting the request with `id` (its send failed).
    pub fn withdraw(&mut self, id: &str) {
        self.expected.remove(&Some(id.to_string()));
    }

    /// Requests not settled yet: awaiting an answer or inside a stream.
    pub fn unsettled(&self) -> usize {
        self.expected.len() + usize::from(matches!(self.stream, Stream::Open(..)))
    }

    /// Takes the connection's next frame and returns what it settled:
    /// each request's tag with its response, or `None` with an error for
    /// a frame that answers no expected request (an unknown `id`, a chunk
    /// outside any stream). A JSON frame that cuts a stream short settles
    /// two requests.
    pub fn push(&mut self, frame: Received) -> Vec<(Option<T>, Response)> {
        let mut settled = Vec::new();
        let chunk = match frame {
            Received::Chunk(chunk) => chunk,
            Received::Doc(doc) => {
                if let Stream::Open(request, ..) = mem::replace(&mut self.stream, Stream::Idle) {
                    let cut = "JSON frame inside a v2 chunk stream".to_string();
                    settled.push((Some(request), Err(cut)));
                }
                let id = doc.get("id").and_then(Json::as_str).map(str::to_string);
                let Some((faults, request)) = self.expected.remove(&id) else {
                    settled.push((None, Err(format!("response with unknown id: {doc}"))));
                    return settled;
                };
                let ring_header = doc.get("ok") == Some(&Json::Bool(true))
                    && doc.get("encoding").and_then(Json::as_str) == Some("delta-v2");
                match ring_header.then(|| start_stream(&doc, faults.as_ref())) {
                    None => settled.push((Some(request), Ok((doc, None)))),
                    Some(Ok(verifier)) => {
                        self.stream = Stream::Open(request, doc, Box::new(verifier))
                    }
                    Some(Err(why)) => {
                        self.stream = Stream::Skipping;
                        settled.push((Some(request), Err(why)));
                    }
                }
                return settled;
            }
        };
        let fed = match &mut self.stream {
            Stream::Open(.., verifier) => verifier.feed(&chunk),
            Stream::Skipping => return settled,
            Stream::Idle => {
                let stray = "chunk frame before the stream header".to_string();
                settled.push((None, Err(stray)));
                return settled;
            }
        };
        if fed.is_err() || chunk.last {
            let next = if fed.is_ok() {
                Stream::Idle
            } else {
                Stream::Skipping
            };
            if let Stream::Open(request, header, verifier) = mem::replace(&mut self.stream, next) {
                let summary = fed.and_then(|()| verifier.finish());
                settled.push((Some(request), summary.map(|s| (header, Some(s)))));
            }
        }
        settled
    }
}

/// Arms a verifier for the stream a v2 ring header announces: its `n`
/// and `ring_len`, the request's fault set, and its `cert_checksum`
/// when present.
fn start_stream(header: &Json, faults: Option<&FaultSet>) -> Result<StreamVerifier, String> {
    let field = |name| {
        let value = header.get(name).and_then(Json::as_u64);
        value.ok_or(format!("v2 header missing {name}"))
    };
    let (n, ring_len) = (field("n")? as usize, field("ring_len")?);
    let faults = faults.ok_or("v2 stream for a request without a fault set")?;
    let mut verifier = StreamVerifier::new(n, ring_len, faults)?;
    if let Some(hex) = header.get("cert_checksum").and_then(Json::as_str) {
        verifier.expect_checksum(hex)?;
    }
    Ok(verifier)
}

/// Drives one embed round trip end to end: sends `request` and reads
/// its answer through a [`ResponseReader`], so a v2 ring stream is
/// verified chunk by chunk without ever materializing the ring. Returns
/// the response (a stream's header) plus the stream summary — `None`
/// when the server answered with plain JSON (v1, an error, or a v2
/// response that carried no ring).
///
/// Always requests from cursor 0; resuming a broken stream is the
/// caller's job (keep a [`StreamVerifier`] and re-request with its
/// [`StreamVerifier::position`]).
pub fn fetch_verified(
    client: &mut Client,
    request: &Json,
    patience: Duration,
    faults: &FaultSet,
) -> Response {
    let mut reader = ResponseReader::default();
    let id = request.get("id").and_then(Json::as_str).map(str::to_string);
    reader.expect(id, Some(faults.clone()), ());
    client.send(request)?;
    loop {
        if let Some((_, response)) = reader.push(client.recv_any(patience)?).into_iter().next() {
            return response;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{chunk_stream, RingDelta};
    use star_perm::Perm;

    /// A full healthy ring of S_4 via small-graph search.
    fn ring4() -> Vec<Perm> {
        let g = star_graph::smallgraph::SmallGraph::from_star(4);
        let (cycle, _) = g.longest_cycle(&[false; 24], u64::MAX);
        cycle
            .into_iter()
            .map(|id| Perm::unrank(4, id as u32).unwrap())
            .collect()
    }

    fn verify_in_chunks(ring: &[Perm], chunk_vertices: u32) -> Result<StreamSummary, String> {
        let delta = RingDelta::encode(ring).unwrap();
        let chunks = chunk_stream(&delta, 0, chunk_vertices).unwrap();
        let faults = FaultSet::empty(ring[0].n());
        let mut v = StreamVerifier::new(ring[0].n(), ring.len() as u64, &faults)?;
        let checksum = star_verify::certificate::ring_checksum(ring.iter().map(Perm::rank));
        v.expect_checksum(&format!("{checksum:016x}"))?;
        for c in &chunks {
            v.feed(c)?;
        }
        v.finish()
    }

    #[test]
    fn whole_ring_verifies_across_chunk_boundaries() {
        let ring = ring4();
        // Every chunking of the same ring must verify to the same
        // summary — including chunk sizes that land the certificate
        // checksum mid-chunk and at chunk boundaries.
        for chunk_vertices in [2, 3, 5, 7, 24] {
            let summary = verify_in_chunks(&ring, chunk_vertices).unwrap();
            assert_eq!(summary.ring_len, 24);
            assert!(summary.at_guarantee, "chunking {chunk_vertices}");
        }
    }

    #[test]
    fn certificate_spanning_two_chunks_matches_the_offline_certificate() {
        // The incremental checksum over two chunks equals the checksum
        // line certificate_for writes for the whole ring.
        let ring = ring4();
        let summary = verify_in_chunks(&ring, 12).unwrap();
        let delta = RingDelta::encode(&ring).unwrap();
        let cert = star_verify::certificate::certificate_for(&FaultSet::empty(4), &delta);
        assert!(cert.contains(&format!("checksum {:016x}", summary.checksum)));
    }

    #[test]
    fn resumed_stream_verifies_like_an_unbroken_one() {
        let ring = ring4();
        let delta = RingDelta::encode(&ring).unwrap();
        let faults = FaultSet::empty(4);
        let mut v = StreamVerifier::new(4, 24, &faults).unwrap();
        // First connection delivers two 5-vertex chunks, then breaks.
        for c in chunk_stream(&delta, 0, 5).unwrap().iter().take(2) {
            v.feed(c).unwrap();
        }
        assert_eq!(v.position(), 10);
        // Resume from the verifier's cursor on a fresh stream.
        for c in &chunk_stream(&delta, v.position(), 5).unwrap() {
            v.feed(c).unwrap();
        }
        let summary = v.finish().unwrap();
        assert_eq!(summary.ring_len, 24);
        assert!(summary.at_guarantee);
    }

    #[test]
    fn tampered_streams_are_rejected() {
        let ring = ring4();
        let delta = RingDelta::encode(&ring).unwrap();
        let faults = FaultSet::empty(4);
        let chunks = chunk_stream(&delta, 0, 6).unwrap();

        // Skipped chunk: cursor discontinuity.
        let mut v = StreamVerifier::new(4, 24, &faults).unwrap();
        v.feed(&chunks[0]).unwrap();
        assert!(v.feed(&chunks[2]).unwrap_err().contains("cursor"));

        // Replayed chunk: every vertex is a repeat.
        let mut v = StreamVerifier::new(4, 24, &faults).unwrap();
        v.feed(&chunks[0]).unwrap();
        assert!(v.feed(&chunks[0]).unwrap_err().contains("cursor"));

        // Wrong checksum claim.
        let mut v = StreamVerifier::new(4, 24, &faults).unwrap();
        v.expect_checksum("00000000deadbeef").unwrap();
        for c in &chunks {
            v.feed(c).unwrap();
        }
        assert!(v.finish().unwrap_err().contains("checksum mismatch"));

        // A faulty vertex inside the stream.
        let faulty = FaultSet::from_vertices(4, [ring[3]]).unwrap();
        let mut v = StreamVerifier::new(4, 24, &faulty).unwrap();
        let err = chunks
            .iter()
            .find_map(|c| v.feed(c).err())
            .expect("fault must be detected");
        assert!(err.contains("faulty vertex"));
    }

    /// A response document with `id` and the given members.
    fn doc(id: &str, members: &[(&str, Json)]) -> Received {
        let mut all = vec![("id".to_string(), Json::from(id))];
        all.extend(members.iter().map(|(k, v)| (k.to_string(), v.clone())));
        Received::Doc(Json::Obj(all))
    }

    /// The v2 header announcing `ring4()`'s stream for request `id`.
    fn ring_header(id: &str, checksum: u64) -> Received {
        doc(
            id,
            &[
                ("ok", Json::Bool(true)),
                ("n", Json::from(4u64)),
                ("ring_len", Json::from(24u64)),
                ("encoding", Json::from("delta-v2")),
                ("cert_checksum", Json::from(format!("{checksum:016x}"))),
            ],
        )
    }

    #[test]
    fn reader_settles_json_and_streams_and_skips_a_failed_streams_chunks() {
        let ring = ring4();
        let checksum = star_verify::certificate::ring_checksum(ring.iter().map(Perm::rank));
        let chunks = chunk_stream(&RingDelta::encode(&ring).unwrap(), 0, 6).unwrap();
        assert_eq!(chunks.len(), 4);
        let chunk = |i: usize| Received::Chunk(chunks[i].clone());
        let mut reader: ResponseReader<&str> = ResponseReader::default();
        for (id, v2) in [("a", false), ("b", true), ("c", false), ("d", true)] {
            reader.expect(Some(id.to_string()), v2.then(|| FaultSet::empty(4)), id);
        }
        for id in ["e", "f", "g"] {
            let faults = (id == "f").then(|| FaultSet::empty(4));
            reader.expect(Some(id.to_string()), faults, id);
        }
        assert_eq!(reader.unsettled(), 7);
        let ok = Json::Bool(true);

        // A v1 document settles its request at once.
        let settled = reader.push(doc("a", &[("ok", ok.clone())]));
        assert!(matches!(&settled[..], [(Some("a"), Ok((_, None)))]));

        // A v2 header opens a stream that settles on its last chunk.
        assert!(reader.push(ring_header("b", checksum)).is_empty());
        assert_eq!(reader.unsettled(), 6, "b is inside its stream");
        for i in 0..3 {
            assert!(reader.push(chunk(i)).is_empty());
        }
        let [(Some("b"), Ok((header, Some(summary))))] = &reader.push(chunk(3))[..] else {
            panic!("b's stream must settle verified");
        };
        assert_eq!(
            header.get("encoding").and_then(Json::as_str),
            Some("delta-v2")
        );
        assert_eq!((summary.ring_len, summary.checksum), (24, checksum));
        assert!(summary.at_guarantee);

        // An error document between two streams.
        let overloaded = doc(
            "c",
            &[("ok", Json::Bool(false)), ("error", "overloaded".into())],
        );
        let [(Some("c"), Ok((error, None)))] = &reader.push(overloaded)[..] else {
            panic!("c must settle with its error document");
        };
        assert_eq!(
            error.get("error").and_then(Json::as_str),
            Some("overloaded")
        );

        // A tampered chunk fails d's stream; its later chunks are
        // skipped, and the next request settles normally.
        assert!(reader.push(ring_header("d", checksum)).is_empty());
        assert!(reader.push(chunk(0)).is_empty());
        let mut tampered = chunks[1].clone();
        tampered.segment = chunks[2].segment.clone();
        let settled = reader.push(Received::Chunk(tampered));
        assert!(
            matches!(&settled[..], [(Some("d"), Err(_))]),
            "tampered chunk"
        );
        assert!(reader.push(chunk(2)).is_empty());
        assert!(reader.push(chunk(3)).is_empty());
        let settled = reader.push(doc("e", &[("ok", ok.clone())]));
        assert!(matches!(&settled[..], [(Some("e"), Ok((_, None)))]));

        // A JSON frame inside f's stream cuts it short, then settles g.
        assert!(reader.push(ring_header("f", checksum)).is_empty());
        assert!(reader.push(chunk(0)).is_empty());
        let settled = reader.push(doc("g", &[("ok", ok.clone())]));
        let [(Some("f"), Err(cut)), (Some("g"), Ok((_, None)))] = &settled[..] else {
            panic!("f must fail and g settle");
        };
        assert!(cut.contains("JSON frame inside"), "{cut}");
        assert_eq!(reader.unsettled(), 0);

        // A chunk outside any stream, and an unknown id, answer nothing.
        let [(None, Err(stray))] = &reader.push(chunk(1))[..] else {
            panic!("a stray chunk is an error");
        };
        assert!(stray.contains("before the stream header"), "{stray}");
        let [(None, Err(unknown))] = &reader.push(doc("zz", &[("ok", ok)]))[..] else {
            panic!("an unknown id is an error");
        };
        assert!(unknown.contains("unknown id"), "{unknown}");
    }

    #[test]
    fn new_rejects_a_header_n_beyond_max_n_before_allocating() {
        // 13!/8 bytes would be ~0.78 GB; the check refuses first.
        let err = StreamVerifier::new(13, 24, &FaultSet::empty(13))
            .err()
            .expect("n = 13 is out of range");
        assert!(err.contains("S_13"), "{err}");
    }

    #[test]
    fn new_rejects_a_header_n_that_is_not_the_fault_sets() {
        // A valid S_7 ring offered for an S_6 request.
        let err = StreamVerifier::new(7, 5040, &FaultSet::empty(6))
            .err()
            .expect("n = 7 against S_6 faults");
        assert!(err.contains("fault set is for S_6"), "{err}");
    }
}
