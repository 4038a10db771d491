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

use std::time::Duration;

use star_bench::jsonv::Json;
use star_fault::{FaultSet, RingCheck, RingError};

use crate::client::{Client, Received};
use crate::proto::ChunkFrame;

/// Totals reported by a completed stream: its length, STARRING-CERT
/// checksum, and whether the length meets `n! - 2|F_v|`.
pub use star_fault::RingSummary as StreamSummary;

/// Chunk-by-chunk verifier for one logical ring stream. O(n!) bits of
/// state, O(n) per vertex — independent of how the stream is chunked.
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

    /// `true` once a chunk flagged `last` has been consumed.
    pub fn is_complete(&self) -> bool {
        self.saw_last_chunk
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

/// Drives one negotiated-v2 embed round trip end to end: sends
/// `request`, and when the server streams the ring back, verifies every
/// chunk incrementally without ever materializing the ring. Returns the
/// response header plus the stream summary — `None` when the server
/// answered with plain JSON (v1 fallback, an error, or a v2 response
/// that carried no ring).
///
/// The verifier is built from the header's `n`/`ring_len` and the
/// caller's fault set, and armed with the header's `cert_checksum` when
/// present. Always requests from cursor 0; resuming a broken stream is
/// the caller's job (keep the [`StreamVerifier`] and re-request with
/// its [`StreamVerifier::position`]).
pub fn fetch_verified(
    client: &mut Client,
    request: &Json,
    patience: Duration,
    faults: &FaultSet,
) -> Result<(Json, Option<StreamSummary>), String> {
    client.send(request)?;
    let header = match client.recv_any(patience)? {
        Received::Doc(doc) => doc,
        Received::Chunk(_) => return Err("chunk frame before the stream header".to_string()),
    };
    if header.get("ok") != Some(&Json::Bool(true))
        || header.get("encoding").and_then(Json::as_str) != Some("delta-v2")
    {
        return Ok((header, None));
    }
    let n = header
        .get("n")
        .and_then(Json::as_u64)
        .ok_or("v2 header missing n")? as usize;
    let ring_len = header
        .get("ring_len")
        .and_then(Json::as_u64)
        .ok_or("v2 header missing ring_len")?;
    let mut verifier = StreamVerifier::new(n, ring_len, faults)?;
    if let Some(hex) = header.get("cert_checksum").and_then(Json::as_str) {
        verifier.expect_checksum(hex)?;
    }
    loop {
        match client.recv_any(patience)? {
            Received::Chunk(chunk) => {
                let last = chunk.last;
                verifier.feed(&chunk)?;
                if last {
                    break;
                }
            }
            Received::Doc(_) => return Err("JSON frame inside a v2 chunk stream".to_string()),
        }
    }
    let summary = verifier.finish()?;
    Ok((header, Some(summary)))
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
        let cert = star_verify::certificate::certificate_for(4, &FaultSet::empty(4), &ring);
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
        assert!(!v.is_complete());
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
