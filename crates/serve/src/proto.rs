//! Wire protocol: length-prefixed JSON frames and the request/response
//! vocabulary.
//!
//! Every message is one **frame**: a 4-byte big-endian length followed by
//! that many bytes of UTF-8 JSON (a single document, [`MAX_FRAME`] cap).
//! Requests are objects with a `"kind"` discriminator:
//!
//! ```text
//! {"kind":"health"}
//! {"kind":"stats"}
//! {"kind":"embed","n":6,"faults":["213456","321456"],"return_ring":true}
//! {"kind":"embed_batch","n":6,"scenarios":[[],["213456"]]}
//! {"kind":"verify","n":5,"ring":["12345","21345",...],"faults":[]}
//! ```
//!
//! All work requests accept optional `"id"` (echoed back opaquely),
//! `"trace_id"` (a client-generated hex string of up to 32 digits — the
//! end-to-end trace id: the server echoes it into the response, stamps
//! it on every span and flight-recorder event the request produces, and
//! tags SLO-breach dumps with it), `"deadline_ms"` (enforced at dequeue
//! — an expired request is answered `deadline_exceeded` before any
//! embed work runs) and `"options"`
//! (`{"verify":bool,"salt":int,"spare_index":int}`, the
//! [`EmbedOptions`] knobs). Embed requests additionally accept
//! `"return_certificate":true` to get a STARRING-CERT v1 proof attached
//! to the response (always attached when the server runs with
//! `--verify`). Responses always carry `"ok"`; failures are
//! `{"ok":false,"error":<code>,"message":…}` with `error` one of
//! `bad_request`, `overloaded`, `deadline_exceeded`, `embed_failed`,
//! `verify_failed`, `shutting_down`. Queued-work responses (success or
//! failure) for a traced request carry `"trace_id"` plus a
//! `"server_timing"` object ([`ServerTiming`]) breaking the server-side
//! wall time into `queue_us`/`embed_us`/`verify_us`/`encode_us`.
//!
//! Faults and ring vertices travel as permutation strings in the same
//! format the CLI uses (digit strings for `n <= 9`, dot-separated
//! otherwise), so a `nc` session and a ring file round-trip unchanged.
//!
//! # Protocol v2: generator-delta rings, streamed
//!
//! A ring in `S_n` steps between adjacent permutations by one star move
//! — a single dimension `d ∈ {1..n-1}` — so the whole ring is one start
//! permutation plus one nibble per step ([`RingDelta`]), ~24× smaller
//! than the JSON permutation list. A v1 JSON frame cannot carry an
//! `n >= 10` ring at all (n=10: ~3.6 M vertices, far past [`MAX_FRAME`]
//! as JSON); v2 can, and it streams.
//!
//! Negotiation is per-request: an embed request carrying `"proto":2`
//! (plus optional `"cursor"` and `"chunk_vertices"`) asks for a v2
//! response. The server answers with one ordinary JSON *header* frame
//! (`"encoding":"delta-v2"`, `ring_len`, `chunks`, the usual trace
//! members) followed by that many **binary chunk frames** inside the
//! same length-prefixed framing, distinguished by the [`CHUNK_MAGIC`]
//! leading bytes (a JSON document never starts with `SRB2`). Each chunk
//! ([`ChunkFrame`]) is self-contained — ring position (`cursor`), packed
//! start vertex, nibble-packed step dimensions, FNV-1a checksum — so a
//! client verifies incrementally in constant memory and, after a broken
//! connection, resumes by re-requesting with `"cursor"` set to the first
//! position it did not receive. Servers that do not speak v2 (or answer
//! non-embed kinds) reply with a plain v1 JSON response; clients must
//! treat the header's `encoding` member as authoritative.

use std::io::{self, Read, Write};

use star_bench::jsonv::Json;
use star_fault::FaultSet;
use star_perm::Perm;
use star_ring::EmbedOptions;

/// Rings travel as generator deltas; the type lives in `star_perm` so the
/// oracle store and the cache share it.
pub use star_perm::delta::RingDelta;

/// Hard cap on a single frame body (16 MiB — a full `n = 12` ring is
/// far smaller).
pub const MAX_FRAME: usize = 16 << 20;

/// Outcome of one [`read_frame`] call.
#[derive(Debug)]
pub enum FrameRead {
    /// A complete frame body.
    Frame(Vec<u8>),
    /// The read timed out before the first byte of a frame — the
    /// connection is idle (the caller's chance to poll shutdown flags).
    Idle,
    /// Clean end-of-stream at a frame boundary.
    Eof,
}

/// Writes one frame (length prefix + body).
///
/// Partial writes and `EINTR` are handled explicitly: a `write` that
/// moves fewer bytes than offered simply advances the cursor, and
/// [`io::ErrorKind::Interrupted`] (from anywhere — the prefix, the body,
/// or the flush) retries the same range. A frame is therefore either
/// fully written or fails with a real error; it is never silently
/// truncated by a signal landing mid-send.
pub fn write_frame(w: &mut impl Write, body: &[u8]) -> io::Result<()> {
    debug_assert!(body.len() <= MAX_FRAME);
    write_all_retry(w, &(body.len() as u32).to_be_bytes())?;
    write_all_retry(w, body)?;
    loop {
        match w.flush() {
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            other => return other,
        }
    }
}

/// `write_all` with explicit short-write accounting and `EINTR` retry.
/// (`Write::write_all` also loops, but its `Interrupted` handling is an
/// implementation detail of each writer; the wire layer spells out the
/// invariant it needs and owns it.)
fn write_all_retry(w: &mut impl Write, mut buf: &[u8]) -> io::Result<()> {
    while !buf.is_empty() {
        match w.write(buf) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "writer accepted 0 bytes mid-frame",
                ))
            }
            Ok(k) => buf = &buf[k..],
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Reads one frame. Timeouts (`WouldBlock`/`TimedOut`) before the first
/// byte surface as [`FrameRead::Idle`]; once a frame has started, reads
/// retry through timeouts so a slow client can finish its frame. EOF at
/// a frame boundary is [`FrameRead::Eof`]; EOF mid-frame is an error.
pub fn read_frame(r: &mut impl Read) -> io::Result<FrameRead> {
    let mut len_buf = [0u8; 4];
    let mut got = 0;
    while got < 4 {
        match r.read(&mut len_buf[got..]) {
            Ok(0) if got == 0 => return Ok(FrameRead::Eof),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame length",
                ))
            }
            Ok(k) => got += k,
            Err(e) if is_timeout(&e) && got == 0 => return Ok(FrameRead::Idle),
            Err(e) if is_timeout(&e) => continue,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len_buf) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    let mut body = vec![0u8; len];
    let mut got = 0;
    while got < len {
        match r.read(&mut body[got..]) {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "eof inside frame body",
                ))
            }
            Ok(k) => got += k,
            Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(FrameRead::Frame(body))
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Stable error codes carried in the `"error"` field of a failure
/// response.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorCode {
    /// The frame was not a well-formed request.
    BadRequest,
    /// The request queue was at its high-water mark.
    Overloaded,
    /// The request's deadline expired before a worker picked it up.
    DeadlineExceeded,
    /// The embedder rejected the scenario (out of budget, …).
    EmbedFailed,
    /// The server's `--verify` audit rejected a produced ring before it
    /// could be served (an internal bug was caught, not client error).
    VerifyFailed,
    /// The server is draining and no longer accepts work.
    ShuttingDown,
    /// The encoded response body exceeds [`MAX_FRAME`] — the work
    /// succeeded but the answer cannot travel as one v1 frame (ask for
    /// `"proto":2` streaming, or drop `return_ring`).
    ResponseTooLarge,
}

impl ErrorCode {
    /// The wire string for this code.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad_request",
            ErrorCode::Overloaded => "overloaded",
            ErrorCode::DeadlineExceeded => "deadline_exceeded",
            ErrorCode::EmbedFailed => "embed_failed",
            ErrorCode::VerifyFailed => "verify_failed",
            ErrorCode::ShuttingDown => "shutting_down",
            ErrorCode::ResponseTooLarge => "response_too_large",
        }
    }
}

/// A parsed work request body.
#[derive(Debug, Clone)]
pub enum RequestBody {
    /// Liveness probe (answered inline, never queued).
    Health,
    /// Metrics snapshot (answered inline, never queued).
    Stats,
    /// One embed: longest healthy ring for a fault scenario.
    Embed {
        /// Star-graph dimension.
        n: usize,
        /// The fault scenario.
        faults: FaultSet,
        /// Include the full ring in the response (`ring_len` is always
        /// present; the vertex list is opt-in to keep frames small).
        return_ring: bool,
        /// Attach a STARRING-CERT v1 certificate to the response (also
        /// implied for every embed when the server runs with `--verify`).
        return_certificate: bool,
    },
    /// Many independent scenarios over the same `S_n`, dispatched through
    /// `core::embed_many`.
    EmbedBatch {
        /// Star-graph dimension.
        n: usize,
        /// Per-item scenario parse results: a scenario that fails to
        /// parse becomes a per-item error without poisoning siblings.
        scenarios: Vec<Result<FaultSet, String>>,
        /// Include full rings in the per-item responses.
        return_ring: bool,
    },
    /// Ring validity check against a fault set.
    Verify {
        /// Star-graph dimension.
        n: usize,
        /// The candidate ring.
        ring: Vec<Perm>,
        /// Faults it must avoid.
        faults: FaultSet,
    },
}

/// A parsed request: common envelope fields plus the body.
#[derive(Debug, Clone)]
pub struct Request {
    /// Opaque client correlation id, echoed into the response.
    pub id: Option<String>,
    /// Client-generated end-to-end trace id (nonzero; `None` when the
    /// client did not ask to be traced).
    pub trace_id: Option<u128>,
    /// Per-request deadline budget in milliseconds (from receipt).
    pub deadline_ms: Option<u64>,
    /// Requested protocol version: [`PROTO_V1`] (default) or
    /// [`PROTO_V2`]. Only embed responses honor v2; everything else is
    /// JSON regardless.
    pub proto: u8,
    /// v2 stream start position: the ring index of the first vertex to
    /// send (resume point after a broken stream). Ignored under v1.
    pub cursor: u64,
    /// Client's preferred vertices-per-chunk granularity (server clamps
    /// to `MIN_CHUNK_VERTICES..=MAX_CHUNK_VERTICES`).
    pub chunk_vertices: Option<u32>,
    /// Embedder knobs.
    pub options: EmbedOptions,
    /// The request body.
    pub body: RequestBody,
}

impl Request {
    /// Parses a frame body into a request.
    pub fn parse(bytes: &[u8]) -> Result<Request, String> {
        let text = std::str::from_utf8(bytes).map_err(|_| "frame is not UTF-8".to_string())?;
        let doc = Json::parse(text)?;
        let kind = doc
            .get("kind")
            .and_then(Json::as_str)
            .ok_or("missing `kind`")?;
        let id = doc.get("id").and_then(Json::as_str).map(str::to_string);
        let trace_id = match doc.get("trace_id") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let text = v.as_str().ok_or("trace_id must be a hex string")?;
                Some(star_obs::parse_trace(text)?)
            }
        };
        let deadline_ms = doc.get("deadline_ms").and_then(Json::as_u64);
        let proto = match doc.get("proto") {
            None | Some(Json::Null) => PROTO_V1,
            Some(v) => match v.as_u64() {
                Some(1) => PROTO_V1,
                Some(2) => PROTO_V2,
                _ => return Err("proto must be 1 or 2".to_string()),
            },
        };
        let cursor = match doc.get("cursor") {
            None | Some(Json::Null) => 0,
            Some(v) => v.as_u64().ok_or("cursor must be an integer")?,
        };
        let chunk_vertices = match doc.get("chunk_vertices") {
            None | Some(Json::Null) => None,
            Some(v) => {
                let k = v.as_u64().ok_or("chunk_vertices must be an integer")?;
                if !(MIN_CHUNK_VERTICES as u64..=MAX_CHUNK_VERTICES as u64).contains(&k) {
                    return Err(format!(
                        "chunk_vertices must be in {MIN_CHUNK_VERTICES}..={MAX_CHUNK_VERTICES}"
                    ));
                }
                Some(k as u32)
            }
        };
        let options = parse_options(doc.get("options"))?;
        let body = match kind {
            "health" => RequestBody::Health,
            "stats" => RequestBody::Stats,
            "embed" => {
                let n = parse_n(&doc)?;
                let faults = parse_faults(n, doc.get("faults"))?;
                RequestBody::Embed {
                    n,
                    faults,
                    return_ring: bool_field(&doc, "return_ring"),
                    return_certificate: bool_field(&doc, "return_certificate"),
                }
            }
            "embed_batch" => {
                let n = parse_n(&doc)?;
                let scenarios = doc
                    .get("scenarios")
                    .and_then(Json::as_arr)
                    .ok_or("embed_batch needs a `scenarios` array")?
                    .iter()
                    .map(|s| parse_faults(n, Some(s)))
                    .collect();
                RequestBody::EmbedBatch {
                    n,
                    scenarios,
                    return_ring: bool_field(&doc, "return_ring"),
                }
            }
            "verify" => {
                let n = parse_n(&doc)?;
                let ring = doc
                    .get("ring")
                    .and_then(Json::as_arr)
                    .ok_or("verify needs a `ring` array")?
                    .iter()
                    .map(|v| parse_perm(n, v))
                    .collect::<Result<Vec<Perm>, String>>()?;
                let faults = parse_faults(n, doc.get("faults"))?;
                RequestBody::Verify { n, ring, faults }
            }
            other => return Err(format!("unknown request kind `{other}`")),
        };
        Ok(Request {
            id,
            trace_id,
            deadline_ms,
            proto,
            cursor,
            chunk_vertices,
            options,
            body,
        })
    }

    /// The request kind as a metric-label string.
    pub fn kind(&self) -> &'static str {
        match self.body {
            RequestBody::Health => "health",
            RequestBody::Stats => "stats",
            RequestBody::Embed { .. } => "embed",
            RequestBody::EmbedBatch { .. } => "embed_batch",
            RequestBody::Verify { .. } => "verify",
        }
    }
}

fn bool_field(doc: &Json, key: &str) -> bool {
    matches!(doc.get(key), Some(Json::Bool(true)))
}

fn parse_n(doc: &Json) -> Result<usize, String> {
    let n = doc
        .get("n")
        .and_then(Json::as_u64)
        .ok_or("missing integer `n`")? as usize;
    if !(3..=star_perm::MAX_N).contains(&n) {
        return Err(format!("n must be in 3..={}", star_perm::MAX_N));
    }
    Ok(n)
}

fn parse_perm(n: usize, v: &Json) -> Result<Perm, String> {
    let text = v.as_str().ok_or("permutations must be strings")?;
    let p: Perm = text.parse().map_err(|e| format!("`{text}`: {e}"))?;
    if p.n() != n {
        return Err(format!("`{text}` has {} symbols, expected {n}", p.n()));
    }
    Ok(p)
}

/// Parses an optional fault array (`None`/`null` means no faults).
fn parse_faults(n: usize, v: Option<&Json>) -> Result<FaultSet, String> {
    let mut faults = FaultSet::empty(n);
    let items = match v {
        None | Some(Json::Null) => return Ok(faults),
        Some(v) => v.as_arr().ok_or("`faults` must be an array of strings")?,
    };
    for item in items {
        faults
            .add_vertex(parse_perm(n, item)?)
            .map_err(|e| e.to_string())?;
    }
    Ok(faults)
}

fn parse_options(v: Option<&Json>) -> Result<EmbedOptions, String> {
    let mut opts = EmbedOptions::default();
    let doc = match v {
        None | Some(Json::Null) => return Ok(opts),
        Some(v) => v,
    };
    if !matches!(doc, Json::Obj(_)) {
        return Err("`options` must be an object".to_string());
    }
    if let Some(b) = doc.get("verify") {
        match b {
            Json::Bool(b) => opts.verify = *b,
            _ => return Err("options.verify must be a boolean".to_string()),
        }
    }
    if let Some(s) = doc.get("salt") {
        opts.salt = s.as_u64().ok_or("options.salt must be an integer")? as usize;
    }
    if let Some(s) = doc.get("spare_index") {
        let idx = s.as_u64().ok_or("options.spare_index must be an integer")? as usize;
        if idx > 3 {
            return Err("options.spare_index must be in 0..=3".to_string());
        }
        opts.spare_index = idx;
    }
    Ok(opts)
}

/// Per-phase server-side wall-time breakdown attached to queued-work
/// responses (`"server_timing"`), microseconds per phase. Phases that
/// did not run for a request (e.g. `embed_us` on a deadline miss) stay
/// zero but are always present, so clients can subtract without
/// existence checks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerTiming {
    /// Receipt to worker dequeue (admission + queue wait).
    pub queue_us: u64,
    /// Embedding (or batch / ring-check) work.
    pub embed_us: u64,
    /// Server-side audit of the produced ring (0 unless `--verify` or
    /// `return_certificate` ran one).
    pub verify_us: u64,
    /// Response construction (ring serialization dominates).
    pub encode_us: u64,
}

impl ServerTiming {
    /// The wire object: `{"queue_us":…,"embed_us":…,"verify_us":…,
    /// "encode_us":…}`.
    pub fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("queue_us".to_string(), Json::from(self.queue_us)),
            ("embed_us".to_string(), Json::from(self.embed_us)),
            ("verify_us".to_string(), Json::from(self.verify_us)),
            ("encode_us".to_string(), Json::from(self.encode_us)),
        ])
    }

    /// Parses the wire object back (loadgen's per-trace log re-emits it).
    pub fn from_json(v: &Json) -> Option<ServerTiming> {
        Some(ServerTiming {
            queue_us: v.get("queue_us")?.as_u64()?,
            embed_us: v.get("embed_us")?.as_u64()?,
            verify_us: v.get("verify_us")?.as_u64()?,
            encode_us: v.get("encode_us")?.as_u64()?,
        })
    }
}

/// Appends the tracing members (`trace_id`, `server_timing`) a queued
/// response carries when the request asked to be traced. Centralized so
/// success and failure paths emit the identical shape.
pub fn attach_trace(members: &mut Vec<(String, Json)>, trace_id: u128, timing: &ServerTiming) {
    members.push((
        "trace_id".to_string(),
        Json::from(star_obs::format_trace(trace_id)),
    ));
    members.push(("server_timing".to_string(), timing.to_json()));
}

/// Builds a failure response.
pub fn error_response(id: Option<&str>, code: ErrorCode, message: &str) -> Json {
    let mut members = vec![
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::from(code.as_str())),
        ("message".to_string(), Json::from(message)),
    ];
    if let Some(id) = id {
        members.push(("id".to_string(), Json::from(id)));
    }
    Json::Obj(members)
}

/// [`error_response`] plus the tracing members, for failures on the
/// queued path (overload rejections, deadline misses, embed errors) of
/// a traced request — the client's per-trace log keeps its timing
/// breakdown even when the answer is an error.
pub fn error_response_traced(
    id: Option<&str>,
    code: ErrorCode,
    message: &str,
    trace_id: u128,
    timing: &ServerTiming,
) -> Json {
    let mut json = error_response(id, code, message);
    if let Json::Obj(members) = &mut json {
        attach_trace(members, trace_id, timing);
    }
    json
}

/// Builds a success response from kind-specific members (prepends
/// `ok`/`kind`, appends the echoed `id`).
pub fn ok_response(id: Option<&str>, kind: &str, members: Vec<(String, Json)>) -> Json {
    let mut out = vec![
        ("ok".to_string(), Json::Bool(true)),
        ("kind".to_string(), Json::from(kind)),
    ];
    out.extend(members);
    if let Some(id) = id {
        out.push(("id".to_string(), Json::from(id)));
    }
    Json::Obj(out)
}

/// Renders a ring as its wire form (array of permutation strings).
pub fn ring_to_json(vertices: &[Perm]) -> Json {
    Json::Arr(vertices.iter().map(|p| Json::from(p.to_string())).collect())
}

/// Renders a response document to its frame body, enforcing the
/// [`MAX_FRAME`] cap on the *response* side. `Err` carries the oversized
/// encoded length so the caller can substitute a deterministic
/// [`ErrorCode::ResponseTooLarge`] frame instead of tearing down (or
/// silently corrupting) the connection.
pub fn encode_response_body(doc: &Json) -> Result<Vec<u8>, usize> {
    let body = doc.to_string().into_bytes();
    if body.len() > MAX_FRAME {
        Err(body.len())
    } else {
        Ok(body)
    }
}

/// The deterministic substitute for an oversized response: same `id`,
/// same trace members, a stable error code and a message that names the
/// actual and permitted sizes (both are functions of the request, so
/// retries see byte-identical frames).
pub fn oversize_error_response(
    id: Option<&str>,
    encoded_len: usize,
    trace: Option<(u128, &ServerTiming)>,
) -> Json {
    let message = format!(
        "encoded response of {encoded_len} bytes exceeds the {MAX_FRAME}-byte frame cap; \
         request proto 2 streaming or drop return_ring"
    );
    match trace {
        Some((trace_id, timing)) => {
            error_response_traced(id, ErrorCode::ResponseTooLarge, &message, trace_id, timing)
        }
        None => error_response(id, ErrorCode::ResponseTooLarge, &message),
    }
}

// ---------------------------------------------------------------------
// Protocol v2: binary chunk frames carrying generator-delta segments.
// ---------------------------------------------------------------------

/// Wire protocol version 1: length-prefixed JSON frames only.
pub const PROTO_V1: u8 = 1;
/// Wire protocol version 2: JSON control frames plus binary
/// generator-delta chunk frames for embed responses.
pub const PROTO_V2: u8 = 2;

/// Leading bytes of every binary chunk frame. A JSON document can never
/// start with these (v1 frames always begin with `{`), so one peek at a
/// frame body classifies it.
pub const CHUNK_MAGIC: [u8; 4] = *b"SRB2";

/// Default vertices per streamed chunk (~32 KiB of nibble-packed steps).
pub const DEFAULT_CHUNK_VERTICES: u32 = 1 << 16;
/// Smallest chunk granularity a client may request.
pub const MIN_CHUNK_VERTICES: u32 = 2;
/// Largest chunk granularity a client may request (still far under
/// [`MAX_FRAME`] once nibble-packed).
pub const MAX_CHUNK_VERTICES: u32 = 1 << 21;

/// `true` iff a frame body is a binary v2 chunk rather than JSON.
pub fn is_binary_frame(body: &[u8]) -> bool {
    body.len() >= CHUNK_MAGIC.len() && body[..CHUNK_MAGIC.len()] == CHUNK_MAGIC
}

/// FNV-1a over raw bytes (the chunk-frame integrity checksum; the
/// STARRING-CERT checksum is the same function over rank words).
fn fnv64(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(0x100000001b3);
    }
    hash
}

/// One binary streamed-response chunk: a self-contained ring segment
/// plus enough envelope (sequence number, ring cursor, last-chunk flag,
/// checksum) for a client to verify incrementally and resume after a
/// dropped connection.
///
/// Wire layout (all integers big-endian), inside the ordinary
/// length-prefixed framing:
///
/// ```text
/// offset size
///      0    4  magic "SRB2"
///      4    1  version (2)
///      5    1  n
///      6    1  flags (bit 0: last chunk of the stream)
///      7    1  reserved (0)
///      8    4  seq — 0-based chunk index within this response
///     12    8  cursor — ring position of this chunk's first vertex
///     20    8  start_bits — nibble-packed first vertex
///     28    4  count — vertices in this chunk (>= 1)
///     32    …  dims — nibble-packed step stream, ceil((count-1)/2) bytes
///   last    8  checksum — FNV-1a over every preceding byte
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChunkFrame {
    /// Star-graph dimension.
    pub n: u8,
    /// `true` on the final chunk of the stream.
    pub last: bool,
    /// 0-based chunk index within the response.
    pub seq: u32,
    /// Ring position of this chunk's first vertex.
    pub cursor: u64,
    /// The segment itself (start vertex + steps).
    pub segment: RingDelta,
}

/// Fixed bytes before the dims stream in a chunk frame.
const CHUNK_HEADER: usize = 32;
/// Trailing checksum bytes.
const CHUNK_TRAILER: usize = 8;

impl ChunkFrame {
    /// Serializes to a frame body.
    pub fn encode(&self) -> Vec<u8> {
        let dims = self.segment.dims();
        let mut out = Vec::with_capacity(CHUNK_HEADER + dims.len() + CHUNK_TRAILER);
        out.extend_from_slice(&CHUNK_MAGIC);
        out.push(PROTO_V2);
        out.push(self.n);
        out.push(u8::from(self.last));
        out.push(0);
        out.extend_from_slice(&self.seq.to_be_bytes());
        out.extend_from_slice(&self.cursor.to_be_bytes());
        out.extend_from_slice(&self.segment.start().bits().to_be_bytes());
        out.extend_from_slice(&self.segment.len().to_be_bytes());
        out.extend_from_slice(dims);
        let checksum = fnv64(&out);
        out.extend_from_slice(&checksum.to_be_bytes());
        out
    }

    /// Parses and fully validates a frame body: magic, version,
    /// checksum, lengths, start permutation, every step dimension.
    pub fn parse(body: &[u8]) -> Result<ChunkFrame, String> {
        if !is_binary_frame(body) {
            return Err("not a binary chunk frame".to_string());
        }
        if body.len() < CHUNK_HEADER + CHUNK_TRAILER {
            return Err(format!("chunk frame of {} bytes is too short", body.len()));
        }
        let (payload, trailer) = body.split_at(body.len() - CHUNK_TRAILER);
        let declared = u64::from_be_bytes(trailer.try_into().expect("8 trailer bytes"));
        if fnv64(payload) != declared {
            return Err("chunk checksum mismatch".to_string());
        }
        if payload[4] != PROTO_V2 {
            return Err(format!("unknown chunk version {}", payload[4]));
        }
        let n = payload[5];
        let flags = payload[6];
        if flags & !1 != 0 || payload[7] != 0 {
            return Err("unknown chunk flags".to_string());
        }
        let be32 = |at: usize| u32::from_be_bytes(payload[at..at + 4].try_into().expect("4 bytes"));
        let be64 = |at: usize| u64::from_be_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
        let seq = be32(8);
        let cursor = be64(12);
        let start_bits = be64(20);
        let count = be32(28);
        let segment = RingDelta::from_parts(
            n as usize,
            count,
            start_bits,
            payload[CHUNK_HEADER..].to_vec(),
        )?;
        Ok(ChunkFrame {
            n,
            last: flags & 1 != 0,
            seq,
            cursor,
            segment,
        })
    }
}

/// Splits a ring delta into [`ChunkFrame`]s covering positions
/// `cursor..len`, `chunk_vertices` per chunk, walking the delta once
/// (O(1) extra state per chunk). Returns an empty stream error if the
/// cursor is at or past the end.
pub fn chunk_stream(
    delta: &RingDelta,
    cursor: u64,
    chunk_vertices: u32,
) -> Result<Vec<ChunkFrame>, String> {
    if cursor >= delta.len() as u64 {
        return Err(format!(
            "cursor {cursor} is past the ring length {}",
            delta.len()
        ));
    }
    let chunk_vertices = chunk_vertices.clamp(MIN_CHUNK_VERTICES, MAX_CHUNK_VERTICES);
    let mut walker = delta.walk();
    let mut at = walker.next().expect("delta holds >= 1 vertex");
    for _ in 0..cursor {
        at = walker.next().expect("cursor checked against len");
    }
    let mut chunks = Vec::new();
    let mut pos = cursor as u32;
    loop {
        let left = delta.len() - pos;
        let count = left.min(chunk_vertices);
        chunks.push(ChunkFrame {
            n: delta.n() as u8,
            last: count == left,
            seq: chunks.len() as u32,
            cursor: pos as u64,
            segment: delta.segment(pos, count, at),
        });
        if count == left {
            return Ok(chunks);
        }
        // Advance the walker to the next chunk's first vertex.
        for _ in 0..count {
            at = walker.next().expect("segment bounds checked");
        }
        pos += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, br#"{"kind":"health"}"#).unwrap();
        write_frame(&mut buf, b"{}").unwrap();
        let mut r = &buf[..];
        match read_frame(&mut r).unwrap() {
            FrameRead::Frame(b) => assert_eq!(b, br#"{"kind":"health"}"#),
            other => panic!("{other:?}"),
        }
        match read_frame(&mut r).unwrap() {
            FrameRead::Frame(b) => assert_eq!(b, b"{}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_frame(&mut r).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn oversized_and_truncated_frames_error() {
        let mut oversized = Vec::new();
        oversized.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        assert!(read_frame(&mut &oversized[..]).is_err());

        let mut truncated = Vec::new();
        write_frame(&mut truncated, b"{\"kind\":\"health\"}").unwrap();
        truncated.truncate(truncated.len() - 3);
        let mut r = &truncated[..];
        assert!(read_frame(&mut r).is_err());

        // EOF inside the length prefix.
        let partial = [0u8, 0];
        assert!(read_frame(&mut &partial[..]).is_err());
    }

    #[test]
    fn frame_at_exactly_the_cap_is_accepted() {
        // A body of exactly MAX_FRAME bytes must round-trip; the cap is
        // inclusive.
        let body = vec![b' '; MAX_FRAME];
        let mut buf = Vec::with_capacity(MAX_FRAME + 4);
        write_frame(&mut buf, &body).unwrap();
        match read_frame(&mut &buf[..]).unwrap() {
            FrameRead::Frame(b) => assert_eq!(b.len(), MAX_FRAME),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn frame_one_byte_over_the_cap_is_invalid_data() {
        // One byte past the cap must fail fast with InvalidData — before
        // any body allocation — and never hang waiting for 16 MiB.
        let prefix = (MAX_FRAME as u32 + 1).to_be_bytes();
        let err = read_frame(&mut &prefix[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn zero_length_frame_is_an_empty_body_and_a_stable_parse_error() {
        // length prefix 0, no body: a legal frame whose payload then fails
        // request parsing (it is not a JSON document) — bad_request, not
        // a panic or a stall.
        let mut buf = Vec::new();
        write_frame(&mut buf, b"").unwrap();
        let mut r = &buf[..];
        let body = match read_frame(&mut r).unwrap() {
            FrameRead::Frame(b) => b,
            other => panic!("{other:?}"),
        };
        assert!(body.is_empty());
        assert!(Request::parse(&body).is_err());
        assert!(matches!(read_frame(&mut r).unwrap(), FrameRead::Eof));
    }

    #[test]
    fn parses_embed_request() {
        let req = Request::parse(
            br#"{"kind":"embed","n":5,"faults":["21345"],"id":"r1",
                "deadline_ms":250,"options":{"verify":false,"salt":2}}"#,
        )
        .unwrap();
        assert_eq!(req.id.as_deref(), Some("r1"));
        assert_eq!(req.deadline_ms, Some(250));
        assert!(!req.options.verify);
        assert_eq!(req.options.salt, 2);
        match req.body {
            RequestBody::Embed {
                n,
                faults,
                return_ring,
                return_certificate,
            } => {
                assert_eq!(n, 5);
                assert_eq!(faults.vertex_fault_count(), 1);
                assert!(!return_ring);
                assert!(!return_certificate);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batch_scenario_parse_errors_are_per_item() {
        let req = Request::parse(
            br#"{"kind":"embed_batch","n":5,"scenarios":[[],["21345"],["999"],["21345","21345"]]}"#,
        )
        .unwrap();
        match req.body {
            RequestBody::EmbedBatch { scenarios, .. } => {
                assert_eq!(scenarios.len(), 4);
                assert!(scenarios[0].is_ok());
                assert!(scenarios[1].is_ok());
                assert!(scenarios[2].is_err(), "bad perm must fail alone");
                assert!(scenarios[3].is_err(), "duplicate fault must fail alone");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_rejected() {
        for bad in [
            &b"not json"[..],
            br#"{"n":5}"#,
            br#"{"kind":"teleport"}"#,
            br#"{"kind":"embed"}"#,
            br#"{"kind":"embed","n":99}"#,
            br#"{"kind":"embed","n":5,"faults":"21345"}"#,
            br#"{"kind":"embed","n":5,"options":{"spare_index":9}}"#,
            br#"{"kind":"verify","n":5}"#,
            b"\xff\xfe",
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn trace_ids_parse_and_reject() {
        let req = Request::parse(br#"{"kind":"embed","n":5,"trace_id":"00ab"}"#).unwrap();
        assert_eq!(req.trace_id, Some(0xab));
        let untraced = Request::parse(br#"{"kind":"embed","n":5}"#).unwrap();
        assert_eq!(untraced.trace_id, None);
        for bad in [
            &br#"{"kind":"embed","n":5,"trace_id":""}"#[..],
            br#"{"kind":"embed","n":5,"trace_id":"0"}"#,
            br#"{"kind":"embed","n":5,"trace_id":"zz"}"#,
            br#"{"kind":"embed","n":5,"trace_id":7}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn server_timing_round_trips_and_has_stable_shape() {
        let t = ServerTiming {
            queue_us: 1,
            embed_us: 2,
            verify_us: 0,
            encode_us: 4,
        };
        let json = t.to_json();
        assert_eq!(
            json.to_string(),
            r#"{"queue_us":1,"embed_us":2,"verify_us":0,"encode_us":4}"#
        );
        assert_eq!(ServerTiming::from_json(&json), Some(t));

        let mut members = vec![("ring_len".to_string(), Json::from(120u64))];
        attach_trace(&mut members, 0xbeef, &t);
        let ok = ok_response(Some("a"), "embed", members);
        assert_eq!(
            ok.to_string(),
            concat!(
                r#"{"ok":true,"kind":"embed","ring_len":120,"#,
                r#""trace_id":"0000000000000000000000000000beef","#,
                r#""server_timing":{"queue_us":1,"embed_us":2,"verify_us":0,"encode_us":4},"#,
                r#""id":"a"}"#
            )
        );

        let err = error_response_traced(Some("b"), ErrorCode::DeadlineExceeded, "late", 0xbeef, &t);
        let text = err.to_string();
        assert!(text.starts_with(r#"{"ok":false,"error":"deadline_exceeded""#));
        assert!(text.contains(r#""trace_id":"0000000000000000000000000000beef""#));
        assert!(text.contains(r#""server_timing":{"queue_us":1"#));
    }

    #[test]
    fn responses_have_stable_shape() {
        let ok = ok_response(
            Some("a"),
            "embed",
            vec![("ring_len".into(), Json::from(118u64))],
        );
        assert_eq!(
            ok.to_string(),
            r#"{"ok":true,"kind":"embed","ring_len":118,"id":"a"}"#
        );
        let err = error_response(None, ErrorCode::Overloaded, "queue full");
        assert_eq!(
            err.to_string(),
            r#"{"ok":false,"error":"overloaded","message":"queue full"}"#
        );
    }

    /// A response document whose encoded body has exactly `want` bytes:
    /// `{"ok":true,"pad":"…"}` with the padding sized to land on the
    /// target.
    fn response_of_encoded_len(want: usize) -> Json {
        let overhead = Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("pad".to_string(), Json::from("")),
        ])
        .to_string()
        .len();
        let doc = Json::Obj(vec![
            ("ok".to_string(), Json::Bool(true)),
            ("pad".to_string(), Json::from("x".repeat(want - overhead))),
        ]);
        assert_eq!(doc.to_string().len(), want);
        doc
    }

    #[test]
    fn response_body_at_exactly_the_cap_is_accepted() {
        let doc = response_of_encoded_len(MAX_FRAME);
        let body = encode_response_body(&doc).expect("cap is inclusive");
        assert_eq!(body.len(), MAX_FRAME);
    }

    #[test]
    fn response_body_one_byte_over_the_cap_is_rejected_deterministically() {
        let doc = response_of_encoded_len(MAX_FRAME + 1);
        let len = encode_response_body(&doc).expect_err("one byte over must reject");
        assert_eq!(len, MAX_FRAME + 1);
        // The substitute frame is deterministic: same inputs, identical
        // bytes, stable error code, id and trace members preserved.
        let timing = ServerTiming {
            queue_us: 7,
            ..ServerTiming::default()
        };
        let a = oversize_error_response(Some("r9"), len, Some((0xbeef, &timing)));
        let b = oversize_error_response(Some("r9"), len, Some((0xbeef, &timing)));
        assert_eq!(a.to_string(), b.to_string());
        let text = a.to_string();
        assert!(text.starts_with(r#"{"ok":false,"error":"response_too_large""#));
        assert!(text.contains(&format!("{} bytes", MAX_FRAME + 1)));
        assert!(text.contains(r#""id":"r9""#));
        assert!(text.contains(r#""trace_id":"0000000000000000000000000000beef""#));
        // And it itself fits a frame.
        assert!(encode_response_body(&a).is_ok());
    }

    /// A writer that accepts at most 3 bytes per call and fails every
    /// other call with `EINTR` — the chaos double of a signal-ridden
    /// socket.
    struct ChaosWriter {
        out: Vec<u8>,
        calls: usize,
        flush_interrupts: usize,
    }

    impl Write for ChaosWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.calls += 1;
            if self.calls % 2 == 1 {
                return Err(io::Error::new(io::ErrorKind::Interrupted, "chaos EINTR"));
            }
            let k = buf.len().min(3);
            self.out.extend_from_slice(&buf[..k]);
            Ok(k)
        }

        fn flush(&mut self) -> io::Result<()> {
            if self.flush_interrupts > 0 {
                self.flush_interrupts -= 1;
                return Err(io::Error::new(io::ErrorKind::Interrupted, "chaos EINTR"));
            }
            Ok(())
        }
    }

    #[test]
    fn write_frame_survives_short_writes_and_eintr() {
        let body = br#"{"kind":"embed","n":7,"faults":[]}"#;
        let mut chaos = ChaosWriter {
            out: Vec::new(),
            calls: 0,
            flush_interrupts: 2,
        };
        write_frame(&mut chaos, body).expect("short writes and EINTR must be absorbed");
        match read_frame(&mut &chaos.out[..]).unwrap() {
            FrameRead::Frame(b) => assert_eq!(b, body),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn read_frame_survives_interrupted_reads() {
        /// A reader yielding one byte per call, interrupting every other
        /// call.
        struct ChaosReader {
            data: Vec<u8>,
            at: usize,
            calls: usize,
        }
        impl Read for ChaosReader {
            fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
                self.calls += 1;
                if self.calls % 2 == 1 {
                    return Err(io::Error::new(io::ErrorKind::Interrupted, "chaos EINTR"));
                }
                if self.at == self.data.len() {
                    return Ok(0);
                }
                buf[0] = self.data[self.at];
                self.at += 1;
                Ok(1)
            }
        }
        let mut framed = Vec::new();
        write_frame(&mut framed, b"{}").unwrap();
        let mut chaos = ChaosReader {
            data: framed,
            at: 0,
            calls: 0,
        };
        match read_frame(&mut chaos).unwrap() {
            FrameRead::Frame(b) => assert_eq!(b, b"{}"),
            other => panic!("{other:?}"),
        }
        assert!(matches!(read_frame(&mut chaos).unwrap(), FrameRead::Eof));
    }

    /// A small S_4 ring (the 6-cycle through identity via dims 1,2).
    fn small_ring(len: usize) -> Vec<Perm> {
        let mut v = Perm::identity(4);
        let mut out = vec![v];
        for i in 0..len - 1 {
            v = v.star_move(1 + i % 2);
            out.push(v);
        }
        out
    }

    #[test]
    fn chunk_frames_round_trip_and_reject_tampering() {
        let ring = small_ring(10);
        let delta = RingDelta::encode(&ring).unwrap();
        let chunks = chunk_stream(&delta, 0, 4).unwrap();
        assert_eq!(chunks.len(), 3); // 4 + 4 + 2 vertices
        assert!(chunks[2].last && !chunks[0].last && !chunks[1].last);
        assert_eq!(chunks[1].cursor, 4);
        // Chunks tile the ring exactly.
        let mut rebuilt: Vec<Perm> = Vec::new();
        for c in &chunks {
            let body = c.encode();
            assert!(is_binary_frame(&body));
            let parsed = ChunkFrame::parse(&body).unwrap();
            assert_eq!(&parsed, c);
            rebuilt.extend(parsed.segment.decode());
        }
        assert_eq!(rebuilt, ring);
        // Any flipped byte is caught by the checksum.
        let mut bad = chunks[0].encode();
        let mid = bad.len() / 2;
        bad[mid] ^= 0x10;
        assert!(ChunkFrame::parse(&bad).is_err());
        // Truncation and a JSON body are rejected, not misparsed.
        assert!(ChunkFrame::parse(&chunks[0].encode()[..20]).is_err());
        assert!(ChunkFrame::parse(b"{\"ok\":true}").is_err());
        assert!(!is_binary_frame(b"{\"ok\":true}"));
    }

    #[test]
    fn chunk_stream_resumes_from_a_cursor() {
        let ring = small_ring(10);
        let delta = RingDelta::encode(&ring).unwrap();
        let chunks = chunk_stream(&delta, 7, 4).unwrap();
        assert_eq!(chunks.len(), 1);
        assert_eq!(chunks[0].cursor, 7);
        assert!(chunks[0].last);
        assert_eq!(chunks[0].segment.decode(), &ring[7..]);
        assert!(chunk_stream(&delta, 10, 4).is_err());
    }

    #[test]
    fn proto_negotiation_parses_and_rejects() {
        let req = Request::parse(
            br#"{"kind":"embed","n":6,"proto":2,"cursor":12,"chunk_vertices":4096}"#,
        )
        .unwrap();
        assert_eq!(req.proto, PROTO_V2);
        assert_eq!(req.cursor, 12);
        assert_eq!(req.chunk_vertices, Some(4096));
        let v1 = Request::parse(br#"{"kind":"embed","n":6}"#).unwrap();
        assert_eq!(v1.proto, PROTO_V1);
        assert_eq!(v1.cursor, 0);
        assert_eq!(v1.chunk_vertices, None);
        for bad in [
            &br#"{"kind":"embed","n":6,"proto":3}"#[..],
            br#"{"kind":"embed","n":6,"proto":"2"}"#,
            br#"{"kind":"embed","n":6,"cursor":"x"}"#,
            br#"{"kind":"embed","n":6,"chunk_vertices":1}"#,
            br#"{"kind":"embed","n":6,"chunk_vertices":999999999}"#,
        ] {
            assert!(Request::parse(bad).is_err(), "{bad:?} accepted");
        }
    }
}
