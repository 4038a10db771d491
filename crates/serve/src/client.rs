//! Minimal blocking client for the star-serve protocol.
//!
//! One [`Client`] wraps one TCP connection and issues requests
//! synchronously: write a frame, read a frame. The load generator keeps
//! a `Client` per connection thread; integration tests use it to drive
//! a server under test.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::Duration;

use star_obs::json::Json;

use crate::proto::{is_binary_frame, read_frame, write_frame, ChunkFrame, FrameRead};

/// A blocking connection to a star-serve instance.
pub struct Client {
    stream: TcpStream,
}

/// One received frame, already classified: protocol v1 responses are
/// JSON documents; negotiated-v2 embed responses follow their JSON
/// header with binary chunks.
pub enum Received {
    /// A JSON frame (every v1 frame; v2 headers and errors).
    Doc(Json),
    /// A parsed binary ring chunk.
    Chunk(ChunkFrame),
}

impl Client {
    /// Connects with a connect/read/write timeout.
    pub fn connect(addr: &str, timeout: Duration) -> Result<Client, String> {
        let sock_addr = addr
            .parse()
            .map_err(|e| format!("bad address {addr}: {e}"))?;
        let stream = TcpStream::connect_timeout(&sock_addr, timeout)
            .map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        stream
            .set_write_timeout(Some(timeout))
            .map_err(|e| e.to_string())?;
        Ok(Client { stream })
    }

    /// A second handle on the same connection (shared socket, independent
    /// buffers) — the open-loop load generator sends from one thread and
    /// receives on another.
    pub fn try_clone(&self) -> Result<Client, String> {
        self.stream
            .try_clone()
            .map(|stream| Client { stream })
            .map_err(|e| format!("clone connection: {e}"))
    }

    /// Adjusts how long one socket read blocks before reporting idle —
    /// bounds the latency of shutdown/drain checks in receive loops.
    pub fn set_read_timeout(&mut self, timeout: Duration) -> Result<(), String> {
        self.stream
            .set_read_timeout(Some(timeout))
            .map_err(|e| e.to_string())
    }

    /// Sends a request without waiting for the response (for pipelining).
    pub fn send(&mut self, request: &Json) -> Result<(), String> {
        let body = request.to_string();
        write_frame(&mut self.stream, body.as_bytes()).map_err(|e| format!("send: {e}"))
    }

    /// Reads the next response frame, retrying through read timeouts for
    /// up to `patience`.
    pub fn recv(&mut self, patience: Duration) -> Result<Json, String> {
        let start = std::time::Instant::now();
        loop {
            match read_frame(&mut self.stream) {
                Ok(FrameRead::Frame(bytes)) => {
                    let text = std::str::from_utf8(&bytes)
                        .map_err(|e| format!("response not UTF-8: {e}"))?;
                    return Json::parse(text).map_err(|e| format!("response not JSON: {e}"));
                }
                Ok(FrameRead::Idle) => {
                    if start.elapsed() > patience {
                        return Err("timed out waiting for response".to_string());
                    }
                }
                Ok(FrameRead::Eof) => return Err("server closed the connection".to_string()),
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// Reads the next frame of either kind: a JSON document or a binary
    /// v2 chunk.
    pub fn recv_any(&mut self, patience: Duration) -> Result<Received, String> {
        let start = std::time::Instant::now();
        loop {
            match read_frame(&mut self.stream) {
                Ok(FrameRead::Frame(bytes)) => {
                    if is_binary_frame(&bytes) {
                        return ChunkFrame::parse(&bytes).map(Received::Chunk);
                    }
                    let text = std::str::from_utf8(&bytes)
                        .map_err(|e| format!("response not UTF-8: {e}"))?;
                    return Json::parse(text)
                        .map(Received::Doc)
                        .map_err(|e| format!("response not JSON: {e}"));
                }
                Ok(FrameRead::Idle) => {
                    if start.elapsed() > patience {
                        return Err("timed out waiting for response".to_string());
                    }
                }
                Ok(FrameRead::Eof) => return Err("server closed the connection".to_string()),
                Err(e) => return Err(format!("recv: {e}")),
            }
        }
    }

    /// One synchronous round trip.
    pub fn call(&mut self, request: &Json) -> Result<Json, String> {
        self.send(request)?;
        self.recv(Duration::from_secs(30))
    }

    /// Sends raw bytes as a frame — for tests that need to violate the
    /// protocol on purpose.
    pub fn send_raw(&mut self, body: &[u8]) -> Result<(), String> {
        write_frame(&mut self.stream, body).map_err(|e| e.to_string())
    }

    /// Writes raw bytes directly to the socket, bypassing framing.
    pub fn send_unframed(&mut self, bytes: &[u8]) -> Result<(), String> {
        self.stream.write_all(bytes).map_err(|e| e.to_string())
    }

    /// Reads until EOF (used after the server hangs up on us).
    pub fn drain(&mut self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.stream.read_to_end(&mut buf).ok();
        buf
    }
}

/// Builds an `embed` request body.
pub fn embed_request(id: &str, n: usize, faults: &[String], deadline_ms: Option<u64>) -> Json {
    let mut members = vec![
        ("kind".to_string(), Json::from("embed")),
        ("id".to_string(), Json::from(id)),
        ("n".to_string(), Json::from(n)),
        (
            "faults".to_string(),
            Json::Arr(faults.iter().map(|f| Json::from(f.as_str())).collect()),
        ),
    ];
    if let Some(ms) = deadline_ms {
        members.push(("deadline_ms".to_string(), Json::from(ms)));
    }
    Json::Obj(members)
}

/// Builds an `embed` request that also asks the server to attach a
/// STARRING-CERT v1 certificate (`"return_certificate":true`).
pub fn certified_embed_request(
    id: &str,
    n: usize,
    faults: &[String],
    deadline_ms: Option<u64>,
) -> Json {
    let mut request = embed_request(id, n, faults, deadline_ms);
    if let Json::Obj(members) = &mut request {
        members.push(("return_certificate".to_string(), Json::Bool(true)));
    }
    request
}

/// Attaches a client-generated trace id (`"trace_id"`, hex) to any
/// request body built by the helpers above.
pub fn with_trace_id(mut request: Json, trace_id: u128) -> Json {
    if let Json::Obj(members) = &mut request {
        members.push((
            "trace_id".to_string(),
            Json::from(star_obs::format_trace(trace_id)),
        ));
    }
    request
}

/// Asks for the full ring in the response (streamed under v2).
pub fn with_return_ring(mut request: Json) -> Json {
    if let Json::Obj(members) = &mut request {
        members.push(("return_ring".to_string(), Json::Bool(true)));
    }
    request
}

/// Marks a request as negotiating wire protocol v2, optionally resuming
/// from `cursor` with a preferred vertices-per-chunk granularity.
pub fn with_proto_v2(mut request: Json, cursor: u64, chunk_vertices: Option<u32>) -> Json {
    if let Json::Obj(members) = &mut request {
        members.push(("proto".to_string(), Json::from(2u64)));
        if cursor > 0 {
            members.push(("cursor".to_string(), Json::from(cursor)));
        }
        if let Some(k) = chunk_vertices {
            members.push(("chunk_vertices".to_string(), Json::from(k as u64)));
        }
    }
    request
}

/// Builds a bare request of the given kind (`health`, `stats`).
pub fn plain_request(id: &str, kind: &str) -> Json {
    Json::Obj(vec![
        ("kind".to_string(), Json::from(kind)),
        ("id".to_string(), Json::from(id)),
    ])
}
