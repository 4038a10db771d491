//! The load generator: one connection, a sender thread that keeps the
//! arrival schedule, and a receiver (the calling thread) that verifies
//! every streamed ring as its chunks arrive.
//!
//! Latency is charged from each request's *scheduled* send, so a stall
//! that delays later sends is counted against them (open loop, no
//! coordinated omission). With one server worker, responses come back in
//! arrival order; each v2 stream is a JSON header carrying the request
//! `id` followed by its chunk frames, which is how chunks (which carry
//! no id) are matched to requests.

use std::io::ErrorKind;
use std::net::TcpStream;
use std::time::{Duration, Instant};

use star_bench::jsonv::Json;
use star_fault::FaultSet;
use star_perm::Perm;
use star_serve::client::{embed_request, with_proto_v2, with_return_ring, with_trace_id};
use star_serve::proto::{
    is_binary_frame, read_frame, write_frame, ChunkFrame, FrameRead, ServerTiming,
};
use star_serve::StreamVerifier;

use crate::workload::{N, RING_LEN};

/// How long the receiver waits for stragglers after the last scheduled
/// send before counting them unanswered.
const DRAIN: Duration = Duration::from_secs(30);

/// What happened to one request.
#[derive(Clone, Debug)]
pub struct Outcome {
    /// When it was due to be sent.
    pub scheduled: Instant,
    /// When the sender actually wrote it.
    pub sent: Option<Instant>,
    /// When its JSON header arrived.
    pub header: Option<Instant>,
    /// When its first chunk frame arrived.
    pub first_chunk: Option<Instant>,
    /// When `StreamVerifier::finish` accepted the ring.
    pub done: Option<Instant>,
    /// Why it failed, if it did.
    pub error: Option<String>,
    /// The server's per-phase echo (traced requests only).
    pub timing: Option<ServerTiming>,
    /// STARRING-CERT checksum of the accepted ring.
    pub checksum: Option<u64>,
    /// Time spent reading this request's chunk frames off the socket.
    pub read: Duration,
    /// Time spent in `ChunkFrame::parse`, `feed` and `finish`.
    pub verify: Duration,
}

impl Outcome {
    fn new(scheduled: Instant) -> Outcome {
        Outcome {
            scheduled,
            sent: None,
            header: None,
            first_chunk: None,
            done: None,
            error: None,
            timing: None,
            checksum: None,
            read: Duration::ZERO,
            verify: Duration::ZERO,
        }
    }

    /// `true` iff a verified ring arrived.
    pub fn ok(&self) -> bool {
        self.done.is_some() && self.error.is_none()
    }

    /// Scheduled send to accepted ring.
    pub fn latency(&self) -> Option<Duration> {
        self.ok().then(|| self.done.expect("ok") - self.scheduled)
    }

    /// Scheduled send to first chunk frame.
    pub fn ttfc(&self) -> Option<Duration> {
        self.ok()
            .then(|| self.first_chunk.expect("ok") - self.scheduled)
    }

    /// How late the sender wrote it.
    pub fn late(&self) -> Option<Duration> {
        self.sent
            .map(|s| s.saturating_duration_since(self.scheduled))
    }

    fn fail(&mut self, why: String) {
        if self.error.is_none() {
            self.error = Some(why);
        }
    }
}

/// The request body for one fault set: a v2 embed that returns the ring.
fn request_body(id: usize, faults: &[Perm], trace_id: Option<u128>) -> Vec<u8> {
    let strings: Vec<String> = faults.iter().map(Perm::to_string).collect();
    let request = with_proto_v2(
        with_return_ring(embed_request(&format!("r{id}"), N, &strings, None)),
        0,
        None,
    );
    match trace_id {
        Some(t) => with_trace_id(request, t),
        None => request,
    }
    .to_string()
    .into_bytes()
}

/// A run-unique nonzero trace id for request `i`.
fn trace_id(seed: u64, i: usize) -> u128 {
    (1u128 << 127) | ((seed as u128) << 32) | i as u128
}

/// The stream being received: which request, and its verifier. `None`
/// verifier means the stream already failed and its chunks are skipped.
struct Current {
    index: usize,
    verifier: Option<StreamVerifier>,
}

/// Sends `requests` at `schedule` offsets over one connection to `addr`
/// and verifies every answer. `trace_seed` adds a `trace_id` to every
/// request (the server then echoes `server_timing`).
pub fn drive(
    addr: &str,
    requests: &[Vec<Perm>],
    schedule: &[Duration],
    trace_seed: Option<u64>,
) -> Result<Vec<Outcome>, String> {
    assert_eq!(requests.len(), schedule.len());
    let bodies: Vec<Vec<u8>> = requests
        .iter()
        .enumerate()
        .map(|(i, f)| request_body(i, f, trace_seed.map(|s| trace_id(s, i))))
        .collect();
    let fault_sets: Vec<FaultSet> = requests
        .iter()
        .map(|f| FaultSet::from_vertices(N, f.iter().cloned()).map_err(|e| e.to_string()))
        .collect::<Result<_, _>>()?;

    let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut reader = stream.try_clone().map_err(|e| e.to_string())?;
    reader
        .set_read_timeout(Some(Duration::from_millis(50)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream;

    let start = Instant::now() + Duration::from_millis(5);
    let due: Vec<Instant> = schedule.iter().map(|d| start + *d).collect();
    let mut outcomes: Vec<Outcome> = due.iter().map(|t| Outcome::new(*t)).collect();

    std::thread::scope(|scope| {
        let sender = scope.spawn(|| -> Result<Vec<Instant>, String> {
            let mut sent = Vec::with_capacity(bodies.len());
            for (body, at) in bodies.iter().zip(&due) {
                let now = Instant::now();
                if *at > now {
                    std::thread::sleep(*at - now);
                }
                write_frame(&mut writer, body).map_err(|e| format!("send: {e}"))?;
                sent.push(Instant::now());
            }
            Ok(sent)
        });
        let received = receive(
            &mut reader,
            &fault_sets,
            &mut outcomes,
            *due.last().expect("nonempty"),
        );
        let sent = sender.join().expect("sender thread panicked")?;
        for (o, s) in outcomes.iter_mut().zip(sent) {
            o.sent = Some(s);
        }
        received
    })?;
    for o in &mut outcomes {
        if o.done.is_none() {
            o.fail("unanswered at drain".to_string());
        }
    }
    Ok(outcomes)
}

/// The receiver loop: reads frames until every request is settled or the
/// drain deadline after `last_due` passes.
fn receive(
    reader: &mut TcpStream,
    fault_sets: &[FaultSet],
    outcomes: &mut [Outcome],
    last_due: Instant,
) -> Result<(), String> {
    let mut settled = 0;
    let mut current: Option<Current> = None;
    while settled < outcomes.len() && Instant::now() < last_due + DRAIN {
        let read_start = Instant::now();
        let body = match read_frame(reader) {
            Ok(FrameRead::Frame(body)) => body,
            Ok(FrameRead::Idle) => continue,
            Ok(FrameRead::Eof) => return Err("server closed the connection".to_string()),
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                continue
            }
            Err(e) => return Err(format!("recv: {e}")),
        };
        let arrived = Instant::now();
        if !is_binary_frame(&body) {
            if let Some(Current {
                index,
                verifier: Some(_),
            }) = current.take()
            {
                outcomes[index].fail("stream cut short by another response".to_string());
                settled += 1;
            }
            let doc = Json::parse(&String::from_utf8_lossy(&body))
                .map_err(|e| format!("response is not JSON: {e}"))?;
            let index = doc
                .get("id")
                .and_then(Json::as_str)
                .and_then(|id| id.strip_prefix('r'))
                .and_then(|i| i.parse::<usize>().ok())
                .filter(|i| *i < outcomes.len())
                .ok_or_else(|| format!("response with unknown id: {doc}"))?;
            let outcome = &mut outcomes[index];
            outcome.header = Some(arrived);
            outcome.timing = doc.get("server_timing").and_then(ServerTiming::from_json);
            match start_stream(&doc, &fault_sets[index]) {
                Ok(verifier) => {
                    current = Some(Current {
                        index,
                        verifier: Some(verifier),
                    })
                }
                Err(why) => {
                    outcome.fail(why);
                    settled += 1;
                }
            }
            continue;
        }
        let Some(cur) = current.as_mut() else {
            return Err("chunk frame outside any stream".to_string());
        };
        let outcome = &mut outcomes[cur.index];
        outcome.first_chunk.get_or_insert(arrived);
        outcome.read += arrived - read_start;
        let Some(verifier) = cur.verifier.as_mut() else {
            // A failed stream: skip its chunks until the next header.
            continue;
        };
        let verify_start = Instant::now();
        let fed = ChunkFrame::parse(&body).and_then(|chunk| {
            verifier.feed(&chunk)?;
            Ok(chunk.last)
        });
        let finished = match fed {
            Ok(true) => {
                let summary = cur.verifier.take().expect("present").finish();
                Some(summary.and_then(|s| {
                    if s.ring_len == RING_LEN && s.at_guarantee {
                        Ok(s.checksum)
                    } else {
                        Err(format!("ring of {} vertices, want {RING_LEN}", s.ring_len))
                    }
                }))
            }
            Ok(false) => None,
            Err(why) => Some(Err(why)),
        };
        outcome.verify += verify_start.elapsed();
        match finished {
            None => {}
            Some(Ok(checksum)) => {
                outcome.checksum = Some(checksum);
                outcome.done = Some(Instant::now());
                current = None;
                settled += 1;
            }
            Some(Err(why)) => {
                outcome.fail(why);
                cur.verifier = None;
                settled += 1;
            }
        }
    }
    Ok(())
}

/// Checks a response header and arms a verifier for its stream.
fn start_stream(doc: &Json, faults: &FaultSet) -> Result<StreamVerifier, String> {
    if doc.get("ok") != Some(&Json::Bool(true)) {
        return Err(format!(
            "error response: {}",
            doc.get("error").and_then(Json::as_str).unwrap_or("?")
        ));
    }
    if doc.get("encoding").and_then(Json::as_str) != Some("delta-v2") {
        return Err("response is not a v2 ring stream".to_string());
    }
    let ring_len = doc.get("ring_len").and_then(Json::as_u64).unwrap_or(0);
    if ring_len != RING_LEN {
        return Err(format!(
            "header declares {ring_len} vertices, want {RING_LEN}"
        ));
    }
    let mut verifier = StreamVerifier::new(N, ring_len, faults)?;
    if let Some(hex) = doc.get("cert_checksum").and_then(Json::as_str) {
        verifier.expect_checksum(hex)?;
    }
    Ok(verifier)
}
