//! Deterministic wire-protocol fuzzer for star-serve.
//!
//! Drives a live server with hostile input — malformed frames, truncated
//! JSON, nesting past the parser's depth limit, cap-boundary and
//! oversized length prefixes, mid-frame disconnects — and checks one **crash-free invariant**: whatever the
//! bytes, the server either answers a well-formed error response or
//! hangs up the offending connection, and a fresh connection's `health`
//! probe still succeeds afterwards. No panic, no hang, no protocol
//! corruption.
//!
//! The fuzzer is seeded and fully deterministic, so a failing seed is a
//! reproducible bug report. It runs in-process in the audit integration
//! tests and under the `star-rings audit` CI job.

use std::time::Duration;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use star_obs::json::Json;

use crate::client::{plain_request, Client};
use crate::proto::MAX_FRAME;

/// Fuzzer configuration.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Server address.
    pub addr: String,
    /// Hostile frames to send.
    pub iterations: usize,
    /// RNG seed (same seed, same byte stream).
    pub seed: u64,
}

/// What the fuzz run observed.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Hostile inputs delivered.
    pub sent: u64,
    /// Well-formed error responses received.
    pub error_responses: u64,
    /// Connections the server closed on us (legal for framing
    /// violations — the stream is out of sync).
    pub hangups: u64,
    /// Crash-free invariant violations (a correct server keeps this
    /// empty).
    pub failures: Vec<String>,
}

const PATIENCE: Duration = Duration::from_secs(10);

/// One hostile input shape.
#[derive(Debug, Clone, Copy)]
enum Case {
    /// Random bytes in a well-formed frame.
    GarbageFrame,
    /// Valid JSON, nonsense request (unknown kind, wrong field types).
    NonsenseJson,
    /// A valid embed request truncated mid-document.
    TruncatedJson,
    /// A frame with a zero-length body.
    EmptyFrame,
    /// A length prefix past [`MAX_FRAME`] (never followed by a body).
    OversizedPrefix,
    /// A legal length prefix whose body never fully arrives: the client
    /// disconnects mid-frame. The server must drop the connection, not
    /// hang a handler thread.
    TruncatedBody,
    /// A frame of `[` nested far past
    /// [`MAX_DEPTH`](star_obs::json::MAX_DEPTH): a parse error, not
    /// a stack overflow that takes the server down.
    DeepNesting,
}

/// Bytes in a [`Case::DeepNesting`] frame.
const DEEP_NESTING_BYTES: usize = 100_000;

const CASES: [Case; 7] = [
    Case::GarbageFrame,
    Case::NonsenseJson,
    Case::TruncatedJson,
    Case::EmptyFrame,
    Case::OversizedPrefix,
    Case::TruncatedBody,
    Case::DeepNesting,
];

fn random_bytes(rng: &mut StdRng, len: usize) -> Vec<u8> {
    (0..len)
        .map(|_| rng.random_range(0..=255u64) as u8)
        .collect()
}

/// Checks a response is a well-formed protocol error (ok:false + a
/// non-empty error code).
fn well_formed_error(response: &Json) -> bool {
    matches!(response.get("ok"), Some(Json::Bool(false)))
        && response
            .get("error")
            .and_then(Json::as_str)
            .is_some_and(|code| !code.is_empty())
}

/// Runs the fuzzer against a live server.
pub fn run(config: &FuzzConfig) -> Result<FuzzReport, String> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut report = FuzzReport::default();
    let mut client: Option<Client> = None;
    for i in 0..config.iterations {
        let case = CASES[rng.random_range(0..CASES.len() as u64) as usize];
        let conn = match &mut client {
            Some(c) => c,
            None => {
                let fresh = Client::connect(&config.addr, Duration::from_secs(5))
                    .map_err(|e| format!("fuzz iteration {i}: cannot connect: {e}"))?;
                client.insert(fresh)
            }
        };
        report.sent += 1;
        // `sent` below may legitimately fail if the server already hung
        // up on a previous violation the client had not noticed yet;
        // the reconnect on the next iteration covers it.
        let (sent, expect_hangup) = match case {
            Case::GarbageFrame => {
                let len = rng.random_range(1..=64u64) as usize;
                (conn.send_raw(&random_bytes(&mut rng, len)).is_ok(), false)
            }
            Case::NonsenseJson => {
                let doc = match rng.random_range(0..4u64) {
                    0 => r#"{"kind":"teleport"}"#.to_string(),
                    1 => r#"{"kind":"embed","n":"six"}"#.to_string(),
                    2 => r#"{"kind":"embed","n":99}"#.to_string(),
                    _ => format!(
                        r#"{{"kind":"embed","n":5,"faults":{}}}"#,
                        rng.random_range(0..9u64)
                    ),
                };
                (conn.send_raw(doc.as_bytes()).is_ok(), false)
            }
            Case::TruncatedJson => {
                let full = r#"{"kind":"embed","n":6,"faults":["213456"],"id":"fuzz"}"#;
                let cut = rng.random_range(1..full.len() as u64 - 1) as usize;
                (conn.send_raw(&full.as_bytes()[..cut]).is_ok(), false)
            }
            Case::EmptyFrame => (conn.send_raw(b"").is_ok(), false),
            Case::OversizedPrefix => {
                let len = MAX_FRAME as u32 + 1 + rng.random_range(0..1024u64) as u32;
                (conn.send_unframed(&len.to_be_bytes()).is_ok(), true)
            }
            Case::TruncatedBody => {
                // Announce a (legal) large body, deliver a fragment, and
                // vanish. `read_frame` sees EOF mid-body and errors; the
                // handler must drop the connection.
                let announced = rng.random_range(1024..=MAX_FRAME as u64) as u32;
                let fragment_len = rng.random_range(0..512u64) as usize;
                let fragment = random_bytes(&mut rng, fragment_len);
                let ok = conn.send_unframed(&announced.to_be_bytes()).is_ok()
                    && conn.send_unframed(&fragment).is_ok();
                client = None; // drop mid-frame
                (ok, true)
            }
            Case::DeepNesting => {
                let doc = "[".repeat(DEEP_NESTING_BYTES);
                (conn.send_raw(doc.as_bytes()).is_ok(), false)
            }
        };
        if !sent {
            // Writes race server-side hangups from earlier violations;
            // start a fresh connection and keep fuzzing.
            client = None;
            continue;
        }
        if let Case::TruncatedBody = case {
            continue; // no response owed; the probe below checks health
        }
        if let Some(conn) = &mut client {
            match conn.recv(PATIENCE) {
                Ok(response) => {
                    if well_formed_error(&response) {
                        report.error_responses += 1;
                    } else {
                        report.failures.push(format!(
                            "iteration {i} ({case:?}): hostile input got a non-error \
                             response: {response}"
                        ));
                    }
                    if expect_hangup {
                        // The stream is out of sync; the server must close.
                        if conn.recv(PATIENCE).is_ok() {
                            report.failures.push(format!(
                                "iteration {i} ({case:?}): server kept an out-of-sync \
                                 connection open"
                            ));
                        }
                        report.hangups += 1;
                        client = None;
                    }
                }
                Err(_) => {
                    // Hangup without a response: acceptable for framing
                    // violations, suspicious for in-frame garbage — but
                    // only a liveness probe can tell a dropped connection
                    // from a crashed server, so always probe.
                    report.hangups += 1;
                    client = None;
                }
            }
        }
        // Crash-free invariant: the server still serves fresh
        // connections.
        if report.sent % 16 == 0 || client.is_none() {
            let mut probe = Client::connect(&config.addr, Duration::from_secs(5))
                .map_err(|e| format!("iteration {i} ({case:?}): server unreachable: {e}"))?;
            let health = probe
                .call(&plain_request("fuzz-probe", "health"))
                .map_err(|e| format!("iteration {i} ({case:?}): health probe failed: {e}"))?;
            if !matches!(health.get("ok"), Some(Json::Bool(true))) {
                report.failures.push(format!(
                    "iteration {i} ({case:?}): health probe not ok: {health}"
                ));
            }
        }
    }
    Ok(report)
}
