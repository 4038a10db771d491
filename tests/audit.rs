//! End-to-end tests for the star-audit gate: the `audit` CLI subcommand,
//! `serve --verify` certificates over real sockets, the wire-protocol
//! fuzzer against a live server, and cap-boundary framing behavior.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Duration;

use star_rings::obs::json::Json;
use star_rings::serve::client::{certified_embed_request, embed_request, plain_request};
use star_rings::serve::proto::MAX_FRAME;
use star_rings::serve::Client;

/// A `star-rings serve` child process bound to an OS-assigned port.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    fn start(extra: &[&str]) -> Server {
        let mut child = Command::new(env!("CARGO_BIN_EXE_star-rings"))
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("server spawns");
        let stdout = child.stdout.take().expect("stdout piped");
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .expect("announcement line");
        let addr = line
            .trim()
            .rsplit(' ')
            .next()
            .expect("address in announcement")
            .to_string();
        assert!(
            line.contains("star-serve listening on"),
            "unexpected announcement: {line:?}"
        );
        Server { child, addr }
    }

    fn connect(&self) -> Client {
        Client::connect(&self.addr, Duration::from_secs(10)).expect("client connects")
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn get_str<'j>(doc: &'j Json, key: &str) -> &'j str {
    doc.get(key).and_then(Json::as_str).unwrap_or("")
}

fn get_u64(doc: &Json, key: &str) -> u64 {
    doc.get(key).and_then(Json::as_u64).unwrap_or(u64::MAX)
}

fn is_ok(doc: &Json) -> bool {
    matches!(doc.get("ok"), Some(Json::Bool(true)))
}

/// The differential gate passes on a (fast) sweep and says so on stdout.
#[test]
fn audit_subcommand_passes_a_small_sweep() {
    let output = Command::new(env!("CARGO_BIN_EXE_star-rings"))
        .args([
            "audit", "--n", "5", "--seeds", "12", "--soak", "40", "--fuzz", "24",
        ])
        .output()
        .expect("audit runs");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "audit failed\nstdout: {stdout}\nstderr: {stderr}"
    );
    assert!(stdout.contains("audit PASS"), "stdout: {stdout}");
    assert!(stderr.contains("differential sweep"), "stderr: {stderr}");
    assert!(stderr.contains("chaos soak"), "stderr: {stderr}");
    assert!(stderr.contains("protocol fuzz"), "stderr: {stderr}");
}

/// `serve --verify` attaches a STARRING-CERT that re-verifies offline and
/// matches the response it rode in on.
#[test]
fn verify_mode_attaches_a_checkable_certificate() {
    let server = Server::start(&["--threads", "2", "--verify"]);
    let mut client = server.connect();

    let request = certified_embed_request("c1", 5, &["21345".to_string()], None);
    let response = client.call(&request).unwrap();
    assert!(is_ok(&response), "{response}");
    assert_eq!(get_u64(&response, "ring_len"), 118);
    let cert = get_str(&response, "certificate");
    assert!(!cert.is_empty(), "no certificate in {response}");
    let summary =
        star_rings::verify::certificate::verify_certificate(cert).expect("certificate re-verifies");
    assert_eq!(summary.n, 5);
    assert_eq!(summary.fault_count, 1);
    assert_eq!(summary.ring_len, 118);
    assert!(summary.at_guarantee);

    // Without the flag the response stays lean even in verify mode... no:
    // verify mode attaches certificates to every embed. A plain embed
    // also carries one.
    let response = client.call(&embed_request("c2", 5, &[], None)).unwrap();
    assert!(is_ok(&response), "{response}");
    assert!(
        !get_str(&response, "certificate").is_empty(),
        "verify mode must certify every embed: {response}"
    );
}

/// Without `--verify`, certificates are strictly opt-in per request.
#[test]
fn certificates_are_opt_in_without_verify_mode() {
    let server = Server::start(&["--threads", "2"]);
    let mut client = server.connect();

    let plain = client.call(&embed_request("p1", 5, &[], None)).unwrap();
    assert!(is_ok(&plain), "{plain}");
    assert!(plain.get("certificate").is_none(), "{plain}");

    let certified = client
        .call(&certified_embed_request("p2", 5, &[], None))
        .unwrap();
    assert!(is_ok(&certified), "{certified}");
    let cert = get_str(&certified, "certificate");
    assert!(!cert.is_empty(), "{certified}");
    star_rings::verify::certificate::verify_certificate(cert).expect("certificate re-verifies");
}

/// The deterministic fuzzer keeps its crash-free invariant against a real
/// server: every hostile frame gets an error or a hangup, and the server
/// keeps serving.
#[test]
fn protocol_fuzzer_finds_no_invariant_violations() {
    let server = Server::start(&["--threads", "2"]);
    let report = star_rings::serve::fuzz::run(&star_rings::serve::fuzz::FuzzConfig {
        addr: server.addr.clone(),
        iterations: 120,
        seed: 0xFADE,
    })
    .expect("fuzz run completes");
    assert!(
        report.failures.is_empty(),
        "crash-free invariant violated: {:?}",
        report.failures
    );
    assert_eq!(report.sent, 120);
    assert!(
        report.error_responses > 0,
        "fuzzer never got an error response"
    );
    assert!(report.hangups > 0, "fuzzer never tripped a hangup");

    // And the server still answers a clean request afterwards.
    let mut client = server.connect();
    let health = client.call(&plain_request("after-fuzz", "health")).unwrap();
    assert!(is_ok(&health), "{health}");
}

/// Frame-length boundaries over a real socket: a 16 MiB frame is legal,
/// one byte more is a stable `bad_request` + hangup, and a zero-length
/// frame is a parse error, not a hang.
#[test]
fn frame_length_boundaries_over_the_wire() {
    let server = Server::start(&["--threads", "2"]);

    // Exactly at the cap: accepted by framing, rejected as JSON.
    let mut client = server.connect();
    let mut body = vec![b' '; MAX_FRAME];
    body[0] = b'{';
    body[MAX_FRAME - 1] = b'!';
    client.send_raw(&body).expect("cap-sized frame sends");
    let response = client.recv(Duration::from_secs(30)).unwrap();
    assert_eq!(get_str(&response, "error"), "bad_request", "{response}");

    // One past the cap: the framing layer refuses; `bad_request` then
    // hangup (the stream is out of sync).
    let mut client = server.connect();
    let len = (MAX_FRAME as u32) + 1;
    client
        .send_unframed(&len.to_be_bytes())
        .expect("prefix sends");
    let response = client.recv(Duration::from_secs(30)).unwrap();
    assert_eq!(get_str(&response, "error"), "bad_request", "{response}");
    assert!(
        client.recv(Duration::from_secs(30)).is_err(),
        "server must hang up after a framing violation"
    );

    // Zero-length frame: empty body, stable parse error, connection keeps
    // working.
    let mut client = server.connect();
    client.send_raw(b"").expect("empty frame sends");
    let response = client.recv(Duration::from_secs(30)).unwrap();
    assert_eq!(get_str(&response, "error"), "bad_request", "{response}");
    let health = client
        .call(&plain_request("after-empty", "health"))
        .unwrap();
    assert!(is_ok(&health), "{health}");
}

/// `loadgen --verify` against a verifying server: every certificate
/// checks out client-side.
#[test]
fn loadgen_verify_round_trip() {
    let server = Server::start(&["--threads", "2", "--verify"]);
    let config = star_rings::bench::loadgen::LoadgenConfig {
        addr: server.addr.clone(),
        conns: 2,
        rps: 0,
        duration: Duration::from_millis(600),
        mix: star_rings::bench::loadgen::Mix::Embed,
        seed: 7,
        verify: true,
        arrivals: star_rings::bench::loadgen::Arrivals::Closed,
        trace_out: None,
        proto: star_rings::bench::loadgen::WireProto::V1,
    };
    let report = star_rings::bench::loadgen::run(&config).expect("loadgen runs");
    assert!(report.ok > 0, "no successful responses");
    assert!(
        report.certs_checked > 0,
        "verify mode checked no certificates: {report:?}"
    );
    assert_eq!(report.cert_failures, 0, "certificate failures: {report:?}");
    assert_eq!(report.protocol_errors, 0, "protocol errors: {report:?}");
}
