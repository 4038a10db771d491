//! End-to-end tests for `star-rings serve`: a real server process, real
//! sockets, and the protocol exercised through [`star_rings::serve::Client`].

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use star_rings::fault::FaultSet;
use star_rings::obs::json::Json;
use star_rings::serve::client::{
    certified_embed_request, embed_request, plain_request, with_proto_v2, with_return_ring,
    Received,
};
use star_rings::serve::proto::write_frame;
use star_rings::serve::{fetch_verified, Client, StreamVerifier};

/// A `star-rings serve` child process bound to an OS-assigned port.
struct Server {
    child: Child,
    addr: String,
}

impl Server {
    /// Spawns `serve --addr 127.0.0.1:0 <extra>` and reads the bound
    /// address off the announcement line.
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

    /// Sends SIGINT and waits for exit, returning the exit status.
    #[cfg(unix)]
    fn interrupt_and_wait(mut self) -> std::process::ExitStatus {
        let pid = self.child.id().to_string();
        let ok = Command::new("kill")
            .args(["-INT", &pid])
            .status()
            .expect("kill runs")
            .success();
        assert!(ok, "kill -INT failed");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some(status) = self.child.try_wait().expect("try_wait") {
                // Forget the child so Drop doesn't try to kill a reaped pid.
                std::mem::forget(self);
                return status;
            }
            assert!(
                Instant::now() < deadline,
                "server did not exit within 60s of SIGINT"
            );
            std::thread::sleep(Duration::from_millis(50));
        }
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

#[test]
fn health_embed_verify_and_cache_round_trip() {
    let server = Server::start(&["--threads", "2"]);
    let mut client = server.connect();

    let health = client.call(&plain_request("h1", "health")).unwrap();
    assert!(is_ok(&health), "{health}");
    assert_eq!(get_str(&health, "status"), "serving");
    assert_eq!(get_str(&health, "id"), "h1");

    // Embed with the ring returned, then feed that ring back to verify.
    let mut embed = embed_request("e1", 5, &["21345".to_string()], None);
    if let Json::Obj(members) = &mut embed {
        members.push(("return_ring".to_string(), Json::Bool(true)));
    }
    let response = client.call(&embed).unwrap();
    assert!(is_ok(&response), "{response}");
    assert_eq!(get_u64(&response, "ring_len"), 118);
    assert_eq!(get_u64(&response, "deficiency"), 2);
    assert_eq!(response.get("cached"), Some(&Json::Bool(false)));
    let ring = response
        .get("ring")
        .and_then(Json::as_arr)
        .expect("ring array")
        .to_vec();
    assert_eq!(ring.len(), 118);

    let verify = Json::Obj(vec![
        ("kind".to_string(), Json::from("verify")),
        ("id".to_string(), Json::from("v1")),
        ("n".to_string(), Json::from(5u64)),
        ("ring".to_string(), Json::Arr(ring)),
        ("faults".to_string(), Json::Arr(vec![Json::from("21345")])),
    ]);
    let verdict = client.call(&verify).unwrap();
    assert!(is_ok(&verdict), "{verdict}");
    assert_eq!(verdict.get("valid"), Some(&Json::Bool(true)));

    // The same scenario again must come out of the cache.
    let response = client.call(&embed).unwrap();
    assert!(is_ok(&response), "{response}");
    assert_eq!(response.get("cached"), Some(&Json::Bool(true)));
    assert_eq!(get_u64(&response, "ring_len"), 118);

    let stats = client.call(&plain_request("s1", "stats")).unwrap();
    assert!(is_ok(&stats), "{stats}");
    let cache = stats.get("cache").expect("cache block");
    assert!(get_u64(cache, "hits") >= 1, "{stats}");
    assert!(get_u64(cache, "entries") >= 1, "{stats}");
}

#[test]
fn batch_isolates_bad_items() {
    let server = Server::start(&["--threads", "2"]);
    let mut client = server.connect();
    // scenarios: valid empty, valid single fault, unparsable perm,
    // duplicate fault — the two bad ones must fail alone.
    let batch = Json::parse(
        r#"{"kind":"embed_batch","id":"b1","n":5,
            "scenarios":[[],["21345"],["99x"],["21345","21345"]]}"#,
    )
    .unwrap();
    let response = client.call(&batch).unwrap();
    assert!(is_ok(&response), "{response}");
    let items = response.get("items").and_then(Json::as_arr).unwrap();
    assert_eq!(items.len(), 4);
    assert!(is_ok(&items[0]) && get_u64(&items[0], "ring_len") == 120);
    assert!(is_ok(&items[1]) && get_u64(&items[1], "ring_len") == 118);
    assert!(!is_ok(&items[2]), "{response}");
    assert_eq!(get_str(&items[2], "error"), "bad_request");
    assert!(!is_ok(&items[3]), "{response}");
    assert_eq!(get_str(&items[3], "error"), "bad_request");
}

#[test]
fn overload_is_deterministic_and_health_stays_inline() {
    // --queue 0 puts the queue permanently at its high-water mark: every
    // work request must be rejected `overloaded`, while health and stats
    // (answered inline, never queued) keep working.
    let server = Server::start(&["--queue", "0", "--threads", "1"]);
    let mut client = server.connect();
    for i in 0..3 {
        let response = client
            .call(&embed_request(&format!("o{i}"), 5, &[], None))
            .unwrap();
        assert!(!is_ok(&response), "{response}");
        assert_eq!(get_str(&response, "error"), "overloaded");
    }
    let health = client.call(&plain_request("h", "health")).unwrap();
    assert!(is_ok(&health), "{health}");
    let stats = client.call(&plain_request("s", "stats")).unwrap();
    assert!(is_ok(&stats), "{stats}");
    assert_eq!(get_u64(&stats, "rejected_overloaded"), 3);
}

#[test]
fn expired_deadline_is_rejected_before_embed_work() {
    let server = Server::start(&["--threads", "1"]);
    let mut client = server.connect();
    // deadline_ms 0 expires the instant the request is received, so the
    // worker must answer deadline_exceeded at dequeue, before embedding.
    let response = client.call(&embed_request("d1", 7, &[], Some(0))).unwrap();
    assert!(!is_ok(&response), "{response}");
    assert_eq!(get_str(&response, "error"), "deadline_exceeded");
    assert_eq!(get_str(&response, "id"), "d1");
    // The embedder never ran: stats counts the rejection, not a serve.
    let stats = client.call(&plain_request("s", "stats")).unwrap();
    assert_eq!(get_u64(&stats, "rejected_deadline"), 1);
    assert_eq!(get_u64(&stats, "served"), 0);
    // A generous deadline on the same connection still embeds fine.
    let response = client
        .call(&embed_request("d2", 5, &[], Some(30_000)))
        .unwrap();
    assert!(is_ok(&response), "{response}");
}

#[test]
fn garbage_frames_get_bad_request() {
    let server = Server::start(&["--threads", "1"]);
    let mut client = server.connect();
    client.send_raw(b"this is not json").unwrap();
    let response = client.recv(Duration::from_secs(10)).unwrap();
    assert!(!is_ok(&response), "{response}");
    assert_eq!(get_str(&response, "error"), "bad_request");

    // Well-formed JSON, unknown kind.
    client.send_raw(br#"{"kind":"teleport"}"#).unwrap();
    let response = client.recv(Duration::from_secs(10)).unwrap();
    assert_eq!(get_str(&response, "error"), "bad_request");

    // The connection survived both and still serves work.
    let response = client.call(&embed_request("g", 5, &[], None)).unwrap();
    assert!(is_ok(&response), "{response}");

    // An oversized length prefix is a framing violation: the server
    // answers bad_request and hangs up (the stream is out of sync).
    let mut other = server.connect();
    other.send_unframed(&(17u32 << 20).to_be_bytes()).unwrap();
    let response = other.recv(Duration::from_secs(10)).unwrap();
    assert_eq!(get_str(&response, "error"), "bad_request");
    assert!(other.recv(Duration::from_secs(10)).is_err(), "hangup");
}

/// A frame of 100,000 `[` is a parse error past the parser's depth
/// limit, not a stack overflow that aborts the server: it is answered
/// `bad_request` and the same connection keeps serving.
#[test]
fn a_deeply_nested_frame_gets_bad_request_and_the_connection_survives() {
    let server = Server::start(&["--threads", "1"]);
    let mut client = server.connect();
    client.send_raw("[".repeat(100_000).as_bytes()).unwrap();
    let response = client.recv(Duration::from_secs(10)).unwrap();
    assert_eq!(get_str(&response, "error"), "bad_request", "{response}");
    let health = client.call(&plain_request("deep", "health")).unwrap();
    assert!(is_ok(&health), "{health}");
}

#[cfg(unix)]
#[test]
fn sigint_drains_flushes_flight_recorder_and_exits_zero() {
    let dir = std::env::temp_dir().join("star-serve-sigint-test");
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("serve-rec.jsonl");
    let _ = std::fs::remove_file(&dump);

    let server = Server::start(&["--threads", "1", "--flightrec-out", dump.to_str().unwrap()]);
    let mut client = server.connect();
    let mut probe = server.connect();
    // Prove the drain: pipeline two slow embeds onto the single worker
    // (distinct keys, so the second is real work rather than a cache
    // hit), interrupt mid-flight, and the already-accepted requests
    // must still be answered.
    client.send(&embed_request("w1", 9, &[], None)).unwrap();
    client
        .send(&embed_request("w2", 9, &["213456789".to_string()], None))
        .unwrap();
    // Interrupting immediately would race the connection reader: bytes
    // sitting in a socket buffer at SIGINT are legitimately dropped.
    // Wait until the server has demonstrably accepted both requests —
    // either the second is sitting in the queue (the interesting case:
    // SIGINT lands while w1 is mid-embed and w2 is queued work that the
    // drain must finish) or both were already served.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let stats = probe.call(&plain_request("q", "stats")).unwrap();
        if get_u64(&stats, "queue_depth") >= 1 || get_u64(&stats, "served") >= 2 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "requests never reached the queue: {stats}"
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    let status = server.interrupt_and_wait();
    let a = client.recv(Duration::from_secs(30)).unwrap();
    let b = client.recv(Duration::from_secs(30)).unwrap();
    for (response, id, len) in [(&a, "w1", 362_880), (&b, "w2", 362_878)] {
        assert!(is_ok(response), "drained request failed: {response}");
        assert_eq!(get_str(response, "id"), id);
        assert_eq!(get_u64(response, "ring_len"), len);
    }
    assert!(status.success(), "graceful shutdown must exit 0: {status}");

    let text = std::fs::read_to_string(&dump).expect("flight recorder flushed");
    assert!(
        text.starts_with("{\"type\":\"flightrec\",\"reason\":\"serve.shutdown\""),
        "dump header: {}",
        text.lines().next().unwrap_or("")
    );
    assert!(text.contains("\"kind\":\"serve.accept\""), "{text}");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Seeded faults for an `n`-dimensional scenario, as the wire strings
/// and the fault set the stream verifier checks against.
fn seeded_faults(n: usize, k: usize, seed: u64) -> (Vec<String>, FaultSet) {
    let set = star_rings::fault::gen::random_vertex_faults(n, k, seed).unwrap();
    let strings = set.vertices().iter().map(|p| p.to_string()).collect();
    (strings, set)
}

/// The v1 frame cap at n = 10 must fail loudly and deterministically —
/// a `response_too_large` error frame on the same connection, counted
/// in stats — instead of tearing the connection down.
#[test]
fn n10_v1_ring_hits_the_frame_cap_with_a_deterministic_error() {
    let server = Server::start(&["--threads", "2"]);
    let mut client = server.connect();
    let (faults, _) = seeded_faults(10, 2, 0xCAFE);
    let request = with_return_ring(embed_request("big-v1", 10, &faults, None));
    // A debug-build n = 10 embed plus the doomed ~47 MB JSON render
    // takes a while; patience here is about build profile, not protocol.
    client.send(&request).unwrap();
    let response = client.recv(Duration::from_secs(300)).unwrap();
    assert!(!is_ok(&response), "{}", response.to_string().len());
    assert_eq!(get_str(&response, "error"), "response_too_large");
    assert_eq!(get_str(&response, "id"), "big-v1");
    assert!(
        get_str(&response, "message").contains("proto 2"),
        "the error must point at the streaming fix: {response}"
    );
    // The connection survived and the rejection is counted.
    let stats = client.call(&plain_request("s", "stats")).unwrap();
    assert_eq!(get_u64(&stats, "rejected_oversize_response"), 1);
    let after = client.call(&embed_request("after", 5, &[], None)).unwrap();
    assert!(is_ok(&after), "{after}");
}

/// A client that pipelines large responses and never reads them must not
/// pin the only worker: once a write makes no progress for the server's
/// write-stall deadline (5 s), the connection is cut, counted, and its
/// queued requests dropped, and the next client is answered.
#[test]
fn a_client_that_stops_reading_is_cut_and_frees_the_worker() {
    use std::io::Read as _;
    const WRITE_STALL: Duration = Duration::from_secs(5);
    let server = Server::start(&["--threads", "1"]);
    // Ten v1 n = 9 rings of ~4.7 MB of JSON each: more than the loopback
    // socket buffers hold (at most 32 MiB received plus 4 MiB sent).
    let mut stalled = std::net::TcpStream::connect(&server.addr).unwrap();
    for i in 0..10 {
        let request = with_return_ring(embed_request(&format!("a{i}"), 9, &[], None));
        write_frame(&mut stalled, request.to_string().as_bytes()).unwrap();
    }
    // Once all ten are admitted (one in the worker, nine queued), the
    // next request queues behind them.
    let mut client = server.connect();
    let admitted = Instant::now();
    loop {
        let stats = client.call(&plain_request("q", "stats")).unwrap();
        if get_u64(&stats, "queue_depth") + get_u64(&stats, "served") >= 9 {
            break;
        }
        assert!(admitted.elapsed() < Duration::from_secs(30), "{stats}");
        std::thread::sleep(Duration::from_millis(20));
    }
    client.send(&embed_request("b", 5, &[], None)).unwrap();
    // The first ring's length prefix marks the start of its write (a
    // debug-build render takes seconds); after it, nothing is read.
    stalled
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let mut prefix = [0u8; 4];
    stalled.read_exact(&mut prefix).unwrap();
    let writing = Instant::now();
    let frame_len = u32::from_be_bytes(prefix) as usize;
    assert!(frame_len > 4_000_000, "{frame_len}");
    let response = client.recv(Duration::from_secs(60)).unwrap();
    let waited = writing.elapsed();
    assert!(is_ok(&response), "{response}");
    assert_eq!(get_str(&response, "id"), "b");
    assert!(
        waited < WRITE_STALL + Duration::from_secs(5),
        "answered {waited:?} after the stalled write began"
    );
    let stats = client.call(&plain_request("s", "stats")).unwrap();
    assert!(get_u64(&stats, "rejected_slow_reader") >= 1, "{stats}");
    // The cut connection ends inside the first ring's frame.
    let mut rest = Vec::new();
    let ended = stalled.read_to_end(&mut rest);
    assert!(ended.is_err() || rest.len() < frame_len, "{ended:?}");
}

/// The tentpole end to end: the same n = 10 ring that breaks v1 streams
/// under v2 — JSON header, binary delta chunks, incremental
/// verification against the header's certificate checksum — without the
/// client ever materializing the 3.6M-vertex ring.
#[test]
fn n10_v2_ring_streams_end_to_end_and_verifies_incrementally() {
    let server = Server::start(&["--threads", "2"]);
    let mut client = server.connect();
    let (faults, fault_set) = seeded_faults(10, 2, 0xCAFE);
    let request = with_proto_v2(
        with_return_ring(certified_embed_request("big-v2", 10, &faults, None)),
        0,
        None,
    );
    let (header, summary) =
        fetch_verified(&mut client, &request, Duration::from_secs(120), &fault_set).unwrap();
    assert!(is_ok(&header), "{header}");
    assert_eq!(get_u64(&header, "proto"), 2);
    assert_eq!(get_str(&header, "encoding"), "delta-v2");
    let ring_len = 3_628_800 - 2 * faults.len() as u64;
    assert_eq!(get_u64(&header, "ring_len"), ring_len);
    let summary = summary.expect("v2 response must stream");
    assert_eq!(summary.ring_len, ring_len);
    assert!(summary.at_guarantee);
    // Default chunking tiles the whole ring.
    assert_eq!(get_u64(&header, "chunks"), ring_len.div_ceil(1 << 16));
    let stats = client.call(&plain_request("s", "stats")).unwrap();
    let v2 = stats.get("v2").expect("stats carries the v2 block");
    assert_eq!(get_u64(v2, "streams"), 1);
    assert_eq!(get_u64(v2, "chunks"), ring_len.div_ceil(1 << 16));
}

/// Resumable cursors across connections: break a stream partway, then
/// finish it from a fresh connection with `cursor` = the verifier's
/// position — the same verifier accepts the spliced stream.
#[test]
fn v2_stream_resumes_from_a_cursor_on_a_new_connection() {
    let server = Server::start(&["--threads", "2"]);
    let (faults, fault_set) = seeded_faults(7, 3, 11);
    let base = certified_embed_request("resume", 7, &faults, None);

    // First connection: consume exactly two 256-vertex chunks, then
    // abandon the stream mid-flight.
    let mut first = server.connect();
    first
        .send(&with_proto_v2(with_return_ring(base.clone()), 0, Some(256)))
        .unwrap();
    let header = match first.recv_any(Duration::from_secs(30)).unwrap() {
        Received::Doc(doc) => doc,
        Received::Chunk(_) => panic!("chunk before header"),
    };
    assert!(is_ok(&header), "{header}");
    let ring_len = get_u64(&header, "ring_len");
    let mut verifier = StreamVerifier::new(7, ring_len, &fault_set).unwrap();
    verifier
        .expect_checksum(get_str(&header, "cert_checksum"))
        .unwrap();
    for _ in 0..2 {
        match first.recv_any(Duration::from_secs(30)).unwrap() {
            Received::Chunk(chunk) => verifier.feed(&chunk).unwrap(),
            Received::Doc(doc) => panic!("JSON inside the stream: {doc}"),
        }
    }
    assert_eq!(verifier.position(), 512);
    drop(first);

    // Second connection: re-request from the verifier's cursor and feed
    // the same verifier to completion.
    let mut second = server.connect();
    second
        .send(&with_proto_v2(
            with_return_ring(base),
            verifier.position(),
            Some(256),
        ))
        .unwrap();
    let resumed = match second.recv_any(Duration::from_secs(30)).unwrap() {
        Received::Doc(doc) => doc,
        Received::Chunk(_) => panic!("chunk before header"),
    };
    assert!(is_ok(&resumed), "{resumed}");
    assert_eq!(get_u64(&resumed, "cursor"), 512);
    loop {
        match second.recv_any(Duration::from_secs(30)).unwrap() {
            Received::Chunk(chunk) => {
                let last = chunk.last;
                verifier.feed(&chunk).unwrap();
                if last {
                    break;
                }
            }
            Received::Doc(doc) => panic!("JSON inside the stream: {doc}"),
        }
    }
    let summary = verifier.finish().unwrap();
    assert_eq!(summary.ring_len, ring_len);
    assert!(summary.at_guarantee);
}

/// One server, both protocols interleaved: a v1 client's responses are
/// byte-for-byte the v1 shape (JSON ring, full certificate, no
/// `encoding` member) while a v2 client on another connection streams.
#[test]
fn v1_and_v2_clients_interleave_on_one_server() {
    let server = Server::start(&["--threads", "2"]);
    let (faults, fault_set) = seeded_faults(6, 2, 5);

    let mut v1 = server.connect();
    let mut v2 = server.connect();
    for round in 0..3 {
        let v1_req = with_return_ring(certified_embed_request(
            &format!("v1-{round}"),
            6,
            &faults,
            None,
        ));
        let response = v1.call(&v1_req).unwrap();
        assert!(is_ok(&response), "{response}");
        assert!(response.get("encoding").is_none(), "{response}");
        assert!(response.get("cert_checksum").is_none(), "{response}");
        assert!(response.get("certificate").is_some(), "{response}");
        let ring = response.get("ring").and_then(Json::as_arr).unwrap();
        assert_eq!(ring.len() as u64, get_u64(&response, "ring_len"));

        let v2_req = with_proto_v2(
            with_return_ring(certified_embed_request(
                &format!("v2-{round}"),
                6,
                &faults,
                None,
            )),
            0,
            Some(64),
        );
        let (header, summary) =
            fetch_verified(&mut v2, &v2_req, Duration::from_secs(30), &fault_set).unwrap();
        assert!(is_ok(&header), "{header}");
        assert_eq!(get_str(&header, "encoding"), "delta-v2");
        assert_eq!(
            summary.expect("v2 streams").ring_len,
            get_u64(&header, "ring_len")
        );
    }
}

/// Satellite regression: inline health/stats answers must never land in
/// the embed latency histogram (they would drag its percentiles toward
/// zero) — they get their own `serve.latency.inline` histogram and
/// `serve.inline.*` counters. In-process server so the test can read the
/// shared metrics registry directly.
#[test]
fn inline_health_and_stats_stay_out_of_the_embed_latency_histogram() {
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    let config = star_rings::serve::ServeConfig {
        addr: addr.clone(),
        ..Default::default()
    };
    let server = {
        let config = config.clone();
        std::thread::spawn(move || star_rings::serve::run(config))
    };
    let boot_deadline = Instant::now() + Duration::from_secs(10);
    while std::net::TcpStream::connect(&addr).is_err() {
        assert!(Instant::now() < boot_deadline, "server did not come up");
        std::thread::sleep(Duration::from_millis(10));
    }

    let hist_count = |snap: &star_rings::obs::Snapshot, name: &str| {
        snap.histogram(name).map(|h| h.count).unwrap_or(0)
    };
    let before = star_rings::obs::snapshot();
    let embed_before = hist_count(&before, "serve.latency.embed");
    let inline_before = hist_count(&before, "serve.latency.inline");

    let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
    for k in 0..5 {
        let r = client
            .call(&plain_request(&format!("h{k}"), "health"))
            .unwrap();
        assert!(is_ok(&r), "{r}");
    }
    for k in 0..3 {
        let r = client
            .call(&plain_request(&format!("s{k}"), "stats"))
            .unwrap();
        assert!(is_ok(&r), "{r}");
        // The stats response itself reports the inline split.
        let inline = r.get("inline").expect("stats carries inline counts");
        assert!(inline.get("health").and_then(Json::as_u64).unwrap() >= 5);
    }
    let r = client.call(&embed_request("e0", 5, &[], None)).unwrap();
    assert!(is_ok(&r), "{r}");

    star_rings::serve::request_shutdown();
    server.join().unwrap().unwrap();

    let after = star_rings::obs::snapshot();
    assert_eq!(
        hist_count(&after, "serve.latency.embed"),
        embed_before + 1,
        "exactly the one embed may hit the embed histogram"
    );
    assert!(
        hist_count(&after, "serve.latency.inline") >= inline_before + 8,
        "5 health + 3 stats must all land in the inline histogram"
    );
    assert!(after.counter("serve.inline.health").unwrap_or(0) >= 5);
    assert!(after.counter("serve.inline.stats").unwrap_or(0) >= 3);
}
