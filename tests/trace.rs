//! Acceptance tests for end-to-end request tracing: a client-generated
//! `trace_id` must ride through the whole serving path (response echo +
//! flight-recorder events), and the SLO watchdog must convert an
//! open-loop overload into a breach dump that names the offending
//! traces with their per-phase timings.
//!
//! These tests run the server **in-process** (real sockets, shared
//! metrics/flight-recorder state) so they can inspect the recorder
//! directly. Each test binary is its own process, so enabling the
//! global flight recorder here cannot leak into other test binaries.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use star_rings::bench::loadgen::{self, Arrivals, LoadgenConfig, Mix, WireProto};
use star_rings::obs::json::Json;
use star_rings::serve::client::{embed_request, with_trace_id};
use star_rings::serve::{Client, ServeConfig, SloConfig};

/// The flight recorder, its dump path, and `request_shutdown` are all
/// process-global: tests that boot in-process servers must not overlap.
static SERIAL: Mutex<()> = Mutex::new(());

/// Boots an in-process server on a fresh port; returns its address and
/// join handle (call [`shutdown`] when done).
fn boot(
    config: ServeConfig,
) -> (
    String,
    std::thread::JoinHandle<Result<star_rings::serve::ServeSummary, String>>,
) {
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        probe.local_addr().unwrap().to_string()
    };
    let config = ServeConfig {
        addr: addr.clone(),
        ..config
    };
    let handle = std::thread::spawn(move || star_rings::serve::run(config));
    let deadline = Instant::now() + Duration::from_secs(10);
    while std::net::TcpStream::connect(&addr).is_err() {
        assert!(Instant::now() < deadline, "server did not come up");
        std::thread::sleep(Duration::from_millis(10));
    }
    (addr, handle)
}

fn shutdown(handle: std::thread::JoinHandle<Result<star_rings::serve::ServeSummary, String>>) {
    star_rings::serve::request_shutdown();
    handle.join().unwrap().unwrap();
}

#[test]
fn trace_id_round_trips_and_lands_on_flight_recorder_events() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join("star-trace-roundtrip-test");
    std::fs::create_dir_all(&dir).unwrap();
    // The server dumps (and thereby drains) the recorder on graceful
    // shutdown — keep that out of the working directory, and read the
    // ring before shutting down.
    star_rings::obs::flightrec::set_dump_path(dir.join("shutdown.jsonl"));
    star_rings::obs::flightrec::enable();
    let (addr, server) = boot(ServeConfig::default());
    let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();

    let trace: u128 = 0xfeed_f00d_dead_beef_0042;
    let request = with_trace_id(embed_request("t1", 6, &[], None), trace);
    let response = client.call(&request).unwrap();

    // 1. The response echoes the trace and itemizes the server's time.
    assert_eq!(response.get("ok"), Some(&Json::Bool(true)), "{response}");
    assert_eq!(
        response.get("trace_id").and_then(Json::as_str),
        Some(star_rings::obs::format_trace(trace).as_str()),
        "{response}"
    );
    let timing = response.get("server_timing").expect("server_timing echoed");
    for phase in ["queue_us", "embed_us", "verify_us", "encode_us"] {
        assert!(
            timing.get(phase).and_then(Json::as_u64).is_some(),
            "missing {phase}: {timing}"
        );
    }
    assert!(
        timing.get("embed_us").and_then(Json::as_u64).unwrap() > 0,
        "a fresh n=6 embed takes measurable time: {timing}"
    );

    // 2. The flight-recorder events emitted while serving the request
    // carry the same trace id.
    let events = star_rings::obs::flightrec::drain();
    let traced: Vec<_> = events.iter().filter(|e| e.trace == trace).collect();
    assert!(
        !traced.is_empty(),
        "no flight-recorder event carries the trace ({} events total)",
        events.len()
    );
    shutdown(server);

    // 3. An untraced request gets no trace members — the wire shape is
    // opt-in.
    let (addr, server) = boot(ServeConfig::default());
    let mut client = Client::connect(&addr, Duration::from_secs(10)).unwrap();
    let response = client.call(&embed_request("t2", 5, &[], None)).unwrap();
    assert!(response.get("trace_id").is_none(), "{response}");
    assert!(response.get("server_timing").is_none(), "{response}");
    shutdown(server);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn open_loop_overload_breaches_the_slo_and_dumps_offending_traces() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let dir = std::env::temp_dir().join("star-trace-slo-test");
    std::fs::create_dir_all(&dir).unwrap();
    let dump = dir.join("breach.jsonl");
    let trace_out = dir.join("requests.jsonl");
    let _ = std::fs::remove_file(&dump);

    star_rings::obs::flightrec::set_dump_path(dir.join("shutdown.jsonl"));
    star_rings::obs::flightrec::enable();
    // One worker + a short deadline: fresh n>=8 embeds take tens of
    // milliseconds each, so an open-loop schedule beyond one worker's
    // throughput must queue, miss deadlines, and burn the SLO budget.
    let (addr, server) = boot(ServeConfig {
        threads: 1,
        default_deadline_ms: Some(25),
        slo: Some(SloConfig {
            target: Duration::from_millis(25),
            budget: 0.05,
            window: Duration::from_secs(2),
            min_samples: 20,
            cooldown: Duration::from_secs(1),
            dump_path: Some(dump.clone()),
        }),
        ..ServeConfig::default()
    });

    // Closed-loop first, for the tail comparison: two connections that
    // wait for each answer can never overload one worker by much.
    let closed = loadgen::run(&LoadgenConfig {
        addr: addr.clone(),
        conns: 2,
        rps: 0,
        duration: Duration::from_secs(2),
        mix: Mix::Embed,
        arrivals: Arrivals::Closed,
        seed: 7,
        verify: false,
        trace_out: None,
        proto: WireProto::V1,
    })
    .unwrap();
    assert!(closed.ok > 0, "closed-loop run answered nothing");

    // Open loop at a rate far beyond one worker's embed throughput.
    let open = loadgen::run(&LoadgenConfig {
        addr: addr.clone(),
        conns: 2,
        rps: 150,
        duration: Duration::from_millis(2_500),
        mix: Mix::Embed,
        arrivals: Arrivals::Poisson,
        seed: 8,
        verify: false,
        trace_out: Some(trace_out.clone()),
        proto: WireProto::V1,
    })
    .unwrap();
    shutdown(server);

    // The overload produced deadline misses...
    let misses = open
        .rejected
        .iter()
        .find(|(code, _)| code == "deadline_exceeded")
        .map(|(_, n)| *n)
        .unwrap_or(0);
    assert!(
        misses > 0,
        "no deadline misses under 150 rps on one worker: {open:?}"
    );

    // ...which breached the watchdog and left a dump naming offenders.
    let text = std::fs::read_to_string(&dump).expect("SLO breach dump written");
    assert!(
        text.starts_with("{\"type\":\"flightrec\",\"reason\":\"slo.breach\""),
        "dump header: {}",
        text.lines().next().unwrap_or("")
    );
    assert!(text.contains("\"kind\":\"slo.breach\""), "{text}");
    let offender_lines: Vec<&str> = text
        .lines()
        .filter(|l| l.contains("\"kind\":\"slo.offender\""))
        .collect();
    assert!(!offender_lines.is_empty(), "dump has no offender events");
    for line in &offender_lines {
        let event = Json::parse(line).unwrap();
        // Offenders carry the per-phase breakdown the post-mortem needs.
        let fields = event.get("fields").expect("offender fields");
        for phase in [
            "latency_us",
            "queue_us",
            "embed_us",
            "verify_us",
            "encode_us",
        ] {
            assert!(
                fields.get(phase).is_some(),
                "offender missing {phase}: {line}"
            );
        }
    }

    // The offending trace ids are the client's own: each offender's name
    // (a 32-hex trace id) must appear in the loadgen's per-request log.
    let requests = std::fs::read_to_string(&trace_out).expect("--trace-out written");
    let client_traces: Vec<String> = requests
        .lines()
        .map(|l| {
            Json::parse(l)
                .unwrap()
                .get("trace_id")
                .and_then(Json::as_str)
                .expect("trace_id in every line")
                .to_string()
        })
        .collect();
    let named: Vec<String> = offender_lines
        .iter()
        .map(|l| {
            Json::parse(l)
                .unwrap()
                .get("name")
                .and_then(Json::as_str)
                .expect("offender name is the trace id")
                .to_string()
        })
        .collect();
    assert!(
        named.iter().any(|t| client_traces.contains(t)),
        "no offender trace id matches a client-issued one\noffenders: {named:?}"
    );

    // Finally the headline property: measured from the scheduled send
    // time, the open-loop tail exposes queueing far past the server's
    // deadline — the wait that a closed-loop (service-time) view hides.
    // The release-mode closed-vs-open p99 gap itself (2.4x) is recorded
    // in EXPERIMENTS E15; comparing the two modes here is fragile in
    // debug builds, where service time dwarfs both deadlines and the
    // arrival schedule.
    assert!(
        !closed.latencies_ns.is_empty(),
        "closed run saw no responses"
    );
    let open_p99 = open
        .hist
        .as_ref()
        .expect("open run has a histogram")
        .quantile(0.99);
    let deadline_ns = 25 * 1_000_000u64;
    assert!(
        open_p99 > 10 * deadline_ns,
        "open-loop p99 {open_p99}ns should show queueing well past the \
         {deadline_ns}ns deadline under overload"
    );
    std::fs::remove_dir_all(&dir).ok();
}
