//! The multi-threaded TCP server.
//!
//! ## Request path
//!
//! ```text
//! accept loop ──► connection threads ──► bounded queue ──► worker threads
//!   (poll)          (parse frames,        (admission        (deadline check,
//!                    answer health/        control,          cache lookup,
//!                    stats inline)         high-water        embed, respond)
//!                                          rejects)
//! ```
//!
//! Each accepted connection gets a handler thread that reads frames and
//! answers `health`/`stats` inline — liveness probes must never queue
//! behind embed work. Work requests are stamped with a receipt time and
//! deadline and pushed into the [`BoundedQueue`]; a full queue answers
//! `overloaded` immediately (the producer never blocks on a consumer).
//! Workers pop, reject anything whose deadline already expired
//! (**before** any embed work runs), consult the [`ResultCache`], embed
//! on miss, and write the response frame straight to the owning
//! connection — so responses to pipelined requests may arrive out of
//! order, correlated via the echoed `id`.
//!
//! A frame write that makes no progress for 5 s — a client that
//! stopped reading while its socket buffers are full — fails: the
//! connection is counted as `serve.reject.slow_reader` and shut down
//! (a partial frame leaves the stream out of sync), its queued requests
//! are dropped, and the worker moves on. A v2 client resumes by cursor
//! on a new connection.
//!
//! ## Graceful shutdown
//!
//! SIGINT/SIGTERM set a process-global flag. The accept loop stops, the
//! queue closes (new work answers `shutting_down`, queued work drains),
//! workers finish the backlog and exit, the flight recorder (when
//! enabled) is flushed to its dump path, and `run` returns `Ok` — the
//! CLI then exits 0.

use std::io::Write as _;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

use star_fault::RingCheck;
use star_obs::json::Json;
use star_oracle::{Canon, Canonicalizer, Store, WriteBehind};
use star_perm::Perm;
use star_ring::{embed_many_with_options, embed_with_options, EmbedOptions};

use crate::cache::{key_for, CacheKey, ResultCache};
use crate::proto::{
    attach_trace, chunk_stream, encode_response_body, error_response, error_response_traced,
    ok_response, oversize_error_response, read_frame, ring_to_json, write_frame, ChunkFrame,
    ErrorCode, FrameRead, Request, RequestBody, RingDelta, ServerTiming, DEFAULT_CHUNK_VERTICES,
    PROTO_V2,
};
use crate::queue::{BoundedQueue, PushError};
use crate::slo::{Outcome, SloConfig, Watchdog};

/// Idle-poll period for connection reads and worker pops; bounds how
/// long shutdown waits on a quiescent thread.
const POLL: Duration = Duration::from_millis(100);

/// How long a write to a client may make no progress before the
/// connection is cut. A client that keeps reading never reaches it.
const WRITE_STALL: Duration = Duration::from_secs(5);

/// A connection's socket (write timeout [`POLL`]) as a frame writer:
/// each `write` retries through the socket's timeouts until it moves a
/// byte, and fails once no byte has moved for [`WRITE_STALL`].
struct StallWriter<'a> {
    stream: &'a mut TcpStream,
    progress: Instant,
}

impl std::io::Write for StallWriter<'_> {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        loop {
            match self.stream.write(buf) {
                Ok(k) => {
                    self.progress = Instant::now();
                    return Ok(k);
                }
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) && self.progress.elapsed() < WRITE_STALL => {}
                Err(e) => return Err(e),
            }
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.stream.flush()
    }
}

/// Server configuration (the CLI's `serve` flags).
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address, e.g. `127.0.0.1:7411` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads (0 = auto: hardware parallelism capped at 8).
    pub threads: usize,
    /// Request-queue high-water mark.
    pub queue_capacity: usize,
    /// Result-cache byte budget.
    pub cache_bytes: usize,
    /// Default per-request deadline in ms (`None` = no deadline unless
    /// the request carries one).
    pub default_deadline_ms: Option<u64>,
    /// Audit mode (`--verify`): re-check every embed result with one
    /// `RingCheck` walk of its delta at the exact `n! - 2|F_v|` length
    /// before responding, and attach a STARRING-CERT v1 certificate to
    /// every embed response. A ring that fails the audit is answered
    /// `verify_failed` instead of being served.
    pub verify_responses: bool,
    /// SLO watchdog (`--slo-ms` and friends): rolling error-budget
    /// monitor over the queued path; a breach auto-dumps the flight
    /// recorder tagged with the offending trace ids. `None` = off.
    pub slo: Option<SloConfig>,
    /// Persistent oracle store directory (`--oracle-path`): canonical
    /// misses consult the disk store before embedding, and fresh embeds
    /// are written behind. `None` = in-memory cache only.
    pub oracle_path: Option<PathBuf>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:7411".to_string(),
            threads: 0,
            queue_capacity: 256,
            // Entries are generator-delta encoded (~0.5 B/vertex): a
            // worst-case n = 9 ring is 9!/2 ≈ 177 KiB and even n = 10 is
            // 10!/2 ≈ 1.73 MiB, so the 16-way sharding (total/16 per
            // shard) holds ~90 worst-case n = 9 entries per shard at the
            // 256 MiB default — the budget now buys breadth, not
            // survival.
            cache_bytes: 256 << 20,
            default_deadline_ms: None,
            verify_responses: false,
            slo: None,
            oracle_path: None,
        }
    }
}

/// Totals reported by [`run`] after a graceful shutdown.
#[derive(Debug, Clone, Copy, Default)]
pub struct ServeSummary {
    /// Work requests answered successfully (including cache hits).
    pub served: u64,
    /// Requests rejected at the high-water mark.
    pub rejected_overloaded: u64,
    /// Requests expired before a worker picked them up.
    pub rejected_deadline: u64,
    /// Connections accepted over the server's lifetime.
    pub connections: u64,
}

/// Process-global shutdown flag — set by the signal handler, observed by
/// every loop. Public to the crate so tests can reset it.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// Requests a graceful shutdown of the running server (same effect as
/// SIGINT).
pub fn request_shutdown() {
    SHUTDOWN.store(true, Ordering::SeqCst);
}

fn shutting_down() -> bool {
    SHUTDOWN.load(Ordering::SeqCst)
}

#[cfg(unix)]
fn install_signal_handlers() {
    extern "C" fn on_signal(_sig: i32) {
        // An atomic store is async-signal-safe; everything else happens
        // on the server threads that poll the flag.
        SHUTDOWN.store(true, Ordering::SeqCst);
    }
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

/// One client connection: the write half, shared between the handler
/// thread (inline responses) and workers (queued responses).
struct Conn {
    stream: Mutex<TcpStream>,
    peer: String,
    /// Set once a stalled write cut the connection.
    cut: AtomicBool,
}

impl Conn {
    fn respond(&self, ctx: &Ctx, response: &Json) {
        let body = match encode_response_body(response) {
            Ok(body) => body,
            // The encoded response outgrew the frame cap (an n >= 10
            // `return_ring` under v1 gets here). Substitute the
            // deterministic `response_too_large` frame — same id, same
            // trace members — instead of writing a frame the client's
            // reader must reject mid-stream.
            Err(encoded_len) => {
                ctx.obs.reject_oversize.incr(1);
                if star_obs::flightrec::enabled() {
                    star_obs::flightrec::record(
                        "serve.reject.oversize_response",
                        self.peer.clone(),
                        &[("encoded_len", star_obs::FieldValue::U64(encoded_len as u64))],
                    );
                }
                let id = response.get("id").and_then(Json::as_str);
                let trace = response
                    .get("trace_id")
                    .and_then(Json::as_str)
                    .and_then(|t| star_obs::parse_trace(t).ok());
                let timing = response
                    .get("server_timing")
                    .and_then(ServerTiming::from_json)
                    .unwrap_or_default();
                let fallback = oversize_error_response(
                    id,
                    encoded_len,
                    trace.map(|trace_id| (trace_id, &timing)),
                );
                fallback.to_string().into_bytes()
            }
        };
        let mut stream = self.stream.lock().unwrap_or_else(|e| e.into_inner());
        self.write(ctx, &mut stream, &body);
    }

    /// Writes one already-encoded frame body (JSON or a binary v2 chunk)
    /// to the locked stream; `false` when it failed. Failures are
    /// counted, not propagated: the request was still served. A write
    /// that stalled for [`WRITE_STALL`] cuts the connection.
    fn write(&self, ctx: &Ctx, stream: &mut TcpStream, body: &[u8]) -> bool {
        let mut writer = StallWriter {
            stream,
            progress: Instant::now(),
        };
        let Err(e) = write_frame(&mut writer, body) else {
            return true;
        };
        if matches!(
            e.kind(),
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
        ) && !self.cut.swap(true, Ordering::Relaxed)
        {
            ctx.obs.reject_slow_reader.incr(1);
            if star_obs::flightrec::enabled() {
                star_obs::flightrec::record("serve.reject.slow_reader", self.peer.clone(), &[]);
            }
            // The frame is half written: nothing after it could be read
            // in sync, so the connection ends here.
            stream.shutdown(Shutdown::Both).ok();
        } else {
            // The client went away; the request was still served.
            ctx.obs.write_errors.incr(1);
        }
        false
    }
}

/// A queued unit of work.
struct Job {
    request: Request,
    conn: Arc<Conn>,
    received: Instant,
    deadline: Option<Instant>,
}

struct ServeObs {
    accepted: star_obs::Counter,
    requests: star_obs::Counter,
    served: star_obs::Counter,
    bad_request: star_obs::Counter,
    rejected_overloaded: star_obs::Counter,
    rejected_deadline: star_obs::Counter,
    rejected_shutdown: star_obs::Counter,
    embed_failed: star_obs::Counter,
    verify_failed: star_obs::Counter,
    certificates: star_obs::Counter,
    write_errors: star_obs::Counter,
    // Connections cut because a write made no progress for WRITE_STALL.
    reject_slow_reader: star_obs::Counter,
    // Responses whose encoded body outgrew MAX_FRAME and were replaced
    // by the deterministic `response_too_large` error frame.
    reject_oversize: star_obs::Counter,
    // Binary v2 chunk frames written (one stream fans out into many).
    v2_chunks: star_obs::Counter,
    v2_streams: star_obs::Counter,
    inline_health: star_obs::Counter,
    inline_stats: star_obs::Counter,
    // Oracle hit taxonomy: a "literal" hit would also have been served by
    // the old literal-key cache (this process has seen this exact fault
    // set before); a "canonical" hit exists only because of the
    // Aut(S_n)-canonical key. Store hits additionally count disk reads
    // that repopulated the LRU.
    oracle_literal_hit: star_obs::Counter,
    oracle_canonical_hit: star_obs::Counter,
    oracle_miss: star_obs::Counter,
    oracle_store_hit: star_obs::Counter,
    // Checksum-valid store records that are not valid ring deltas; each
    // read as a miss and re-embedded.
    oracle_store_bad_record: star_obs::Counter,
    queue_depth: star_obs::Hist,
    lat_embed: star_obs::Hist,
    lat_batch: star_obs::Hist,
    lat_verify: star_obs::Hist,
    // Inline control-plane responses get their own histogram so embed
    // latency percentiles are never diluted by microsecond health pings.
    lat_inline: star_obs::Hist,
}

fn obs() -> &'static ServeObs {
    static OBS: OnceLock<ServeObs> = OnceLock::new();
    OBS.get_or_init(|| ServeObs {
        accepted: star_obs::counter("serve.conn.accepted"),
        requests: star_obs::counter("serve.requests"),
        served: star_obs::counter("serve.served"),
        bad_request: star_obs::counter("serve.bad_request"),
        rejected_overloaded: star_obs::counter("serve.rejected.overloaded"),
        rejected_deadline: star_obs::counter("serve.rejected.deadline"),
        rejected_shutdown: star_obs::counter("serve.rejected.shutdown"),
        embed_failed: star_obs::counter("serve.embed_failed"),
        verify_failed: star_obs::counter("serve.verify_failed"),
        certificates: star_obs::counter("serve.certificates"),
        write_errors: star_obs::counter("serve.write_errors"),
        reject_slow_reader: star_obs::counter("serve.reject.slow_reader"),
        reject_oversize: star_obs::counter("serve.reject.oversize_response"),
        v2_chunks: star_obs::counter("serve.v2.chunks"),
        v2_streams: star_obs::counter("serve.v2.streams"),
        inline_health: star_obs::counter("serve.inline.health"),
        inline_stats: star_obs::counter("serve.inline.stats"),
        oracle_literal_hit: star_obs::counter("serve.oracle.literal_hit"),
        oracle_canonical_hit: star_obs::counter("serve.oracle.canonical_hit"),
        oracle_miss: star_obs::counter("serve.oracle.miss"),
        oracle_store_hit: star_obs::counter("serve.oracle.store_hit"),
        oracle_store_bad_record: star_obs::counter("serve.oracle.store_bad_record"),
        queue_depth: star_obs::histogram("serve.queue.depth"),
        lat_embed: star_obs::histogram("serve.latency.embed"),
        lat_batch: star_obs::histogram("serve.latency.embed_batch"),
        lat_verify: star_obs::histogram("serve.latency.verify"),
        lat_inline: star_obs::histogram("serve.latency.inline"),
    })
}

/// State shared by the accept loop, connection handlers, and workers.
struct Ctx {
    queue: BoundedQueue<Job>,
    cache: ResultCache,
    /// Shared canonicalizer (memoized): the single source of truth for
    /// cache/store keys, and the literal-vs-canonical hit classifier.
    canon: Canonicalizer,
    /// Persistent oracle store, when `--oracle-path` is set.
    store: Option<Arc<Store>>,
    /// Background store population; taken (and flushed) at drain.
    write_behind: Mutex<Option<WriteBehind>>,
    obs: &'static ServeObs,
    started: Instant,
    default_deadline: Option<Duration>,
    queue_capacity: usize,
    verify_responses: bool,
    slo: Option<Watchdog>,
    active_conns: AtomicUsize,
    served: AtomicU64,
    rejected_overloaded: AtomicU64,
    rejected_deadline: AtomicU64,
    connections: AtomicU64,
}

/// Runs the server until SIGINT/SIGTERM (or [`request_shutdown`]),
/// then drains and returns the lifetime totals.
///
/// Prints exactly one line to stdout once the socket is bound —
/// `star-serve listening on <addr>` — so callers (tests, scripts) can
/// discover the port when the config asked for `:0`.
pub fn run(config: ServeConfig) -> Result<ServeSummary, String> {
    SHUTDOWN.store(false, Ordering::SeqCst);
    install_signal_handlers();

    let listener =
        TcpListener::bind(&config.addr).map_err(|e| format!("bind {}: {e}", config.addr))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| format!("set_nonblocking: {e}"))?;
    let local = listener.local_addr().map_err(|e| e.to_string())?;

    let workers = match config.threads {
        0 => star_pool::threads().min(8),
        t => t,
    };
    // First requests should not pay for the Lemma-4 oracle build.
    star_ring::oracle::warm();

    let store = match &config.oracle_path {
        Some(path) => {
            Some(Arc::new(Store::open(path).map_err(|e| {
                format!("oracle store {}: {e}", path.display())
            })?))
        }
        None => None,
    };
    let write_behind = store.as_ref().map(|s| WriteBehind::start(Arc::clone(s)));

    let ctx = Arc::new(Ctx {
        queue: BoundedQueue::new(config.queue_capacity),
        cache: ResultCache::with_budget(config.cache_bytes),
        canon: Canonicalizer::default(),
        store,
        write_behind: Mutex::new(write_behind),
        obs: obs(),
        started: Instant::now(),
        default_deadline: config.default_deadline_ms.map(Duration::from_millis),
        queue_capacity: config.queue_capacity,
        verify_responses: config.verify_responses,
        slo: config.slo.map(Watchdog::new),
        active_conns: AtomicUsize::new(0),
        served: AtomicU64::new(0),
        rejected_overloaded: AtomicU64::new(0),
        rejected_deadline: AtomicU64::new(0),
        connections: AtomicU64::new(0),
    });

    println!("star-serve listening on {local}");
    std::io::stdout().flush().ok();
    eprintln!(
        "star-serve: {workers} workers, queue {}, cache {} MiB{}{}",
        config.queue_capacity,
        config.cache_bytes >> 20,
        if config.verify_responses {
            ", verify on"
        } else {
            ""
        },
        match &ctx.slo {
            Some(dog) => format!(", slo {}ms", dog.target().as_millis()),
            None => String::new(),
        }
    );
    if let Some(store) = &ctx.store {
        let st = store.stats();
        eprintln!(
            "star-serve: oracle store at {} — {} records in {} segments ({} KiB)",
            store.dir().display(),
            st.records,
            st.segments,
            st.bytes >> 10,
        );
    }

    let worker_handles: Vec<_> = (0..workers)
        .map(|i| {
            let ctx = Arc::clone(&ctx);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&ctx))
                .map_err(|e| e.to_string())
        })
        .collect::<Result<_, _>>()?;

    // Accept loop: poll so the shutdown flag is honored promptly.
    while !shutting_down() {
        match listener.accept() {
            Ok((stream, peer)) => {
                ctx.connections.fetch_add(1, Ordering::Relaxed);
                ctx.obs.accepted.incr(1);
                if star_obs::flightrec::enabled() {
                    star_obs::flightrec::record("serve.accept", peer.to_string(), &[]);
                }
                ctx.active_conns.fetch_add(1, Ordering::SeqCst);
                let ctx = Arc::clone(&ctx);
                let _ = std::thread::Builder::new()
                    .name("serve-conn".to_string())
                    .spawn(move || {
                        handle_conn(&ctx, stream, peer.to_string());
                        ctx.active_conns.fetch_sub(1, Ordering::SeqCst);
                    });
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(format!("accept: {e}")),
        }
    }

    // Drain: stop admitting, finish the backlog, flush telemetry.
    eprintln!("star-serve: shutdown requested — draining queue");
    ctx.queue.close();
    for h in worker_handles {
        let _ = h.join();
    }
    // Give in-flight connection handlers one poll period to notice.
    let waited = Instant::now();
    while ctx.active_conns.load(Ordering::SeqCst) > 0 && waited.elapsed() < Duration::from_secs(2) {
        std::thread::sleep(Duration::from_millis(20));
    }
    // Flush the oracle write-behind queue before reporting: a graceful
    // drain persists every accepted embed.
    if let Some(wb) = ctx
        .write_behind
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .take()
    {
        wb.shutdown();
        if let Some(store) = &ctx.store {
            let st = store.stats();
            eprintln!(
                "star-serve: oracle store flushed — {} records ({} KiB)",
                st.records,
                st.bytes >> 10
            );
        }
    }
    if star_obs::flightrec::enabled() && star_obs::flightrec::recorded_total() > 0 {
        let path = star_obs::flightrec::dump_path();
        match star_obs::flightrec::dump_to(&path, "serve.shutdown") {
            Ok(n) => eprintln!(
                "star-serve: flight recorder flushed ({n} events) to {}",
                path.display()
            ),
            Err(e) => eprintln!("star-serve: flight recorder flush failed: {e}"),
        }
    }
    let summary = ServeSummary {
        served: ctx.served.load(Ordering::Relaxed),
        rejected_overloaded: ctx.rejected_overloaded.load(Ordering::Relaxed),
        rejected_deadline: ctx.rejected_deadline.load(Ordering::Relaxed),
        connections: ctx.connections.load(Ordering::Relaxed),
    };
    eprintln!(
        "star-serve: drained — {} served, {} overloaded, {} deadline-expired, {} connections",
        summary.served, summary.rejected_overloaded, summary.rejected_deadline, summary.connections
    );
    Ok(summary)
}

fn handle_conn(ctx: &Ctx, stream: TcpStream, peer: String) {
    stream.set_nodelay(true).ok();
    stream.set_read_timeout(Some(POLL)).ok();
    stream.set_write_timeout(Some(POLL)).ok();
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let conn = Arc::new(Conn {
        stream: Mutex::new(stream),
        peer,
        cut: AtomicBool::new(false),
    });
    loop {
        match read_frame(&mut reader) {
            Ok(FrameRead::Idle) => {
                if shutting_down() {
                    return;
                }
            }
            Ok(FrameRead::Eof) => return,
            Ok(FrameRead::Frame(bytes)) => handle_frame(ctx, &conn, &bytes),
            Err(e) if e.kind() == std::io::ErrorKind::InvalidData => {
                // Frame-layer violation (oversized length prefix): tell
                // the client, then drop the connection — the stream is no
                // longer in sync.
                conn.respond(
                    ctx,
                    &error_response(None, ErrorCode::BadRequest, &e.to_string()),
                );
                return;
            }
            Err(_) => return,
        }
    }
}

fn handle_frame(ctx: &Ctx, conn: &Arc<Conn>, bytes: &[u8]) {
    ctx.obs.requests.incr(1);
    let received = Instant::now();
    let request = match Request::parse(bytes) {
        Ok(r) => r,
        Err(msg) => {
            ctx.obs.bad_request.incr(1);
            conn.respond(ctx, &error_response(None, ErrorCode::BadRequest, &msg));
            return;
        }
    };
    // Admission-path flight-recorder events (reject, shutdown) carry the
    // request's trace id; the worker sets its own guard after dequeue.
    let _trace = request.trace_id.map(star_obs::with_trace);
    match request.body {
        // Control-plane requests answer inline: they must stay cheap and
        // must not queue behind (or be rejected with) embed work. They
        // are counted and timed apart from embed work — a load balancer
        // health-checking every second must not dilute embed latency
        // percentiles.
        RequestBody::Health => {
            ctx.obs.inline_health.incr(1);
            let status = if shutting_down() {
                "draining"
            } else {
                "serving"
            };
            conn.respond(
                ctx,
                &ok_response(
                    request.id.as_deref(),
                    "health",
                    vec![
                        ("status".to_string(), Json::from(status)),
                        (
                            "uptime_ms".to_string(),
                            Json::from(ctx.started.elapsed().as_millis() as u64),
                        ),
                    ],
                ),
            );
            ctx.obs
                .lat_inline
                .observe_ns(received.elapsed().as_nanos() as u64);
        }
        RequestBody::Stats => {
            ctx.obs.inline_stats.incr(1);
            conn.respond(ctx, &stats_response(ctx, request.id.as_deref()));
            ctx.obs
                .lat_inline
                .observe_ns(received.elapsed().as_nanos() as u64);
        }
        _ => {
            let deadline = request
                .deadline_ms
                .map(Duration::from_millis)
                .or(ctx.default_deadline)
                .map(|d| received + d);
            let job = Job {
                request,
                conn: Arc::clone(conn),
                received,
                deadline,
            };
            match ctx.queue.try_push(job) {
                Ok(depth) => {
                    ctx.obs.queue_depth.observe_ns(depth as u64);
                }
                Err(PushError::Overloaded(job)) => {
                    ctx.rejected_overloaded.fetch_add(1, Ordering::Relaxed);
                    ctx.obs.rejected_overloaded.incr(1);
                    if star_obs::flightrec::enabled() {
                        star_obs::flightrec::record(
                            "serve.reject",
                            job.conn.peer.clone(),
                            &[(
                                "queue_depth",
                                star_obs::FieldValue::U64(ctx.queue_capacity as u64),
                            )],
                        );
                    }
                    job.conn.respond(
                        ctx,
                        &reject_response(
                            &job,
                            ErrorCode::Overloaded,
                            &format!("request queue at high-water mark ({})", ctx.queue_capacity),
                        ),
                    );
                }
                Err(PushError::Closed(job)) => {
                    ctx.obs.rejected_shutdown.incr(1);
                    job.conn.respond(
                        ctx,
                        &reject_response(&job, ErrorCode::ShuttingDown, "server is draining"),
                    );
                }
            }
        }
    }
}

/// Microseconds in `d`, saturating into `u64` (wire unit for timings).
fn micros(d: Duration) -> u64 {
    d.as_micros().min(u64::MAX as u128) as u64
}

/// A rejection on the admission path: for traced requests the response
/// still carries the trace id and the queue time spent before rejection.
fn reject_response(job: &Job, code: ErrorCode, message: &str) -> Json {
    match job.request.trace_id {
        Some(trace) => error_response_traced(
            job.request.id.as_deref(),
            code,
            message,
            trace,
            &ServerTiming {
                queue_us: micros(job.received.elapsed()),
                ..ServerTiming::default()
            },
        ),
        None => error_response(job.request.id.as_deref(), code, message),
    }
}

fn stats_response(ctx: &Ctx, id: Option<&str>) -> Json {
    let cache = ctx.cache.stats();
    let mut oracle_members = vec![
        (
            "literal_hits".to_string(),
            Json::from(ctx.obs.oracle_literal_hit.get()),
        ),
        (
            "canonical_hits".to_string(),
            Json::from(ctx.obs.oracle_canonical_hit.get()),
        ),
        ("misses".to_string(), Json::from(ctx.obs.oracle_miss.get())),
    ];
    if let Some(store) = &ctx.store {
        let st = store.stats();
        oracle_members.push((
            "store".to_string(),
            Json::Obj(vec![
                ("records".to_string(), Json::from(st.records)),
                ("segments".to_string(), Json::from(st.segments)),
                ("bytes".to_string(), Json::from(st.bytes)),
                ("hits".to_string(), Json::from(st.hits)),
                ("misses".to_string(), Json::from(st.misses)),
                ("corrupt".to_string(), Json::from(st.corrupt)),
                (
                    "bad_records".to_string(),
                    Json::from(ctx.obs.oracle_store_bad_record.get()),
                ),
            ]),
        ));
    }
    ok_response(
        id,
        "stats",
        vec![
            ("queue_depth".to_string(), Json::from(ctx.queue.depth())),
            ("queue_capacity".to_string(), Json::from(ctx.queue_capacity)),
            (
                "connections_active".to_string(),
                Json::from(ctx.active_conns.load(Ordering::SeqCst)),
            ),
            (
                "served".to_string(),
                Json::from(ctx.served.load(Ordering::Relaxed)),
            ),
            (
                "rejected_overloaded".to_string(),
                Json::from(ctx.rejected_overloaded.load(Ordering::Relaxed)),
            ),
            (
                "rejected_deadline".to_string(),
                Json::from(ctx.rejected_deadline.load(Ordering::Relaxed)),
            ),
            (
                "rejected_oversize_response".to_string(),
                Json::from(ctx.obs.reject_oversize.get()),
            ),
            (
                "rejected_slow_reader".to_string(),
                Json::from(ctx.obs.reject_slow_reader.get()),
            ),
            (
                "v2".to_string(),
                Json::Obj(vec![
                    ("streams".to_string(), Json::from(ctx.obs.v2_streams.get())),
                    ("chunks".to_string(), Json::from(ctx.obs.v2_chunks.get())),
                ]),
            ),
            (
                "inline".to_string(),
                Json::Obj(vec![
                    (
                        "health".to_string(),
                        Json::from(ctx.obs.inline_health.get()),
                    ),
                    ("stats".to_string(), Json::from(ctx.obs.inline_stats.get())),
                ]),
            ),
            (
                "cache".to_string(),
                Json::Obj(vec![
                    ("entries".to_string(), Json::from(cache.entries)),
                    ("bytes".to_string(), Json::from(cache.bytes)),
                    ("hits".to_string(), Json::from(cache.hits)),
                    ("misses".to_string(), Json::from(cache.misses)),
                    ("evictions".to_string(), Json::from(cache.evictions)),
                    (
                        "oversize_rejects".to_string(),
                        Json::from(cache.oversize_rejects),
                    ),
                ]),
            ),
            ("oracle".to_string(), Json::Obj(oracle_members)),
        ],
    )
}

fn worker_loop(ctx: &Ctx) {
    loop {
        match ctx.queue.pop(POLL) {
            Some(job) => handle_job(ctx, job),
            None => {
                if ctx.queue.is_closed() {
                    star_obs::flightrec::flush_pending_counters();
                    return;
                }
            }
        }
    }
}

/// What a worker produced for one queued request: a single JSON
/// document, or a negotiated-v2 stream — a JSON header frame followed by
/// already-encoded binary chunk frames.
enum Reply {
    Json(Json),
    Stream { header: Json, chunks: Vec<Vec<u8>> },
}

fn handle_job(ctx: &Ctx, job: Job) {
    if job.conn.cut.load(Ordering::Relaxed) {
        // No one reads this connection any more.
        return;
    }
    // The request's trace id covers everything the worker does for it:
    // the embed span tree, flight-recorder events (deadline misses,
    // verify failures, counter flushes), and the SLO offender log all
    // join on it.
    let _trace = job.request.trace_id.map(star_obs::with_trace);
    let mut timing = ServerTiming {
        queue_us: micros(job.received.elapsed()),
        ..ServerTiming::default()
    };
    // Deadline enforcement happens here, at dequeue, before any embed
    // work runs: a request that waited out its budget in the queue is
    // answered `deadline_exceeded` without touching the embedder.
    if let Some(deadline) = job.deadline {
        if Instant::now() > deadline {
            ctx.rejected_deadline.fetch_add(1, Ordering::Relaxed);
            ctx.obs.rejected_deadline.incr(1);
            if star_obs::flightrec::enabled() {
                star_obs::flightrec::record(
                    "serve.deadline_miss",
                    job.request.kind(),
                    &[("waited_us", star_obs::FieldValue::U64(timing.queue_us))],
                );
            }
            let mut response = error_response(
                job.request.id.as_deref(),
                ErrorCode::DeadlineExceeded,
                &format!("deadline expired after {}us in queue", timing.queue_us),
            );
            if let (Some(trace), Json::Obj(members)) = (job.request.trace_id, &mut response) {
                attach_trace(members, trace, &timing);
            }
            job.conn.respond(ctx, &response);
            observe_slo(ctx, &job, true, &timing);
            return;
        }
    }
    let id = job.request.id.clone();
    let options = job.request.options.clone();
    let (mut reply, hist) = match &job.request.body {
        RequestBody::Embed {
            n,
            faults,
            return_ring,
            return_certificate,
        } => {
            // A request that asks for v2 gets its ring streamed.
            let stream = (job.request.proto >= PROTO_V2).then(|| {
                (
                    job.request.cursor,
                    job.request.chunk_vertices.unwrap_or(DEFAULT_CHUNK_VERTICES),
                )
            });
            (
                serve_embed(
                    ctx,
                    id.as_deref(),
                    *n,
                    faults,
                    &options,
                    *return_ring,
                    *return_certificate,
                    stream,
                    &mut timing,
                ),
                &ctx.obs.lat_embed,
            )
        }
        RequestBody::EmbedBatch {
            n,
            scenarios,
            return_ring,
        } => (
            Reply::Json(serve_batch(
                ctx,
                id.as_deref(),
                *n,
                scenarios,
                &options,
                *return_ring,
                &mut timing,
            )),
            &ctx.obs.lat_batch,
        ),
        RequestBody::Verify { n, ring, faults } => (
            Reply::Json(serve_verify(id.as_deref(), *n, ring, faults, &mut timing)),
            &ctx.obs.lat_verify,
        ),
        // Health/stats never reach the queue.
        RequestBody::Health | RequestBody::Stats => unreachable!("inline request queued"),
    };
    if let Some(trace) = job.request.trace_id {
        let doc = match &mut reply {
            Reply::Json(doc) => doc,
            Reply::Stream { header, .. } => header,
        };
        if let Json::Obj(members) = doc {
            attach_trace(members, trace, &timing);
        }
    }
    hist.observe_ns(job.received.elapsed().as_nanos() as u64);
    ctx.served.fetch_add(1, Ordering::Relaxed);
    ctx.obs.served.incr(1);
    match &reply {
        Reply::Json(response) => job.conn.respond(ctx, response),
        Reply::Stream { header, chunks } => {
            ctx.obs.v2_streams.incr(1);
            // One lock for the whole stream: a concurrently finishing
            // job on this connection must not interleave its frames
            // between the header and its chunks (chunks carry no id).
            // The header cannot outgrow the frame cap — it never
            // carries the ring, only counts and a checksum.
            let mut stream = job.conn.stream.lock().unwrap_or_else(|e| e.into_inner());
            let header_body = header.to_string();
            if job.conn.write(ctx, &mut stream, header_body.as_bytes()) {
                for (seq, body) in chunks.iter().enumerate() {
                    if !job.conn.write(ctx, &mut stream, body) {
                        // The client went away or stopped reading
                        // mid-stream; it can resume from its cursor on a
                        // new connection.
                        break;
                    }
                    ctx.obs.v2_chunks.incr(1);
                    if star_obs::flightrec::enabled() {
                        star_obs::flightrec::record(
                            "serve.v2.chunk",
                            job.conn.peer.clone(),
                            &[
                                ("seq", star_obs::FieldValue::U64(seq as u64)),
                                ("bytes", star_obs::FieldValue::U64(body.len() as u64)),
                            ],
                        );
                    }
                }
            }
        }
    }
    observe_slo(ctx, &job, false, &timing);
}

/// Feeds one finished queued request into the SLO watchdog (no-op when
/// the watchdog is off).
fn observe_slo(ctx: &Ctx, job: &Job, deadline_miss: bool, timing: &ServerTiming) {
    if let Some(dog) = &ctx.slo {
        dog.observe(&Outcome {
            trace: job.request.trace_id,
            latency: job.received.elapsed(),
            deadline_miss,
            timing: *timing,
        });
    }
}

/// Canonicalizes a scenario's vertex fault set through the shared
/// [`Canonicalizer`]; the `bool` is the memo's literal-repeat flag.
fn canonicalize_scenario(ctx: &Ctx, n: usize, faults: &star_fault::FaultSet) -> (Arc<Canon>, bool) {
    let ranks: Vec<u32> = faults.vertices().iter().map(Perm::rank).collect();
    ctx.canon.canonicalize(n, &ranks)
}

/// Maps a canonical-frame delta back to the caller's frame through the
/// witness inverse (free when the witness is the identity). Because
/// automorphisms relabel step dimensions by a fixed table, this is one
/// permutation composition plus a nibble pass — never a per-vertex walk.
fn map_back(delta_c: Arc<RingDelta>, canon: &Canon) -> Arc<RingDelta> {
    if canon.witness().is_identity() {
        delta_c
    } else {
        Arc::new(delta_c.map_through(&canon.witness().inverse()))
    }
}

/// Maps a caller-frame delta into the canonical frame for storage.
fn map_to_canonical(delta: &Arc<RingDelta>, canon: &Canon) -> Arc<RingDelta> {
    if canon.witness().is_identity() {
        Arc::clone(delta)
    } else {
        Arc::new(delta.map_through(canon.witness()))
    }
}

/// Classifies a cache/store hit as literal (this exact fault set was
/// requested before — the old literal-key cache would also have hit) or
/// canonical (the hit exists only because of automorphism collapsing).
fn classify_hit(ctx: &Ctx, literal_repeat: bool) {
    if literal_repeat {
        ctx.obs.oracle_literal_hit.incr(1);
    } else {
        ctx.obs.oracle_canonical_hit.incr(1);
    }
    if star_obs::flightrec::enabled() {
        star_obs::flightrec::record(
            "serve.oracle.hit",
            if literal_repeat {
                "literal"
            } else {
                "canonical"
            },
            &[],
        );
    }
}

/// Hands a freshly embedded canonical-frame ring to the write-behind
/// worker (no-op without `--oracle-path`). The store keeps rings as
/// deltas, so the worker gets a clone of the `Arc` the LRU holds: no
/// copy and no decode on the request thread.
fn persist_behind(ctx: &Ctx, key: &CacheKey, delta_c: &Arc<RingDelta>) {
    if ctx.store.is_none() {
        return;
    }
    let wb = ctx.write_behind.lock().unwrap_or_else(|e| e.into_inner());
    if let Some(wb) = wb.as_ref() {
        wb.submit(key.clone(), Arc::clone(delta_c));
    }
}

/// Reads the canonical-frame ring stored for `key` (when the server has
/// a store) and caches it. The store has checked the record checksum,
/// the key and the delta itself. A torn or corrupt record is a plain
/// miss; an intact record that is not a valid delta is counted in
/// `serve.oracle.store_bad_record` and read as a miss. Either way the
/// caller re-embeds.
fn store_lookup(ctx: &Ctx, key: &CacheKey) -> Option<Arc<RingDelta>> {
    match ctx.store.as_ref()?.get_delta(key)? {
        Ok(delta) => {
            let delta_c = Arc::new(delta);
            ctx.cache.insert(key.clone(), Arc::clone(&delta_c));
            ctx.obs.oracle_store_hit.incr(1);
            Some(delta_c)
        }
        Err(e) => {
            ctx.obs.oracle_store_bad_record.incr(1);
            star_obs::flightrec::record("serve.oracle.store_bad_record", e, &[]);
            None
        }
    }
}

/// Looks a scenario up through the canonical oracle: the LRU, then the
/// disk store. A hit returns the ring in the caller's frame; a miss is
/// counted and returns the canonical form and key that [`oracle_admit`]
/// files the fresh embed under.
fn oracle_lookup(
    ctx: &Ctx,
    n: usize,
    faults: &star_fault::FaultSet,
    options: &EmbedOptions,
) -> Result<Arc<RingDelta>, (Arc<Canon>, CacheKey)> {
    let (canon, literal_repeat) = canonicalize_scenario(ctx, n, faults);
    let key = key_for(&canon, options);
    match ctx.cache.get(&key).or_else(|| store_lookup(ctx, &key)) {
        Some(delta_c) => {
            classify_hit(ctx, literal_repeat);
            Ok(map_back(delta_c, &canon))
        }
        None => {
            ctx.obs.oracle_miss.incr(1);
            Err((canon, key))
        }
    }
}

/// Admits a freshly embedded ring, given as the caller-frame delta the
/// embedder wrote: caches its canonical-frame image under `key` and
/// writes that behind. Returns the caller-frame delta.
fn oracle_admit(ctx: &Ctx, canon: &Canon, key: CacheKey, delta: RingDelta) -> Arc<RingDelta> {
    let delta = Arc::new(delta);
    let delta_c = map_to_canonical(&delta, canon);
    ctx.cache.insert(key.clone(), Arc::clone(&delta_c));
    persist_behind(ctx, &key, &delta_c);
    delta
}

fn embed_members(n: usize, ring_len: u64, cached: bool) -> Vec<(String, Json)> {
    vec![
        ("n".to_string(), Json::from(n)),
        ("ring_len".to_string(), Json::from(ring_len)),
        (
            "deficiency".to_string(),
            Json::from(star_perm::factorial(n) - ring_len),
        ),
        ("cached".to_string(), Json::Bool(cached)),
    ]
}

/// Server-side audit for `--verify` mode: the exact Theorem-1 length,
/// then one [`RingCheck`] walk of the delta. Returns the ring's
/// STARRING-CERT checksum, or the failure reason.
fn audit_ring(n: usize, delta: &RingDelta, faults: &star_fault::FaultSet) -> Result<u64, String> {
    let expected = star_perm::factorial(n) - 2 * faults.vertex_fault_count() as u64;
    if delta.len() as u64 != expected {
        return Err(format!(
            "ring length {} != n! - 2|F_v| = {expected}",
            delta.len()
        ));
    }
    let mut check = RingCheck::new(n, faults).map_err(|e| e.to_string())?;
    check.push_delta(delta).map_err(|e| e.to_string())?;
    check
        .finish()
        .map(|summary| summary.checksum)
        .map_err(|e| e.to_string())
}

#[allow(clippy::too_many_arguments)]
fn serve_embed(
    ctx: &Ctx,
    id: Option<&str>,
    n: usize,
    faults: &star_fault::FaultSet,
    options: &EmbedOptions,
    return_ring: bool,
    return_certificate: bool,
    stream: Option<(u64, u32)>,
    timing: &mut ServerTiming,
) -> Reply {
    // Through the canonical oracle: a hit, else a fresh embed admitted
    // to it. Everything past the embedder works on the generator-delta
    // encoding; vertices are only expanded where a response carries them.
    let embed_start = Instant::now();
    let embedded = match oracle_lookup(ctx, n, faults, options) {
        Ok(delta) => Ok((delta, true)),
        Err((canon, key)) => embed_with_options(n, faults, options)
            .map_err(|e| e.to_string())
            .map(|ring| (oracle_admit(ctx, &canon, key, ring.into_delta()), false)),
    };
    timing.embed_us = micros(embed_start.elapsed());
    let (delta, cached) = match embedded {
        Ok(pair) => pair,
        Err(msg) => {
            ctx.obs.embed_failed.incr(1);
            return Reply::Json(error_response(id, ErrorCode::EmbedFailed, &msg));
        }
    };
    // The `--verify` audit walks the delta once and yields the
    // certificate checksum on the way.
    let mut audited_checksum = None;
    if ctx.verify_responses {
        let verify_start = Instant::now();
        let audit = audit_ring(n, &delta, faults);
        timing.verify_us = micros(verify_start.elapsed());
        match audit {
            Ok(checksum) => audited_checksum = Some(checksum),
            Err(reason) => {
                ctx.obs.verify_failed.incr(1);
                star_obs::flightrec::record("serve.verify_failed", reason.clone(), &[]);
                star_obs::flightrec::dump_on_failure("serve.verify_failed");
                return Reply::Json(error_response(id, ErrorCode::VerifyFailed, &reason));
            }
        }
    }
    if let Some((cursor, chunk_vertices)) = stream {
        // Negotiated v2: the ring (when requested) rides in binary chunk
        // frames after the JSON header, and the certificate collapses to
        // its checksum — the client recomputes it incrementally from the
        // chunks it consumes, so no response member grows with the ring.
        let encode_start = Instant::now();
        let mut members = embed_members(n, delta.len() as u64, cached);
        members.push(("proto".to_string(), Json::from(PROTO_V2 as u64)));
        let chunks = if return_ring {
            let chunks = match chunk_stream(&delta, cursor, chunk_vertices) {
                Ok(chunks) => chunks,
                Err(msg) => return Reply::Json(error_response(id, ErrorCode::BadRequest, &msg)),
            };
            members.push(("encoding".to_string(), Json::from("delta-v2")));
            members.push(("cursor".to_string(), Json::from(cursor)));
            members.push((
                "chunk_vertices".to_string(),
                Json::from(chunk_vertices as u64),
            ));
            members.push(("chunks".to_string(), Json::from(chunks.len())));
            chunks.iter().map(ChunkFrame::encode).collect()
        } else {
            Vec::new()
        };
        timing.encode_us = micros(encode_start.elapsed());
        if return_certificate || ctx.verify_responses {
            // Checksum construction re-walks the ring unless the audit
            // already did: verification work, not encoding.
            let cert_start = Instant::now();
            let checksum = audited_checksum.unwrap_or_else(|| {
                star_verify::certificate::ring_checksum(delta.walk().map(|p| p.rank() as u32))
            });
            timing.verify_us += micros(cert_start.elapsed());
            ctx.obs.certificates.incr(1);
            members.push((
                "cert_checksum".to_string(),
                Json::from(format!("{checksum:016x}")),
            ));
        }
        let header = ok_response(id, "embed", members);
        if chunks.is_empty() {
            Reply::Json(header)
        } else {
            Reply::Stream { header, chunks }
        }
    } else {
        let encode_start = Instant::now();
        let mut members = embed_members(n, delta.len() as u64, cached);
        if return_ring {
            members.push(("ring".to_string(), ring_to_json(&delta)));
        }
        timing.encode_us = micros(encode_start.elapsed());
        if return_certificate || ctx.verify_responses {
            // Certificate construction is verification work (it
            // re-walks the ring), not response encoding.
            let cert_start = Instant::now();
            let cert = star_verify::certificate::certificate_for(faults, &delta);
            timing.verify_us += micros(cert_start.elapsed());
            ctx.obs.certificates.incr(1);
            members.push(("certificate".to_string(), Json::from(cert)));
        }
        Reply::Json(ok_response(id, "embed", members))
    }
}

/// Batch path: cache lookups first, then one `embed_many` over the
/// misses (so the batch still fans out through `star-pool`), then a
/// per-item response array in input order.
#[allow(clippy::too_many_arguments)]
fn serve_batch(
    ctx: &Ctx,
    id: Option<&str>,
    n: usize,
    scenarios: &[Result<star_fault::FaultSet, String>],
    options: &EmbedOptions,
    return_ring: bool,
    timing: &mut ServerTiming,
) -> Json {
    let embed_start = Instant::now();
    enum Slot {
        Ready(Arc<RingDelta>),
        Pending(usize),
        Bad(String),
    }
    let mut misses: Vec<star_fault::FaultSet> = Vec::new();
    let mut miss_keys: Vec<(Arc<Canon>, CacheKey)> = Vec::new();
    let mut slots: Vec<Slot> = scenarios
        .iter()
        .map(|scenario| match scenario {
            Err(msg) => Slot::Bad(msg.clone()),
            Ok(faults) => match oracle_lookup(ctx, n, faults, options) {
                Ok(delta) => Slot::Ready(delta),
                Err(miss) => {
                    misses.push(faults.clone());
                    miss_keys.push(miss);
                    Slot::Pending(misses.len() - 1)
                }
            },
        })
        .collect();
    let embedded = embed_many_with_options(n, &misses, options);
    let miss_results: Vec<Result<Arc<RingDelta>, String>> = miss_keys
        .into_iter()
        .zip(embedded)
        .map(|((canon, key), result)| {
            let ring = result.map_err(|e| e.to_string())?;
            Ok(oracle_admit(ctx, &canon, key, ring.into_delta()))
        })
        .collect();
    timing.embed_us = micros(embed_start.elapsed());
    let encode_start = Instant::now();
    let mut verify_ns = 0u128;
    let mut failed = 0u64;
    let mut verify_failed = 0u64;
    let item_error = |code: ErrorCode, message: &str| {
        Json::Obj(vec![
            ("ok".to_string(), Json::Bool(false)),
            ("error".to_string(), Json::from(code.as_str())),
            ("message".to_string(), Json::from(message)),
        ])
    };
    // `slots` is parallel to `scenarios` (input order), so zipping gives
    // each item its own fault set back for the `--verify` audit.
    let items: Vec<Json> = slots
        .drain(..)
        .zip(scenarios)
        .map(|(slot, scenario)| {
            let (delta, cached) = match slot {
                Slot::Ready(delta) => (delta, true),
                Slot::Pending(i) => match &miss_results[i] {
                    Ok(delta) => (Arc::clone(delta), false),
                    Err(e) => {
                        failed += 1;
                        return item_error(ErrorCode::EmbedFailed, e);
                    }
                },
                Slot::Bad(msg) => {
                    failed += 1;
                    return item_error(ErrorCode::BadRequest, &msg);
                }
            };
            // Non-Bad slots always come from an Ok scenario, so the
            // if-let never skips a real audit.
            if let (true, Ok(faults)) = (ctx.verify_responses, scenario.as_ref()) {
                let verify_start = Instant::now();
                let audit = audit_ring(n, &delta, faults);
                verify_ns += verify_start.elapsed().as_nanos();
                if let Err(reason) = audit {
                    verify_failed += 1;
                    star_obs::flightrec::record("serve.verify_failed", reason.clone(), &[]);
                    star_obs::flightrec::dump_on_failure("serve.verify_failed");
                    return item_error(ErrorCode::VerifyFailed, &reason);
                }
            }
            let mut members = vec![("ok".to_string(), Json::Bool(true))];
            members.extend(embed_members(n, delta.len() as u64, cached));
            if return_ring {
                members.push(("ring".to_string(), ring_to_json(&delta)));
            }
            Json::Obj(members)
        })
        .collect();
    if verify_failed > 0 {
        ctx.obs.verify_failed.incr(verify_failed);
    }
    if failed > 0 {
        ctx.obs.embed_failed.incr(failed);
    }
    timing.verify_us = (verify_ns / 1_000).min(u64::MAX as u128) as u64;
    timing.encode_us = micros(encode_start.elapsed()).saturating_sub(timing.verify_us);
    ok_response(
        id,
        "embed_batch",
        vec![
            ("n".to_string(), Json::from(n)),
            ("items".to_string(), Json::Arr(items)),
        ],
    )
}

fn serve_verify(
    id: Option<&str>,
    n: usize,
    ring: &[star_perm::Perm],
    faults: &star_fault::FaultSet,
    timing: &mut ServerTiming,
) -> Json {
    let mut members = vec![
        ("n".to_string(), Json::from(n)),
        ("ring_len".to_string(), Json::from(ring.len())),
    ];
    let verify_start = Instant::now();
    let checked = star_verify::check_ring(n, ring, faults);
    timing.verify_us = micros(verify_start.elapsed());
    match checked {
        Ok(_) => members.push(("valid".to_string(), Json::Bool(true))),
        Err(e) => {
            members.push(("valid".to_string(), Json::Bool(false)));
            members.push(("reason".to_string(), Json::from(e.to_string())));
        }
    }
    ok_response(id, "verify", members)
}
