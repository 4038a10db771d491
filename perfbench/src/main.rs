//! `perfbench`: the serving benchmark.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload <cold|orbit|restart> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the root of a checkout. It builds `star-rings`, starts a
//! fresh `star-rings serve` per setup, drives it open-loop over protocol
//! v2 from one connection, verifies every ring, and prints one JSON
//! object as the last line of stdout: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. See
//! `perfbench/README.md`.

mod drive;
mod replay;
mod server;
mod workload;

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use drive::{drive, Outcome};
use server::{dir_bytes, host_steal_ticks, Server, Stats};
use workload::{Kind, Plan, RING_LEN};

/// Setups per `--trace 0` run; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// A run whose sender wrote any request later than this after its
/// scheduled time fell behind its schedule and is invalid.
const GEN_LATE_LIMIT: Duration = Duration::from_millis(50);
/// Where runs keep their stores, server logs and trace files.
const RUN_DIR: &str = ".bench_run";

struct Args {
    kind: Kind,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number"))
        };
        match flag.as_str() {
            "--workload" => kind = Some(Kind::parse(value)?),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = Some(number()? != 0),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    match run() {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    }
}

/// A run's scratch directory, removed when the run ends.
struct WorkDir(PathBuf);

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn run() -> Result<i32, String> {
    let args = parse_args()?;
    let root = std::env::current_dir().map_err(|e| e.to_string())?;
    if !root.join("Cargo.toml").is_file() || !root.join("crates/serve").is_dir() {
        return Err("run from the root of a star-rings checkout".to_string());
    }
    let bin = server::build(&root)?;
    let runs = root.join(RUN_DIR);
    let tag = format!("{}-{}", args.kind.name(), args.seed);
    let work = WorkDir(runs.join(format!("{tag}-{}", std::process::id())));
    std::fs::create_dir_all(&work.0).map_err(|e| format!("create {}: {e}", work.0.display()))?;

    // A traced run makes two socket windows and a replay; each window is
    // half the run's seconds.
    let window_s = if args.trace {
        args.seconds.div_ceil(2)
    } else {
        args.seconds
    };
    let plan = Plan::generate(args.kind, args.seed, window_s);
    eprintln!(
        "perfbench: {} seed {} — {} timed requests at {}/s over {} s, {} setup requests",
        args.kind.name(),
        args.seed,
        plan.timed.len(),
        args.kind.rate_per_s(),
        window_s,
        plan.setup.len() + plan.memo_pass.len(),
    );
    let ctx = Ctx {
        bin,
        plan,
        work: work.0.clone(),
        seed: args.seed,
    };
    let result = if args.trace {
        traced(&ctx, &runs.join(format!("trace-{tag}.jsonl")))?
    } else {
        untraced(&ctx)?
    };
    println!("{}", result.to_json());
    std::io::stdout().flush().ok();
    Ok(if result.correct { 0 } else { 1 })
}

struct Ctx {
    bin: PathBuf,
    plan: Plan,
    work: PathBuf,
    seed: u64,
}

/// The printed result.
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Vec<(&'static str, f64, &'static str)>,
}

impl RunResult {
    fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(*value)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Starts a server on a fresh store and brings it to the workload's
/// starting state: `cold` warms up on two fresh orbits, `orbit` caches
/// its base sets, `restart` fills the store through one server, stops
/// it, starts another on the same store and makes one untimed pass to
/// fill the canonicalizer memo.
fn setup(ctx: &Ctx, name: &str) -> Result<(Server, PathBuf), String> {
    let store = ctx.work.join(format!("store-{name}"));
    let start = |label: &str| {
        Server::start(
            &ctx.bin,
            ctx.plan.kind,
            &store,
            &ctx.work.join(format!("server-{name}-{label}.log")),
        )
    };
    let server = start("a")?;
    one_at_a_time(&server, &ctx.plan.setup)?;
    if ctx.plan.kind != Kind::Restart {
        return Ok((server, store));
    }
    server.stop()?;
    let server = start("b")?;
    one_at_a_time(&server, &ctx.plan.memo_pass)?;
    Ok((server, store))
}

/// Sends `requests` one at a time, each once the previous ring has
/// verified, and requires every ring to verify. Setup traffic is sent
/// this way so that no backlog (queued embeds, rings waiting for the
/// write-behind) builds up before the timed window.
fn one_at_a_time(server: &Server, requests: &[Vec<star_perm::Perm>]) -> Result<(), String> {
    for faults in requests {
        let outcomes = drive(
            &server.addr,
            std::slice::from_ref(faults),
            &[Duration::ZERO],
            None,
        )?;
        if let Some(why) = &outcomes[0].error {
            return Err(format!("setup request failed: {why}"));
        }
    }
    Ok(())
}

/// One timed window against a set-up server.
struct Window {
    outcomes: Vec<Outcome>,
    traffic: Stats,
    cpu_ms: f64,
    /// Share of the machine's CPU time the host took during the window.
    steal_pct: f64,
    peak_rss_mb: f64,
    store_bytes: u64,
    store_records: u64,
}

fn window(ctx: &Ctx, server: Server, store: &Path, traced: bool) -> Result<Window, String> {
    let before = server.stats()?;
    let steal0 = host_steal_ticks()?;
    let cpu0 = server.cpu_ms()?;
    let outcomes = drive(
        &server.addr,
        &ctx.plan.timed,
        &ctx.plan.schedule,
        traced.then_some(ctx.seed),
    )?;
    let cpu_ms = server.cpu_ms()? - cpu0;
    let steal1 = host_steal_ticks()?;
    let steal_pct = 100.0 * (steal1.0 - steal0.0) as f64 / (steal1.1 - steal0.1).max(1) as f64;
    let traffic = server.stats()?.since(&before);
    let peak_rss_mb = server.peak_rss_mb()?;
    // A graceful stop flushes the write-behind, so the store on disk is
    // complete when it is measured.
    server.stop()?;
    let store_bytes = dir_bytes(store);
    let store_records = star_oracle::Store::open(store)
        .map_err(|e| format!("reopen store: {e}"))?
        .stats()
        .records;
    Ok(Window {
        outcomes,
        traffic,
        cpu_ms,
        steal_pct,
        peak_rss_mb,
        store_bytes,
        store_records,
    })
}

/// Checks that the window's counters match the path the workload is
/// meant to take. Returns the mismatches.
fn traffic_mismatches(kind: Kind, t: &Stats, requests: u64) -> Vec<String> {
    let mut bad = Vec::new();
    let mut expect = |what: &str, got: u64, ok: bool| {
        if !ok {
            bad.push(format!("{what} = {got}"));
        }
    };
    expect("served", t.served, t.served == requests);
    match kind {
        Kind::Cold => {
            expect("oracle misses", t.misses, t.misses == requests);
            expect("literal hits", t.literal_hits, t.literal_hits == 0);
            expect("canonical hits", t.canonical_hits, t.canonical_hits == 0);
            expect("cache hits", t.cache_hits, t.cache_hits == 0);
            expect("store hits", t.store_hits, t.store_hits == 0);
        }
        Kind::Orbit => {
            expect(
                "canonical hits",
                t.canonical_hits,
                t.canonical_hits == requests,
            );
            expect("oracle misses", t.misses, t.misses == 0);
            expect("cache misses", t.cache_misses, t.cache_misses == 0);
            expect(
                "store reads",
                t.store_hits + t.store_misses,
                t.store_hits + t.store_misses == 0,
            );
        }
        Kind::Restart => {
            expect("oracle misses", t.misses, t.misses == 0);
            expect("store misses", t.store_misses, t.store_misses == 0);
            expect(
                "store hits",
                t.store_hits,
                t.store_hits * 20 >= requests * 19,
            );
            expect("literal hits", t.literal_hits, t.literal_hits == requests);
        }
    }
    expect("store corrupt", t.store_corrupt, t.store_corrupt == 0);
    bad
}

fn ratio(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        0.0
    } else {
        part as f64 / whole as f64
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The value at quantile `q` of sorted samples (nearest rank).
fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let i = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[i - 1]
}

fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// The latency at the highest percentile with at least ten samples
/// beyond it, with that percentile.
fn tail(sorted: &[f64]) -> (f64, f64) {
    match sorted.len() {
        0 => (0.0, 0.0),
        n if n <= 10 => (sorted[n - 1], 100.0),
        n => (sorted[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

/// Failures a window's outcomes and counters show; printed as they are
/// found.
fn window_failures(kind: Kind, w: &Window) -> usize {
    let mut failed = 0;
    for (i, o) in w.outcomes.iter().enumerate() {
        if let Some(why) = &o.error {
            eprintln!("perfbench: request r{i} failed: {why}");
            failed += 1;
        }
    }
    let mismatches = traffic_mismatches(kind, &w.traffic, w.outcomes.len() as u64);
    for m in &mismatches {
        eprintln!("perfbench: traffic mismatch for `{}`: {m}", kind.name());
    }
    eprintln!(
        "perfbench: traffic — cache.hit_ratio {:.3}, store.hit_ratio {:.3}, embed.calls {} \
         (oracle: {} literal, {} canonical, {} misses; store {} hits / {} misses)",
        ratio(
            w.traffic.cache_hits,
            w.traffic.cache_hits + w.traffic.cache_misses
        ),
        ratio(
            w.traffic.store_hits,
            w.traffic.store_hits + w.traffic.store_misses
        ),
        w.traffic.misses,
        w.traffic.literal_hits,
        w.traffic.canonical_hits,
        w.traffic.misses,
        w.traffic.store_hits,
        w.traffic.store_misses,
    );
    if mismatches.is_empty() {
        failed
    } else {
        failed.max(1)
    }
}

/// Refuses a window whose sender fell behind its schedule.
fn check_generator(w: &Window) -> Result<Duration, String> {
    let late = w
        .outcomes
        .iter()
        .filter_map(Outcome::late)
        .max()
        .unwrap_or_default();
    if late > GEN_LATE_LIMIT {
        return Err(format!(
            "invalid run: the generator fell {:.1} ms behind its schedule (limit {} ms)",
            ms(late),
            GEN_LATE_LIMIT.as_millis()
        ));
    }
    Ok(late)
}

fn latencies(w: &Window) -> Vec<f64> {
    sorted(
        w.outcomes
            .iter()
            .filter_map(Outcome::latency)
            .map(ms)
            .collect(),
    )
}

fn untraced(ctx: &Ctx) -> Result<RunResult, String> {
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut live = None;
    for rep in 0..SETUP_REPS {
        // The previous repetition's server is discarded, not drained.
        drop(live.take());
        let t = Instant::now();
        live = Some(setup(ctx, &rep.to_string())?);
        setups.push(t.elapsed().as_secs_f64());
    }
    let (server, store) = live.expect("SETUP_REPS >= 1");
    let w = window(ctx, server, &store, false)?;
    let late = check_generator(&w)?;
    let failed = window_failures(ctx.plan.kind, &w);
    let attempted = w.outcomes.len();
    let ok = w.outcomes.iter().filter(|o| o.ok()).count();
    let lat = latencies(&w);
    let ttfc = sorted(
        w.outcomes
            .iter()
            .filter_map(Outcome::ttfc)
            .map(ms)
            .collect(),
    );
    let (tail_ms, tail_pct) = tail(&lat);
    let setup_s = quantile(&sorted(setups.clone()), 0.5);
    let metrics = vec![
        ("latency_p50_ms", quantile(&lat, 0.5), "ms"),
        ("latency_tail_ms", tail_ms, "ms"),
        ("ttfc_p50_ms", quantile(&ttfc, 0.5), "ms"),
        ("server_cpu_ms_per_ring", w.cpu_ms / ok.max(1) as f64, "ms"),
        ("server_peak_rss_mb", w.peak_rss_mb, "MiB"),
        (
            "store_bytes_per_vertex",
            w.store_bytes as f64 / (w.store_records.max(1) * RING_LEN) as f64,
            "B",
        ),
        ("ok_ratio", ratio(ok as u64, attempted as u64), "share"),
        ("setup_s", setup_s, "s"),
    ];
    eprintln!(
        "perfbench: {} — {ok}/{attempted} rings verified, failed_ratio {:.4}; \
         latency tail is p{tail_pct:.1} ({} samples, 10 beyond); generator late ≤ {:.2} ms; \
         host steal {:.1}% of CPU; setups {:?} s",
        ctx.plan.kind.name(),
        ratio(failed as u64, attempted as u64),
        lat.len(),
        ms(late),
        w.steal_pct,
        setups
            .iter()
            .map(|s| (s * 1000.0).round() / 1000.0)
            .collect::<Vec<_>>(),
    );
    print_metrics(&metrics);
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

fn print_metrics(metrics: &[(&'static str, f64, &'static str)]) {
    for (name, value, unit) in metrics {
        eprintln!("  {name:<28} {value:>14.4} {unit}");
    }
}

fn mean<T>(items: &[T], f: impl Fn(&T) -> Option<f64>) -> f64 {
    let v: Vec<f64> = items.iter().filter_map(f).collect();
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

fn traced(ctx: &Ctx, trace_path: &Path) -> Result<RunResult, String> {
    let (server, store) = setup(ctx, "untraced")?;
    let plain = window(ctx, server, &store, false)?;
    let (server, store) = setup(ctx, "traced")?;
    let traced = window(ctx, server, &store, true)?;
    let late = check_generator(&plain).and(check_generator(&traced))?;
    let mut failed =
        window_failures(ctx.plan.kind, &plain) + window_failures(ctx.plan.kind, &traced);
    let attempted = plain.outcomes.len() + traced.outcomes.len();

    let replay_dir = ctx.work.join("store-replay");
    let replay = replay::run(&ctx.plan, &replay_dir)?;
    for (i, (r, o)) in replay.served.iter().zip(&traced.outcomes).enumerate() {
        if o.checksum.is_some() && o.checksum != Some(r.checksum) {
            eprintln!(
                "perfbench: request r{i}: replayed ring checksum differs from the served one"
            );
            failed += 1;
        }
    }

    let totals = replay::layer_totals(&replay.tracer);
    let per_call_ms = |name: &str| -> f64 {
        totals
            .get(name)
            .map_or(0.0, |(calls, total)| ms(*total) / *calls as f64)
    };
    let calls = |name: &str| totals.get(name).map_or(0, |(c, _)| *c);
    let served = &replay.served;
    let n = served.len() as u64;
    let replay_server: Duration = replay::SERVER_LAYERS
        .iter()
        .filter_map(|name| totals.get(name).map(|(_, t)| *t))
        .sum();
    let echoed: Duration = traced
        .outcomes
        .iter()
        .filter_map(|o| o.timing)
        .map(|t| Duration::from_micros(t.embed_us + t.verify_us + t.encode_us))
        .sum();
    let recon_gap =
        100.0 * (replay_server.as_secs_f64() - echoed.as_secs_f64()) / echoed.as_secs_f64();
    let s4_queries: u64 = served.iter().map(|s| s.s4_queries).sum();
    let p50 = |w: &Window| quantile(&latencies(w), 0.5);
    let timing_ms = |f: fn(&star_serve::proto::ServerTiming) -> u64| {
        mean(&traced.outcomes, |o| {
            o.timing.as_ref().map(|t| f(t) as f64 / 1e3)
        })
    };
    let metrics = vec![
        ("canon.search_ms", per_call_ms("canon"), "ms"),
        (
            "canon.memo_hit_ratio",
            ratio(served.iter().filter(|s| s.memo_hit).count() as u64, n),
            "share",
        ),
        ("cache.get_us", per_call_ms("cache.get") * 1e3, "us"),
        ("cache.insert_us", per_call_ms("cache.insert") * 1e3, "us"),
        (
            "cache.hit_ratio",
            ratio(replay.cache_hits, replay.cache_hits + replay.cache_misses),
            "share",
        ),
        ("cache.evictions", replay.cache_evictions as f64, "count"),
        (
            "cache.resident_mb",
            replay.cache_resident_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        ("store.get_ms", per_call_ms("store.get"), "ms"),
        (
            "store.hit_ratio",
            ratio(replay.store_hits, replay.store_hits + replay.store_misses),
            "share",
        ),
        ("store.append_ms", per_call_ms("store.append"), "ms"),
        (
            "store.write_mb",
            replay.store_write_bytes as f64 / (1 << 20) as f64,
            "MiB",
        ),
        ("store.corrupt", replay.store_corrupt as f64, "count"),
        ("embed.calls", calls("embed") as f64, "count"),
        ("embed.positions_ms", per_call_ms("embed.positions"), "ms"),
        ("embed.hierarchy_ms", per_call_ms("embed.hierarchy"), "ms"),
        ("embed.expand_ms", per_call_ms("embed.expand"), "ms"),
        ("embed.verify_ms", per_call_ms("embed.verify"), "ms"),
        (
            "embed.s4_hit_ratio",
            ratio(served.iter().map(|s| s.s4_hits).sum(), s4_queries),
            "share",
        ),
        (
            "proto.delta_encode_ms",
            per_call_ms("proto.delta_encode"),
            "ms",
        ),
        (
            "proto.delta_decode_ms",
            per_call_ms("proto.delta_decode"),
            "ms",
        ),
        (
            "proto.map_through_ms",
            per_call_ms("proto.map_through"),
            "ms",
        ),
        (
            "proto.chunk_encode_ms",
            per_call_ms("proto.chunk_encode"),
            "ms",
        ),
        (
            "proto.wire_bytes_per_vertex",
            served.iter().map(|s| s.wire_bytes).sum::<u64>() as f64 / (n.max(1) * RING_LEN) as f64,
            "B",
        ),
        ("stream.verify_ms", per_call_ms("stream.verify"), "ms"),
        ("server.queue_ms", timing_ms(|t| t.queue_us), "ms"),
        (
            "server.work_ms",
            timing_ms(|t| t.embed_us + t.verify_us),
            "ms",
        ),
        ("server.encode_ms", timing_ms(|t| t.encode_us), "ms"),
        (
            "client.transfer_ms",
            mean(&traced.outcomes, |o| o.ok().then(|| ms(o.read))),
            "ms",
        ),
        ("gen.late_ms", ms(late), "ms"),
        ("trace.recon_gap_pct", recon_gap.abs(), "%"),
        (
            "trace.overhead_pct",
            100.0 * (p50(&traced) - p50(&plain)) / p50(&plain),
            "%",
        ),
    ];
    write_trace(trace_path, &replay.tracer, &traced.outcomes)?;
    eprintln!(
        "perfbench: {} traced — replayed {n} requests; the replay's server-side layers sum to \
         {:.1} ms against {:.1} ms of echoed work + encode ({recon_gap:+.2}%); layer self times \
         (calls, total ms):",
        ctx.plan.kind.name(),
        ms(replay_server),
        ms(echoed),
    );
    for (name, (c, total)) in &totals {
        eprintln!("  {name:<22} {c:>6} {:>12.2}", ms(*total));
    }
    eprintln!(
        "perfbench: spans and per-request records written to {}",
        trace_path.display()
    );
    print_metrics(&metrics);
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
    })
}

/// Writes the replay's spans and the traced window's per-request
/// records as JSON lines.
fn write_trace(path: &Path, tracer: &replay::Tracer, outcomes: &[Outcome]) -> Result<(), String> {
    let mut out = String::new();
    let origin = outcomes.first().map(|o| o.scheduled);
    let at = |t: Option<Instant>| match (t, origin) {
        (Some(t), Some(o)) => format!("{:.3}", ms(t.saturating_duration_since(o))),
        _ => "null".to_string(),
    };
    for (i, o) in outcomes.iter().enumerate() {
        let timing = o
            .timing
            .map_or("null".to_string(), |t| t.to_json().to_string());
        out.push_str(&format!(
            "{{\"type\":\"request\",\"request\":{i},\"scheduled_ms\":{},\"sent_ms\":{},\
             \"header_ms\":{},\"first_chunk_ms\":{},\"done_ms\":{},\"read_ms\":{:.3},\
             \"verify_ms\":{:.3},\"server_timing\":{timing},\"ok\":{}}}\n",
            at(Some(o.scheduled)),
            at(o.sent),
            at(o.header),
            at(o.first_chunk),
            at(o.done),
            ms(o.read),
            ms(o.verify),
            o.ok(),
        ));
    }
    for (id, (s, self_time)) in tracer.spans.iter().zip(tracer.self_times()).enumerate() {
        out.push_str(&format!(
            "{{\"type\":\"span\",\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{},\
             \"start_ms\":{:.3},\"end_ms\":{:.3},\"self_ms\":{:.3}}}\n",
            s.name,
            s.request,
            s.parent.map_or("null".to_string(), |p| p.to_string()),
            ms(s.start),
            ms(s.end),
            ms(self_time),
        ));
    }
    std::fs::write(path, out).map_err(|e| format!("write {}: {e}", path.display()))
}
