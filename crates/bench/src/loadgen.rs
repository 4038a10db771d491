//! Load generator for star-serve: closed-loop and open-loop modes.
//!
//! ## Closed loop (`--arrivals closed`, the default)
//!
//! Each connection runs its own thread with a deterministic RNG: issue a
//! request, wait for the response, record the latency, repeat — so
//! offered load self-limits to what the server sustains, and `--rps`
//! adds pacing on top when a fixed offered rate is wanted. What this
//! measures is **service time**: a slow response delays every subsequent
//! send on that connection, so the samples systematically miss the
//! requests that *would have been sent* while the server was slow. This
//! is the classic **coordinated omission** bias — closed-loop p99
//! understates the tail a real open workload would see.
//!
//! ## Open loop (`--arrivals poisson|burst`)
//!
//! Each connection precommits to an arrival schedule (seeded Poisson
//! process, or a bursty on/off schedule with the same average rate) and
//! sends at those times regardless of how the server is doing; a
//! separate receiver thread settles the responses. Latency is
//! measured **from the scheduled send time** into a fixed-size
//! log-bucket histogram ([`star_obs::LocalHistogram`]), so queueing
//! delay the server inflicts on a punctual client is charged to the
//! server — coordinated omission is eliminated by construction, and
//! p99.9 comes from bucket counts rather than a per-sample vector.
//!
//! Both loops draw and record requests the same way and read each
//! connection through one [`star_serve::stream::ResponseReader`], so
//! `--proto v2|mixed` works under either; a v2 request's latency runs
//! to its last verified chunk.
//!
//! Every request carries a client-generated `trace_id`; with
//! `--trace-out` the per-request outcomes (scheduled time, latency,
//! outcome, and the server's per-phase timing echo) are written as one
//! JSONL line each, joinable against server flight-recorder dumps.
//!
//! The summary reuses the committed `BENCH_*.json` schema
//! ([`crate::baseline`]) so the existing `bench-diff` tooling can
//! compare loadgen runs. Field mapping (documented here because the
//! schema predates the server): `oracle_hit_rate` carries the **server
//! cache hit rate** (fetched via a final `stats` request), and the
//! achieved **per-connection request rate** (req/s ÷ connections) rides
//! in the schema's dedicated `per_conn_rate` field. (It used to be
//! smuggled through `pool_items_per_worker`, which made server-rate and
//! pool-fan-out numbers indistinguishable in mixed baseline files; that
//! field is now left 0.0 here since the generator has no view of the
//! server's pool.) Closed-loop case names stay
//! `loadgen/{mix}/c{conns}`; open-loop runs use
//! `loadgen/{arrivals}/{mix}/c{conns}` plus a `/tail` case carrying
//! p99 (as `median_ns`) and p99.9 (as `p95_ns`).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use star_fault::FaultSet;
use star_obs::json::Json;
use star_obs::LocalHistogram;
use star_perm::{Aut, Perm};
use star_serve::client::{
    certified_embed_request, embed_request, plain_request, with_proto_v2, with_return_ring,
    with_trace_id, Client,
};
use star_serve::stream::{Response, ResponseReader};

use crate::baseline::{percentile, Baseline, BaselineCase};

/// Load-generator configuration (the CLI's `loadgen` flags).
#[derive(Debug, Clone)]
pub struct LoadgenConfig {
    /// Server address, e.g. `127.0.0.1:7411`.
    pub addr: String,
    /// Concurrent connections (one thread each; open-loop modes add a
    /// receiver thread per connection).
    pub conns: usize,
    /// Target offered rate across all connections (0 = unthrottled;
    /// open-loop modes require it to be set).
    pub rps: u64,
    /// Run duration.
    pub duration: Duration,
    /// Request mix: `embed`, `cached`, `mixed`, or `automorphic`.
    pub mix: Mix,
    /// Arrival process: `closed`, `poisson`, or `burst`.
    pub arrivals: Arrivals,
    /// RNG seed (per-connection streams derive from it).
    pub seed: u64,
    /// Wire protocol for embed requests: `v1` (JSON responses, the
    /// default), `v2` (negotiate streamed generator-delta rings and
    /// verify every chunk incrementally), or `mixed` (per-request coin
    /// flip — exercises a server answering both on interleaved
    /// connections).
    pub proto: WireProto,
    /// Audit mode (`--verify`): request a STARRING-CERT certificate on
    /// every embed and re-verify it client-side (full re-derivation via
    /// `star_verify::certificate::verify_certificate`, plus a cross-check
    /// of the summary against what was requested). Under proto v2 the
    /// response carries only the certificate checksum; verification is
    /// the incremental stream check against it.
    pub verify: bool,
    /// Per-request JSONL output (`--trace-out`): one line per request
    /// with its trace id, scheduled send offset, latency, outcome, and
    /// echoed server timing.
    pub trace_out: Option<PathBuf>,
}

impl Default for LoadgenConfig {
    fn default() -> Self {
        LoadgenConfig {
            addr: "127.0.0.1:7411".to_string(),
            conns: 4,
            rps: 0,
            duration: Duration::from_secs(5),
            mix: Mix::Mixed,
            arrivals: Arrivals::Closed,
            seed: 0x5eed,
            proto: WireProto::V1,
            verify: false,
            trace_out: None,
        }
    }
}

/// Request mix shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Fresh random embeds only (`n` in 5..=9) — worst case for the cache.
    Embed,
    /// Embeds drawn from a small scenario pool — best case for the cache.
    Cached,
    /// 75% pooled embeds (`n` up to 9, served through the cache after a
    /// one-time miss), 10% fresh embeds (`n` ≤ 7: a fresh `n = 9` embed
    /// costs ~70 ms of worker CPU and belongs in the `embed` mix, not in
    /// a throughput workload), 10% health, 5% stats.
    Mixed,
    /// Embeds drawn from the **orbits** of a few seeded base scenarios:
    /// each request applies a fresh random `Aut(S_n)` element to a base
    /// fault set, so literal fault lists almost never repeat but every
    /// request is automorphic to one of a handful of canonical forms.
    /// A literal-keyed cache sees ~100% misses here; the oracle's
    /// canonical key collapses the whole orbit onto one entry.
    Automorphic,
}

impl Mix {
    /// Parses a `--mix` value.
    pub fn parse(s: &str) -> Result<Mix, String> {
        match s {
            "embed" => Ok(Mix::Embed),
            "cached" => Ok(Mix::Cached),
            "mixed" => Ok(Mix::Mixed),
            "automorphic" => Ok(Mix::Automorphic),
            other => Err(format!(
                "unknown mix `{other}` (embed|cached|mixed|automorphic)"
            )),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Mix::Embed => "embed",
            Mix::Cached => "cached",
            Mix::Mixed => "mixed",
            Mix::Automorphic => "automorphic",
        }
    }
}

/// Wire protocol selection for embed requests (`--proto`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireProto {
    /// Protocol v1: every response is one JSON frame.
    V1,
    /// Negotiate v2 on every embed: ask for the ring back as a
    /// generator-delta chunk stream and verify it incrementally
    /// (adjacency, fault avoidance, uniqueness, and — with `--verify` —
    /// the STARRING-CERT checksum) without ever materializing it.
    V2,
    /// Per-request coin flip between v1 and v2 on each connection's RNG
    /// stream — exercises a server answering both protocols on
    /// interleaved connections.
    Mixed,
}

impl WireProto {
    /// Parses a `--proto` value.
    pub fn parse(s: &str) -> Result<WireProto, String> {
        match s {
            "v1" => Ok(WireProto::V1),
            "v2" => Ok(WireProto::V2),
            "mixed" => Ok(WireProto::Mixed),
            other => Err(format!("unknown proto `{other}` (v1|v2|mixed)")),
        }
    }

    /// The `--proto` spelling (only the parse round-trip test needs it).
    #[cfg(test)]
    fn name(self) -> &'static str {
        match self {
            WireProto::V1 => "v1",
            WireProto::V2 => "v2",
            WireProto::Mixed => "mixed",
        }
    }
}

/// Arrival processes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Arrivals {
    /// Send, wait, repeat (optionally paced) — measures service time.
    Closed,
    /// Open loop, exponential inter-arrivals at `rps/conns` per
    /// connection — memoryless offered load.
    Poisson,
    /// Open loop, on/off: each 1-second period front-loads the whole
    /// second's budget into its first quarter at 4× the average rate —
    /// stresses queue drain between bursts.
    Burst,
}

impl Arrivals {
    /// Parses an `--arrivals` value.
    pub fn parse(s: &str) -> Result<Arrivals, String> {
        match s {
            "closed" => Ok(Arrivals::Closed),
            "poisson" => Ok(Arrivals::Poisson),
            "burst" => Ok(Arrivals::Burst),
            other => Err(format!("unknown arrivals `{other}` (closed|poisson|burst)")),
        }
    }

    fn name(self) -> &'static str {
        match self {
            Arrivals::Closed => "closed",
            Arrivals::Poisson => "poisson",
            Arrivals::Burst => "burst",
        }
    }

    fn is_open(self) -> bool {
        !matches!(self, Arrivals::Closed)
    }
}

/// Burst schedule shape: period length and the fraction of it that
/// carries traffic (at `1/duty` times the average rate).
const BURST_PERIOD_S: f64 = 1.0;
const BURST_DUTY: f64 = 0.25;

/// A uniform draw from `(0, 1]` — the vendored RNG has no float
/// sampling, so build one from the top 53 bits.
fn uniform_unit(rng: &mut StdRng) -> f64 {
    ((rng.next_u64() >> 11) as f64 + 1.0) / (1u64 << 53) as f64
}

/// The next scheduled send offset (seconds from run start) strictly
/// after `offset`, for a per-connection average rate of `lambda` req/s.
fn next_arrival(arrivals: Arrivals, rng: &mut StdRng, offset: f64, lambda: f64) -> f64 {
    match arrivals {
        Arrivals::Closed => offset, // unused: closed mode paces inline
        Arrivals::Poisson => offset + (-uniform_unit(rng).ln()) / lambda,
        Arrivals::Burst => {
            let next = offset + 1.0 / (lambda / BURST_DUTY);
            let pos = next % BURST_PERIOD_S;
            if pos > BURST_DUTY * BURST_PERIOD_S {
                // Off-phase: jump to the start of the next period.
                (next / BURST_PERIOD_S).floor() * BURST_PERIOD_S + BURST_PERIOD_S
            } else {
                next
            }
        }
    }
}

/// A fresh nonzero trace id from the connection's RNG stream.
fn gen_trace_id(rng: &mut StdRng) -> u128 {
    loop {
        let id = ((rng.next_u64() as u128) << 64) | rng.next_u64() as u128;
        if id != 0 {
            return id;
        }
    }
}

/// Aggregated outcome of a loadgen run.
#[derive(Debug, Clone)]
pub struct LoadgenReport {
    /// Requests answered with `"ok": true`.
    pub ok: u64,
    /// Requests answered with a well-formed error response
    /// (`overloaded`, `deadline_exceeded`, ...), by wire code.
    pub rejected: Vec<(String, u64)>,
    /// Protocol-level failures: framing errors, non-JSON responses,
    /// disconnects. A correct server under any load keeps this at 0.
    pub protocol_errors: u64,
    /// Open-loop only: requests still unanswered when the post-run
    /// drain grace expired.
    pub unanswered: u64,
    /// Wall-clock duration of the measurement window.
    pub elapsed: Duration,
    /// Achieved request rate (ok + rejected, per second).
    pub rps: f64,
    /// Server cache hit rate at the end of the run (from `stats`).
    pub cache_hit_rate: f64,
    /// Oracle hit taxonomy at the end of the run (from the `stats`
    /// response's `oracle` block): embeds whose *literal* fault list was
    /// seen before, embeds answered only because their *canonical*
    /// (orbit) key matched, and canonical-key misses. All zero when the
    /// server served no embeds.
    pub oracle_literal_hits: u64,
    /// See `oracle_literal_hits`.
    pub oracle_canonical_hits: u64,
    /// See `oracle_literal_hits`.
    pub oracle_misses: u64,
    /// Closed loop: sorted service-time latencies (ns) of `ok`
    /// responses. Empty in open-loop runs (see `hist`).
    pub latencies_ns: Vec<u64>,
    /// Open loop: scheduled-send-to-response latencies of `ok`
    /// responses, log-bucketed. `None` in closed-loop runs.
    pub hist: Option<LocalHistogram>,
    /// Connections that ran.
    pub conns: usize,
    /// Mix that was offered.
    pub mix: Mix,
    /// Arrival process that was offered.
    pub arrivals: Arrivals,
    /// Certificates fetched and fully re-verified client-side
    /// (`--verify` mode only; 0 otherwise).
    pub certs_checked: u64,
    /// Certificates that were missing, malformed, or disagreed with the
    /// request (a correct server keeps this at 0).
    pub cert_failures: u64,
    /// Embed responses that arrived as v2 chunk streams and passed
    /// incremental verification.
    pub v2_streams: u64,
    /// Total binary chunks consumed across those streams.
    pub v2_chunks: u64,
}

impl LoadgenReport {
    fn percentile(&self, p: f64) -> u64 {
        match &self.hist {
            Some(hist) => hist.quantile(p),
            None => percentile(&self.latencies_ns, p),
        }
    }

    fn samples(&self) -> usize {
        match &self.hist {
            Some(hist) => hist.count() as usize,
            None => self.latencies_ns.len(),
        }
    }

    /// Distils the run into the committed benchmark schema (see the
    /// module docs for the field mapping). Closed-loop case names are
    /// unchanged from the closed-loop-only era; open-loop runs add the
    /// arrivals name and a `/tail` case (p99 as `median_ns`, p99.9 as
    /// `p95_ns`).
    pub fn to_baseline(&self) -> Baseline {
        let name = match self.arrivals {
            Arrivals::Closed => format!("loadgen/{}/c{}", self.mix.name(), self.conns),
            open => format!(
                "loadgen/{}/{}/c{}",
                open.name(),
                self.mix.name(),
                self.conns
            ),
        };
        let per_conn_rate = if self.conns == 0 {
            0.0
        } else {
            self.rps / self.conns as f64
        };
        // `median_ns`/`p95_ns` carry the quantiles `mid`/`high`.
        let case = |name, mid, high| BaselineCase {
            name,
            n: 0,
            mode: self.mix.name().to_string(),
            samples: self.samples(),
            median_ns: self.percentile(mid),
            p95_ns: self.percentile(high),
            oracle_hit_rate: self.cache_hit_rate,
            pool_items_per_worker: 0.0,
            per_conn_rate,
        };
        let mut cases = vec![case(name.clone(), 0.5, 0.95)];
        if self.arrivals.is_open() {
            cases.push(case(format!("{name}/tail"), 0.99, 0.999));
        }
        Baseline::stamped(cases)
    }

    /// Human-readable summary block (stderr companion to the JSON).
    pub fn render_summary(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "loadgen: {} ok, {} protocol errors over {:.2}s ({:.0} req/s, {} conns, mix {}, arrivals {})",
            self.ok,
            self.protocol_errors,
            self.elapsed.as_secs_f64(),
            self.rps,
            self.conns,
            self.mix.name(),
            self.arrivals.name(),
        );
        for (code, count) in &self.rejected {
            let _ = writeln!(out, "loadgen:   rejected {code}: {count}");
        }
        if self.arrivals.is_open() {
            let _ = writeln!(
                out,
                "loadgen:   latency from scheduled send p50 {:.1}us  p99 {:.1}us  p99.9 {:.1}us",
                self.percentile(0.5) as f64 / 1e3,
                self.percentile(0.99) as f64 / 1e3,
                self.percentile(0.999) as f64 / 1e3,
            );
            if self.unanswered > 0 {
                let _ = writeln!(
                    out,
                    "loadgen:   unanswered after drain grace: {}",
                    self.unanswered
                );
            }
        } else {
            let _ = writeln!(
                out,
                "loadgen:   service-time latency p50 {:.1}us  p95 {:.1}us  p99 {:.1}us",
                self.percentile(0.5) as f64 / 1e3,
                self.percentile(0.95) as f64 / 1e3,
                self.percentile(0.99) as f64 / 1e3,
            );
            let _ = writeln!(
                out,
                "loadgen:   (closed loop: coordinated omission understates tails — \
                 use --arrivals poisson for open-loop capture)"
            );
        }
        let _ = writeln!(
            out,
            "loadgen:   server cache hit rate {:.1}%",
            self.cache_hit_rate * 100.0
        );
        let oracle_total =
            self.oracle_literal_hits + self.oracle_canonical_hits + self.oracle_misses;
        if oracle_total > 0 {
            let _ = writeln!(
                out,
                "loadgen:   oracle: {} literal hits ({:.1}%), {} canonical hits ({:.1}%), {} misses",
                self.oracle_literal_hits,
                self.oracle_literal_hits as f64 / oracle_total as f64 * 100.0,
                self.oracle_canonical_hits,
                self.oracle_canonical_hits as f64 / oracle_total as f64 * 100.0,
                self.oracle_misses,
            );
        }
        if self.v2_streams > 0 {
            let _ = writeln!(
                out,
                "loadgen:   v2 ring streams verified {} ({} chunks)",
                self.v2_streams, self.v2_chunks
            );
        }
        if self.certs_checked > 0 || self.cert_failures > 0 {
            let _ = writeln!(
                out,
                "loadgen:   certificates verified {} ({} failures)",
                self.certs_checked, self.cert_failures
            );
        }
        out
    }
}

/// A random (valid) permutation of `n` symbols.
fn random_perm(rng: &mut StdRng, n: usize) -> Perm {
    let mut digits: Vec<u64> = (1..=n as u64).collect();
    // Fisher–Yates.
    for i in (1..n).rev() {
        let j = rng.random_range(0..=i);
        digits.swap(i, j);
    }
    let packed = digits.iter().fold(0u64, |acc, d| acc * 10 + d);
    Perm::from_digits(n, packed)
}

/// `count` distinct random faults for `n`, identity excluded (the
/// embedder handles faulted starts, but keeping the pool uniform makes
/// run-to-run comparisons cleaner).
fn distinct_faults(rng: &mut StdRng, n: usize, count: usize) -> Vec<String> {
    let mut out: Vec<String> = Vec::with_capacity(count);
    while out.len() < count {
        let p = random_perm(rng, n);
        let s = p.to_string();
        if p != Perm::identity(n) && !out.contains(&s) {
            out.push(s);
        }
    }
    out
}

/// A random fault list for `n` of any size within the budget `n - 3`.
fn random_faults(rng: &mut StdRng, n: usize) -> Vec<String> {
    let count = rng.random_range(0..=n.saturating_sub(3));
    distinct_faults(rng, n, count)
}

/// Pre-built scenario pool for the `cached` mix: a few fault sets per
/// `n` so repeats land in the server's result cache.
fn scenario_pool(seed: u64) -> Vec<(usize, Vec<String>)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool = Vec::new();
    for n in 5..=9usize {
        for _ in 0..4 {
            pool.push((n, random_faults(&mut rng, n)));
        }
    }
    pool
}

/// Base scenarios for the `automorphic` mix: one full-budget fault set
/// (`k = n-3`) per `n` in 5..=7. Requests sample the *orbits* of these
/// under `Aut(S_n)` — tiny base pool, enormous literal-key space
/// (`n!·(n-1)!` automorphisms per scenario).
fn automorphic_pool(seed: u64) -> Vec<(usize, Vec<String>)> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0xA07_0B17);
    (5..=7usize)
        .map(|n| (n, distinct_faults(&mut rng, n, n - 3)))
        .collect()
}

/// The mix's scenario pool (see [`scenario_pool`] / [`automorphic_pool`]).
fn pool_for(mix: Mix, seed: u64) -> Vec<(usize, Vec<String>)> {
    match mix {
        Mix::Automorphic => automorphic_pool(seed),
        _ => scenario_pool(seed),
    }
}

/// A uniformly random orbit-mate of `faults` under `Aut(S_n)`: one
/// automorphism applied to every fault. Distinctness survives (an
/// automorphism is a bijection on vertices); the image may contain the
/// identity vertex, which the embedder handles like any other fault.
fn orbit_sample(rng: &mut StdRng, n: usize, faults: &[String]) -> Vec<String> {
    let aut = Aut::from_ranks(n, rng.next_u64(), rng.next_u64());
    faults
        .iter()
        .map(|f| {
            let p: Perm = f.parse().expect("pool perms are valid");
            aut.apply(&p).to_string()
        })
        .collect()
}

#[derive(Debug, Default)]
struct ConnTally {
    ok: u64,
    rejected: Vec<(String, u64)>,
    protocol_errors: u64,
    unanswered: u64,
    latencies_ns: Vec<u64>,
    hist: Option<LocalHistogram>,
    certs_checked: u64,
    cert_failures: u64,
    v2_streams: u64,
    v2_chunks: u64,
    trace_lines: Vec<String>,
}

impl ConnTally {
    /// Counts one `--verify` check, naming the request when it fails.
    fn count_check(&mut self, id: &str, checked: Result<(), String>) {
        match checked {
            Ok(()) => self.certs_checked += 1,
            Err(reason) => {
                self.cert_failures += 1;
                eprintln!("loadgen: certificate check failed ({id}): {reason}");
            }
        }
    }
}

/// A v1 answer whose certificate `--verify` still has to check against
/// its request. The open loop hands it to its connection's verifier
/// thread, so the check is not charged to the answers read after it.
struct CertCheck {
    id: String,
    doc: Json,
    n: usize,
    fault_count: usize,
}

impl CertCheck {
    fn run(self, tally: &mut ConnTally) {
        let checked = check_certificate(&self.doc, self.n, self.fault_count);
        tally.count_check(&self.id, checked);
    }
}

/// Adds `count` answers rejected with `code` to a per-code tally.
fn add_rejections(rejected: &mut Vec<(String, u64)>, code: String, count: u64) {
    match rejected.iter_mut().find(|(c, _)| *c == code) {
        Some((_, total)) => *total += count,
        None => rejected.push((code, count)),
    }
}

/// Re-verifies an embed response's certificate against what the request
/// asked for. Returns an error description on any mismatch.
fn check_certificate(response: &Json, n: usize, fault_count: usize) -> Result<(), String> {
    let cert = response
        .get("certificate")
        .and_then(Json::as_str)
        .ok_or("response carries no certificate")?;
    let summary = star_verify::certificate::verify_certificate(cert).map_err(|e| e.to_string())?;
    if summary.n != n {
        return Err(format!("certificate n {} != requested {n}", summary.n));
    }
    if summary.fault_count != fault_count {
        return Err(format!(
            "certificate fault count {} != requested {fault_count}",
            summary.fault_count
        ));
    }
    let reported = response.get("ring_len").and_then(Json::as_u64).unwrap_or(0);
    if summary.ring_len as u64 != reported {
        return Err(format!(
            "certificate ring length {} != reported {reported}",
            summary.ring_len
        ));
    }
    if !summary.at_guarantee {
        return Err("certificate ring is below the n! - 2|F_v| guarantee".to_string());
    }
    Ok(())
}

/// One `--trace-out` JSONL line.
fn trace_line(
    trace: u128,
    id: &str,
    sched_ns: u64,
    latency_ns: u64,
    outcome: &str,
    response: Option<&Json>,
) -> String {
    use std::fmt::Write as _;
    let mut line = String::with_capacity(128);
    let _ = write!(
        line,
        "{{\"trace_id\":\"{}\",\"id\":{},\"sched_ns\":{sched_ns},\
         \"latency_ns\":{latency_ns},\"outcome\":{}",
        star_obs::format_trace(trace),
        Json::from(id),
        Json::from(outcome),
    );
    if let Some(timing) = response.and_then(|r| r.get("server_timing")) {
        let _ = write!(line, ",\"server_timing\":{timing}");
    }
    line.push('}');
    line
}

/// A request on its way, as both loops record it.
struct Pending {
    id: String,
    trace: u128,
    /// `(n, fault count)` of an embed, for the `--verify` certificate
    /// check.
    embed: Option<(usize, usize)>,
    /// When it was sent (closed loop) or due (open loop): its latency
    /// runs from here.
    sched: Instant,
}

/// The connection's next request, drawn from the mix the same way by
/// both loops: its body with a trace id and, for an embed under
/// `--proto v2|mixed`, the v2 negotiation. Returns the body, the fault
/// set its v2 stream is verified against, and the request's record.
fn next_request(
    config: &LoadgenConfig,
    rng: &mut StdRng,
    pool: &[(usize, Vec<String>)],
    id: String,
    sched: Instant,
) -> (Json, Option<FaultSet>, Pending) {
    let pooled = |rng: &mut StdRng| pool[rng.random_range(0..pool.len())].clone();
    let fresh = |rng: &mut StdRng, n_max: usize| {
        let n = rng.random_range(5..=n_max);
        (n, random_faults(rng, n))
    };
    let (kind, embed) = match config.mix {
        Mix::Embed => ("embed", Some(fresh(rng, 9))),
        Mix::Cached => ("embed", Some(pooled(rng))),
        Mix::Mixed => match rng.random_range(0..100u64) {
            0..=74 => ("embed", Some(pooled(rng))),
            75..=84 => ("embed", Some(fresh(rng, 7))),
            85..=94 => ("health", None),
            _ => ("stats", None),
        },
        Mix::Automorphic => {
            let (n, base) = &pool[rng.random_range(0..pool.len())];
            ("embed", Some((*n, orbit_sample(rng, *n, base))))
        }
    };
    let body = match &embed {
        Some((n, faults)) if config.verify => certified_embed_request(&id, *n, faults, None),
        Some((n, faults)) => embed_request(&id, *n, faults, None),
        None => plain_request(&id, kind),
    };
    let trace = gen_trace_id(rng);
    let mut body = with_trace_id(body, trace);
    // Only embeds negotiate v2 (health/stats responses never stream);
    // `mixed` draws from the connection's deterministic RNG stream.
    let use_v2 = embed.is_some()
        && match config.proto {
            WireProto::V1 => false,
            WireProto::V2 => true,
            WireProto::Mixed => rng.next_u64() & 1 == 1,
        };
    let mut faults = None;
    if let (true, Some((n, list))) = (use_v2, &embed) {
        body = with_proto_v2(with_return_ring(body), 0, None);
        // The stream verifier re-checks fault avoidance vertex by vertex,
        // so it needs the actual faults, not just their count.
        let perms = list
            .iter()
            .map(|f| f.parse().expect("pool perms are valid"));
        faults = Some(FaultSet::from_vertices(*n, perms).expect("the mixes draw distinct faults"));
    }
    let embed = embed.map(|(n, list)| (n, list.len()));
    let req = Pending {
        id,
        trace,
        embed,
        sched,
    };
    (body, faults, req)
}

/// Records one settled request; the only place either loop classifies
/// an answer: ok (plus the `--verify` checks), rejected by its error
/// code, or a protocol error — then its `--trace-out` line. Latency runs
/// to `arrived`, when the answer's last frame was read. A v1 answer's
/// certificate check is returned, not run, for the caller to schedule.
fn record(
    config: &LoadgenConfig,
    tally: &mut ConnTally,
    start: Instant,
    arrived: Instant,
    req: Option<Pending>,
    response: Response,
) -> Option<CertCheck> {
    let Some(req) = req else {
        // A frame that answers no request of this connection.
        tally.protocol_errors += 1;
        return None;
    };
    let latency_ns = arrived.saturating_duration_since(req.sched).as_nanos() as u64;
    let mut certificate = None;
    let outcome = match &response {
        Ok((doc, summary)) if doc.get("ok") == Some(&Json::Bool(true)) => {
            tally.ok += 1;
            match &mut tally.hist {
                Some(hist) => hist.record(latency_ns),
                None => tally.latencies_ns.push(latency_ns),
            }
            if summary.is_some() {
                tally.v2_streams += 1;
                tally.v2_chunks += doc.get("chunks").and_then(Json::as_u64).unwrap_or(0);
            }
            // A stream was already checked against the header's
            // cert_checksum; what is left is the paper's length
            // guarantee. A v1 answer carries the whole certificate.
            match summary {
                _ if !config.verify => {}
                Some(s) if s.at_guarantee => tally.count_check(&req.id, Ok(())),
                Some(s) => tally.count_check(
                    &req.id,
                    Err(format!(
                        "streamed ring length {} below the n! - 2|F_v| guarantee",
                        s.ring_len
                    )),
                ),
                None => certificate = req.embed,
            }
            "ok".to_string()
        }
        Ok((doc, _)) if doc.get("ok") == Some(&Json::Bool(false)) => {
            let code = doc
                .get("error")
                .and_then(Json::as_str)
                .unwrap_or("unknown")
                .to_string();
            add_rejections(&mut tally.rejected, code.clone(), 1);
            code
        }
        _ => {
            if let Err(reason) = &response {
                eprintln!("loadgen: response to {} failed: {reason}", req.id);
            }
            tally.protocol_errors += 1;
            "protocol_error".to_string()
        }
    };
    if config.trace_out.is_some() {
        let sched_ns = req.sched.saturating_duration_since(start).as_nanos() as u64;
        let doc = response.as_ref().ok().map(|(doc, _)| doc);
        let line = trace_line(req.trace, &req.id, sched_ns, latency_ns, &outcome, doc);
        tally.trace_lines.push(line);
    }
    match (certificate, response) {
        (Some((n, fault_count)), Ok((doc, _))) => Some(CertCheck {
            id: req.id,
            doc,
            n,
            fault_count,
        }),
        _ => None,
    }
}

/// Closed-loop connection worker: send, wait, record, repeat.
fn run_conn(
    config: &LoadgenConfig,
    conn_index: usize,
    mut rng: StdRng,
    pool: &[(usize, Vec<String>)],
    start: Instant,
    stop_at: Instant,
    issued: &AtomicU64,
) -> Result<ConnTally, String> {
    let mut client = Client::connect(&config.addr, Duration::from_secs(5))?;
    let mut reader = ResponseReader::default();
    let mut tally = ConnTally::default();
    // Pace each connection at rps/conns when a target rate is set.
    let pace = if config.rps > 0 {
        Some(Duration::from_secs_f64(
            config.conns as f64 / config.rps as f64,
        ))
    } else {
        None
    };
    let mut next_send = Instant::now();
    let mut req_no = 0u64;
    while Instant::now() < stop_at {
        if let Some(pace) = pace {
            let now = Instant::now();
            if now < next_send {
                std::thread::sleep(next_send - now);
            }
            next_send += pace;
        }
        req_no += 1;
        let id = format!("c{conn_index}-{req_no}");
        let (body, faults, mut req) = next_request(config, &mut rng, pool, id, Instant::now());
        issued.fetch_add(1, Ordering::Relaxed);
        reader.expect(Some(req.id.clone()), faults, ());
        // Service time runs from the send, not from building the request.
        req.sched = Instant::now();
        // Read until this request settles. The reader skips a failed
        // stream's leftover chunks; a frame that answers no request of
        // ours is recorded as a protocol error.
        let mut req = Some(req);
        let read = client.send(&body).and_then(|()| {
            while req.is_some() {
                let frame = client.recv_any(Duration::from_secs(30))?;
                let arrived = Instant::now();
                for (tag, response) in reader.push(frame) {
                    let settled = tag.and_then(|()| req.take());
                    if let Some(check) =
                        record(config, &mut tally, start, arrived, settled, response)
                    {
                        check.run(&mut tally);
                    }
                }
            }
            Ok(())
        });
        if let Err(transport) = read {
            record(
                config,
                &mut tally,
                start,
                Instant::now(),
                req,
                Err(transport),
            );
            // A transport error ends the connection: carry on over a new
            // one, or stop and keep what this one measured.
            match Client::connect(&config.addr, Duration::from_secs(5)) {
                Ok(fresh) => (client, reader) = (fresh, ResponseReader::default()),
                Err(e) => {
                    eprintln!("loadgen: reconnect failed: {e}");
                    break;
                }
            }
        }
    }
    Ok(tally)
}

/// How long the open-loop receiver keeps draining responses after the
/// last scheduled send (the server answers queued work even under
/// overload; only a wedged server leaves requests unanswered).
const DRAIN_GRACE: Duration = Duration::from_secs(10);

/// How many v1 answers may wait for an open-loop connection's
/// certificate verifier. A full queue blocks the receiver, so a client
/// that cannot keep up shows in latency, not in memory (an n = 9
/// certificate is 2.4 MB).
const CERT_BACKLOG: usize = 16;

/// Open-loop connection worker: this thread sends on the precommitted
/// schedule; a scoped receiver thread reads the answers through one
/// [`ResponseReader`] and records latency from the *scheduled* send time
/// to the answer's arrival; a scoped verifier thread checks the v1
/// certificates `--verify` asks for.
fn run_conn_open(
    config: &LoadgenConfig,
    conn_index: usize,
    mut rng: StdRng,
    pool: &[(usize, Vec<String>)],
    start: Instant,
    stop_at: Instant,
    issued: &AtomicU64,
) -> Result<ConnTally, String> {
    let mut receiver = Client::connect(&config.addr, Duration::from_secs(5))?;
    receiver.set_read_timeout(Duration::from_millis(50))?;
    let mut sender = receiver.try_clone()?;
    let lambda = config.rps as f64 / config.conns.max(1) as f64;
    let reader: Mutex<ResponseReader<Pending>> = Mutex::new(ResponseReader::default());
    let lock = || reader.lock().unwrap_or_else(|e| e.into_inner());
    let sends_done = AtomicBool::new(false);
    let send_errors = AtomicU64::new(0);
    let (cert_tx, cert_rx) = mpsc::sync_channel::<CertCheck>(CERT_BACKLOG);

    let mut tally = std::thread::scope(|s| {
        let verifier = s.spawn(move || {
            let mut checked = ConnTally::default();
            for check in cert_rx {
                check.run(&mut checked);
            }
            checked
        });
        let recv_handle = s.spawn(|| {
            // Owned here: the verifier stops once the receiver is done.
            let cert_tx = cert_tx;
            let mut tally = ConnTally {
                hist: Some(LocalHistogram::new()),
                ..ConnTally::default()
            };
            let mut drain_deadline: Option<Instant> = None;
            loop {
                // `sends_done` first: once it reads true, every request
                // the sender expects is already in the reader.
                if sends_done.load(Ordering::Acquire) {
                    let open = lock().unsettled() as u64;
                    let deadline =
                        *drain_deadline.get_or_insert_with(|| Instant::now() + DRAIN_GRACE);
                    if open == 0 || Instant::now() > deadline {
                        tally.unanswered += open;
                        break;
                    }
                }
                let frame = match receiver.recv_any(Duration::from_millis(50)) {
                    Ok(frame) => frame,
                    Err(e) if e.contains("timed out") => continue,
                    Err(_) => {
                        // Connection lost: everything still unsettled is gone.
                        tally.protocol_errors += 1;
                        tally.unanswered += lock().unsettled() as u64;
                        break;
                    }
                };
                let arrived = Instant::now();
                let settled = lock().push(frame);
                for (req, response) in settled {
                    if let Some(check) = record(config, &mut tally, start, arrived, req, response) {
                        // Fails only if the verifier died; its join
                        // below reports that.
                        let _ = cert_tx.send(check);
                    }
                }
            }
            tally
        });

        // Sender (this thread): send at the scheduled offsets, behind or
        // not — falling behind schedule is the server's problem to show
        // up in latency, not a reason to thin the offered load.
        let mut offset = next_arrival(config.arrivals, &mut rng, 0.0, lambda);
        let mut req_no = 0u64;
        loop {
            let sched = start + Duration::from_secs_f64(offset);
            if sched >= stop_at {
                break;
            }
            let now = Instant::now();
            if sched > now {
                std::thread::sleep(sched - now);
            }
            req_no += 1;
            let id = format!("c{conn_index}-{req_no}");
            let (body, faults, req) = next_request(config, &mut rng, pool, id.clone(), sched);
            lock().expect(Some(id.clone()), faults, req);
            issued.fetch_add(1, Ordering::Relaxed);
            if sender.send(&body).is_err() {
                lock().withdraw(&id);
                send_errors.fetch_add(1, Ordering::Relaxed);
                break;
            }
            offset = next_arrival(config.arrivals, &mut rng, offset, lambda);
        }
        sends_done.store(true, Ordering::Release);
        let mut tally = recv_handle.join().unwrap_or_else(|_| ConnTally {
            protocol_errors: 1,
            ..ConnTally::default()
        });
        let checked = verifier.join().unwrap_or_else(|_| ConnTally {
            cert_failures: 1,
            ..ConnTally::default()
        });
        tally.certs_checked += checked.certs_checked;
        tally.cert_failures += checked.cert_failures;
        tally
    });
    tally.protocol_errors += send_errors.load(Ordering::Relaxed);
    Ok(tally)
}

/// Renders a thread panic payload (the `&str`/`String` cases `panic!`
/// produces; anything else is reported opaquely).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs the load generator and aggregates per-connection tallies.
pub fn run(config: &LoadgenConfig) -> Result<LoadgenReport, String> {
    if config.arrivals.is_open() && config.rps == 0 {
        return Err(format!(
            "--arrivals {} is open-loop and needs an offered rate: set --rps",
            config.arrivals.name()
        ));
    }
    let pool = pool_for(config.mix, config.seed);
    let started = Instant::now();
    let stop_at = started + config.duration;
    let issued = AtomicU64::new(0);
    let tallies: Vec<Result<ConnTally, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..config.conns)
            .map(|i| {
                let pool = &pool;
                let issued = &issued;
                let rng = StdRng::seed_from_u64(config.seed.wrapping_add(i as u64 * 0x9e37));
                s.spawn(move || {
                    if config.arrivals.is_open() {
                        run_conn_open(config, i, rng, pool, started, stop_at, issued)
                    } else {
                        run_conn(config, i, rng, pool, started, stop_at, issued)
                    }
                })
            })
            .collect();
        // A panicking worker must not take the whole loadgen down with
        // it: fold the panic into that connection's tally as an error so
        // the run still aggregates and exits nonzero with a summary.
        handles
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                h.join().unwrap_or_else(|payload| {
                    Err(format!(
                        "connection {i} worker panicked: {}",
                        panic_message(payload.as_ref())
                    ))
                })
            })
            .collect()
    });
    let elapsed = started.elapsed();

    let mut report = LoadgenReport {
        ok: 0,
        rejected: Vec::new(),
        protocol_errors: 0,
        unanswered: 0,
        elapsed,
        rps: 0.0,
        cache_hit_rate: 0.0,
        oracle_literal_hits: 0,
        oracle_canonical_hits: 0,
        oracle_misses: 0,
        latencies_ns: Vec::new(),
        hist: config.arrivals.is_open().then(LocalHistogram::new),
        conns: config.conns,
        mix: config.mix,
        arrivals: config.arrivals,
        certs_checked: 0,
        cert_failures: 0,
        v2_streams: 0,
        v2_chunks: 0,
    };
    let mut connect_failures = 0u64;
    let mut trace_lines: Vec<String> = Vec::new();
    for tally in tallies {
        match tally {
            Ok(t) => {
                report.ok += t.ok;
                report.protocol_errors += t.protocol_errors;
                report.unanswered += t.unanswered;
                report.latencies_ns.extend(t.latencies_ns);
                if let (Some(total), Some(conn)) = (report.hist.as_mut(), t.hist.as_ref()) {
                    total.merge(conn);
                }
                report.certs_checked += t.certs_checked;
                report.cert_failures += t.cert_failures;
                report.v2_streams += t.v2_streams;
                report.v2_chunks += t.v2_chunks;
                trace_lines.extend(t.trace_lines);
                for (code, count) in t.rejected {
                    add_rejections(&mut report.rejected, code, count);
                }
            }
            Err(e) => {
                // Connect failures and worker panics both land here: the
                // connection produced no tally, the run reports it as a
                // protocol error and the CLI exits nonzero.
                connect_failures += 1;
                eprintln!("loadgen: connection failed: {e}");
            }
        }
    }
    report.protocol_errors += connect_failures;
    report.latencies_ns.sort_unstable();
    let answered = report.ok + report.rejected.iter().map(|(_, c)| c).sum::<u64>();
    report.rps = answered as f64 / elapsed.as_secs_f64().max(1e-9);

    if let Some(path) = &config.trace_out {
        let mut body = trace_lines.join("\n");
        if !body.is_empty() {
            body.push('\n');
        }
        std::fs::write(path, body)
            .map_err(|e| format!("write --trace-out {}: {e}", path.display()))?;
    }

    // One last stats round trip for the server-side cache hit rate and
    // the oracle's hit taxonomy.
    if let Ok(mut client) = Client::connect(&config.addr, Duration::from_secs(5)) {
        if let Ok(stats) = client.call(&plain_request("loadgen-final", "stats")) {
            let field = |block: &str, name: &str| {
                let value = stats.get(block).and_then(|b| b.get(name));
                value.and_then(Json::as_u64).unwrap_or(0)
            };
            let (hits, misses) = (field("cache", "hits"), field("cache", "misses"));
            if hits + misses > 0 {
                report.cache_hit_rate = hits as f64 / (hits + misses) as f64;
            }
            report.oracle_literal_hits = field("oracle", "literal_hits");
            report.oracle_canonical_hits = field("oracle", "canonical_hits");
            report.oracle_misses = field("oracle", "misses");
        }
    }
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_perms_are_valid_and_seeded() {
        let mut a = StdRng::seed_from_u64(7);
        let mut b = StdRng::seed_from_u64(7);
        for _ in 0..50 {
            let pa = random_perm(&mut a, 7);
            let pb = random_perm(&mut b, 7);
            assert_eq!(pa, pb, "same seed must give the same stream");
            assert_eq!(pa.n(), 7);
        }
    }

    #[test]
    fn random_faults_respect_budget_and_exclude_identity() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..100 {
            let faults = random_faults(&mut rng, 8);
            assert!(faults.len() <= 5, "budget for n=8 is n-3=5");
            let id = Perm::identity(8).to_string();
            assert!(!faults.contains(&id));
            let mut dedup = faults.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), faults.len(), "faults must be distinct");
        }
    }

    #[test]
    fn scenario_pool_is_deterministic() {
        assert_eq!(scenario_pool(1), scenario_pool(1));
        assert_ne!(scenario_pool(1), scenario_pool(2));
    }

    #[test]
    fn mix_parse_round_trips() {
        for (text, want) in [
            ("embed", Mix::Embed),
            ("cached", Mix::Cached),
            ("mixed", Mix::Mixed),
            ("automorphic", Mix::Automorphic),
        ] {
            assert_eq!(Mix::parse(text).unwrap(), want);
            assert_eq!(want.name(), text);
        }
        assert!(Mix::parse("orbit").is_err());
    }

    #[test]
    fn automorphic_pool_uses_full_budget_distinct_faults() {
        let pool = automorphic_pool(3);
        assert_eq!(pool, automorphic_pool(3), "pool must be seeded");
        let ns: Vec<usize> = pool.iter().map(|(n, _)| *n).collect();
        assert_eq!(ns, vec![5, 6, 7]);
        for (n, faults) in &pool {
            assert_eq!(faults.len(), n - 3, "full budget for n={n}");
            let mut dedup = faults.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), faults.len(), "faults must be distinct");
        }
    }

    #[test]
    fn orbit_samples_are_automorphic_to_their_base_but_literally_fresh() {
        let pool = automorphic_pool(7);
        let (n, base) = &pool[2];
        let ranks = |faults: &[String]| -> Vec<u32> {
            faults
                .iter()
                .map(|f| f.parse::<Perm>().unwrap().rank())
                .collect()
        };
        let base_canon = star_oracle::canonicalize(*n, &ranks(base));
        let mut rng = StdRng::seed_from_u64(99);
        let mut literal_repeats = 0usize;
        let mut seen: Vec<Vec<String>> = vec![base.clone()];
        for _ in 0..20 {
            let sample = orbit_sample(&mut rng, *n, base);
            assert_eq!(sample.len(), base.len(), "bijection keeps distinctness");
            let canon = star_oracle::canonicalize(*n, &ranks(&sample));
            assert_eq!(
                canon.ranks(),
                base_canon.ranks(),
                "orbit-mates must share the canonical form"
            );
            let mut sorted = sample.clone();
            sorted.sort();
            if seen.iter().any(|s| {
                let mut t = s.clone();
                t.sort();
                t == sorted
            }) {
                literal_repeats += 1;
            }
            seen.push(sample);
        }
        // n=7 has 7!·6! ≈ 3.6M automorphisms: 20 draws repeating
        // literally would mean the sampler is broken.
        assert!(
            literal_repeats < 3,
            "{literal_repeats} literal repeats in 20 orbit draws"
        );
    }

    #[test]
    fn arrivals_parse_round_trips() {
        for (text, want) in [
            ("closed", Arrivals::Closed),
            ("poisson", Arrivals::Poisson),
            ("burst", Arrivals::Burst),
        ] {
            assert_eq!(Arrivals::parse(text).unwrap(), want);
            assert_eq!(want.name(), text);
        }
        assert!(Arrivals::parse("uniform").is_err());
    }

    #[test]
    fn poisson_interarrivals_have_the_target_mean_and_are_seeded() {
        let lambda = 200.0;
        let mut rng = StdRng::seed_from_u64(42);
        let mut offset = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let next = next_arrival(Arrivals::Poisson, &mut rng, offset, lambda);
            assert!(next >= offset, "arrivals must be monotone");
            offset = next;
        }
        let mean = offset / n as f64;
        let expected = 1.0 / lambda;
        assert!(
            (mean - expected).abs() < expected * 0.05,
            "mean inter-arrival {mean} vs expected {expected}"
        );
        // Same seed, same schedule.
        let mut a = StdRng::seed_from_u64(9);
        let mut b = StdRng::seed_from_u64(9);
        assert_eq!(
            next_arrival(Arrivals::Poisson, &mut a, 0.0, lambda),
            next_arrival(Arrivals::Poisson, &mut b, 0.0, lambda),
        );
    }

    #[test]
    fn burst_schedule_keeps_sends_in_the_duty_window_at_the_average_rate() {
        let lambda = 40.0;
        let mut rng = StdRng::seed_from_u64(5);
        let mut offset = 0.0;
        let mut sends = 0u64;
        while offset < 10.0 {
            offset = next_arrival(Arrivals::Burst, &mut rng, offset, lambda);
            if offset < 10.0 {
                sends += 1;
                let pos = offset % BURST_PERIOD_S;
                assert!(
                    pos <= BURST_DUTY * BURST_PERIOD_S + 1e-9,
                    "send at {offset} is outside the duty window"
                );
            }
        }
        // 10 s at an average of 40 req/s, front-loaded into quarters.
        assert!(
            (sends as f64 - 10.0 * lambda).abs() <= lambda * 0.5,
            "{sends} sends over 10s at λ={lambda}"
        );
    }

    #[test]
    fn trace_line_shape_round_trips_through_the_json_parser() {
        let response = Json::Obj(vec![(
            "server_timing".to_string(),
            Json::Obj(vec![
                ("queue_us".to_string(), Json::from(12u64)),
                ("embed_us".to_string(), Json::from(340u64)),
                ("verify_us".to_string(), Json::from(0u64)),
                ("encode_us".to_string(), Json::from(7u64)),
            ]),
        )]);
        let line = trace_line(0xabc, "c0-1", 1_000, 2_000, "ok", Some(&response));
        let parsed = Json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("trace_id").and_then(Json::as_str),
            Some("00000000000000000000000000000abc")
        );
        assert_eq!(parsed.get("latency_ns").and_then(Json::as_u64), Some(2_000));
        assert_eq!(
            parsed
                .get("server_timing")
                .and_then(|t| t.get("embed_us"))
                .and_then(Json::as_u64),
            Some(340)
        );
        // Without a timing echo the member is simply absent.
        let bare = trace_line(0xabc, "c0-2", 0, 5, "overloaded", None);
        assert!(Json::parse(&bare).unwrap().get("server_timing").is_none());
    }

    #[test]
    fn worker_panic_folds_into_an_error_tally() {
        // Regression: `h.join().unwrap()` used to turn any worker panic
        // into a loadgen panic. The join must instead yield an Err that
        // aggregation counts as a failed connection.
        let result: Result<ConnTally, String> = std::thread::scope(|s| {
            let h = s.spawn(|| -> Result<ConnTally, String> { panic!("boom {}", 7) });
            h.join().unwrap_or_else(|payload| {
                Err(format!(
                    "connection 0 worker panicked: {}",
                    panic_message(payload.as_ref())
                ))
            })
        });
        let err = result.unwrap_err();
        assert!(err.contains("worker panicked"), "{err}");
        assert!(err.contains("boom 7"), "{err}");
    }

    #[test]
    fn open_loop_without_rps_is_rejected() {
        let config = LoadgenConfig {
            arrivals: Arrivals::Poisson,
            rps: 0,
            ..LoadgenConfig::default()
        };
        let err = run(&config).unwrap_err();
        assert!(err.contains("--rps"), "{err}");
    }

    #[test]
    fn proto_parse_round_trips() {
        for (text, want) in [
            ("v1", WireProto::V1),
            ("v2", WireProto::V2),
            ("mixed", WireProto::Mixed),
        ] {
            assert_eq!(WireProto::parse(text).unwrap(), want);
            assert_eq!(want.name(), text);
        }
        assert!(WireProto::parse("v3").is_err());
    }

    #[test]
    fn next_request_negotiates_v2_on_embeds_only_and_carries_their_faults() {
        let config = LoadgenConfig {
            mix: Mix::Mixed,
            proto: WireProto::Mixed,
            ..LoadgenConfig::default()
        };
        let pool = pool_for(config.mix, config.seed);
        let mut rng = StdRng::seed_from_u64(3);
        let (mut v1_embeds, mut v2_embeds) = (0, 0);
        for i in 0..200 {
            let id = format!("c0-{i}");
            let (body, faults, req) = next_request(&config, &mut rng, &pool, id, Instant::now());
            let is_embed = body.get("kind").and_then(Json::as_str) == Some("embed");
            assert_eq!(is_embed, req.embed.is_some(), "{body}");
            assert!(body.get("trace_id").is_some(), "{body}");
            match faults {
                Some(faults) => {
                    v2_embeds += 1;
                    assert_eq!(body.get("proto").and_then(Json::as_u64), Some(2), "{body}");
                    assert_eq!(body.get("return_ring"), Some(&Json::Bool(true)), "{body}");
                    let (n, fault_count) = req.embed.expect("only embeds stream");
                    assert_eq!((faults.n(), faults.vertices().len()), (n, fault_count));
                }
                None => {
                    v1_embeds += usize::from(is_embed);
                    assert!(body.get("proto").is_none(), "{body}");
                }
            }
        }
        assert!(
            v1_embeds > 0 && v2_embeds > 0,
            "{v1_embeds} v1, {v2_embeds} v2"
        );
    }

    #[test]
    fn summary_reports_v2_streams_only_when_present() {
        let silent = sample_report().render_summary();
        assert!(!silent.contains("v2 ring streams"), "{silent}");
        let report = LoadgenReport {
            v2_streams: 8,
            v2_chunks: 40,
            ..sample_report()
        };
        let text = report.render_summary();
        assert!(
            text.contains("v2 ring streams verified 8 (40 chunks)"),
            "{text}"
        );
    }

    fn sample_report() -> LoadgenReport {
        LoadgenReport {
            ok: 100,
            rejected: vec![("overloaded".to_string(), 4)],
            protocol_errors: 0,
            unanswered: 0,
            elapsed: Duration::from_secs(2),
            rps: 52.0,
            cache_hit_rate: 0.75,
            oracle_literal_hits: 0,
            oracle_canonical_hits: 0,
            oracle_misses: 0,
            latencies_ns: (1..=100).map(|i| i * 1000).collect(),
            hist: None,
            conns: 4,
            mix: Mix::Mixed,
            arrivals: Arrivals::Closed,
            certs_checked: 0,
            cert_failures: 0,
            v2_streams: 0,
            v2_chunks: 0,
        }
    }

    #[test]
    fn baseline_mapping_documents_hit_rate_and_per_conn_rate() {
        let baseline = sample_report().to_baseline();
        let case = &baseline.cases[0];
        assert_eq!(case.name, "loadgen/mixed/c4");
        assert_eq!(case.samples, 100);
        assert!((case.oracle_hit_rate - 0.75).abs() < 1e-12);
        // 52 req/s over 4 connections: the rate lives in its own field,
        // and the pool figure no longer doubles as a smuggling channel.
        assert!((case.per_conn_rate - 13.0).abs() < 1e-12);
        assert_eq!(case.pool_items_per_worker, 0.0);
        // The serialized form must satisfy the committed schema, rate
        // included.
        let parsed = crate::baseline::Baseline::from_json(&baseline.to_json()).unwrap();
        assert_eq!(parsed.cases[0].name, "loadgen/mixed/c4");
        assert!((parsed.cases[0].per_conn_rate - 13.0).abs() < 1e-12);
    }

    #[test]
    fn open_loop_baseline_adds_arrivals_name_and_tail_case() {
        let mut hist = LocalHistogram::new();
        for i in 1..=10_000u64 {
            hist.record(i * 1000);
        }
        let report = LoadgenReport {
            hist: Some(hist),
            arrivals: Arrivals::Poisson,
            latencies_ns: Vec::new(),
            ..sample_report()
        };
        let baseline = report.to_baseline();
        assert_eq!(baseline.cases.len(), 2);
        assert_eq!(baseline.cases[0].name, "loadgen/poisson/mixed/c4");
        assert_eq!(baseline.cases[0].samples, 10_000);
        assert_eq!(baseline.cases[1].name, "loadgen/poisson/mixed/c4/tail");
        // The tail case carries p99 (median_ns slot) and p99.9 (p95_ns
        // slot); on 1..=10_000 µs those sit near 9.9 ms and 9.99 ms.
        // (>= not >: p95 and p99 of this distribution can share a log
        // bucket at the histogram's 6.25% granularity.)
        assert!(baseline.cases[1].median_ns >= baseline.cases[0].p95_ns);
        assert!(baseline.cases[1].median_ns > baseline.cases[0].median_ns);
        assert!(baseline.cases[1].p95_ns >= baseline.cases[1].median_ns);
        // Still schema-valid.
        let parsed = crate::baseline::Baseline::from_json(&baseline.to_json()).unwrap();
        assert_eq!(parsed.cases.len(), 2);
    }

    #[test]
    fn summary_labels_closed_loop_as_service_time_with_the_caveat() {
        let text = sample_report().render_summary();
        assert!(text.contains("service-time latency"), "{text}");
        assert!(text.contains("coordinated omission"), "{text}");
        assert!(text.contains("arrivals closed"), "{text}");
        assert!(!text.contains("p99.9"), "{text}");
    }

    #[test]
    fn summary_labels_open_loop_as_scheduled_send_with_p999() {
        let mut hist = LocalHistogram::new();
        for i in 1..=1000u64 {
            hist.record(i * 1000);
        }
        let report = LoadgenReport {
            hist: Some(hist),
            arrivals: Arrivals::Burst,
            latencies_ns: Vec::new(),
            unanswered: 3,
            ..sample_report()
        };
        let text = report.render_summary();
        assert!(text.contains("latency from scheduled send"), "{text}");
        assert!(text.contains("p99.9"), "{text}");
        assert!(text.contains("arrivals burst"), "{text}");
        assert!(text.contains("unanswered after drain grace: 3"), "{text}");
        assert!(!text.contains("coordinated omission"), "{text}");
    }

    #[test]
    fn summary_reports_oracle_taxonomy_only_when_present() {
        let silent = sample_report().render_summary();
        assert!(!silent.contains("oracle:"), "{silent}");
        let report = LoadgenReport {
            oracle_literal_hits: 10,
            oracle_canonical_hits: 30,
            oracle_misses: 10,
            ..sample_report()
        };
        let text = report.render_summary();
        assert!(
            text.contains("oracle: 10 literal hits (20.0%), 30 canonical hits (60.0%), 10 misses"),
            "{text}"
        );
    }

    #[test]
    fn closed_loop_summary_schema_snapshot() {
        // Satellite guard: the closed-loop stderr block is parsed by eye
        // and by scripts; pin the exact shape so relabeling stays a
        // conscious act.
        let text = sample_report().render_summary();
        assert_eq!(
            text,
            "loadgen: 100 ok, 0 protocol errors over 2.00s (52 req/s, 4 conns, mix mixed, arrivals closed)\n\
             loadgen:   rejected overloaded: 4\n\
             loadgen:   service-time latency p50 51.0us  p95 95.0us  p99 99.0us\n\
             loadgen:   (closed loop: coordinated omission understates tails — use --arrivals poisson for open-loop capture)\n\
             loadgen:   server cache hit rate 75.0%\n"
        );
    }
}
