//! `star-rings` — command-line front end for the library.
//!
//! ```text
//! star-rings info <n>
//! star-rings embed <n> [--random K] [--worst K] [--fault PERM]... [--seed S] [--print]
//! star-rings verify <n> <ring-file> [--fault PERM]...
//! star-rings degrade <n> [--failures K] [--seed S]
//! star-rings certify <n> [fault options] > ring.cert
//! star-rings verify-cert <cert-file>
//! star-rings dot <n> [fault options] > ring.dot
//! ```
//!
//! Rings are written/read as one permutation per line (symbols as digits
//! for `n <= 9`, dot-separated otherwise), so `embed --print > ring.txt`
//! followed by `verify ring.txt` round-trips.

use std::io::{BufRead, Write};
use std::process::ExitCode;

use star_rings::fault::{gen, FaultSet};
use star_rings::graph::{diameter, StarGraph};
use star_rings::perm::{delta::RingDelta, factorial, Parity, Perm};
use star_rings::ring::embed_longest_ring;
use star_rings::sim::resilience::degrade;
use star_rings::verify::{bounds, check_ring};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("info") => cmd_info(&args[1..]),
        Some("embed") => cmd_embed(&args[1..]),
        Some("profile") => cmd_profile(&args[1..]),
        Some("stats") => cmd_stats(&args[1..]),
        Some("verify") => cmd_verify(&args[1..]),
        Some("degrade") => cmd_degrade(&args[1..]),
        Some("certify") => cmd_certify(&args[1..]),
        Some("verify-cert") => cmd_verify_cert(&args[1..]),
        Some("dot") => cmd_dot(&args[1..]),
        Some("serve") => cmd_serve(&args[1..]),
        Some("loadgen") => cmd_loadgen(&args[1..]),
        Some("audit") => cmd_audit(&args[1..]),
        Some("obs-overhead") => cmd_obs_overhead(&args[1..]),
        Some("oracle") => cmd_oracle(&args[1..]),
        Some("--help") | Some("-h") | None => {
            usage();
            Ok(())
        }
        Some(other) => Err(format!("unknown command `{other}` (try --help)")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(msg) => {
            if star_rings::obs::flightrec::enabled() {
                // The failure itself becomes the final event of the
                // post-mortem record.
                star_rings::obs::flightrec::record("cli.error", msg.clone(), &[]);
                star_rings::obs::flightrec::dump_on_failure("cli.error");
            }
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

fn usage() {
    eprintln!(
        "star-rings — longest fault-free rings in star graphs (Hsieh-Chen-Ho 1998)\n\
         \n\
         USAGE:\n\
         \x20 star-rings info <n>                         topology facts for S_n\n\
         \x20 star-rings embed <n> [OPTIONS]              embed a longest healthy ring\n\
         \x20     --fault <perm>     add an explicit faulty processor (repeatable)\n\
         \x20     --random <k>       add k uniform-random faults\n\
         \x20     --worst <k>        add k worst-case (same partite set) faults\n\
         \x20     --seed <s>         RNG seed for --random/--worst (default 0)\n\
         \x20     --print            write the ring, one vertex per line, to stdout\n\
         \x20     --stats            print the construction transcript (phases, levels,\n\
         \x20                        Lemma-4 oracle cache behavior)\n\
         \x20     --trace            stream construction spans, pretty-printed, to\n\
         \x20                        stderr as they close\n\
         \x20     --trace-json <f>   append construction spans to <f> as JSON lines\n\
         \x20     --profile-out <f>  write a collapsed-stack wall-clock profile of the\n\
         \x20                        embed to <f> (flamegraph.pl-compatible)\n\
         \x20     --threads <t>      worker threads for parallel block expansion\n\
         \x20                        (0 = auto; also honored by `stats`/`profile`)\n\
         \x20     --flightrec        record recent events in the flight recorder and\n\
         \x20                        dump them (flightrec.jsonl) on panic or failure\n\
         \x20     --flightrec-out <f>  dump file for --flightrec (implies it)\n\
         \x20 star-rings profile <n> [fault options] [--out <f>]\n\
         \x20                                             embed once and print per-phase\n\
         \x20                                             wall-clock attribution (stderr)\n\
         \x20                                             + collapsed stacks (stdout/<f>)\n\
         \x20 star-rings stats <n> [fault options] [--format pretty|prom|json]\n\
         \x20                     [--watch <secs> [--frames <k>]]\n\
         \x20                                             embed once, then dump the\n\
         \x20                                             process-wide star-obs metrics;\n\
         \x20                                             --watch re-embeds and reprints\n\
         \x20                                             every <secs> seconds\n\
         \x20 star-rings verify <n> <ring-file> [--fault <perm>]...\n\
         \x20                                             check a ring file against faults\n\
         \x20 star-rings degrade <n> [--failures <k>] [--seed <s>]\n\
         \x20                                             incremental-failure timeline\n\
         \x20 star-rings certify <n> [fault options]      embed + print a re-checkable\n\
         \x20                                             STARRING-CERT to stdout\n\
         \x20 star-rings verify-cert <cert-file>          re-verify a certificate\n\
         \x20 star-rings dot <n> [fault options]          Graphviz DOT of the embedded\n\
         \x20                                             ring (n <= 5 recommended)\n\
         \x20 star-rings serve [OPTIONS]                  embedding service over TCP\n\
         \x20                                             (length-prefixed JSON frames)\n\
         \x20     --addr <host:port>  listen address (default 127.0.0.1:7411; port 0\n\
         \x20                         picks a free port, printed on stdout)\n\
         \x20     --threads <t>       worker threads (0 = auto)\n\
         \x20     --queue <k>         request-queue high-water mark (default 256;\n\
         \x20                         beyond it requests are answered `overloaded`)\n\
         \x20     --cache-mb <m>      result-cache budget in MiB (default 256)\n\
         \x20     --deadline-ms <d>   default per-request deadline (requests may\n\
         \x20                         override; expired work answers\n\
         \x20                         `deadline_exceeded` without embedding)\n\
         \x20     --verify            audit every response against check_ring\n\
         \x20                         before sending (answers `verify_failed`\n\
         \x20                         instead of shipping a bad ring) and attach\n\
         \x20                         a STARRING-CERT certificate to embeds\n\
         \x20     --proto <v>         highest wire protocol to negotiate: v1 | v2\n\
         \x20                         (default v2). v2 clients get rings back as\n\
         \x20                         streamed generator-delta chunks; v1 pins\n\
         \x20                         JSON-only responses\n\
         \x20     --flightrec         record accept/reject/deadline events; flushed\n\
         \x20                         to disk on graceful shutdown (SIGINT drains)\n\
         \x20     --flightrec-out <f> dump file for --flightrec (implies it)\n\
         \x20     --slo-ms <t>        SLO watchdog: latency target per queued\n\
         \x20                         request; on sustained budget burn the server\n\
         \x20                         dumps the flight recorder with the offending\n\
         \x20                         trace_ids (implies --flightrec)\n\
         \x20     --slo-budget <b>    fraction of requests allowed over target\n\
         \x20                         over a 10s window (default 0.01)\n\
         \x20     --slo-dump <f>      dump file for SLO breaches (default: the\n\
         \x20                         flight recorder's dump path)\n\
         \x20     --oracle-path <d>   persistent oracle store directory: canonical\n\
         \x20                         lookups fall through the LRU to disk, and\n\
         \x20                         fresh embeds are persisted (write-behind)\n\
         \x20 star-rings loadgen [OPTIONS]                load generator\n\
         \x20     --addr <host:port>  server to drive (default 127.0.0.1:7411)\n\
         \x20     --conns <c>         concurrent connections (default 4)\n\
         \x20     --rps <r>           target offered rate, all connections combined\n\
         \x20                         (default 0 = unthrottled; required for the\n\
         \x20                         open-loop arrival modes)\n\
         \x20     --duration <secs>   run length (default 5)\n\
         \x20     --mix <m>           embed | cached | mixed | automorphic (default\n\
         \x20                         mixed); automorphic samples Aut(S_n) orbits\n\
         \x20                         of seeded base scenarios — literal fault\n\
         \x20                         lists almost never repeat, so cache hits\n\
         \x20                         require the oracle's canonical key\n\
         \x20     --arrivals <a>      closed | poisson | burst (default closed).\n\
         \x20                         closed measures service time and understates\n\
         \x20                         tails under queueing (coordinated omission);\n\
         \x20                         poisson/burst send on a fixed schedule and\n\
         \x20                         measure from the scheduled send time\n\
         \x20     --seed <s>          RNG seed (default 0x5eed)\n\
         \x20     --out <f>           write the BENCH_*.json summary to <f>\n\
         \x20                         (default: stdout); exits nonzero on any\n\
         \x20                         protocol error\n\
         \x20     --trace-out <f>     write one JSONL line per request (trace_id,\n\
         \x20                         scheduled send, latency, outcome, per-phase\n\
         \x20                         server timing) to <f>\n\
         \x20     --verify            request a STARRING-CERT with every embed\n\
         \x20                         and re-verify it client-side; exits\n\
         \x20                         nonzero on any certificate failure\n\
         \x20     --proto <p>         v1 | v2 | mixed (default v1). v2 asks for\n\
         \x20                         rings back as delta chunk streams and\n\
         \x20                         verifies every chunk incrementally; mixed\n\
         \x20                         coin-flips per request (closed loop only)\n\
         \x20 star-rings audit [OPTIONS]                  differential correctness gate:\n\
         \x20                                             seeded sweeps cross-checking the\n\
         \x20                                             embedder against the exhaustive\n\
         \x20                                             oracle, certificates, and the\n\
         \x20                                             Tseng/Latifi baselines, plus a\n\
         \x20                                             repair chaos soak and a wire-\n\
         \x20                                             protocol fuzz smoke; exits\n\
         \x20                                             nonzero on any mismatch\n\
         \x20     --n <max>           sweep dimensions 4..=max (default 6; max 6)\n\
         \x20     --seeds <k>         seeded scenarios per dimension (default 200)\n\
         \x20     --soak <k>          chaos-soak fault injections at n=6\n\
         \x20                         (default 200; 0 disables)\n\
         \x20     --fuzz <k>          hostile protocol frames against an\n\
         \x20                         in-process server (default 96; 0 disables)\n\
         \x20     --out <f>           write a BENCH_*.json timing summary to <f>\n\
         \x20 star-rings obs-overhead [OPTIONS]           measure the cost of tracing:\n\
         \x20                                             interleaved embeds with and\n\
         \x20                                             without flight recorder +\n\
         \x20                                             trace id; exits nonzero if\n\
         \x20                                             the median overhead exceeds\n\
         \x20                                             the bound\n\
         \x20     --n <n>             dimension to embed (default 8)\n\
         \x20     --samples <k>       sample pairs (default 15)\n\
         \x20     --max-pct <p>       failure bound on median overhead in percent\n\
         \x20                         (default 5)\n\
         \x20 star-rings oracle warm [OPTIONS]            pre-populate an oracle store\n\
         \x20                                             with canonical-frame rings for\n\
         \x20                                             seeded scenarios (shippable:\n\
         \x20                                             copy the directory to servers)\n\
         \x20     --path <d>          store directory (required)\n\
         \x20     --n <n>             max dimension to warm, 4..=<n> (default 7)\n\
         \x20     --count <k>         scenarios per dimension (default 32)\n\
         \x20     --seed <s>          scenario RNG seed (default 0)\n\
         \x20 star-rings oracle stats --path <d>          store record/segment/byte counts\n\
         \x20 star-rings oracle verify --path <d> [--limit <k>]\n\
         \x20                                             re-check stored rings against\n\
         \x20                                             check_ring at n! - 2|F_v|;\n\
         \x20                                             exits nonzero on any failure\n\
         \n\
         Permutations are written as digit strings for n <= 9 (e.g. 321456)\n\
         and dot-separated otherwise (e.g. 10.2.3.1...)."
    );
}

fn parse_n(args: &[String]) -> Result<usize, String> {
    args.first()
        .ok_or("missing <n>".to_string())?
        .parse::<usize>()
        .map_err(|_| "n must be an integer".to_string())
        .and_then(|n| {
            if (3..=12).contains(&n) {
                Ok(n)
            } else {
                Err("n must be in 3..=12".to_string())
            }
        })
}

fn parse_perm(n: usize, text: &str) -> Result<Perm, String> {
    let p: Perm = text.parse().map_err(|e| format!("`{text}`: {e}"))?;
    if p.n() != n {
        return Err(format!("`{text}` has {} symbols, expected {n}", p.n()));
    }
    Ok(p)
}

fn parse_faults(n: usize, args: &[String]) -> Result<(FaultSet, bool), String> {
    let mut faults = FaultSet::empty(n);
    let mut seed = 0u64;
    let mut random = 0usize;
    let mut worst = 0usize;
    let mut print = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fault" => {
                i += 1;
                let p = parse_perm(n, args.get(i).ok_or("--fault needs a value")?)?;
                faults.add_vertex(p).map_err(|e| e.to_string())?;
            }
            "--random" => {
                i += 1;
                random = args
                    .get(i)
                    .ok_or("--random needs a count")?
                    .parse()
                    .map_err(|_| "--random count must be an integer")?;
            }
            "--worst" => {
                i += 1;
                worst = args
                    .get(i)
                    .ok_or("--worst needs a count")?
                    .parse()
                    .map_err(|_| "--worst count must be an integer")?;
            }
            "--seed" => {
                i += 1;
                seed = args
                    .get(i)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed must be an integer")?;
            }
            "--print" => print = true,
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    if random > 0 {
        let extra = gen::random_vertex_faults(n, random, seed).map_err(|e| e.to_string())?;
        for v in extra.vertices() {
            // Skip collisions with explicit faults rather than erroring.
            let _ = faults.add_vertex(*v);
        }
    }
    if worst > 0 {
        let extra = gen::worst_case_same_partite(n, worst, Parity::Even, seed)
            .map_err(|e| e.to_string())?;
        for v in extra.vertices() {
            let _ = faults.add_vertex(*v);
        }
    }
    Ok((faults, print))
}

fn cmd_info(args: &[String]) -> Result<(), String> {
    let n = parse_n(args)?;
    let g = StarGraph::new(n).map_err(|e| e.to_string())?;
    println!("S_{n} — the {n}-dimensional star graph");
    println!("  vertices            {}", g.vertex_count());
    println!("  edges               {}", g.edge_count());
    println!("  degree              {}", g.degree());
    println!("  diameter            {}", diameter(n));
    println!(
        "  bipartite           yes (equal partite sets of {})",
        g.vertex_count() / 2
    );
    println!("  fault budget (n-3)  {}", n.saturating_sub(3));
    println!(
        "  guaranteed ring     n! - 2|Fv|  (= {} at the full budget)",
        bounds::hsieh_chen_ho_length(n, n.saturating_sub(3))
    );
    Ok(())
}

/// Tracing/runtime switches shared by `embed` and `stats`, pre-scanned
/// before the fault options (which reject anything they don't know).
#[derive(Default)]
struct TraceOpts {
    stats: bool,
    trace: bool,
    trace_json: Option<String>,
    format: Option<String>,
    threads: Option<usize>,
    profile_out: Option<String>,
    flightrec: bool,
    flightrec_out: Option<String>,
    watch: Option<f64>,
    frames: Option<u64>,
}

/// Splits tracing/output switches off the argument list, returning them
/// and the remaining (fault) options.
fn parse_trace_opts(args: &[String]) -> Result<(TraceOpts, Vec<String>), String> {
    let mut opts = TraceOpts::default();
    let mut rest = Vec::new();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--stats" => opts.stats = true,
            "--trace" => opts.trace = true,
            "--trace-json" => {
                i += 1;
                opts.trace_json =
                    Some(args.get(i).ok_or("--trace-json needs a file path")?.clone());
            }
            "--format" => {
                i += 1;
                let f = args.get(i).ok_or("--format needs a value")?.clone();
                if !matches!(f.as_str(), "pretty" | "prom" | "json") {
                    return Err(format!("--format must be pretty, prom or json, not `{f}`"));
                }
                opts.format = Some(f);
            }
            "--threads" => {
                i += 1;
                let t: usize = args
                    .get(i)
                    .ok_or("--threads needs a count")?
                    .parse()
                    .map_err(|_| "--threads must be an integer (0 = auto)")?;
                opts.threads = Some(t);
            }
            "--profile-out" => {
                i += 1;
                opts.profile_out = Some(
                    args.get(i)
                        .ok_or("--profile-out needs a file path")?
                        .clone(),
                );
            }
            "--flightrec" => opts.flightrec = true,
            "--flightrec-out" => {
                i += 1;
                opts.flightrec = true;
                opts.flightrec_out = Some(
                    args.get(i)
                        .ok_or("--flightrec-out needs a file path")?
                        .clone(),
                );
            }
            "--watch" => {
                i += 1;
                let secs: f64 = args
                    .get(i)
                    .ok_or("--watch needs a period in seconds")?
                    .parse()
                    .map_err(|_| "--watch period must be a number of seconds")?;
                if !(0.0..=3600.0).contains(&secs) {
                    return Err("--watch period must be in 0..=3600 seconds".to_string());
                }
                opts.watch = Some(secs);
            }
            "--frames" => {
                i += 1;
                let k: u64 = args
                    .get(i)
                    .ok_or("--frames needs a count")?
                    .parse()
                    .map_err(|_| "--frames must be an integer")?;
                if k == 0 {
                    return Err("--frames must be at least 1".to_string());
                }
                opts.frames = Some(k);
            }
            other => rest.push(other.to_string()),
        }
        i += 1;
    }
    Ok((opts, rest))
}

/// Installs the requested span sinks and turns span dispatch on, and
/// applies the worker-thread override to the shared pool.
fn enable_tracing(opts: &TraceOpts) -> Result<(), String> {
    use std::sync::Arc;
    if let Some(t) = opts.threads {
        star_rings::pool::set_threads(t);
    }
    if opts.trace {
        star_rings::obs::add_sink(Arc::new(star_rings::obs::StderrPrettySink));
    }
    if let Some(path) = &opts.trace_json {
        let sink = star_rings::obs::JsonlSink::create(path).map_err(|e| format!("{path}: {e}"))?;
        star_rings::obs::add_sink(Arc::new(sink));
    }
    if opts.trace || opts.trace_json.is_some() {
        star_rings::obs::set_trace_enabled(true);
    }
    if opts.flightrec {
        if let Some(path) = &opts.flightrec_out {
            star_rings::obs::flightrec::set_dump_path(path);
        }
        star_rings::obs::flightrec::enable();
        star_rings::obs::flightrec::install_panic_hook();
    }
    Ok(())
}

fn cmd_embed(args: &[String]) -> Result<(), String> {
    let n = parse_n(args)?;
    let (opts, rest) = parse_trace_opts(&args[1..])?;
    if opts.format.is_some() {
        return Err("--format belongs to the `stats` command".to_string());
    }
    if opts.watch.is_some() || opts.frames.is_some() {
        return Err("--watch/--frames belong to the `stats` command".to_string());
    }
    if opts.stats && opts.profile_out.is_some() {
        // Both drive the same thread-local span capture; the inner one
        // would steal the outer one's spans.
        return Err("--stats and --profile-out are mutually exclusive".to_string());
    }
    let (faults, print) = parse_faults(n, &rest)?;
    enable_tracing(&opts)?;
    let result = embed_body(n, &faults, opts.stats, print, opts.profile_out.as_deref());
    star_rings::obs::flush_sinks();
    result
}

fn embed_body(
    n: usize,
    faults: &FaultSet,
    stats: bool,
    print: bool,
    profile_out: Option<&str>,
) -> Result<(), String> {
    if stats {
        let (ring, report) =
            star_rings::ring::report::embed_with_report(n, faults).map_err(|e| e.to_string())?;
        eprintln!(
            "embedded ring of {} / {} vertices ({} faults, {} lost)",
            ring.len(),
            factorial(n),
            faults.vertex_fault_count(),
            ring.deficiency(),
        );
        eprintln!(
            "  plan      {:?} (spare {:?}) in {:.3} ms",
            report.plan_sequence,
            report.plan_spare,
            report.plan_time.as_secs_f64() * 1e3
        );
        for l in &report.levels {
            eprintln!(
                "  level     R^{} with {} super-vertices",
                l.order, l.supervertices
            );
        }
        eprintln!(
            "  hierarchy {:.3} ms",
            report.hierarchy_time.as_secs_f64() * 1e3
        );
        eprintln!(
            "  expand    {:.3} ms (oracle: {} hits, {} searches)",
            report.expand_time.as_secs_f64() * 1e3,
            report.oracle_hits,
            report.oracle_misses
        );
        eprintln!(
            "  verify    {:.3} ms",
            report.verify_time.as_secs_f64() * 1e3
        );
        if print {
            let stdout = std::io::stdout();
            let mut out = std::io::BufWriter::new(stdout.lock());
            for v in ring.vertices() {
                writeln!(out, "{v}").map_err(|e| e.to_string())?;
            }
        }
        return Ok(());
    }
    let cap = profile_out.map(|_| star_rings::obs::capture());
    let t0 = std::time::Instant::now();
    let ring = embed_longest_ring(n, faults).map_err(|e| e.to_string())?;
    let dt = t0.elapsed();
    if let (Some(cap), Some(path)) = (cap, profile_out) {
        let profile = star_rings::obs::Profile::from_spans(&cap.finish());
        std::fs::write(path, profile.collapsed()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("collapsed-stack profile written to {path}");
    }
    eprintln!(
        "embedded ring of {} / {} vertices ({} faults, {} lost) in {:.2} ms",
        ring.len(),
        factorial(n),
        faults.vertex_fault_count(),
        ring.deficiency(),
        dt.as_secs_f64() * 1e3
    );
    if print {
        let stdout = std::io::stdout();
        let mut out = std::io::BufWriter::new(stdout.lock());
        for v in ring.vertices() {
            writeln!(out, "{v}").map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// `profile <n> [fault options] [--out <f>]`: one embed under span
/// capture; per-phase attribution table to stderr, collapsed stacks
/// (flamegraph.pl input) to stdout or `--out`.
fn cmd_profile(args: &[String]) -> Result<(), String> {
    let n = parse_n(args)?;
    let mut out_path: Option<String> = None;
    let mut forwarded = Vec::new();
    let mut i = 1;
    while i < args.len() {
        if args[i] == "--out" {
            i += 1;
            out_path = Some(args.get(i).ok_or("--out needs a file path")?.clone());
        } else {
            forwarded.push(args[i].clone());
        }
        i += 1;
    }
    let (opts, rest) = parse_trace_opts(&forwarded)?;
    if opts.stats || opts.format.is_some() || opts.profile_out.is_some() || opts.watch.is_some() {
        return Err("profile takes only fault options, --threads and --out".to_string());
    }
    let (faults, _) = parse_faults(n, &rest)?;
    enable_tracing(&opts)?;
    let cap = star_rings::obs::capture();
    let ring = embed_longest_ring(n, &faults).map_err(|e| e.to_string())?;
    let profile = star_rings::obs::Profile::from_spans(&cap.finish());
    eprintln!(
        "embedded ring of {} / {} vertices ({} faults); wall-clock by phase:",
        ring.len(),
        factorial(n),
        faults.vertex_fault_count()
    );
    eprint!("{}", profile.render());
    match out_path {
        Some(path) => {
            std::fs::write(&path, profile.collapsed()).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("collapsed-stack profile written to {path}");
        }
        None => print!("{}", profile.collapsed()),
    }
    Ok(())
}

fn cmd_stats(args: &[String]) -> Result<(), String> {
    let n = parse_n(args)?;
    let (opts, rest) = parse_trace_opts(&args[1..])?;
    if opts.watch.is_none() && opts.frames.is_some() {
        return Err("--frames requires --watch".to_string());
    }
    let (faults, _) = parse_faults(n, &rest)?;
    enable_tracing(&opts)?;
    let pretty = !matches!(opts.format.as_deref(), Some("prom") | Some("json"));
    let frames = match opts.watch {
        Some(_) => opts.frames.unwrap_or(u64::MAX),
        None => 1,
    };
    let mut frame = 0u64;
    loop {
        let (ring, report) =
            star_rings::ring::report::embed_with_report(n, &faults).map_err(|e| e.to_string())?;
        if opts.watch.is_some() && pretty {
            // Clear the screen between frames so the table repaints in
            // place (ANSI erase-display + cursor-home).
            print!("\x1b[2J\x1b[H");
        }
        eprintln!(
            "embedded ring of {} / {} vertices ({} faults; report oracle: {} hits, {} searches)",
            ring.len(),
            factorial(n),
            faults.vertex_fault_count(),
            report.oracle_hits,
            report.oracle_misses
        );
        if let Some(secs) = opts.watch {
            match opts.frames {
                Some(k) => eprintln!("[watch frame {} of {k}, every {secs}s]", frame + 1),
                None => eprintln!("[watch frame {}, every {secs}s — ^C to stop]", frame + 1),
            }
        }
        let snap = star_rings::obs::snapshot();
        match opts.format.as_deref() {
            Some("prom") => print!("{}", snap.to_prometheus()),
            Some("json") => println!("{}", snap.to_json()),
            _ => print!("{snap}"),
        }
        std::io::stdout().flush().map_err(|e| e.to_string())?;
        frame += 1;
        if frame >= frames {
            break;
        }
        std::thread::sleep(std::time::Duration::from_secs_f64(
            opts.watch.unwrap_or(0.0),
        ));
    }
    star_rings::obs::flush_sinks();
    Ok(())
}

fn cmd_verify(args: &[String]) -> Result<(), String> {
    let n = parse_n(args)?;
    let path = args.get(1).ok_or("missing <ring-file>")?;
    let (faults, _) = parse_faults(n, &args[2..])?;
    let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
    let mut ring = Vec::new();
    for line in std::io::BufReader::new(file).lines() {
        let line = line.map_err(|e| e.to_string())?;
        let trimmed = line.trim();
        if !trimmed.is_empty() {
            ring.push(parse_perm(n, trimmed)?);
        }
    }
    check_ring(n, &ring, &faults).map_err(|e| format!("INVALID: {e}"))?;
    println!(
        "valid healthy ring of {} vertices in S_{n} (avoids all {} faults)",
        ring.len(),
        faults.vertex_fault_count()
    );
    Ok(())
}

fn cmd_certify(args: &[String]) -> Result<(), String> {
    let n = parse_n(args)?;
    let (faults, _) = parse_faults(n, &args[1..])?;
    let ring = embed_longest_ring(n, &faults).map_err(|e| e.to_string())?;
    let cert = star_rings::verify::certificate::certificate_for(n, &faults, ring.vertices());
    print!("{cert}");
    eprintln!(
        "certified ring of {} vertices avoiding {} faults",
        ring.len(),
        faults.vertex_fault_count()
    );
    Ok(())
}

fn cmd_verify_cert(args: &[String]) -> Result<(), String> {
    let path = args.first().ok_or("missing <cert-file>")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let summary = star_rings::verify::certificate::verify_certificate(&text)
        .map_err(|e| format!("REJECTED: {e}"))?;
    println!(
        "certificate OK: ring of {} in S_{} avoiding {} faults (at paper guarantee: {})",
        summary.ring_len, summary.n, summary.fault_count, summary.at_guarantee
    );
    Ok(())
}

fn cmd_dot(args: &[String]) -> Result<(), String> {
    let n = parse_n(args)?;
    if n > 5 {
        eprintln!("warning: S_{n} has {} edges; the drawing will be dense", {
            star_rings::graph::edge_count(n)
        });
    }
    let (faults, _) = parse_faults(n, &args[1..])?;
    let ring = embed_longest_ring(n, &faults).map_err(|e| e.to_string())?;
    print!(
        "{}",
        star_rings::graph::export::ring_to_dot(n, ring.vertices(), faults.vertices())
    );
    Ok(())
}

fn cmd_serve(args: &[String]) -> Result<(), String> {
    let mut config = star_rings::serve::ServeConfig::default();
    let mut flightrec = false;
    let mut flightrec_out: Option<String> = None;
    let mut slo_ms: Option<u64> = None;
    let mut slo_budget: Option<f64> = None;
    let mut slo_dump: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                config.addr = args.get(i).ok_or("--addr needs host:port")?.clone();
            }
            "--threads" => {
                i += 1;
                config.threads = args
                    .get(i)
                    .ok_or("--threads needs a count")?
                    .parse()
                    .map_err(|_| "--threads must be an integer (0 = auto)")?;
            }
            "--queue" => {
                i += 1;
                config.queue_capacity = args
                    .get(i)
                    .ok_or("--queue needs a size")?
                    .parse()
                    .map_err(|_| "--queue must be an integer")?;
            }
            "--cache-mb" => {
                i += 1;
                let mb: usize = args
                    .get(i)
                    .ok_or("--cache-mb needs a size in MiB")?
                    .parse()
                    .map_err(|_| "--cache-mb must be an integer")?;
                config.cache_bytes = mb << 20;
            }
            "--deadline-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .ok_or("--deadline-ms needs a value")?
                    .parse()
                    .map_err(|_| "--deadline-ms must be an integer")?;
                config.default_deadline_ms = Some(ms);
            }
            "--verify" => config.verify_responses = true,
            "--proto" => {
                i += 1;
                config.max_proto = match args.get(i).map(String::as_str) {
                    Some("v1") => star_rings::serve::proto::PROTO_V1,
                    Some("v2") => star_rings::serve::proto::PROTO_V2,
                    _ => return Err("--proto must be v1 or v2".to_string()),
                };
            }
            "--oracle-path" => {
                i += 1;
                config.oracle_path = Some(std::path::PathBuf::from(
                    args.get(i).ok_or("--oracle-path needs a directory")?,
                ));
            }
            "--flightrec" => flightrec = true,
            "--flightrec-out" => {
                i += 1;
                flightrec = true;
                flightrec_out = Some(
                    args.get(i)
                        .ok_or("--flightrec-out needs a file path")?
                        .clone(),
                );
            }
            "--slo-ms" => {
                i += 1;
                let ms: u64 = args
                    .get(i)
                    .ok_or("--slo-ms needs a value")?
                    .parse()
                    .map_err(|_| "--slo-ms must be an integer")?;
                if ms == 0 {
                    return Err("--slo-ms must be at least 1".to_string());
                }
                slo_ms = Some(ms);
            }
            "--slo-budget" => {
                i += 1;
                let b: f64 = args
                    .get(i)
                    .ok_or("--slo-budget needs a fraction")?
                    .parse()
                    .map_err(|_| "--slo-budget must be a number")?;
                if !(b > 0.0 && b <= 1.0) {
                    return Err("--slo-budget must be in (0, 1]".to_string());
                }
                slo_budget = Some(b);
            }
            "--slo-dump" => {
                i += 1;
                slo_dump = Some(args.get(i).ok_or("--slo-dump needs a file path")?.clone());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    match slo_ms {
        Some(ms) => {
            let mut slo =
                star_rings::serve::SloConfig::with_target(std::time::Duration::from_millis(ms));
            if let Some(b) = slo_budget {
                slo.budget = b;
            }
            slo.dump_path = slo_dump.map(std::path::PathBuf::from);
            config.slo = Some(slo);
            // A breach snapshot is only useful if events are being
            // recorded — the watchdog implies the flight recorder.
            flightrec = true;
        }
        None if slo_budget.is_some() || slo_dump.is_some() => {
            return Err("--slo-budget/--slo-dump require --slo-ms".to_string());
        }
        None => {}
    }
    if flightrec {
        if let Some(path) = &flightrec_out {
            star_rings::obs::flightrec::set_dump_path(path);
        }
        star_rings::obs::flightrec::enable();
        star_rings::obs::flightrec::install_panic_hook();
    }
    star_rings::serve::run(config)?;
    Ok(())
}

fn cmd_loadgen(args: &[String]) -> Result<(), String> {
    let mut config = star_rings::serve::LoadgenConfig::default();
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--addr" => {
                i += 1;
                config.addr = args.get(i).ok_or("--addr needs host:port")?.clone();
            }
            "--conns" => {
                i += 1;
                config.conns = args
                    .get(i)
                    .ok_or("--conns needs a count")?
                    .parse()
                    .map_err(|_| "--conns must be an integer")?;
                if config.conns == 0 {
                    return Err("--conns must be at least 1".to_string());
                }
            }
            "--rps" => {
                i += 1;
                config.rps = args
                    .get(i)
                    .ok_or("--rps needs a rate")?
                    .parse()
                    .map_err(|_| "--rps must be an integer (0 = unthrottled)")?;
            }
            "--duration" => {
                i += 1;
                let secs: f64 = args
                    .get(i)
                    .ok_or("--duration needs seconds")?
                    .parse()
                    .map_err(|_| "--duration must be a number of seconds")?;
                if !(0.0..=3600.0).contains(&secs) {
                    return Err("--duration must be in 0..=3600 seconds".to_string());
                }
                config.duration = std::time::Duration::from_secs_f64(secs);
            }
            "--mix" => {
                i += 1;
                config.mix =
                    star_rings::serve::Mix::parse(args.get(i).ok_or("--mix needs a value")?)?;
            }
            "--arrivals" => {
                i += 1;
                config.arrivals = star_rings::serve::Arrivals::parse(
                    args.get(i).ok_or("--arrivals needs a value")?,
                )?;
            }
            "--trace-out" => {
                i += 1;
                config.trace_out = Some(std::path::PathBuf::from(
                    args.get(i).ok_or("--trace-out needs a file path")?,
                ));
            }
            "--seed" => {
                i += 1;
                config.seed = args
                    .get(i)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed must be an integer")?;
            }
            "--proto" => {
                i += 1;
                config.proto = star_rings::serve::WireProto::parse(
                    args.get(i).ok_or("--proto needs a value")?,
                )?;
            }
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).ok_or("--out needs a file path")?.clone());
            }
            "--verify" => config.verify = true,
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    let report = star_rings::serve::loadgen::run(&config)?;
    eprint!("{}", report.render_summary());
    let json = report.to_baseline().to_json();
    match &out_path {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("loadgen: summary written to {path}");
        }
        None => print!("{json}"),
    }
    if report.protocol_errors > 0 {
        return Err(format!(
            "{} protocol errors during the run",
            report.protocol_errors
        ));
    }
    if report.cert_failures > 0 {
        return Err(format!(
            "{} certificate failures during the run",
            report.cert_failures
        ));
    }
    Ok(())
}

/// `obs-overhead [--n <n>] [--samples <k>] [--max-pct <p>]`: the tracing
/// cost gate. Embeds the same faulted scenario repeatedly, alternating
/// between observability off (flight recorder disabled, no trace id) and
/// on (flight recorder enabled, a trace id installed, one event recorded
/// per embed — the serving path's per-request instrumentation), and
/// compares the two medians. Interleaving cancels thermal/frequency
/// drift; the median shrugs off scheduler outliers. Exits nonzero when
/// the median overhead exceeds `--max-pct`.
fn cmd_obs_overhead(args: &[String]) -> Result<(), String> {
    let mut n = 8usize;
    let mut samples = 15usize;
    let mut max_pct = 5.0f64;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => {
                i += 1;
                n = args
                    .get(i)
                    .ok_or("--n needs a value")?
                    .parse()
                    .map_err(|_| "--n must be an integer")?;
                if !(4..=10).contains(&n) {
                    return Err("--n must be in 4..=10".to_string());
                }
            }
            "--samples" => {
                i += 1;
                samples = args
                    .get(i)
                    .ok_or("--samples needs a count")?
                    .parse()
                    .map_err(|_| "--samples must be an integer")?;
                if samples == 0 {
                    return Err("--samples must be at least 1".to_string());
                }
            }
            "--max-pct" => {
                i += 1;
                max_pct = args
                    .get(i)
                    .ok_or("--max-pct needs a percentage")?
                    .parse()
                    .map_err(|_| "--max-pct must be a number")?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    let faults =
        gen::random_vertex_faults(n, n.saturating_sub(3), 0xB0B).map_err(|e| e.to_string())?;
    // The serving path canonicalizes every request before embedding, so
    // the probe does too — in BOTH arms (compute parity; the memo makes
    // repeats cheap either way). With the flight recorder enabled, the
    // canonicalizer's own `oracle.canon` events and counters are part of
    // the overhead under measurement, exactly as in a traced server.
    let canonicalizer = star_rings::oracle::Canonicalizer::default();
    let fault_ranks: Vec<u32> = faults.vertices().iter().map(Perm::rank).collect();
    let embed_once = |faults: &FaultSet| -> Result<std::time::Duration, String> {
        let t0 = std::time::Instant::now();
        let canon = canonicalizer.canonicalize(n, &fault_ranks);
        std::hint::black_box(canon.0.ranks().len());
        let ring = embed_longest_ring(n, faults).map_err(|e| e.to_string())?;
        let dt = t0.elapsed();
        std::hint::black_box(ring.len());
        Ok(dt)
    };
    // Warm the oracle cache and code paths so neither arm pays the
    // first-run cost.
    embed_once(&faults)?;
    embed_once(&faults)?;
    let mut plain_ns: Vec<u64> = Vec::with_capacity(samples);
    let mut traced_ns: Vec<u64> = Vec::with_capacity(samples);
    for s in 0..samples {
        star_rings::obs::flightrec::disable();
        plain_ns.push(embed_once(&faults)?.as_nanos() as u64);
        star_rings::obs::flightrec::enable();
        let dt = {
            let _guard = star_rings::obs::with_trace(0x0b5_0000 + s as u128);
            let dt = embed_once(&faults)?;
            star_rings::obs::flightrec::record(
                "overhead.probe",
                format!("sample {s}"),
                &[("n", star_rings::obs::FieldValue::U64(n as u64))],
            );
            dt
        };
        traced_ns.push(dt.as_nanos() as u64);
    }
    star_rings::obs::flightrec::disable();
    let median = |v: &mut Vec<u64>| -> u64 {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let plain = median(&mut plain_ns);
    let traced = median(&mut traced_ns);
    let overhead_pct = if plain == 0 {
        0.0
    } else {
        (traced as f64 - plain as f64) / plain as f64 * 100.0
    };
    println!(
        "obs-overhead: n={n}, {samples} interleaved sample pairs\n\
         obs-overhead:   untraced median {:.3} ms\n\
         obs-overhead:   traced median   {:.3} ms (flight recorder + trace id)\n\
         obs-overhead:   median overhead {overhead_pct:+.2}% (bound {max_pct}%)",
        plain as f64 / 1e6,
        traced as f64 / 1e6,
    );
    if overhead_pct > max_pct {
        return Err(format!(
            "tracing overhead {overhead_pct:.2}% exceeds the {max_pct}% bound"
        ));
    }
    Ok(())
}

/// `oracle warm|stats|verify`: manage a persistent canonical embedding
/// store (see the `star-oracle` crate). `warm` embeds seeded scenarios
/// **in their canonical frame** and appends them, producing a directory
/// that can be shipped to servers and mounted with `serve
/// --oracle-path`; `stats` prints store counters; `verify` re-checks
/// every stored ring against `check_ring` at `n! - 2|F_v|`.
fn cmd_oracle(args: &[String]) -> Result<(), String> {
    match args.first().map(String::as_str) {
        Some("warm") => cmd_oracle_warm(&args[1..]),
        Some("stats") => cmd_oracle_stats(&args[1..]),
        Some("verify") => cmd_oracle_verify(&args[1..]),
        Some(other) => Err(format!(
            "unknown oracle subcommand `{other}` (warm|stats|verify)"
        )),
        None => Err("oracle needs a subcommand: warm | stats | verify".to_string()),
    }
}

/// Pulls the required `--path <dir>` plus any extra flags a subcommand
/// declares; unknown flags error.
fn parse_oracle_flags(
    args: &[String],
    mut extra: impl FnMut(&str, &str) -> Result<bool, String>,
) -> Result<std::path::PathBuf, String> {
    let mut path: Option<std::path::PathBuf> = None;
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        if flag == "--path" {
            i += 1;
            path = Some(std::path::PathBuf::from(
                args.get(i).ok_or("--path needs a directory")?,
            ));
        } else {
            let value = args.get(i + 1).map(String::as_str).unwrap_or("");
            if extra(flag, value)? {
                i += 1;
            } else {
                return Err(format!("unknown option `{flag}`"));
            }
        }
        i += 1;
    }
    path.ok_or("--path <dir> is required".to_string())
}

fn cmd_oracle_warm(args: &[String]) -> Result<(), String> {
    let mut max_n = 7usize;
    let mut count = 32usize;
    let mut seed = 0u64;
    let path = parse_oracle_flags(args, |flag, value| match flag {
        "--n" => {
            max_n = value
                .parse()
                .map_err(|_| "--n must be an integer".to_string())?;
            if !(4..=9).contains(&max_n) {
                return Err("--n must be in 4..=9".to_string());
            }
            Ok(true)
        }
        "--count" => {
            count = value
                .parse()
                .map_err(|_| "--count must be an integer".to_string())?;
            if count == 0 {
                return Err("--count must be at least 1".to_string());
            }
            Ok(true)
        }
        "--seed" => {
            seed = value
                .parse()
                .map_err(|_| "--seed must be an integer".to_string())?;
            Ok(true)
        }
        _ => Ok(false),
    })?;
    let store = star_rings::oracle::Store::open(&path)
        .map_err(|e| format!("oracle store {}: {e}", path.display()))?;
    let t0 = std::time::Instant::now();
    let mut written = 0usize;
    let mut skipped = 0usize;
    for n in 4..=max_n {
        let budget = n.saturating_sub(3);
        let mut batch: Vec<(star_rings::oracle::OracleKey, RingDelta)> = Vec::new();
        for i in 0..count {
            // Cycle the fault budget so the store covers every |F_v|;
            // each scenario gets its own derived seed.
            let k = i % (budget + 1);
            let faults = gen::random_vertex_faults(n, k, seed ^ (n as u64) << 32 ^ i as u64)
                .map_err(|e| e.to_string())?;
            let ranks: Vec<u32> = faults.vertices().iter().map(Perm::rank).collect();
            let canon = star_rings::oracle::canonicalize(n, &ranks);
            let key = star_rings::oracle::OracleKey::new(&canon, 0, 0);
            if store.contains(&key) || batch.iter().any(|(k, _)| *k == key) {
                // Orbit-mates collapse onto one canonical record.
                skipped += 1;
                continue;
            }
            // Embed the canonical scenario directly: the stored ring is
            // already in the canonical frame, ready for witness map-back.
            let canon_faults = FaultSet::from_vertices(
                n,
                canon
                    .ranks()
                    .iter()
                    .map(|&r| Perm::unrank(n, r).expect("canonical ranks are valid"))
                    .collect::<Vec<_>>(),
            )
            .map_err(|e| e.to_string())?;
            let ring = embed_longest_ring(n, &canon_faults).map_err(|e| e.to_string())?;
            batch.push((key, RingDelta::encode(ring.vertices())?));
        }
        written += store
            .append_batch(&batch)
            .map_err(|e| format!("append n={n}: {e}"))?;
    }
    let stats = store.stats();
    println!(
        "oracle warm: {written} canonical records written, {skipped} orbit duplicates skipped \
         ({:.2}s)\noracle warm: store now holds {} records in {} segments ({} KiB) at {}",
        t0.elapsed().as_secs_f64(),
        stats.records,
        stats.segments,
        stats.bytes >> 10,
        path.display(),
    );
    Ok(())
}

fn cmd_oracle_stats(args: &[String]) -> Result<(), String> {
    let path = parse_oracle_flags(args, |_, _| Ok(false))?;
    let store = star_rings::oracle::Store::open(&path)
        .map_err(|e| format!("oracle store {}: {e}", path.display()))?;
    let stats = store.stats();
    println!(
        "oracle store {}\n\
         \x20 records:  {}\n\
         \x20 segments: {}\n\
         \x20 bytes:    {}\n\
         \x20 corrupt:  {}",
        path.display(),
        stats.records,
        stats.segments,
        stats.bytes,
        stats.corrupt,
    );
    Ok(())
}

fn cmd_oracle_verify(args: &[String]) -> Result<(), String> {
    let mut limit = 0usize;
    let path = parse_oracle_flags(args, |flag, value| match flag {
        "--limit" => {
            limit = value
                .parse()
                .map_err(|_| "--limit must be an integer (0 = all)".to_string())?;
            Ok(true)
        }
        _ => Ok(false),
    })?;
    let store = star_rings::oracle::Store::open(&path)
        .map_err(|e| format!("oracle store {}: {e}", path.display()))?;
    let t0 = std::time::Instant::now();
    let report = store.verify(limit);
    println!(
        "oracle verify: {} records checked, {} ok ({:.2}s)",
        report.checked,
        report.ok,
        t0.elapsed().as_secs_f64(),
    );
    for failure in &report.failures {
        eprintln!("oracle verify: FAIL {failure}");
    }
    if !report.all_ok() {
        return Err(format!(
            "{} of {} stored rings failed verification",
            report.failures.len(),
            report.checked
        ));
    }
    Ok(())
}

/// `audit [--n <max>] [--seeds <k>] [--soak <k>] [--fuzz <k>] [--out <f>]`:
/// the differential correctness gate. Exits nonzero on any mismatch, soak
/// violation, or fuzz-invariant failure.
fn cmd_audit(args: &[String]) -> Result<(), String> {
    let mut config = star_rings::verify::audit::AuditConfig::default();
    let mut soak = 200usize;
    let mut fuzz_iters = 96usize;
    let mut out_path: Option<String> = None;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--n" => {
                i += 1;
                config.max_n = args
                    .get(i)
                    .ok_or("--n needs a value")?
                    .parse()
                    .map_err(|_| "--n must be an integer")?;
                if !(4..=6).contains(&config.max_n) {
                    return Err("--n must be in 4..=6 (the oracle-checkable range)".to_string());
                }
            }
            "--seeds" => {
                i += 1;
                config.seeds = args
                    .get(i)
                    .ok_or("--seeds needs a count")?
                    .parse()
                    .map_err(|_| "--seeds must be an integer")?;
            }
            "--soak" => {
                i += 1;
                soak = args
                    .get(i)
                    .ok_or("--soak needs a count")?
                    .parse()
                    .map_err(|_| "--soak must be an integer (0 disables)")?;
            }
            "--fuzz" => {
                i += 1;
                fuzz_iters = args
                    .get(i)
                    .ok_or("--fuzz needs a count")?
                    .parse()
                    .map_err(|_| "--fuzz must be an integer (0 disables)")?;
            }
            "--out" => {
                i += 1;
                out_path = Some(args.get(i).ok_or("--out needs a file path")?.clone());
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }

    let mut failures: Vec<String> = Vec::new();
    let mut cases: Vec<star_rings::bench::baseline::BaselineCase> = Vec::new();

    // 1. Differential sweep.
    let t0 = std::time::Instant::now();
    let report = star_rings::verify::audit::run(&config);
    eprintln!(
        "audit: differential sweep — {} scenarios across n=4..={}, {} mismatches ({:.2}s)",
        report.scenarios(),
        config.max_n,
        report.mismatches.len(),
        t0.elapsed().as_secs_f64()
    );
    for c in &report.cases {
        eprintln!(
            "  n={}: {} scenarios, {} oracle-checked, {} certificates, median {:.1} us, p95 {:.1} us",
            c.n,
            c.scenarios,
            c.oracle_checked,
            c.certificates,
            c.median_ns as f64 / 1e3,
            c.p95_ns as f64 / 1e3
        );
        cases.push(star_rings::bench::baseline::BaselineCase {
            name: format!("audit/differential/n{}", c.n),
            n: c.n,
            mode: "audit".to_string(),
            samples: c.scenarios,
            median_ns: c.median_ns,
            p95_ns: c.p95_ns,
            oracle_hit_rate: 1.0,
            pool_items_per_worker: 0.0,
            per_conn_rate: 0.0,
        });
    }
    failures.extend(
        report
            .mismatches
            .iter()
            .map(|m| format!("differential: {m}")),
    );

    // 2. Chaos soak through MaintainedRing::fail.
    if soak > 0 {
        let t0 = std::time::Instant::now();
        let (mismatches, (local, global, refused)) =
            star_rings::verify::audit::soak_repairs(6, soak, 0xC0FFEE);
        let dt = t0.elapsed();
        eprintln!(
            "audit: chaos soak — {soak} injections at n=6 ({local} local, {global} global, \
             {refused} refused), {} violations ({:.2}s)",
            mismatches.len(),
            dt.as_secs_f64()
        );
        cases.push(star_rings::bench::baseline::BaselineCase {
            name: "audit/soak/n6".to_string(),
            n: 6,
            mode: "audit".to_string(),
            samples: soak,
            median_ns: (dt.as_nanos() as u64) / soak.max(1) as u64,
            p95_ns: (dt.as_nanos() as u64) / soak.max(1) as u64,
            oracle_hit_rate: 1.0,
            pool_items_per_worker: 0.0,
            per_conn_rate: 0.0,
        });
        failures.extend(mismatches.iter().map(|m| format!("soak: {m}")));
    }

    // 3. Wire-protocol fuzz smoke against an in-process server.
    if fuzz_iters > 0 {
        failures.extend(audit_fuzz_smoke(fuzz_iters)?);
    }

    if let Some(path) = &out_path {
        let baseline = star_rings::bench::baseline::Baseline {
            created_ms: std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.as_millis() as u64)
                .unwrap_or(0),
            cases,
        };
        std::fs::write(path, baseline.to_json()).map_err(|e| format!("{path}: {e}"))?;
        eprintln!("audit: timing summary written to {path}");
    }

    if failures.is_empty() {
        println!("audit PASS");
        Ok(())
    } else {
        for f in &failures {
            eprintln!("audit FAIL: {f}");
        }
        Err(format!("audit found {} failure(s)", failures.len()))
    }
}

/// Boots a throwaway server on a free port, fuzzes its wire protocol, and
/// shuts it down. Returns the list of crash-free-invariant violations.
fn audit_fuzz_smoke(iterations: usize) -> Result<Vec<String>, String> {
    // Probe a free port, release it, and bind the server there. The
    // window between release and rebind is ours alone in practice (the
    // kernel does not reissue the ephemeral port immediately).
    let addr = {
        let probe = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        probe.local_addr().map_err(|e| e.to_string())?.to_string()
    };
    let config = star_rings::serve::ServeConfig {
        addr: addr.clone(),
        ..Default::default()
    };
    let server = std::thread::spawn(move || star_rings::serve::run(config));
    // Wait for the socket to accept.
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        if std::net::TcpStream::connect(&addr).is_ok() {
            break;
        }
        if std::time::Instant::now() > deadline {
            star_rings::serve::request_shutdown();
            let _ = server.join();
            return Err("audit: fuzz server did not come up within 10s".to_string());
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    let result = star_rings::serve::fuzz::run(&star_rings::serve::fuzz::FuzzConfig {
        addr,
        iterations,
        seed: 0xF422,
    });
    star_rings::serve::request_shutdown();
    match server.join() {
        Ok(Ok(_)) => {}
        Ok(Err(e)) => return Err(format!("audit: fuzz server failed: {e}")),
        Err(_) => return Err("audit: fuzz server panicked".to_string()),
    }
    let report = result?;
    eprintln!(
        "audit: protocol fuzz — {} hostile frames ({} error responses, {} hangups), \
         {} invariant violations",
        report.sent,
        report.error_responses,
        report.hangups,
        report.failures.len()
    );
    Ok(report
        .failures
        .iter()
        .map(|f| format!("fuzz: {f}"))
        .collect())
}

fn cmd_degrade(args: &[String]) -> Result<(), String> {
    let n = parse_n(args)?;
    let mut failures = n.saturating_sub(3);
    let mut seed = 0u64;
    let rest = &args[1..];
    let mut i = 0;
    while i < rest.len() {
        match rest[i].as_str() {
            "--failures" => {
                i += 1;
                failures = rest
                    .get(i)
                    .ok_or("--failures needs a count")?
                    .parse()
                    .map_err(|_| "--failures must be an integer")?;
            }
            "--seed" => {
                i += 1;
                seed = rest
                    .get(i)
                    .ok_or("--seed needs a value")?
                    .parse()
                    .map_err(|_| "--seed must be an integer")?;
            }
            other => return Err(format!("unknown option `{other}`")),
        }
        i += 1;
    }
    if failures > n.saturating_sub(3) {
        return Err(format!("at most n-3 = {} failures supported", n - 3));
    }
    let seq: Vec<Perm> = gen::random_vertex_faults(n, failures, seed)
        .map_err(|e| e.to_string())?
        .vertices()
        .to_vec();
    let timeline = degrade(n, &seq).map_err(|e| e.to_string())?;
    println!("boot: ring of {}", factorial(n));
    for step in &timeline.steps {
        println!(
            "fail {} -> ring {} (repair {:.2} ms, {:.1}% edges kept)",
            step.failed,
            step.ring_len,
            step.reembed_time.as_secs_f64() * 1e3,
            100.0 * step.edge_survival
        );
    }
    Ok(())
}
