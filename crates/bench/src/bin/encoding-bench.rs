//! `encoding-bench` — wire-encoding comparison: JSON v1 vs delta v2.
//!
//! ```text
//! encoding-bench [--samples K] [--n-max N] [--out FILE]
//! ```
//!
//! Embeds one worst-case-budget ring per dimension and measures, on the
//! same ring, the two wire encodings the server can ship:
//!
//! - `encoding/json_encode/nN` — rendering the ring as the v1 JSON
//!   vertex array (`ring_to_json` + serialization), the per-response
//!   cost a v1 `return_ring` pays.
//! - `encoding/delta_encode/nN` — packing the ring into the v2
//!   generator-delta form ([`RingDelta::encode`]).
//! - `encoding/delta_decode/nN` — expanding the delta back to vertices,
//!   the cost a client pays to materialize (streaming consumers never
//!   do; they walk chunk by chunk).
//! - `verify/stream/nN` — what a v2 client pays per ring: the frames
//!   of [`chunk_stream`] at the default chunking, each parsed with
//!   [`ChunkFrame::parse`] and fed to a [`StreamVerifier`], then
//!   `finish`.
//! - `verify/stream_mapped/nN` — the same client check on the ring as a
//!   canonical hit serves it: mapped through a fixed automorphism, which
//!   moves the free positions of its `S_4` blocks off `0..=3`.
//! - `verify/check_ring/nN` — [`star_verify::check_ring`] on the
//!   vertex list, the same `RingCheck` fold over unpacked vertices.
//!
//! Encoded sizes and effective throughput go to stderr; the timing
//! cases use the committed `BENCH_*.json` schema so `bench-diff` tracks
//! them. The run fails if the delta encoding at the largest measured
//! dimension is not at least 20× smaller than the JSON form — that
//! ratio is the whole point of protocol v2.

use std::process::ExitCode;
use std::time::Instant;

use star_bench::baseline::{percentile, Baseline, BaselineCase};
use star_bench::flags::{ensure, exit_code, usage, Flags};
use star_fault::{gen, FaultSet};
use star_perm::{factorial, Aut};
use star_ring::embed_longest_ring;
use star_serve::proto::{
    chunk_stream, ring_to_json, ChunkFrame, RingDelta, DEFAULT_CHUNK_VERTICES,
};
use star_serve::StreamVerifier;

fn main() -> ExitCode {
    exit_code(cli())
}

fn cli() -> Result<ExitCode, String> {
    let mut samples = 15usize;
    let mut n_max = 9usize;
    let mut out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = Flags::new(&args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--samples" => samples = flags.value()?,
            "--n-max" => n_max = flags.value()?,
            "--out" => out = Some(flags.value()?),
            "--help" | "-h" => {
                return Ok(usage(
                    "encoding-bench [--samples K] [--n-max N] [--out FILE]",
                ))
            }
            _ => return Err(flags.unknown()),
        }
    }
    ensure(samples >= 1, "--samples needs a positive integer")?;
    ensure((7..=9).contains(&n_max), "--n-max must be in 7..=9")?;

    let baseline = run(n_max, samples)?;
    let json = baseline.to_json();
    match &out {
        Some(path) => {
            std::fs::write(path, &json).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("encoding-bench: summary written to {path}");
        }
        None => print!("{json}"),
    }
    for c in &baseline.cases {
        eprintln!(
            "  {:<26} median {:>12} ns  p95 {:>12} ns",
            c.name, c.median_ns, c.p95_ns
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn median(wall_ns: &[u64]) -> u64 {
    let mut w = wall_ns.to_vec();
    w.sort_unstable();
    percentile(&w, 0.5)
}

fn mib_per_s(bytes: usize, ns: u64) -> f64 {
    bytes as f64 / (ns.max(1) as f64 / 1e9) / (1 << 20) as f64
}

fn run(n_max: usize, samples: usize) -> Result<Baseline, String> {
    let mut cases = Vec::new();
    for n in 7..=n_max {
        let case = |name, mode, wall| BaselineCase::from_samples(name, n, mode, wall, 0.0);
        // One worst-case-budget ring per dimension; the encodings are
        // measured on the same ring so the comparison is apples to
        // apples.
        let faults =
            gen::random_vertex_faults(n, n - 3, 0xE14C0D + n as u64).map_err(|e| e.to_string())?;
        let embedded = embed_longest_ring(n, &faults).map_err(|e| e.to_string())?;
        let delta = embedded.delta().clone();
        let ring = embedded.into_vertices();

        let json_bytes = ring_to_json(&delta).to_string().len();
        let delta_bytes = delta.encoded_bytes();
        let ratio = json_bytes as f64 / delta_bytes as f64;
        eprintln!(
            "encoding-bench: n={n} ring of {} vertices: JSON {json_bytes} B, \
             delta {delta_bytes} B ({ratio:.1}x smaller)",
            ring.len()
        );

        let wall: Vec<u64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                let text = ring_to_json(&delta).to_string();
                let ns = t0.elapsed().as_nanos() as u64;
                assert_eq!(text.len(), json_bytes);
                ns
            })
            .collect();
        eprintln!(
            "encoding-bench:   json_encode  {:>8.1} MiB/s",
            mib_per_s(json_bytes, median(&wall))
        );
        cases.push(case(format!("encoding/json_encode/n{n}"), "encode", wall));

        let wall: Vec<u64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                let d = RingDelta::encode(&ring).expect("ring delta-encodes");
                let ns = t0.elapsed().as_nanos() as u64;
                assert_eq!(d.len(), ring.len() as u32);
                ns
            })
            .collect();
        eprintln!(
            "encoding-bench:   delta_encode {:>8.1} MiB/s (of JSON-equivalent bytes)",
            mib_per_s(json_bytes, median(&wall))
        );
        cases.push(case(format!("encoding/delta_encode/n{n}"), "encode", wall));

        let wall: Vec<u64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                let decoded = delta.decode();
                let ns = t0.elapsed().as_nanos() as u64;
                assert_eq!(decoded.len(), ring.len());
                ns
            })
            .collect();
        eprintln!(
            "encoding-bench:   delta_decode {:>8.1} MiB/s (of JSON-equivalent bytes)",
            mib_per_s(json_bytes, median(&wall))
        );
        cases.push(case(format!("encoding/delta_decode/n{n}"), "decode", wall));

        let frames: Vec<Vec<u8>> = chunk_stream(&delta, 0, DEFAULT_CHUNK_VERTICES)?
            .iter()
            .map(ChunkFrame::encode)
            .collect();
        let wall: Vec<u64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                let summary = verify_frames(n, ring.len() as u64, &faults, &frames)
                    .expect("the embedded ring verifies");
                let ns = t0.elapsed().as_nanos() as u64;
                assert!(summary.at_guarantee);
                ns
            })
            .collect();
        cases.push(case(format!("verify/stream/n{n}"), "verify", wall));

        // The last automorphism of Stab_1 relabels dimension d as n - d.
        let aut = Aut::from_ranks(n, 0x5EED, factorial(n - 1) - 1);
        let mapped_faults =
            FaultSet::from_vertices(n, faults.vertices().iter().map(|f| aut.apply(f)))
                .map_err(|e| e.to_string())?;
        let mapped_frames: Vec<Vec<u8>> =
            chunk_stream(&delta.map_through(&aut), 0, DEFAULT_CHUNK_VERTICES)?
                .iter()
                .map(ChunkFrame::encode)
                .collect();
        let wall: Vec<u64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                let summary = verify_frames(n, ring.len() as u64, &mapped_faults, &mapped_frames)
                    .expect("the mapped ring verifies");
                let ns = t0.elapsed().as_nanos() as u64;
                assert!(summary.at_guarantee);
                ns
            })
            .collect();
        cases.push(case(format!("verify/stream_mapped/n{n}"), "verify", wall));

        let wall: Vec<u64> = (0..samples)
            .map(|_| {
                let t0 = Instant::now();
                let summary =
                    star_verify::check_ring(n, &ring, &faults).expect("the embedded ring verifies");
                let ns = t0.elapsed().as_nanos() as u64;
                assert!(summary.at_guarantee);
                ns
            })
            .collect();
        cases.push(case(format!("verify/check_ring/n{n}"), "verify", wall));

        // The size win is the point of the protocol: hold the line.
        if n == n_max && (delta_bytes as f64) > json_bytes as f64 / 20.0 {
            return Err(format!(
                "delta encoding at n={n} is only {ratio:.1}x smaller than JSON \
                 (acceptance floor is 20x)"
            ));
        }
    }
    Ok(Baseline::stamped(cases))
}

/// The client's side of a v2 ring stream: parse every frame and fold it
/// through one [`StreamVerifier`].
fn verify_frames(
    n: usize,
    ring_len: u64,
    faults: &star_fault::FaultSet,
    frames: &[Vec<u8>],
) -> Result<star_serve::stream::StreamSummary, String> {
    let mut verifier = StreamVerifier::new(n, ring_len, faults)?;
    for frame in frames {
        verifier.feed(&ChunkFrame::parse(frame)?)?;
    }
    verifier.finish()
}
