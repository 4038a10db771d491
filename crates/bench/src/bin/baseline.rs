//! `baseline` — runs the E11-style embed matrix and writes a
//! machine-readable perf baseline.
//!
//! ```text
//! baseline [--samples K] [--out FILE]
//! ```
//!
//! Default output is `BENCH_<YYYY-MM-DD>.json` in the current directory;
//! CI uploads the file as an artifact and `bench-diff` compares it
//! against the committed known-good baseline (`BENCH_seed.json`).

use std::process::ExitCode;

use star_bench::baseline::{date_slug, run_matrix};
use star_bench::flags::{ensure, exit_code, usage, Flags};

fn main() -> ExitCode {
    exit_code(cli())
}

fn cli() -> Result<ExitCode, String> {
    let mut samples = 9usize;
    let mut out: Option<String> = None;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = Flags::new(&args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--samples" => samples = flags.value()?,
            "--out" => out = Some(flags.value()?),
            "--help" | "-h" => return Ok(usage("baseline [--samples K] [--out FILE]")),
            _ => return Err(flags.unknown()),
        }
    }
    ensure(samples >= 1, "--samples needs a positive integer")?;

    let baseline = run_matrix(samples);
    let path = out.unwrap_or_else(|| format!("BENCH_{}.json", date_slug(baseline.created_ms)));
    std::fs::write(&path, baseline.to_json()).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "wrote {path} ({} cases, {samples} samples each)",
        baseline.cases.len()
    );
    for c in &baseline.cases {
        println!(
            "  {:<22} median {:>12} ns  p95 {:>12} ns  oracle-hit {:>7.3}%  items/worker {:>8.1}",
            c.name,
            c.median_ns,
            c.p95_ns,
            100.0 * c.oracle_hit_rate,
            c.pool_items_per_worker
        );
    }
    Ok(ExitCode::SUCCESS)
}
