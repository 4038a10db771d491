//! `speedup-gate` — nightly guard that parallel expansion actually pays.
//!
//! ```text
//! speedup-gate [--n N] [--samples K] [--min-ratio R]
//! ```
//!
//! Times the `n = 9` (by default) full-budget worst-case embed serial
//! (`threads = 1`) and parallel ([`star_bench::baseline::parallel_threads`]
//! workers), then demands `serial_median / parallel_median >= R`
//! (default **1.2×**) *and* a positive achieved items-per-worker figure
//! for the parallel cell — so the gate also fails if the pool silently
//! stops engaging, which is exactly the regression that motivated it
//! (the old `parallel` baseline cells resolved to one worker and
//! re-measured the serial path with noise on top).
//!
//! On hosts with fewer than two CPUs a speedup is physically impossible;
//! the gate prints a notice and exits 0 so local single-core runs and
//! constrained containers do not produce a meaningless failure.

use std::process::ExitCode;

use star_bench::baseline::{parallel_threads, run_case};
use star_bench::flags::{ensure, exit_code, usage, Flags};
use star_ring::oracle;

fn main() -> ExitCode {
    exit_code(cli())
}

fn cli() -> Result<ExitCode, String> {
    let mut n = 9usize;
    let mut samples = 9usize;
    let mut min_ratio = 1.2f64;
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut flags = Flags::new(&args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--n" => n = flags.value()?,
            "--samples" => samples = flags.value()?,
            "--min-ratio" => min_ratio = flags.value()?,
            "--help" | "-h" => {
                return Ok(usage("speedup-gate [--n N] [--samples K] [--min-ratio R]"))
            }
            _ => return Err(flags.unknown()),
        }
    }
    ensure((7..=10).contains(&n), "--n needs an integer in 7..=10")?;
    ensure(samples >= 1, "--samples needs a positive integer")?;
    // Written so that a NaN ratio fails too.
    ensure(min_ratio > 0.0, "--min-ratio needs a positive number")?;

    let cores = std::thread::available_parallelism()
        .map(|c| c.get())
        .unwrap_or(1);
    if cores < 2 {
        println!(
            "speedup-gate: SKIPPED — host has {cores} CPU(s); a parallel speedup \
             is not measurable here (gate enforced on multi-core CI)"
        );
        return Ok(ExitCode::SUCCESS);
    }

    oracle::warm();
    star_pool::set_threads(1);
    let serial = run_case(&format!("embed/n{n}/serial"), n, "serial", samples);
    let threads = parallel_threads();
    star_pool::set_threads(threads);
    let parallel = run_case(&format!("embed/n{n}/parallel"), n, "parallel", samples);
    star_pool::set_threads(0);

    let ratio = serial.median_ns as f64 / parallel.median_ns.max(1) as f64;
    println!(
        "speedup-gate: n={n} serial {} ns, parallel {} ns ({threads} workers) \
         -> {ratio:.2}x (need >= {min_ratio:.2}x), items/worker {:.1}",
        serial.median_ns, parallel.median_ns, parallel.pool_items_per_worker
    );
    if parallel.pool_items_per_worker <= 0.0 {
        eprintln!("speedup-gate: FAIL — parallel cell never engaged the pool");
        return Ok(ExitCode::FAILURE);
    }
    if ratio + 1e-9 < min_ratio {
        eprintln!(
            "speedup-gate: FAIL — parallel embed is only {ratio:.2}x the serial \
             median (threshold {min_ratio:.2}x)"
        );
        return Ok(ExitCode::FAILURE);
    }
    println!("speedup-gate: OK");
    Ok(ExitCode::SUCCESS)
}
