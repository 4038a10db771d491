//! `bench-diff` — compares two perf baselines and gates on regressions.
//!
//! ```text
//! bench-diff <base.json> <current.json> [--threshold PCT] [--warn-only]
//! ```
//!
//! Exits nonzero when any case's median wall time regressed by more than
//! the threshold (default 10%). `--warn-only` prints the same report but
//! always exits 0 — the PR-gate mode; nightly runs omit it and hard-fail.

use std::process::ExitCode;

use star_bench::baseline::{diff, Baseline, DEFAULT_THRESHOLD};
use star_bench::flags::{ensure, exit_code, usage, Flags};

fn main() -> ExitCode {
    exit_code(cli())
}

fn cli() -> Result<ExitCode, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut files = Vec::new();
    let mut threshold = DEFAULT_THRESHOLD;
    let mut warn_only = false;
    let mut flags = Flags::new(&args);
    while let Some(flag) = flags.next_flag() {
        match flag {
            "--threshold" => threshold = flags.value::<f64>()? / 100.0,
            "--warn-only" => warn_only = true,
            "--help" | "-h" => {
                return Ok(usage(
                    "bench-diff <base.json> <current.json> [--threshold PCT] [--warn-only]",
                ))
            }
            unknown if unknown.starts_with('-') => return Err(flags.unknown()),
            file => files.push(file),
        }
    }
    // Written so that a NaN threshold fails too.
    ensure(threshold > 0.0, "--threshold needs a positive percentage")?;
    let [base_path, cur_path] = files.as_slice() else {
        return Err("expected exactly two baseline files (base, current)".to_string());
    };
    let base = load(base_path)?;
    let cur = load(cur_path)?;

    let lines = diff(&base, &cur, threshold);
    let mut regressions = 0usize;
    println!(
        "{:<24} {:>14} {:>14} {:>9}  verdict",
        "case", "base median", "cur median", "delta"
    );
    for l in &lines {
        let (base_s, cur_s) = (fmt_opt_ns(l.base_median_ns), fmt_opt_ns(l.cur_median_ns));
        let delta_s = l
            .median_delta
            .map(|d| format!("{:+.1}%", 100.0 * d))
            .unwrap_or_else(|| "-".to_string());
        let verdict = match (l.regressed, l.base_median_ns, l.cur_median_ns) {
            (true, ..) => {
                regressions += 1;
                "REGRESSED"
            }
            (false, None, _) => "new",
            (false, _, None) => "removed",
            _ => "ok",
        };
        println!(
            "{:<24} {base_s:>14} {cur_s:>14} {delta_s:>9}  {verdict}",
            l.name
        );
    }
    if regressions > 0 {
        eprintln!(
            "bench-diff: {regressions} case(s) regressed beyond {:.0}%{}",
            100.0 * threshold,
            if warn_only {
                " (warn-only: not failing)"
            } else {
                ""
            }
        );
        if !warn_only {
            return Ok(ExitCode::FAILURE);
        }
    } else {
        println!(
            "bench-diff: no median regression beyond {:.0}%",
            100.0 * threshold
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn load(path: &str) -> Result<Baseline, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Baseline::from_json(&text).map_err(|e| format!("{path}: {e}"))
}

fn fmt_opt_ns(ns: Option<u64>) -> String {
    match ns {
        Some(v) => format!("{:.3} ms", v as f64 / 1e6),
        None => "-".to_string(),
    }
}
