//! E12 — observability overhead of the post-mortem layer.
//!
//! Three instrumentation levels around the same no-verify full-budget
//! embed at `n = 8` and `n = 9` (warmed oracle; the embed is one serial
//! pass, so the measurement is single-threaded and stable):
//!
//! * `off` — flight recorder disabled (the production default);
//! * `flightrec` — flight recorder enabled (span open/close + counter
//!   events into the lock-free ring);
//! * `profile` — span capture active (what `star-rings profile` costs).
//!
//! The acceptance criterion is flight-recorder overhead <= 2% of median
//! embed wall time at `n = 9`; the table records the measured ratio. A
//! second table reports the per-phase split of one profiled `n = 9`
//! embed — the data behind the sample flamegraph in EXPERIMENTS.md.

use std::time::Instant;

use star_bench::Table;
use star_fault::gen;
use star_obs::flightrec;
use star_perm::Parity;
use star_ring::{embed_with_options, oracle, EmbedOptions};

const SAMPLES: usize = 25;

fn no_verify() -> EmbedOptions {
    EmbedOptions {
        verify: false,
        ..Default::default()
    }
}

fn one_embed_ns(n: usize, faults: &star_fault::FaultSet) -> u64 {
    let t0 = Instant::now();
    let ring = embed_with_options(n, faults, &no_verify()).unwrap();
    assert!(!ring.is_empty());
    t0.elapsed().as_nanos() as u64
}

fn median(mut wall: Vec<u64>) -> u64 {
    wall.sort_unstable();
    wall[wall.len() / 2]
}

fn main() {
    star_bench::run_experiment("e12_overhead", run);
}

fn run() {
    oracle::warm();
    let mut t = Table::new(
        "E12: flight-recorder / profiler overhead on the full-budget embed",
        &["n", "mode", "median", "vs off", "events recorded"],
    );
    for n in [8usize, 9] {
        let faults = gen::worst_case_same_partite(n, n - 3, Parity::Even, 42).unwrap();
        // Warm-up so allocator and branch state settle before any mode.
        for _ in 0..3 {
            let _ = one_embed_ns(n, &faults);
        }

        // The three modes are interleaved per sample (off, flightrec,
        // profile, repeat) so slow drift in machine load hits all three
        // equally instead of biasing whichever block ran last.
        let mut off = Vec::with_capacity(SAMPLES);
        let mut on = Vec::with_capacity(SAMPLES);
        let mut prof = Vec::with_capacity(SAMPLES);
        let mut events = 0u64;
        let mut spans = 0usize;
        for _ in 0..SAMPLES {
            flightrec::disable();
            off.push(one_embed_ns(n, &faults));

            flightrec::enable();
            let rec0 = flightrec::recorded_total();
            on.push(one_embed_ns(n, &faults));
            events += flightrec::recorded_total() - rec0;
            flightrec::disable();
            let _ = flightrec::drain();

            let cap = star_obs::capture();
            prof.push(one_embed_ns(n, &faults));
            spans = cap.finish().len();
        }
        // Overhead ratio = median of per-round on/off ratios: each round's
        // pair ran back-to-back, so the ratio is drift-free even when the
        // absolute medians wander by several percent.
        let ratio = |xs: &[u64], base: &[u64]| {
            let mut rs: Vec<f64> = xs
                .iter()
                .zip(base)
                .map(|(&x, &b)| x as f64 / b as f64)
                .collect();
            rs.sort_by(|a, b| a.total_cmp(b));
            rs[rs.len() / 2]
        };
        let on_ratio = ratio(&on, &off);
        let prof_ratio = ratio(&prof, &off);
        let (off_ns, on_ns, prof_ns) = (median(off), median(on), median(prof));
        t.row(&[
            n.to_string(),
            "off".to_string(),
            format!("{:.3} ms", off_ns as f64 / 1e6),
            "1.000x".to_string(),
            "-".to_string(),
        ]);
        t.row(&[
            n.to_string(),
            "flightrec".to_string(),
            format!("{:.3} ms", on_ns as f64 / 1e6),
            format!("{on_ratio:.3}x"),
            format!("{} / embed", events as usize / SAMPLES),
        ]);
        t.row(&[
            n.to_string(),
            "profile".to_string(),
            format!("{:.3} ms", prof_ns as f64 / 1e6),
            format!("{prof_ratio:.3}x"),
            format!("{spans} spans"),
        ]);

        if n == 9 {
            println!(
                "\nE12 acceptance: flight-recorder overhead at n=9 is {:+.2}% (budget 2%)",
                100.0 * (on_ratio - 1.0)
            );
            // Per-phase attribution of one profiled embed — the collapsed
            // stacks behind the EXPERIMENTS.md sample flamegraph.
            let cap = star_obs::capture();
            let faults = gen::worst_case_same_partite(9, 6, Parity::Even, 42).unwrap();
            embed_with_options(9, &faults, &no_verify()).unwrap();
            let profile = star_obs::Profile::from_spans(&cap.finish());
            println!("\ncollapsed stacks of one profiled n=9 embed:");
            print!("{}", profile.collapsed());
        }
    }
    t.finish("e12_overhead");
}
