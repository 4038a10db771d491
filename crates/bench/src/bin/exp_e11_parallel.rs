//! E11 — the precomputed Lemma-4 oracle.
//!
//! Five rows, in the order a process meets them:
//!
//! * the first embed at `n = 9`, while the process-global oracle is
//!   still cold (a process has one cold global table, so this row is a
//!   single sample and must run first);
//! * `oracle::warm()` itself (one sample for the same reason);
//! * the full 24×24 healthy-pair canonical query sweep against a fresh
//!   private table (every query runs the search) and against a warmed
//!   one (every query is a lock-free read);
//! * the same full-budget `n = 9` embed against the warmed oracle.
//!
//! A single embed is one serial pass; the pool fans out only the
//! warm-up. The ratio printed at the end is the cold first embed over
//! the warmed median.

use std::hint::black_box;
use std::time::{Duration, Instant};

use star_bench::Table;
use star_fault::gen;
use star_perm::Parity;
use star_ring::oracle::{self, OracleTable};
use star_ring::{embed_with_options, EmbedOptions};

const N: usize = 9;
const SAMPLES: usize = 7;

fn main() {
    star_bench::run_experiment("e11_parallel", run);
}

/// Runs every healthy-pair canonical query once against `table`.
fn query_sweep(table: &OracleTable) {
    for entry in 0..24u8 {
        for exit in 0..24u8 {
            black_box(table.query(entry, exit, None));
        }
    }
}

fn timed(f: impl FnOnce()) -> Duration {
    let t0 = Instant::now();
    f();
    t0.elapsed()
}

fn median(mut xs: Vec<Duration>) -> Duration {
    xs.sort_unstable();
    xs[xs.len() / 2]
}

fn ms(d: Duration) -> String {
    format!("{:.3} ms", d.as_secs_f64() * 1e3)
}

fn run() {
    let faults = gen::worst_case_same_partite(N, N - 3, Parity::Even, 42).unwrap();
    let opts = EmbedOptions {
        verify: false,
        ..Default::default()
    };
    let embed = || {
        black_box(embed_with_options(N, &faults, &opts).unwrap());
    };

    let cold_embed = timed(embed);
    let mut slots = 0;
    let warm_once = timed(|| slots = oracle::warm());

    let cold_sweep = median(
        (0..SAMPLES)
            .map(|_| {
                let table = OracleTable::new();
                timed(|| query_sweep(&table))
            })
            .collect(),
    );
    let warmed = OracleTable::new();
    warmed.warm();
    const WARM_REPS: u32 = 1000;
    let warm_sweep = timed(|| (0..WARM_REPS).for_each(|_| query_sweep(&warmed))) / WARM_REPS;

    let warmed_embed = median((0..SAMPLES).map(|_| timed(embed)).collect());

    let mut t = Table::new(
        "E11: precomputed oracle (n = 9, full fault budget, verification off)",
        &["measurement", "time"],
    );
    t.row(&[
        "oracle cold: 24x24 healthy-pair query sweep".to_string(),
        ms(cold_sweep),
    ]);
    t.row(&[
        "oracle warm: same sweep, lock-free reads".to_string(),
        format!("{:.1} us", warm_sweep.as_secs_f64() * 1e6),
    ]);
    t.row(&[
        format!("oracle::warm() one-shot ({slots} slots computed)"),
        ms(warm_once),
    ]);
    t.row(&[
        "embed n=9, cold oracle (first embed)".to_string(),
        ms(cold_embed),
    ]);
    t.row(&["embed n=9, warmed oracle".to_string(), ms(warmed_embed)]);
    t.finish("e11_parallel");
    println!(
        "\nE11 ratio @ n=9: cold first embed / warmed = {:.2}x",
        cold_embed.as_secs_f64() / warmed_embed.as_secs_f64()
    );
}
