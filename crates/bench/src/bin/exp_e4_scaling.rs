//! E4 — constructiveness: the embedding is computed in time roughly linear
//! in the output (`~ n!`), so the theorem is usable as an algorithm, not
//! just an existence proof.

use std::time::Instant;

use star_bench::Table;
use star_fault::gen;
use star_perm::{factorial, Parity};
use star_ring::{embed_with_options, EmbedOptions};

fn main() {
    star_bench::run_experiment("e4_scaling", run);
}

fn run() {
    let mut table = Table::new(
        "E4: embedding cost vs n (full fault budget, verification off)",
        &["n", "n!", "|Fv|", "ring length", "time (ms)", "ns/vertex"],
    );
    let opts = EmbedOptions {
        verify: false,
        ..Default::default()
    };
    for n in 5..=10usize {
        let fv = n - 3;
        let faults = gen::worst_case_same_partite(n, fv, Parity::Even, 42).unwrap();
        // Warm the Lemma-4 oracle so the steady-state cost is measured.
        let _ = embed_with_options(n, &faults, &opts).unwrap();
        let reps = if n <= 7 { 20 } else { 3 };
        let t0 = Instant::now();
        let mut len = 0usize;
        for _ in 0..reps {
            len = embed_with_options(n, &faults, &opts).unwrap().len();
        }
        let per_run = t0.elapsed() / reps;
        table.row(&[
            n.to_string(),
            factorial(n).to_string(),
            fv.to_string(),
            len.to_string(),
            format!("{:.2}", per_run.as_secs_f64() * 1e3),
            format!("{:.0}", per_run.as_nanos() as f64 / len as f64),
        ]);
    }
    table.finish("e4_scaling");
}
