//! Runs every experiment binary in sequence — the one-command full
//! reproduction (`cargo run --release -p star-bench --bin exp_all`).

use std::process::Command;

const EXPERIMENTS: &[&str] = &[
    "exp_e1_ring_length",
    "exp_e2_optimality",
    "exp_e3_baselines",
    "exp_e4_scaling",
    "exp_e5_edge_faults",
    "exp_e6_mixed",
    "exp_e7_simulation",
    "exp_e8_resilience",
    "exp_e9_frontier",
    "exp_e11_parallel",
    "exp_e12_overhead",
    "exp_a1_ablation",
];

fn main() {
    star_bench::run_experiment("all", run);
}

fn run() {
    // The sibling binaries live next to this one.
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("binary directory");
    let mut failures = Vec::new();
    for exp in EXPERIMENTS {
        println!("\n######## {exp} ########");
        let status = Command::new(dir.join(exp))
            .status()
            .unwrap_or_else(|e| panic!("failed to launch {exp}: {e}"));
        if !status.success() {
            failures.push(*exp);
        }
    }
    println!();
    if failures.is_empty() {
        println!("all {} experiments completed", EXPERIMENTS.len());
    } else {
        eprintln!("FAILED: {failures:?}");
        std::process::exit(1);
    }
}
