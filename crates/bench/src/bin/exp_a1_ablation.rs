//! A1 — ablation: *where* does the `4f -> 2f` improvement come from?
//!
//! Both pipelines share Lemma 2's position plan and the (P1)/(P2)/(P3)
//! super-ring; they differ only in the faulty-block traversal (Lemma 4's
//! 22-vertex path vs the coarse 20-vertex one). Toggling just that knob
//! reproduces exactly the gap between the paper's bound and Tseng's —
//! demonstrating the refinement is necessary and sufficient for the
//! improvement.

use star_bench::Table;
use star_fault::gen;
use star_perm::factorial;
use star_ring::{expand, hierarchy, positions};
use star_sim::parallel::sweep;

fn main() {
    star_bench::run_experiment("a1_ablation", run);
}

fn run() {
    let mut table = Table::new(
        "A1: identical R^4, different faulty-block routing (loss 2 vs 4)",
        &[
            "n",
            "|Fv|",
            "refined (Lemma 4)",
            "coarse blocks",
            "gap",
            "expected gap 2|Fv|",
        ],
    );
    let mut configs = Vec::new();
    for n in 6..=8usize {
        for fv in 1..=(n - 3) {
            configs.push((n, fv));
        }
    }
    let rows = sweep(configs, |&(n, fv)| {
        let faults = gen::random_vertex_faults(n, fv, 99).unwrap();
        let plan = positions::select_positions(n, &faults).unwrap();
        let r4 = hierarchy::build_r4(n, &faults, &plan).unwrap();
        // Same super-ring, two block-routing policies.
        let refined = expand::expand(&r4, &faults, plan.spare[0], 0, 2)
            .unwrap()
            .len() as u64;
        let coarse = expand::expand(&r4, &faults, plan.spare[0], 0, 4)
            .unwrap()
            .len() as u64;
        (n, fv, refined, coarse)
    });
    for (n, fv, refined, coarse) in rows {
        assert_eq!(refined, factorial(n) - 2 * fv as u64);
        assert_eq!(coarse, factorial(n) - 4 * fv as u64);
        table.row(&[
            n.to_string(),
            fv.to_string(),
            refined.to_string(),
            coarse.to_string(),
            (refined - coarse).to_string(),
            (2 * fv).to_string(),
        ]);
    }
    table.finish("a1_ablation");
}
