//! The paper's construction, step by step, with every intermediate
//! structure printed — Lemma 2 through Theorem 1 on a real faulty `S_6`.
//!
//! ```text
//! cargo run --release --example paper_walkthrough
//! ```

use star_rings::fault::FaultSet;
use star_rings::perm::Perm;
use star_rings::ring::{hierarchy, oracle, positions, report};
use star_rings::verify::{check_ring, invariants};

fn main() {
    let n = 6;
    let faults = FaultSet::from_vertices(
        n,
        [
            Perm::from_digits(6, 214365),
            Perm::from_digits(6, 365142),
            Perm::from_digits(6, 453261),
        ],
    )
    .unwrap();
    println!("S_{n} with faults:");
    for f in faults.vertices() {
        println!("  {f}  (parity {:?})", f.parity());
    }

    // --- Lemma 2: the position plan ------------------------------------
    let plan = positions::select_positions(n, &faults).unwrap();
    println!("\nLemma 2 — partition positions a_1..a_{}:", n - 4);
    println!(
        "  sequence {:?}  (spare positions {:?})",
        plan.sequence, plan.spare
    );
    println!(
        "  unseparated fault pairs after prefix: {} (paper requires <= 1)",
        plan.unseparated_pairs_after(n - 5, &faults)
    );

    // --- Lemma 3: the hierarchy -----------------------------------------
    println!("\nLemma 3 — refine R^{} down to R^4:", n - 1);
    let mut ring = hierarchy::initial_ring(n, plan.sequence[0]).unwrap();
    println!(
        "  R^{}: {} super-vertices (clique ring after the a_1-partition)",
        ring.r(),
        ring.len()
    );
    for (idx, &pos) in plan.sequence.iter().enumerate().skip(1) {
        let fault_aware = idx == plan.sequence.len() - 1;
        ring = hierarchy::refine(&ring, pos, &faults, fault_aware).unwrap();
        println!(
            "  R^{}: {} super-vertices{}",
            ring.r(),
            ring.len(),
            if fault_aware {
                "  (fault-aware step)"
            } else {
                ""
            }
        );
    }
    let props = invariants::check_super_ring(&ring, &faults);
    println!(
        "  properties: P1 = {}, P2 = {}, P3 = {} ({} faulty 4-vertices)",
        props.p1, props.p2, props.p3, props.faulty_supervertices
    );
    println!("  first super-vertices of the R^4:");
    for p in ring.iter().take(5) {
        let mark = if faults.count_vertex_faults_in(p) > 0 {
            "  <- faulty"
        } else {
            ""
        };
        println!("    {p}{mark}");
    }

    // --- Lemma 4: the block oracle --------------------------------------
    println!("\nLemma 4 — a faulty block's 22-vertex path (one example):");
    let faulty_block = *ring
        .iter()
        .find(|p| faults.count_vertex_faults_in(p) == 1)
        .unwrap();
    let members: Vec<Perm> = faulty_block.vertices().collect();
    let fault = faults.vertex_faults_in(&faulty_block)[0];
    let u = *members.iter().find(|m| **m != fault).unwrap();
    let v = *members
        .iter()
        .find(|m| **m != fault && m.parity() != u.parity())
        .unwrap();
    let target = oracle::FAULTY_BLOCK_VERTICES;
    let path = oracle::block_path(&faulty_block, &u, &v, &faults, target).unwrap();
    println!("  block {faulty_block}, fault {fault}");
    println!(
        "  path {u} -> {v}: {} of 24 vertices (skips the fault and one parity partner)",
        path.len()
    );

    // --- Theorem 1: the full ring, with transcript ----------------------
    let (final_ring, rep) = report::embed_with_report(n, &faults).unwrap();
    println!("\nTheorem 1 — the assembled ring:");
    println!(
        "  length {} = 6! - 2*{}  (verified: {})",
        final_ring.len(),
        faults.vertex_fault_count(),
        check_ring(n, final_ring.vertices(), &faults).is_ok()
    );
    println!(
        "  phases: plan {:.2} ms, hierarchy {:.2} ms, expand {:.2} ms (oracle {} hits / {} searches)",
        rep.plan_time.as_secs_f64() * 1e3,
        rep.hierarchy_time.as_secs_f64() * 1e3,
        rep.expand_time.as_secs_f64() * 1e3,
        rep.oracle_hits,
        rep.oracle_misses,
    );
}
