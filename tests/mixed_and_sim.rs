//! Integration: the mixed vertex+edge extension and the simulator, driven
//! end-to-end through the public API.

use star_rings::baselines::tseng_edge;
use star_rings::fault::gen;
use star_rings::perm::factorial;
use star_rings::ring::mixed::embed_with_mixed_faults;
use star_rings::sim::run::{simulate, MappingKind};
use star_rings::sim::workload::TokenRing;
use star_rings::verify::check_ring;

#[test]
fn mixed_budget_grid() {
    for n in [6usize, 7] {
        let budget = n - 3;
        for fv in 0..=budget {
            let fe = budget - fv;
            for seed in 0..3 {
                let faults = gen::mixed_faults(n, fv, fe, seed).unwrap();
                let ring = embed_with_mixed_faults(n, &faults).unwrap();
                assert_eq!(
                    ring.len() as u64,
                    factorial(n) - 2 * fv as u64,
                    "n={n} fv={fv} fe={fe} seed={seed}"
                );
                check_ring(n, ring.vertices(), &faults).unwrap();
            }
        }
    }
}

#[test]
fn edge_only_faults_full_rings() {
    for n in [5usize, 6, 7] {
        for seed in 0..3 {
            let faults = gen::random_edge_faults(n, n - 3, seed).unwrap();
            let ring = tseng_edge::tseng_edge_ring(n, &faults).unwrap();
            assert_eq!(ring.len() as u64, factorial(n));
            check_ring(n, ring.vertices(), &faults).unwrap();
        }
    }
}

#[test]
fn simulation_slots_match_embeddings() {
    let n = 6;
    let faults = gen::random_vertex_faults(n, 3, 5).unwrap();
    let w = TokenRing { laps: 1 };
    let opt = simulate(n, &faults, MappingKind::EmbeddedOptimal, &w).unwrap();
    let base = simulate(n, &faults, MappingKind::EmbeddedBaseline, &w).unwrap();
    let naive = simulate(n, &faults, MappingKind::NaiveByRank, &w).unwrap();
    assert_eq!(opt.slots as u64, factorial(n) - 6);
    assert_eq!(base.slots as u64, factorial(n) - 12);
    assert_eq!(naive.slots as u64, factorial(n) - 3);
    // Embeddings: one link per hop. Naive: strictly more.
    assert_eq!(opt.usage.link_traversals, opt.usage.rounds);
    assert!(naive.usage.link_traversals > naive.usage.rounds);
}

#[test]
fn failure_schedules_drive_resilience() {
    use star_rings::fault::schedule;
    use star_rings::sim::resilience::{degrade, degrade_maintained};
    let n = 6;
    // A spreading (correlated) failure pattern stays within the budget.
    let sched = schedule::spreading_failure(n, n - 3, 12).unwrap();
    let tl = degrade(n, sched.order()).unwrap();
    assert_eq!(tl.steps.len(), n - 3);
    assert_eq!(tl.total_lost(), 2 * (n as u64 - 3));
    // The maintained ring absorbs the same schedule.
    let steps = degrade_maintained(n, sched.order()).unwrap();
    assert_eq!(
        steps.last().unwrap().ring_len as u64,
        factorial(n) - 2 * (n as u64 - 3)
    );
    // A neighborhood attack at the budget is also absorbed.
    let victim = star_rings::perm::Perm::identity(n);
    let attack = schedule::neighborhood_attack(&victim, n - 3).unwrap();
    let tl = degrade(n, attack.order()).unwrap();
    assert_eq!(
        tl.steps.last().unwrap().ring_len as u64,
        factorial(n) - 2 * (n as u64 - 3)
    );
}

#[test]
fn certificates_for_faulty_embeddings() {
    use star_rings::verify::certificate::{certificate_for, verify_certificate};
    for n in [5usize, 6] {
        let faults = gen::random_vertex_faults(n, n - 3, 21).unwrap();
        let ring = star_rings::ring::embed_longest_ring(n, &faults).unwrap();
        let cert = certificate_for(&faults, ring.delta());
        let summary = verify_certificate(&cert).unwrap();
        assert_eq!(summary.n, n);
        assert_eq!(summary.fault_count, n - 3);
        assert!(summary.at_guarantee);
    }
}

#[test]
fn anchored_paths_through_public_api() {
    use star_rings::ring::paths::embed_longest_path_from;
    let n = 6;
    let faults = gen::random_vertex_faults(n, 2, 30).unwrap();
    let anchor = star_rings::perm::Perm::identity(n);
    if faults.is_vertex_healthy(&anchor) {
        if let Ok(path) = embed_longest_path_from(n, &faults, &anchor) {
            assert_eq!(path[0], anchor);
            assert_eq!(path.len() as u64, factorial(n) - 4);
            star_rings::verify::check_path(n, &path, &faults).unwrap();
        }
    }
}

#[test]
fn sweep_is_deterministic_and_parallel_safe() {
    use star_rings::sim::parallel::sweep;
    let configs: Vec<u64> = (0..16).collect();
    let a = sweep(configs.clone(), |&seed| {
        let faults = gen::random_vertex_faults(6, 3, seed).unwrap();
        star_rings::ring::embed_longest_ring(6, &faults)
            .unwrap()
            .len()
    });
    let b = sweep(configs, |&seed| {
        let faults = gen::random_vertex_faults(6, 3, seed).unwrap();
        star_rings::ring::embed_longest_ring(6, &faults)
            .unwrap()
            .len()
    });
    assert_eq!(a, b);
    assert!(a.iter().all(|&l| l == 714));
}
