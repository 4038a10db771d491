//! End-to-end integration of the whole pipeline: fault generation ->
//! embedding -> independent verification -> bound comparison, across
//! dimensions, budgets, and placements.

use star_rings::fault::{gen, FaultSet};
use star_rings::perm::{factorial, Parity, Perm};
use star_rings::ring::{embed_longest_ring, EmbedError};
use star_rings::verify::{bounds, check_ring, invariants};

fn assert_theorem(n: usize, faults: &FaultSet) {
    let ring = embed_longest_ring(n, faults)
        .unwrap_or_else(|e| panic!("embedding failed for n={n}, faults={faults:?}: {e}"));
    assert_eq!(
        ring.len() as u64,
        bounds::hsieh_chen_ho_length(n, faults.vertex_fault_count()),
        "ring length must match Theorem 1"
    );
    check_ring(n, ring.vertices(), faults).expect("independent verification");
}

#[test]
fn theorem1_random_placements() {
    for n in 4..=8 {
        for fv in 0..=(n - 3) {
            for seed in 0..8 {
                assert_theorem(n, &gen::random_vertex_faults(n, fv, seed).unwrap());
            }
        }
    }
}

#[test]
fn theorem1_worst_case_both_sides() {
    for n in 4..=8 {
        let fv = n - 3;
        for parity in [Parity::Even, Parity::Odd] {
            for seed in 0..4 {
                assert_theorem(
                    n,
                    &gen::worst_case_same_partite(n, fv, parity, seed).unwrap(),
                );
            }
        }
    }
}

#[test]
fn theorem1_adversarial_neighborhoods() {
    for n in 5..=8 {
        for fv in 1..=(n - 3) {
            assert_theorem(n, &gen::adversarial_neighborhood(n, fv).unwrap());
        }
    }
}

#[test]
fn theorem1_clustered() {
    for n in 5..=8 {
        for m in 2..n {
            let fv = (n - 3).min(factorial(m) as usize);
            for seed in 0..3 {
                assert_theorem(n, &gen::clustered_in_substar(n, fv, m, seed).unwrap());
            }
        }
    }
}

#[test]
fn theorem1_n9_spot_checks() {
    // One full-budget run at n = 9 (362880 vertices) keeps the large-n path
    // honest without dominating test time.
    let faults = gen::worst_case_same_partite(9, 6, Parity::Even, 0).unwrap();
    assert_theorem(9, &faults);
}

#[test]
fn super_ring_invariants_hold_in_pipeline() {
    use star_rings::ring::{hierarchy, positions};
    for n in [6usize, 7] {
        for seed in 0..6 {
            let faults = gen::random_vertex_faults(n, n - 3, seed).unwrap();
            let plan = positions::select_positions(n, &faults).unwrap();
            let r4 = hierarchy::build_r4(n, &faults, &plan).unwrap();
            let report = invariants::check_super_ring(&r4, &faults);
            assert!(
                report.all_hold(),
                "P1/P2/P3 for n={n} seed={seed}: {report:?}"
            );
        }
    }
}

#[test]
fn seam_discipline_is_necessary_for_p2() {
    // Ablation: refine the clique ring with *naive* clique paths (entry,
    // then symbols in sorted order, then exit) instead of the paper's
    // first-two/last-two connectivity rule. The resulting super-ring is a
    // valid ring of sub-stars, but property (P2) — which Lemma 7's
    // vertex-level geometry depends on — generally fails.
    use star_rings::graph::{partition, Pattern, SuperRing};
    let n = 6;
    let blocks = partition::i_partition(&Pattern::full(n), 1).unwrap();
    // One fixed seam symbol chain around the K_6 ring (any valid choice).
    let len = blocks.len();
    let mut seams: Vec<u8> = Vec::new();
    for k in 0..len {
        let a = &blocks[k];
        let b = &blocks[(k + 1) % len];
        let common: Vec<u8> = a
            .free_symbols()
            .intersection(&b.free_symbols())
            .iter()
            .collect();
        let prev = seams.last().copied();
        // Each block needs entry != exit, including around the wrap.
        let first = if k == len - 1 {
            seams.first().copied()
        } else {
            None
        };
        let w = common
            .iter()
            .copied()
            .find(|&w| Some(w) != prev && Some(w) != first)
            .unwrap();
        seams.push(w);
    }
    // Naive internal paths: [entry, rest sorted ascending, exit].
    let mut refined: Vec<Pattern> = Vec::new();
    for k in 0..len {
        let a = &blocks[k];
        let w_in = seams[(k + len - 1) % len];
        let w_out = seams[k];
        let mut middle: Vec<u8> = a
            .free_symbols()
            .iter()
            .filter(|&s| s != w_in && s != w_out)
            .collect();
        middle.sort_unstable();
        refined.push(a.sub(2, w_in).unwrap());
        for s in middle {
            refined.push(a.sub(2, s).unwrap());
        }
        refined.push(a.sub(2, w_out).unwrap());
    }
    let ring = SuperRing::new(refined).expect("still a structurally valid super-ring");
    assert!(
        !ring.satisfies_p2(),
        "naive clique paths should violate (P2) somewhere on a K_6 refinement"
    );
}

#[test]
fn embed_matches_exhaustive_optimum_for_every_single_fault_n4() {
    use star_rings::verify::exhaustive::longest_healthy_cycle;
    for rank in 0..24u32 {
        let f = Perm::unrank(4, rank).unwrap();
        let faults = FaultSet::from_vertices(4, [f]).unwrap();
        let ours = embed_longest_ring(4, &faults).unwrap();
        let best = longest_healthy_cycle(4, &faults, u64::MAX);
        assert!(best.optimal);
        assert_eq!(ours.len(), best.cycle.len(), "fault {f}");
    }
}

#[test]
fn graceful_errors() {
    // Budget exceeded.
    let too_many = gen::random_vertex_faults(6, 4, 0).unwrap();
    assert!(matches!(
        embed_longest_ring(6, &too_many),
        Err(EmbedError::TooManyFaults { budget: 3, .. })
    ));
    // A fault on every vertex of S_3's budget (0).
    let one = FaultSet::from_vertices(3, [Perm::identity(3)]).unwrap();
    assert!(embed_longest_ring(3, &one).is_err());
}

#[test]
fn deterministic_output() {
    // Same inputs -> identical ring (no hidden nondeterminism).
    let faults = gen::random_vertex_faults(6, 3, 11).unwrap();
    let a = embed_longest_ring(6, &faults).unwrap();
    let b = embed_longest_ring(6, &faults).unwrap();
    assert_eq!(a, b);
}

/// Every `Aut(S_n)`-orbit of `k`-fault sets for `k = 0..=k_max`, each
/// as its canonical sorted ranks. Every `k`-fault orbit contains a
/// one-vertex extension of some `(k-1)`-fault representative, so level
/// `k` canonicalizes every representative of level `k - 1` plus every
/// vertex and dedupes. Coverage rests on one property, checked here:
/// each canonical set is the witness image of its input.
fn fault_orbits(n: usize, k_max: usize) -> Vec<Vec<Vec<u32>>> {
    use star_rings::oracle::canonicalize;
    let mut levels: Vec<Vec<Vec<u32>>> = vec![vec![Vec::new()]];
    for _ in 0..k_max {
        let mut next = std::collections::BTreeSet::new();
        for rep in levels.last().unwrap() {
            for v in (0..factorial(n) as u32).filter(|v| !rep.contains(v)) {
                let input: Vec<u32> = rep.iter().copied().chain([v]).collect();
                let canon = canonicalize(n, &input);
                let mut image: Vec<u32> = input
                    .iter()
                    .map(|&r| canon.witness().apply(&Perm::unrank(n, r).unwrap()).rank())
                    .collect();
                image.sort_unstable();
                assert_eq!(
                    image,
                    canon.ranks(),
                    "n={n}: canonical set is not the witness image of {input:?}"
                );
                next.insert(canon.ranks().to_vec());
            }
        }
        levels.push(next.into_iter().collect());
    }
    levels
}

/// Burnside's lemma over all of `Aut(S_n)`: the number of orbits of
/// `k`-vertex sets is the mean, over automorphisms, of the `k`-sets
/// each one fixes, which are the unions of its vertex cycles of total
/// size `k`. Returns the counts for `k = 0..=k_max`.
fn burnside_orbit_counts(n: usize, k_max: usize) -> Vec<u64> {
    use star_rings::perm::Aut;
    let vertices = factorial(n) as usize;
    let mut fixed = vec![0u64; k_max + 1];
    for g in 0..factorial(n) {
        for h in 0..Aut::stab_count(n) {
            let aut = Aut::from_ranks(n, g, h);
            let image: Vec<usize> = (0..vertices as u32)
                .map(|r| aut.apply(&Perm::unrank(n, r).unwrap()).rank() as usize)
                .collect();
            // ways[s]: the unions of cycles seen so far with s vertices.
            let mut ways = vec![0u64; k_max + 1];
            ways[0] = 1;
            let mut seen = vec![false; vertices];
            for start in 0..vertices {
                if seen[start] {
                    continue;
                }
                let mut len = 0;
                let mut v = start;
                while !seen[v] {
                    seen[v] = true;
                    v = image[v];
                    len += 1;
                }
                for s in (len..=k_max).rev() {
                    ways[s] += ways[s - len];
                }
            }
            for (total, w) in fixed.iter_mut().zip(ways) {
                *total += w;
            }
        }
    }
    let order = Aut::order(n);
    fixed
        .into_iter()
        .map(|total| {
            assert_eq!(
                total % order,
                0,
                "Burnside sum not divisible by |Aut(S_{n})|"
            );
            total / order
        })
        .collect()
}

/// Theorem 1 on one representative per orbit: an automorphism carries a
/// valid ring for `F` to one for its image, so this covers every fault
/// set of the orbit.
fn assert_theorem_on_every_orbit(n: usize, orbits: &[Vec<Vec<u32>>]) {
    for reps in orbits {
        for rep in reps {
            let faults =
                FaultSet::from_vertices(n, rep.iter().map(|&r| Perm::unrank(n, r).unwrap()))
                    .unwrap();
            assert_theorem(n, &faults);
        }
    }
}

#[test]
fn theorem1_holds_on_every_fault_orbit_up_to_n6() {
    for n in 4..=6 {
        let orbits = fault_orbits(n, n - 3);
        let counts: Vec<u64> = orbits.iter().map(|reps| reps.len() as u64).collect();
        if n <= 5 {
            assert_eq!(counts, burnside_orbit_counts(n, n - 3), "n={n}");
        }
        assert_theorem_on_every_orbit(n, &orbits);
        // k = 0..=n-3 orbit counts: pinned for n = 6, where Burnside's
        // 62M steps are too slow for a debug build.
        let pinned: &[u64] = match n {
            4 => &[1, 1],
            5 => &[1, 1, 11],
            _ => &[1, 1, 18, 841],
        };
        assert_eq!(counts, pinned, "n={n}");
    }
}

#[test]
#[ignore = "6,453 n = 7 orbits; seconds in release, run by the audit CI job"]
fn theorem1_holds_on_every_fault_orbit_at_n7() {
    let orbits = fault_orbits(7, 3);
    let counts: Vec<u64> = orbits.iter().map(|reps| reps.len() as u64).collect();
    assert_eq!(counts, [1, 1, 29, 6_453]);
    assert_theorem_on_every_orbit(7, &orbits);
}

#[test]
#[ignore = "64,981 n = 5 mixed fault sets; seconds in release, run by the audit CI job"]
fn theorem1_holds_for_every_mixed_fault_set_at_n5() {
    // The concluding remark at n = 5: every set of |F_v| + |F_e| <= 2
    // vertex and edge faults, embedded directly (no symmetry reduction),
    // keeps a healthy ring of 5! - 2|F_v|. This drives the Lemma-7 seam
    // scan through every (spare, salt) retry the mixed embedder makes.
    use star_rings::graph::Edge;
    use star_rings::ring::mixed::embed_with_mixed_faults;
    let n = 5;
    let vertices: Vec<Perm> = (0..factorial(n) as u32)
        .map(|r| Perm::unrank(n, r).unwrap())
        .collect();
    let edges: Vec<Edge> = vertices
        .iter()
        .flat_map(|u| (1..n).map(move |d| (*u, u.swapped(0, d))))
        .filter(|(u, v)| u.rank() < v.rank())
        .map(|(u, v)| Edge::new(u, v).unwrap())
        .collect();
    assert_eq!(edges.len(), 240);
    let mut sets = 0u32;
    let mut check = |faults: FaultSet| {
        let ring = embed_with_mixed_faults(n, &faults)
            .unwrap_or_else(|e| panic!("mixed embed failed for {faults:?}: {e}"));
        assert_eq!(
            ring.len() as u64,
            factorial(n) - 2 * faults.vertex_fault_count() as u64,
            "short ring for {faults:?}"
        );
        check_ring(n, ring.vertices(), &faults)
            .unwrap_or_else(|e| panic!("invalid ring for {faults:?}: {e}"));
        sets += 1;
    };
    check(FaultSet::empty(n));
    for (i, v) in vertices.iter().enumerate() {
        check(FaultSet::from_vertices(n, [*v]).unwrap());
        for w in &vertices[i + 1..] {
            check(FaultSet::from_vertices(n, [*v, *w]).unwrap());
        }
        for e in &edges {
            let mut faults = FaultSet::from_vertices(n, [*v]).unwrap();
            faults.add_edge(*e).unwrap();
            check(faults);
        }
    }
    for (i, e) in edges.iter().enumerate() {
        check(FaultSet::from_edges(n, [*e]).unwrap());
        for f in &edges[i + 1..] {
            check(FaultSet::from_edges(n, [*e, *f]).unwrap());
        }
    }
    assert_eq!(sets, 64_981);
}
