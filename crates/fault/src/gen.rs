//! Reproducible fault-set generators.
//!
//! Every generator is deterministic given its `seed`, so experiment tables
//! can be regenerated bit-for-bit.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use star_graph::{Edge, Pattern};
use star_perm::{factorial, Parity, Perm};

use crate::{FaultError, FaultSet};

/// `count` distinct vertex faults sampled uniformly from `S_n`.
pub fn random_vertex_faults(n: usize, count: usize, seed: u64) -> Result<FaultSet, FaultError> {
    let total = factorial(n);
    if count as u64 > total {
        return Err(FaultError::TooManyFaults {
            requested: count,
            available: total as usize,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fs = FaultSet::empty(n);
    while fs.vertex_fault_count() < count {
        let rank = rng.random_range(0..total) as u32;
        let v = Perm::unrank(n, rank).expect("rank in range");
        // Ignore duplicates; resample.
        let _ = fs.add_vertex(v);
    }
    Ok(fs)
}

/// `count` distinct vertex faults all drawn from one partite set — the
/// **worst case** for ring length, which makes the paper's `n! - 2|F_v|`
/// bound tight. `parity` selects the damaged side.
pub fn worst_case_same_partite(
    n: usize,
    count: usize,
    parity: Parity,
    seed: u64,
) -> Result<FaultSet, FaultError> {
    let total = factorial(n);
    // S_1 has a single (even) vertex; the odd side is empty.
    let side = if n == 1 {
        if parity == Parity::Even {
            1
        } else {
            0
        }
    } else {
        total / 2
    };
    if count as u64 > side {
        return Err(FaultError::TooManyFaults {
            requested: count,
            available: side as usize,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fs = FaultSet::empty(n);
    while fs.vertex_fault_count() < count {
        let rank = rng.random_range(0..total) as u32;
        let v = Perm::unrank(n, rank).expect("rank in range");
        if v.parity() == parity {
            let _ = fs.add_vertex(v);
        }
    }
    Ok(fs)
}

/// `count` vertex faults all inside one random embedded `S_m` — the regime
/// where the Latifi–Bagherzadeh construction pays `m!` while the paper's
/// pays only `2·count`.
pub fn clustered_in_substar(
    n: usize,
    count: usize,
    m: usize,
    seed: u64,
) -> Result<FaultSet, FaultError> {
    assert!(m >= 1 && m <= n, "sub-star order out of range");
    if count as u64 > factorial(m) {
        return Err(FaultError::TooManyFaults {
            requested: count,
            available: factorial(m) as usize,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    // Pin positions n-1, n-2, ..., m to random distinct symbols.
    let mut pattern = Pattern::full(n);
    for pos in (m..n).rev() {
        let free: Vec<u8> = pattern.free_symbols().iter().collect();
        let s = free[rng.random_range(0..free.len())];
        pattern = pattern.sub(pos, s).expect("position free by construction");
    }
    debug_assert_eq!(pattern.r(), m);
    let total = factorial(m);
    let mut fs = FaultSet::empty(n);
    while fs.vertex_fault_count() < count {
        let local_rank = rng.random_range(0..total) as u32;
        let local = Perm::unrank(m, local_rank).expect("rank in range");
        let _ = fs.add_vertex(pattern.from_local(&local));
    }
    Ok(fs)
}

/// Deterministic adversarial placement: the faults are neighbors of a
/// single "victim" vertex, concentrating damage in one neighborhood
/// (`count <= n-1`). This is the configuration that shows why
/// `|F_v| <= n-3` is necessary: `n-1` faults would strand the victim.
pub fn adversarial_neighborhood(n: usize, count: usize) -> Result<FaultSet, FaultError> {
    if count > n - 1 {
        return Err(FaultError::TooManyFaults {
            requested: count,
            available: n - 1,
        });
    }
    let victim = Perm::identity(n);
    FaultSet::from_vertices(n, victim.neighbors().take(count))
}

/// `count` distinct random edge faults.
pub fn random_edge_faults(n: usize, count: usize, seed: u64) -> Result<FaultSet, FaultError> {
    let edges_total = factorial(n) * (n as u64 - 1) / 2;
    if count as u64 > edges_total {
        return Err(FaultError::TooManyFaults {
            requested: count,
            available: edges_total as usize,
        });
    }
    let total = factorial(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fs = FaultSet::empty(n);
    while fs.edge_fault_count() < count {
        let rank = rng.random_range(0..total) as u32;
        let u = Perm::unrank(n, rank).expect("rank in range");
        let d = rng.random_range(1..n);
        let e = Edge::new(u, u.star_move(d)).expect("star move yields an edge");
        let _ = fs.add_edge(e);
    }
    Ok(fs)
}

/// `count` random edge faults all along the **same dimension** `d` — the
/// adversarial regime for edge-fault Hamiltonian embedding (the faults
/// cannot be separated by partitioning elsewhere; they must all be dodged
/// as crossing edges).
pub fn same_dimension_edge_faults(
    n: usize,
    count: usize,
    d: usize,
    seed: u64,
) -> Result<FaultSet, FaultError> {
    assert!(d >= 1 && d < n, "invalid dimension {d}");
    let dim_edges = factorial(n) / 2;
    if count as u64 > dim_edges {
        return Err(FaultError::TooManyFaults {
            requested: count,
            available: dim_edges as usize,
        });
    }
    let total = factorial(n);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fs = FaultSet::empty(n);
    while fs.edge_fault_count() < count {
        let rank = rng.random_range(0..total) as u32;
        let u = Perm::unrank(n, rank).expect("rank in range");
        let e = Edge::new(u, u.star_move(d)).expect("star move yields an edge");
        let _ = fs.add_edge(e);
    }
    Ok(fs)
}

/// A mixed fault set: `fv` random vertex faults plus `fe` random edge
/// faults avoiding faulty endpoints (an edge incident to a dead processor
/// is already unusable, so charging it separately would double-count).
pub fn mixed_faults(n: usize, fv: usize, fe: usize, seed: u64) -> Result<FaultSet, FaultError> {
    let mut fs = random_vertex_faults(n, fv, seed)?;
    let total = factorial(n);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    while fs.edge_fault_count() < fe {
        let rank = rng.random_range(0..total) as u32;
        let u = Perm::unrank(n, rank).expect("rank in range");
        let d = rng.random_range(1..n);
        let v = u.star_move(d);
        if fs.is_vertex_faulty(&u) || fs.is_vertex_faulty(&v) {
            continue;
        }
        let e = Edge::new(u, v).expect("star move yields an edge");
        let _ = fs.add_edge(e);
    }
    Ok(fs)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn random_faults_are_distinct_and_reproducible() {
        let a = random_vertex_faults(5, 2, 42).unwrap();
        let b = random_vertex_faults(5, 2, 42).unwrap();
        assert_eq!(a.vertices(), b.vertices());
        assert_eq!(a.vertex_fault_count(), 2);
        let c = random_vertex_faults(5, 2, 43).unwrap();
        // Overwhelmingly likely to differ; deterministic given seeds.
        assert_ne!(a.vertices(), c.vertices());
    }

    #[test]
    fn worst_case_faults_share_parity() {
        let fs = worst_case_same_partite(6, 3, Parity::Even, 7).unwrap();
        assert!(fs.vertices().iter().all(|v| v.parity() == Parity::Even));
        let fs_odd = worst_case_same_partite(6, 3, Parity::Odd, 7).unwrap();
        assert!(fs_odd.vertices().iter().all(|v| v.parity() == Parity::Odd));
    }

    #[test]
    fn worst_case_degenerate_parity_rejected() {
        // Regression: S_1 has no odd vertices; asking for one must error,
        // not hang in rejection sampling.
        use star_perm::Parity;
        assert!(matches!(
            worst_case_same_partite(1, 1, Parity::Odd, 0),
            Err(FaultError::TooManyFaults { available: 0, .. })
        ));
        assert!(worst_case_same_partite(1, 1, Parity::Even, 0).is_ok());
    }

    #[test]
    fn clustered_faults_live_in_an_m_substar() {
        let fs = clustered_in_substar(6, 4, 3, 11).unwrap();
        assert_eq!(fs.vertex_fault_count(), 4);
        // All faults agree on positions 3..6.
        let first = fs.vertices()[0];
        for v in fs.vertices() {
            for pos in 3..6 {
                assert_eq!(v.get(pos), first.get(pos));
            }
        }
    }

    #[test]
    fn clustered_rejects_overfull() {
        assert!(matches!(
            clustered_in_substar(6, 7, 3, 0),
            Err(FaultError::TooManyFaults { .. })
        ));
    }

    #[test]
    fn adversarial_neighborhood_hits_neighbors() {
        let fs = adversarial_neighborhood(5, 2).unwrap();
        let victim = Perm::identity(5);
        for v in fs.vertices() {
            assert!(v.is_adjacent(&victim));
        }
        assert!(adversarial_neighborhood(5, 5).is_err());
    }

    #[test]
    fn same_dimension_edges() {
        let fs = same_dimension_edge_faults(5, 2, 3, 9).unwrap();
        for e in fs.edges() {
            assert_eq!(e.dimension(), 3);
        }
    }

    #[test]
    fn mixed_counts() {
        let fs = mixed_faults(6, 2, 1, 5).unwrap();
        assert_eq!(fs.vertex_fault_count(), 2);
        assert_eq!(fs.edge_fault_count(), 1);
        // Edge faults avoid faulty endpoints.
        for e in fs.edges() {
            assert!(fs.is_vertex_healthy(e.lo()));
            assert!(fs.is_vertex_healthy(e.hi()));
        }
        assert!(fs.total_fault_count() <= 6 - 3);
    }
}
