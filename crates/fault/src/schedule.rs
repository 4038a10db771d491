//! Failure schedules: *ordered* fault arrivals for degradation studies.
//!
//! A [`crate::FaultSet`] is a snapshot; a [`FailureSchedule`] is a
//! timeline — the order in which processors die. The resilience simulator
//! replays schedules against a maintained ring. Generators cover the
//! regimes an operator would stress:
//!
//! * [`random_schedule`] — independent uniform failures;
//! * [`partite_attack`] — an adversary killing one side of the bipartition
//!   (drives the worst-case bound);
//! * [`neighborhood_attack`] — an adversary encircling a victim processor
//!   (drives toward disconnection, the reason the budget is `n-3`);
//! * [`spreading_failure`] — correlated failures growing outward from a
//!   seed (cable cut / cooling-zone model): each subsequent failure is
//!   adjacent to an earlier one.

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use star_perm::{factorial, Parity, Perm};

use crate::FaultError;

/// An ordered sequence of distinct processors failing one at a time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailureSchedule {
    n: usize,
    order: Vec<Perm>,
}

impl FailureSchedule {
    /// Wraps an explicit ordered failure list (must be distinct).
    pub fn new(n: usize, order: Vec<Perm>) -> Result<Self, FaultError> {
        let mut seen = std::collections::HashSet::new();
        for v in &order {
            if v.n() != n {
                return Err(FaultError::DimensionMismatch {
                    expected: n,
                    found: v.n(),
                });
            }
            if !seen.insert(v.rank()) {
                return Err(FaultError::DuplicateFault);
            }
        }
        Ok(FailureSchedule { n, order })
    }

    /// Host dimension.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The arrivals, in order.
    pub fn order(&self) -> &[Perm] {
        &self.order
    }

    /// Number of arrivals.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// `true` iff the schedule has no arrivals.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }
}

/// `count` independent uniform failures.
pub fn random_schedule(n: usize, count: usize, seed: u64) -> Result<FailureSchedule, FaultError> {
    let fs = crate::gen::random_vertex_faults(n, count, seed)?;
    FailureSchedule::new(n, fs.vertices().to_vec())
}

/// `count` failures all on one partite set, in random order.
pub fn partite_attack(
    n: usize,
    count: usize,
    parity: Parity,
    seed: u64,
) -> Result<FailureSchedule, FaultError> {
    let fs = crate::gen::worst_case_same_partite(n, count, parity, seed)?;
    FailureSchedule::new(n, fs.vertices().to_vec())
}

/// `count <= n-1` failures encircling `victim`: its neighbors die one by
/// one (in dimension order). At `count = n-1` the victim is stranded —
/// which is why no embedding theorem can tolerate more than `n-3` faults
/// and still always run a maximum ring through every healthy vertex.
pub fn neighborhood_attack(victim: &Perm, count: usize) -> Result<FailureSchedule, FaultError> {
    let n = victim.n();
    if count > n - 1 {
        return Err(FaultError::TooManyFaults {
            requested: count,
            available: n - 1,
        });
    }
    FailureSchedule::new(n, victim.neighbors().take(count).collect())
}

/// `count` correlated failures spreading from a random seed vertex: every
/// failure after the first is adjacent to some earlier failure (connected
/// damage region).
pub fn spreading_failure(n: usize, count: usize, seed: u64) -> Result<FailureSchedule, FaultError> {
    if count as u64 > factorial(n) {
        return Err(FaultError::TooManyFaults {
            requested: count,
            available: factorial(n) as usize,
        });
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let first = Perm::unrank(n, rng.random_range(0..factorial(n)) as u32).expect("rank in range");
    let mut order = vec![first];
    let mut dead: std::collections::HashSet<u32> = [first.rank()].into();
    while order.len() < count {
        // Pick a random dead vertex and a random healthy neighbor of it.
        let base = order[rng.random_range(0..order.len() as u64) as usize];
        let candidates: Vec<Perm> = base
            .neighbors()
            .filter(|w| !dead.contains(&w.rank()))
            .collect();
        if candidates.is_empty() {
            continue; // that region is saturated; try another base
        }
        let next = candidates[rng.random_range(0..candidates.len() as u64) as usize];
        dead.insert(next.rank());
        order.push(next);
    }
    FailureSchedule::new(n, order)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_schedules_validate() {
        let a = Perm::identity(5);
        let b = a.star_move(2);
        let s = FailureSchedule::new(5, vec![a, b]).unwrap();
        assert_eq!(s.len(), 2);
        assert!(FailureSchedule::new(5, vec![a, a]).is_err());
        assert!(FailureSchedule::new(4, vec![a]).is_err());
    }

    #[test]
    fn spreading_failures_are_connected() {
        let s = spreading_failure(5, 6, 3).unwrap();
        assert_eq!(s.len(), 6);
        for (i, v) in s.order().iter().enumerate().skip(1) {
            assert!(
                s.order()[..i].iter().any(|w| w.is_adjacent(v)),
                "failure {i} must touch the damage region"
            );
        }
    }

    #[test]
    fn neighborhood_attack_targets_neighbors_in_order() {
        let victim = Perm::from_digits(5, 34512);
        let s = neighborhood_attack(&victim, 3).unwrap();
        for (d, v) in s.order().iter().enumerate() {
            assert_eq!(victim.edge_dimension_to(v), Some(d + 1));
        }
        assert!(neighborhood_attack(&victim, 5).is_err());
    }

    #[test]
    fn partite_attack_is_one_sided() {
        let s = partite_attack(6, 3, Parity::Odd, 9).unwrap();
        assert!(s.order().iter().all(|v| v.parity() == Parity::Odd));
    }
}
