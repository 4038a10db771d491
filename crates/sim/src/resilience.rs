//! Operational resilience: processors failing *over time*.
//!
//! The paper's theorem is static — a fault set, one embedding. A real
//! machine degrades incrementally: a processor dies, the runtime
//! re-embeds the ring around it, work continues. This module simulates
//! that lifecycle and measures what an operator cares about:
//!
//! * how many slots survive after each failure (`n! - 2k` all the way to
//!   the budget `k = n-3`, by Theorem 1);
//! * how long each re-embedding takes (the repair pause);
//! * how much of the previous ring survives into the next one (migration
//!   cost: every vertex that changes ring position must hand its work to
//!   a new owner).

use std::time::{Duration, Instant};

use star_fault::FaultSet;
use star_perm::{factorial, Perm};
use star_ring::{embed_with_options, EmbedOptions, EmbeddedRing};

/// One step of the degradation timeline.
#[derive(Debug, Clone)]
pub struct DegradationStep {
    /// Number of faults after this failure.
    pub faults: usize,
    /// The processor that just died.
    pub failed: Perm,
    /// Ring length after re-embedding.
    pub ring_len: usize,
    /// Wall-clock cost of the re-embedding (the repair pause).
    pub reembed_time: Duration,
    /// Fraction of ring *edges* of the previous ring that survive in the
    /// new one (1.0 = the repair was a local splice, 0.0 = everything
    /// moved). Edge survival measures how much neighbor state can stay
    /// put.
    pub edge_survival: f64,
}

/// Full timeline of a degrading machine.
#[derive(Debug, Clone)]
pub struct DegradationTimeline {
    /// Host dimension.
    pub n: usize,
    /// Steps, one per failure, in order.
    pub steps: Vec<DegradationStep>,
}

impl DegradationTimeline {
    /// Total vertices lost relative to `n!` at the end of the timeline.
    pub fn total_lost(&self) -> u64 {
        match self.steps.last() {
            Some(s) => factorial(self.n) - s.ring_len as u64,
            None => 0,
        }
    }

    /// The worst single repair pause.
    pub fn worst_pause(&self) -> Duration {
        self.steps
            .iter()
            .map(|s| s.reembed_time)
            .max()
            .unwrap_or(Duration::ZERO)
    }
}

/// Fraction of directed ring edges of `prev` that also appear (in either
/// direction) as ring edges of `next`.
pub(crate) fn ring_edge_survival(prev: &EmbeddedRing, next: &EmbeddedRing) -> f64 {
    use std::collections::HashSet;
    let edge_set: HashSet<(u32, u32)> = next
        .vertices()
        .iter()
        .zip(next.vertices().iter().cycle().skip(1))
        .map(|(a, b)| {
            let (x, y) = (a.rank(), b.rank());
            (x.min(y), x.max(y))
        })
        .collect();
    let prev_vs = prev.vertices();
    let survived = prev_vs
        .iter()
        .zip(prev_vs.iter().cycle().skip(1))
        .filter(|(a, b)| {
            let (x, y) = (a.rank(), b.rank());
            edge_set.contains(&(x.min(y), x.max(y)))
        })
        .count();
    survived as f64 / prev_vs.len() as f64
}

/// Simulates processors failing one at a time (the sequence given by
/// `failures`, at most `n-3` of them), re-embedding after each failure.
///
/// Every intermediate embedding is the *optimal* one for the faults known
/// so far, so the timeline traces the theorem's guarantee step by step.
pub fn degrade(n: usize, failures: &[Perm]) -> Result<DegradationTimeline, star_ring::EmbedError> {
    assert!(
        failures.len() <= n.saturating_sub(3),
        "at most n-3 failures are supported by the theorem"
    );
    let opts = EmbedOptions {
        verify: true,
        ..Default::default()
    };
    let mut sp = star_obs::span("sim.degrade");
    sp.record("n", n);
    sp.record("failures", failures.len());
    let pause_hist = star_obs::histogram("sim.reembed.pause");
    let mut faults = FaultSet::empty(n);
    let mut prev = embed_with_options(n, &faults, &opts)?;
    let mut steps = Vec::with_capacity(failures.len());
    for &dead in failures {
        faults
            .add_vertex(dead)
            .expect("failure sequence must be distinct");
        if star_obs::flightrec::enabled() {
            star_obs::flightrec::record(
                "chaos.inject",
                dead.to_string(),
                &[(
                    "faults",
                    star_obs::FieldValue::U64(faults.vertex_fault_count() as u64),
                )],
            );
        }
        let t0 = Instant::now();
        let next = embed_with_options(n, &faults, &opts)?;
        let reembed_time = t0.elapsed();
        pause_hist.observe_ns(reembed_time.as_nanos() as u64);
        star_obs::incr("sim.reembed", 1);
        steps.push(DegradationStep {
            faults: faults.vertex_fault_count(),
            failed: dead,
            ring_len: next.len(),
            reembed_time,
            edge_survival: ring_edge_survival(&prev, &next),
        });
        prev = next;
    }
    Ok(DegradationTimeline { n, steps })
}

/// One step of a *maintained* (incrementally repaired) timeline.
#[derive(Debug, Clone)]
pub struct MaintainedStep {
    /// Faults after this failure.
    pub faults: usize,
    /// The processor that died.
    pub failed: Perm,
    /// Ring length after the repair.
    pub ring_len: usize,
    /// Repair latency.
    pub repair_time: Duration,
    /// Whether the repair was local (one block) or a global re-embed.
    pub local: bool,
}

/// Degradation driven through [`star_ring::repair::MaintainedRing`]:
/// failures are absorbed by O(block) local repairs where possible. Unlike
/// [`degrade`], this continues **beyond** the `n-3` budget as long as local
/// repairs keep succeeding; it stops early (returning the steps completed)
/// when a failure cannot be absorbed.
pub fn degrade_maintained(
    n: usize,
    failures: &[Perm],
) -> Result<Vec<MaintainedStep>, star_ring::EmbedError> {
    use star_ring::repair::{MaintainedRing, RepairOutcome};
    let mut sp = star_obs::span("sim.degrade_maintained");
    sp.record("n", n);
    sp.record("failures", failures.len());
    let pause_hist = star_obs::histogram("sim.repair.pause");
    let mut mr = MaintainedRing::new(n, &FaultSet::empty(n))?;
    let mut steps = Vec::with_capacity(failures.len());
    for &dead in failures {
        if star_obs::flightrec::enabled() {
            star_obs::flightrec::record("chaos.inject", dead.to_string(), &[]);
        }
        let t0 = Instant::now();
        let outcome = match mr.fail(dead) {
            Ok(o) => o,
            Err(_) => break,
        };
        pause_hist.observe_ns(t0.elapsed().as_nanos() as u64);
        steps.push(MaintainedStep {
            faults: mr.faults().vertex_fault_count(),
            failed: dead,
            ring_len: mr.len(),
            repair_time: t0.elapsed(),
            local: matches!(outcome, RepairOutcome::Local { .. }),
        });
    }
    Ok(steps)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    fn random_failures(n: usize, count: usize, seed: u64) -> Vec<Perm> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut out: Vec<Perm> = Vec::new();
        while out.len() < count {
            let v = Perm::unrank(n, rng.random_range(0..factorial(n)) as u32).unwrap();
            if !out.contains(&v) {
                out.push(v);
            }
        }
        out
    }

    #[test]
    fn timeline_follows_the_theorem() {
        let n = 6;
        let failures = random_failures(n, 3, 9);
        let tl = degrade(n, &failures).unwrap();
        assert_eq!(tl.steps.len(), 3);
        for (k, step) in tl.steps.iter().enumerate() {
            assert_eq!(step.faults, k + 1);
            assert_eq!(step.ring_len as u64, factorial(n) - 2 * (k as u64 + 1));
            assert!((0.0..=1.0).contains(&step.edge_survival));
        }
        assert_eq!(tl.total_lost(), 6);
        assert!(tl.worst_pause() > Duration::ZERO);
    }

    #[test]
    fn maintained_degradation_matches_global() {
        let n = 6;
        let failures = random_failures(n, 3, 2);
        let steps = degrade_maintained(n, &failures).unwrap();
        assert_eq!(steps.len(), 3);
        for (k, s) in steps.iter().enumerate() {
            assert_eq!(s.ring_len as u64, factorial(n) - 2 * (k as u64 + 1));
        }
    }

    #[test]
    fn edge_survival_is_one_for_identical_rings() {
        let ring = star_ring::embed_hamiltonian_cycle(5).unwrap();
        assert!((ring_edge_survival(&ring, &ring) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn too_many_failures_rejected() {
        let failures = random_failures(5, 3, 1);
        let result = std::panic::catch_unwind(|| degrade(5, &failures));
        assert!(result.is_err(), "budget overflow must be refused");
    }
}
