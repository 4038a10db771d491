//! Chaos runs: workloads executing *while* the machine degrades.
//!
//! [`crate::resilience`] measures repairs in isolation; this module couples
//! them with a running workload. A token-ring computation proceeds lap by
//! lap; between laps, failures from a [`star_fault::schedule::FailureSchedule`]
//! arrive and the maintained ring absorbs them. Accounting separates
//! useful work from repair pauses and counts the work units that must be
//! re-assigned because their slot's processor died or moved.

use std::time::{Duration, Instant};

use star_fault::schedule::FailureSchedule;
use star_fault::FaultSet;
use star_perm::Perm;
use star_ring::repair::{MaintainedRing, RepairOutcome};

/// Accounting for one lap of the chaos run.
#[derive(Debug, Clone)]
pub struct ChaosLap {
    /// Lap index (0-based).
    pub lap: usize,
    /// Ring slots available during this lap.
    pub slots: usize,
    /// Work units completed this lap (= slots: one unit per slot visit).
    pub work: u64,
    /// Failures absorbed *before* this lap started.
    pub failures_before: usize,
    /// Repair time spent before this lap (the workload was paused).
    pub repair_pause: Duration,
    /// Whether any repair before this lap was a global re-embed.
    pub had_global_repair: bool,
}

/// Result of a chaos run.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Per-lap accounting.
    pub laps: Vec<ChaosLap>,
    /// Failures that could not be absorbed (run continued on the old
    /// ring, excluding the unabsorbed processor from accounting).
    pub unabsorbed_failures: usize,
    /// Total useful work across all laps.
    pub total_work: u64,
    /// Total time spent in repairs.
    pub total_repair_pause: Duration,
}

/// Runs `laps` token-ring laps over a machine that degrades according to
/// `schedule`: failure `k` arrives just before lap `k * laps /
/// (schedule.len() + 1)` (evenly spread). Work continues on the repaired
/// ring after each failure.
pub fn token_ring_under_failures(
    n: usize,
    schedule: &FailureSchedule,
    laps: usize,
) -> Result<ChaosReport, star_ring::EmbedError> {
    assert!(laps >= 1);
    let mut sp = star_obs::span("sim.chaos");
    sp.record("n", n);
    sp.record("laps", laps);
    sp.record("scheduled_failures", schedule.len());
    let lap_ctr = star_obs::counter("sim.chaos.lap");
    let msg_ctr = star_obs::counter("sim.chaos.messages");
    let pause_hist = star_obs::histogram("sim.chaos.pause");
    let mut mr = MaintainedRing::new(n, &FaultSet::empty(n))?;
    // Failure arrival lap for each scheduled failure, evenly spread.
    let arrival_lap = |k: usize| -> usize { k * laps / (schedule.len() + 1) };
    let mut next_failure = 0usize;
    let mut unabsorbed = 0usize;
    let mut laps_out = Vec::with_capacity(laps);
    let mut total_work = 0u64;
    let mut total_pause = Duration::ZERO;

    for lap in 0..laps {
        let mut pause = Duration::ZERO;
        let mut failures_before = 0usize;
        let mut had_global = false;
        while next_failure < schedule.len() && arrival_lap(next_failure + 1) <= lap {
            let dead: Perm = schedule.order()[next_failure];
            next_failure += 1;
            failures_before += 1;
            if star_obs::flightrec::enabled() {
                star_obs::flightrec::record(
                    "chaos.inject",
                    dead.to_string(),
                    &[
                        ("lap", star_obs::FieldValue::U64(lap as u64)),
                        ("ordinal", star_obs::FieldValue::U64(next_failure as u64)),
                    ],
                );
            }
            let t0 = Instant::now();
            match mr.fail(dead) {
                Ok(RepairOutcome::Global) => had_global = true,
                Ok(RepairOutcome::Local { .. }) => {}
                Err(_) => {
                    unabsorbed += 1;
                    star_obs::flightrec::record(
                        "chaos.unabsorbed",
                        dead.to_string(),
                        &[("lap", star_obs::FieldValue::U64(lap as u64))],
                    );
                }
            }
            pause += t0.elapsed();
        }
        let slots = mr.len();
        total_work += slots as u64;
        total_pause += pause;
        lap_ctr.incr(1);
        // One token-ring lap passes the token over every slot once.
        msg_ctr.incr(slots as u64);
        if failures_before > 0 {
            pause_hist.observe_ns(pause.as_nanos() as u64);
        }
        laps_out.push(ChaosLap {
            lap,
            slots,
            work: slots as u64,
            failures_before,
            repair_pause: pause,
            had_global_repair: had_global,
        });
    }
    sp.record("unabsorbed", unabsorbed);
    sp.record("total_work", total_work);
    Ok(ChaosReport {
        laps: laps_out,
        unabsorbed_failures: unabsorbed,
        total_work,
        total_repair_pause: total_pause,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_fault::schedule;
    use star_perm::factorial;

    #[test]
    fn chaos_run_degrades_monotonically() {
        let n = 6;
        let sched = schedule::random_schedule(n, 3, 5).unwrap();
        let report = token_ring_under_failures(n, &sched, 9).unwrap();
        assert_eq!(report.laps.len(), 9);
        assert_eq!(report.unabsorbed_failures, 0);
        // Slots never increase, start at n!, end at n! - 6.
        let mut prev = factorial(n) as usize;
        for lap in &report.laps {
            assert!(lap.slots <= prev);
            prev = lap.slots;
        }
        assert_eq!(report.laps[0].slots as u64, factorial(n));
        assert_eq!(report.laps[8].slots as u64, factorial(n) - 6);
        // Work accounting is consistent.
        assert_eq!(
            report.total_work,
            report.laps.iter().map(|l| l.work).sum::<u64>()
        );
        assert!(report.total_work < report.laps.len() as u64 * factorial(n));
    }

    #[test]
    fn no_failures_means_no_pauses() {
        let n = 6;
        let sched = schedule::random_schedule(n, 0, 0).unwrap();
        let report = token_ring_under_failures(n, &sched, 3).unwrap();
        assert_eq!(report.total_repair_pause, Duration::ZERO);
        assert_eq!(report.total_work, 3 * factorial(n));
    }

    #[test]
    fn neighborhood_attack_under_load() {
        let n = 6;
        let victim = Perm::identity(n);
        let sched = schedule::neighborhood_attack(&victim, n - 3).unwrap();
        let report = token_ring_under_failures(n, &sched, 6).unwrap();
        assert_eq!(report.unabsorbed_failures, 0);
        assert_eq!(
            report.laps.last().unwrap().slots as u64,
            factorial(n) - 2 * (n as u64 - 3)
        );
    }
}
