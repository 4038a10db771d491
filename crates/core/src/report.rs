//! Construction instrumentation: what the pipeline actually did.
//!
//! [`embed_with_report`] runs the *same* code path as
//! [`crate::embed_longest_ring`] under a thread-local `star-obs` span
//! capture, then assembles an [`EmbedReport`] from the captured spans:
//! per-phase wall-clock, the Lemma-2 plan, the super-ring levels
//! traversed, per-block statistics and Lemma-4 oracle cache behavior.
//! Useful for performance work and for teaching — the report *is* the
//! construction's transcript. (For the raw transcript, run any embed
//! under [`star_obs::capture`] or a tracing sink yourself.)

use std::time::Duration;

use star_fault::FaultSet;
use star_obs::SpanRecord;

use crate::embed_impl::EmbedOptions;
use crate::{oracle, EmbedError, EmbeddedRing};

/// One refinement level of the hierarchy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LevelStats {
    /// Super-vertex order at this level (`r` of the `R^r`).
    pub order: usize,
    /// Number of super-vertices on the ring.
    pub supervertices: usize,
}

/// The construction transcript.
#[derive(Debug, Clone)]
pub struct EmbedReport {
    /// The Lemma-2 position plan (empty sequence for `n <= 4`).
    pub plan_sequence: Vec<usize>,
    /// The spare positions left to Lemma 7.
    pub plan_spare: Vec<usize>,
    /// Levels traversed, coarsest first (empty for the `n <= 5` special
    /// cases).
    pub levels: Vec<LevelStats>,
    /// Blocks containing a fault (= vertex faults, under (P1)).
    pub faulty_blocks: usize,
    /// Lemma-4 oracle cache hits during this embed.
    pub oracle_hits: u64,
    /// Lemma-4 oracle cache misses (searches) during this embed.
    pub oracle_misses: u64,
    /// Time selecting positions.
    pub plan_time: Duration,
    /// Time building `R^{n-1} -> R^4`.
    pub hierarchy_time: Duration,
    /// Time expanding to the vertex ring.
    pub expand_time: Duration,
    /// Time re-verifying the output.
    pub verify_time: Duration,
}

impl EmbedReport {
    /// Assembles a report from one embed's captured spans (close order)
    /// plus the fault set and the oracle-counter delta for that embed.
    fn from_spans(
        spans: &[SpanRecord],
        n: usize,
        faults: &FaultSet,
        oracle_hits: u64,
        oracle_misses: u64,
    ) -> Self {
        let dur_of = |name: &str| -> Duration {
            spans
                .iter()
                .find(|s| s.name == name)
                .map_or(Duration::ZERO, |s| Duration::from_nanos(s.dur_ns))
        };
        let list_field = |name: &str, key: &str| -> Option<Vec<usize>> {
            spans
                .iter()
                .find(|s| s.name == name)
                .and_then(|s| s.field(key))
                .and_then(|v| v.as_list())
                .map(|l| l.iter().map(|&x| x as usize).collect())
        };
        // The `n <= 4` paths never select positions: empty sequence, all
        // non-zero positions spare (matching the pre-span report).
        let plan_sequence = list_field("embed.positions", "sequence").unwrap_or_default();
        let plan_spare = list_field("embed.positions", "spare").unwrap_or_else(|| (1..n).collect());
        // Sibling level spans close in construction order: coarsest first.
        let levels = spans
            .iter()
            .filter(|s| s.name == "embed.hierarchy.level")
            .filter_map(|s| {
                Some(LevelStats {
                    order: s.field("order")?.as_u64()? as usize,
                    supervertices: s.field("supervertices")?.as_u64()? as usize,
                })
            })
            .collect();
        EmbedReport {
            plan_sequence,
            plan_spare,
            levels,
            faulty_blocks: faults.vertex_fault_count(),
            oracle_hits,
            oracle_misses,
            plan_time: dur_of("embed.positions"),
            hierarchy_time: dur_of("embed.hierarchy"),
            expand_time: dur_of("embed.expand"),
            verify_time: dur_of("embed.verify"),
        }
    }
}

/// [`crate::embed_longest_ring`] with a construction transcript.
///
/// Runs [`crate::embed_with_options`] (default options, so the output
/// ring is identical to [`crate::embed_longest_ring`]'s) under a span
/// capture and derives the report from the spans the pipeline emitted.
pub fn embed_with_report(
    n: usize,
    faults: &FaultSet,
) -> Result<(EmbeddedRing, EmbedReport), EmbedError> {
    let stats0 = oracle::cache_stats();
    let cap = star_obs::capture();
    let result = crate::embed_impl::embed_with_options(n, faults, &EmbedOptions::default());
    let spans = cap.finish();
    let ring = result?;
    let stats1 = oracle::cache_stats();
    let report = EmbedReport::from_spans(
        &spans,
        n,
        faults,
        stats1.hits - stats0.hits,
        stats1.misses - stats0.misses,
    );
    Ok((ring, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use star_fault::gen;
    use star_perm::factorial;

    #[test]
    fn report_traces_the_hierarchy() {
        let n = 7;
        let faults = gen::random_vertex_faults(n, 4, 1).unwrap();
        let (ring, report) = embed_with_report(n, &faults).unwrap();
        assert_eq!(ring.len(), 5032);
        // Levels: R^6 (7 supervertices), R^5 (42), R^4 (210).
        assert_eq!(
            report
                .levels
                .iter()
                .map(|l| (l.order, l.supervertices))
                .collect::<Vec<_>>(),
            vec![(6, 7), (5, 42), (4, 210)]
        );
        assert_eq!(report.plan_sequence.len(), 3);
        assert_eq!(report.plan_spare.len(), 3);
        assert_eq!(report.faulty_blocks, 4);
        assert!(report.oracle_hits + report.oracle_misses >= 210);
    }

    #[test]
    fn oracle_warms_up_across_embeds() {
        let n = 6;
        let faults = gen::random_vertex_faults(n, 3, 2).unwrap();
        let (_, first) = embed_with_report(n, &faults).unwrap();
        let (_, second) = embed_with_report(n, &faults).unwrap();
        assert!(
            second.oracle_misses <= first.oracle_misses,
            "repeat embeds must not search more"
        );
        assert!(second.oracle_hits > 0);
    }

    #[test]
    fn small_n_reports() {
        let (ring, report) = embed_with_report(4, &FaultSet::empty(4)).unwrap();
        assert_eq!(ring.len(), 24);
        assert!(report.levels.is_empty());
        assert!(report.plan_sequence.is_empty());
    }

    #[test]
    fn small_n_full_fault_budget_reports() {
        // n = 3, 4, 5 at the full budget |F_v| = n - 3.
        for n in [3usize, 4, 5] {
            let fv = n - 3;
            let faults = if fv == 0 {
                FaultSet::empty(n)
            } else {
                gen::random_vertex_faults(n, fv, 7).unwrap()
            };
            let (ring, report) = embed_with_report(n, &faults).unwrap();
            assert_eq!(
                ring.len() as u64,
                factorial(n) - 2 * fv as u64,
                "n={n} fv={fv}"
            );
            assert!(report.levels.is_empty(), "n={n}: no hierarchy below 6");
            assert_eq!(report.faulty_blocks, fv);
            assert!(report.expand_time > Duration::ZERO);
            if n == 5 {
                // n = 5 runs Lemma 2 (one pinned position, three spares).
                assert_eq!(report.plan_sequence.len(), 1);
                assert_eq!(report.plan_spare.len(), 3);
            } else {
                assert!(report.plan_sequence.is_empty());
                assert_eq!(report.plan_spare, (1..n).collect::<Vec<_>>());
            }
        }
    }

    #[test]
    fn report_matches_obs_oracle_counters() {
        // The report's per-embed diff and the star-obs mirror counters
        // move together (both count the same memo).
        let n = 6;
        let faults = gen::random_vertex_faults(n, 2, 9).unwrap();
        let hit0 = star_obs::counter("oracle.hit").get();
        let miss0 = star_obs::counter("oracle.miss").get();
        let (_, report) = embed_with_report(n, &faults).unwrap();
        let hit_delta = star_obs::counter("oracle.hit").get() - hit0;
        let miss_delta = star_obs::counter("oracle.miss").get() - miss0;
        // Other tests run concurrently against the same process-global
        // memo, so the mirror may move more — never less.
        assert!(hit_delta >= report.oracle_hits);
        assert!(miss_delta >= report.oracle_misses);
        assert!(report.oracle_hits + report.oracle_misses > 0);
    }

    #[test]
    fn cache_stats_snapshot_is_consistent_under_load() {
        // Hammer the oracle from several threads while snapshotting:
        // entries stays bounded by the canonical query space and
        // hits/misses never regress between consecutive snapshots.
        let faults = FaultSet::empty(6);
        let stop = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|scope| {
            let stop = &stop;
            let faults = &faults;
            for seed in 0..3u64 {
                scope.spawn(move || {
                    let mut s = seed;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let _ = crate::embed_longest_ring(6, faults);
                    }
                });
            }
            let mut prev = oracle::cache_stats();
            for _ in 0..200 {
                let cur = oracle::cache_stats();
                assert!(cur.hits >= prev.hits, "hits went backward");
                assert!(cur.misses >= prev.misses, "misses went backward");
                assert!(cur.entries <= 24 * 24 * 25, "entries out of range");
                prev = cur;
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(oracle::entries(), oracle::cache_stats().entries);
    }
}
