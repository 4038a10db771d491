//! Machine-readable perf baselines (`BENCH_<date>.json`) and the
//! regression comparator behind `bench-diff`.
//!
//! [`run_matrix`] executes the embed matrix — full-budget worst-case
//! faults for `n = 7..=9` against a warmed oracle, one serial embed per
//! sample — and distils each cell into a [`BaselineCase`]: median and
//! p95 wall time over the samples, plus the oracle hit rate read from
//! the `star-obs` counter deltas of that cell. [`Baseline`] serializes
//! the whole matrix to JSON and parses it back (via [`star_obs::json`]), so
//! CI can commit one file per known-good revision and
//! [`diff`] can flag any case whose median regressed beyond a threshold
//! against it.

use std::time::Instant;

use star_fault::gen;
use star_perm::Parity;
use star_ring::{embed_with_options, oracle, EmbedOptions};

use star_obs::json::Json;

/// Default regression threshold: >10% median slowdown fails.
pub const DEFAULT_THRESHOLD: f64 = 0.10;

/// Schema tag written into every baseline file.
pub const SCHEMA: &str = "star-bench/baseline/v1";

/// One cell of the perf matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct BaselineCase {
    /// Stable identifier, e.g. `embed/n9/serial`.
    pub name: String,
    /// Host dimension.
    pub n: usize,
    /// What the cell times: `serial` for embeds, `hit`, `encode`,
    /// `verify` and the like for the other harnesses.
    pub mode: String,
    /// Number of timed runs behind the statistics.
    pub samples: usize,
    /// Median wall time (ns).
    pub median_ns: u64,
    /// 95th-percentile wall time (ns).
    pub p95_ns: u64,
    /// `oracle.hit / (oracle.hit + oracle.miss)` over the cell's runs
    /// (1.0 when the cell made no queries).
    pub oracle_hit_rate: f64,
    /// `pool.items / pool.workers` over the cell's runs. No harness
    /// fans a cell out any more, so every case written now reads 0.0;
    /// the field stays for the `v1` schema.
    pub pool_items_per_worker: f64,
    /// Achieved per-connection request rate (req/s) — populated by the
    /// `star-serve` load-generator export, 0.0 for embed cells. Absent in
    /// older files (parsed as 0.0); earlier exports smuggled this value
    /// through `pool_items_per_worker`, which now always means what its
    /// name says.
    pub per_conn_rate: f64,
}

/// A full baseline: schema tag, creation stamp, and the matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct Baseline {
    /// Milliseconds since the Unix epoch at creation.
    pub created_ms: u64,
    /// The matrix, in run order.
    pub cases: Vec<BaselineCase>,
}

impl BaselineCase {
    /// A case from wall-clock samples in any order: their median and
    /// p95, no pool fan-out and no request rate.
    pub fn from_samples(
        name: String,
        n: usize,
        mode: &str,
        mut wall_ns: Vec<u64>,
        oracle_hit_rate: f64,
    ) -> BaselineCase {
        wall_ns.sort_unstable();
        BaselineCase {
            name,
            n,
            mode: mode.to_string(),
            samples: wall_ns.len(),
            median_ns: percentile(&wall_ns, 0.5),
            p95_ns: percentile(&wall_ns, 0.95),
            oracle_hit_rate,
            pool_items_per_worker: 0.0,
            per_conn_rate: 0.0,
        }
    }
}

impl Baseline {
    /// `cases` stamped with the wall clock.
    pub fn stamped(cases: Vec<BaselineCase>) -> Baseline {
        let created_ms = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_millis() as u64)
            .unwrap_or(0);
        Baseline { created_ms, cases }
    }

    /// Serializes to the committed `BENCH_*.json` format (pretty, one
    /// case per line, so diffs stay reviewable).
    pub fn to_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(out, "{{");
        let _ = writeln!(out, "  \"schema\": \"{SCHEMA}\",");
        let _ = writeln!(out, "  \"created_ms\": {},", self.created_ms);
        let _ = writeln!(out, "  \"cases\": [");
        for (i, c) in self.cases.iter().enumerate() {
            let _ = write!(
                out,
                "    {{\"name\": {}, \"n\": {}, \"mode\": {}, \"samples\": {}, \
                 \"median_ns\": {}, \"p95_ns\": {}, \"oracle_hit_rate\": {:.6}, \
                 \"pool_items_per_worker\": {:.3}, \"per_conn_rate\": {:.3}}}",
                Json::from(c.name.as_str()),
                c.n,
                Json::from(c.mode.as_str()),
                c.samples,
                c.median_ns,
                c.p95_ns,
                c.oracle_hit_rate,
                c.pool_items_per_worker,
                c.per_conn_rate
            );
            let _ = writeln!(out, "{}", if i + 1 < self.cases.len() { "," } else { "" });
        }
        let _ = writeln!(out, "  ]");
        out.push_str("}\n");
        out
    }

    /// Parses a baseline file (any JSON layout matching the schema).
    pub fn from_json(text: &str) -> Result<Baseline, String> {
        let doc = Json::parse(text)?;
        match doc.get("schema").and_then(Json::as_str) {
            Some(SCHEMA) => {}
            Some(other) => return Err(format!("unsupported baseline schema `{other}`")),
            None => return Err("missing `schema` field".to_string()),
        }
        let created_ms = doc
            .get("created_ms")
            .and_then(Json::as_u64)
            .ok_or("missing `created_ms`")?;
        let mut cases = Vec::new();
        for (i, c) in doc
            .get("cases")
            .and_then(Json::as_arr)
            .ok_or("missing `cases` array")?
            .iter()
            .enumerate()
        {
            let field = |key: &str| {
                c.get(key)
                    .cloned()
                    .ok_or(format!("case {i}: missing `{key}`"))
            };
            cases.push(BaselineCase {
                name: field("name")?
                    .as_str()
                    .ok_or(format!("case {i}: bad name"))?
                    .to_string(),
                n: field("n")?.as_u64().ok_or(format!("case {i}: bad n"))? as usize,
                mode: field("mode")?
                    .as_str()
                    .ok_or(format!("case {i}: bad mode"))?
                    .to_string(),
                samples: field("samples")?
                    .as_u64()
                    .ok_or(format!("case {i}: bad samples"))? as usize,
                median_ns: field("median_ns")?
                    .as_u64()
                    .ok_or(format!("case {i}: bad median_ns"))?,
                p95_ns: field("p95_ns")?
                    .as_u64()
                    .ok_or(format!("case {i}: bad p95_ns"))?,
                oracle_hit_rate: field("oracle_hit_rate")?
                    .as_f64()
                    .ok_or(format!("case {i}: bad oracle_hit_rate"))?,
                pool_items_per_worker: field("pool_items_per_worker")?
                    .as_f64()
                    .ok_or(format!("case {i}: bad pool_items_per_worker"))?,
                // Added after v1 files were already committed: default
                // rather than reject, so older baselines stay diffable.
                per_conn_rate: c.get("per_conn_rate").and_then(Json::as_f64).unwrap_or(0.0),
            });
        }
        Ok(Baseline { created_ms, cases })
    }

    /// Case lookup by exact name.
    pub fn case(&self, name: &str) -> Option<&BaselineCase> {
        self.cases.iter().find(|c| c.name == name)
    }
}

/// One line of a baseline comparison.
#[derive(Debug, Clone)]
pub struct DiffLine {
    /// Case name.
    pub name: String,
    /// Baseline median (ns); `None` when the case is new.
    pub base_median_ns: Option<u64>,
    /// Current median (ns); `None` when the case disappeared.
    pub cur_median_ns: Option<u64>,
    /// `cur / base - 1` when both sides exist.
    pub median_delta: Option<f64>,
    /// Whether this line breaches the threshold.
    pub regressed: bool,
}

/// Compares `cur` against `base`: a case regresses when its median grew
/// by more than `threshold` (e.g. `0.10` = +10%). Missing cases on
/// either side are reported but never count as regressions (topology
/// changes are reviewed by humans).
pub fn diff(base: &Baseline, cur: &Baseline, threshold: f64) -> Vec<DiffLine> {
    let mut out = Vec::new();
    for b in &base.cases {
        match cur.case(&b.name) {
            Some(c) => {
                let delta = c.median_ns as f64 / b.median_ns.max(1) as f64 - 1.0;
                out.push(DiffLine {
                    name: b.name.clone(),
                    base_median_ns: Some(b.median_ns),
                    cur_median_ns: Some(c.median_ns),
                    median_delta: Some(delta),
                    // Epsilon so a boundary-exact ratio (e.g. 1.1 at 10%)
                    // is not tripped by f64 rounding.
                    regressed: delta > threshold + 1e-9,
                });
            }
            None => out.push(DiffLine {
                name: b.name.clone(),
                base_median_ns: Some(b.median_ns),
                cur_median_ns: None,
                median_delta: None,
                regressed: false,
            }),
        }
    }
    for c in &cur.cases {
        if base.case(&c.name).is_none() {
            out.push(DiffLine {
                name: c.name.clone(),
                base_median_ns: None,
                cur_median_ns: Some(c.median_ns),
                median_delta: None,
                regressed: false,
            });
        }
    }
    out
}

fn no_verify() -> EmbedOptions {
    EmbedOptions {
        verify: false,
        ..Default::default()
    }
}

/// The `p`-quantile (`0.0..=1.0`) of ascending samples, nearest rank;
/// 0 when there are none.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Runs one matrix cell, `embed/n<n>/serial`: `samples` no-verify embeds
/// of the full-budget worst case at `n`.
fn run_case(n: usize, samples: usize) -> BaselineCase {
    let name = format!("embed/n{n}/serial");
    eprintln!("baseline: running {name} ({samples} samples)...");
    let faults = gen::worst_case_same_partite(n, n - 3, Parity::Even, 42).unwrap();
    let snap0 = star_obs::snapshot();
    let wall_ns: Vec<u64> = (0..samples)
        .map(|_| {
            let t0 = Instant::now();
            let ring = embed_with_options(n, &faults, &no_verify()).unwrap();
            let ns = t0.elapsed().as_nanos() as u64;
            std::hint::black_box(ring);
            ns
        })
        .collect();
    let snap1 = star_obs::snapshot();
    let delta =
        |name: &str| -> u64 { snap1.counter(name).unwrap_or(0) - snap0.counter(name).unwrap_or(0) };
    let (hits, misses) = (delta("oracle.hit"), delta("oracle.miss"));
    let oracle_hit_rate = if hits + misses == 0 {
        1.0
    } else {
        hits as f64 / (hits + misses) as f64
    };
    BaselineCase::from_samples(name, n, "serial", wall_ns, oracle_hit_rate)
}

/// Runs the full embed matrix (`n = 7..=9`, `samples` runs each, warmed
/// oracle) and stamps the result with the wall clock.
pub fn run_matrix(samples: usize) -> Baseline {
    oracle::warm();
    let cases = (7..=9).map(|n| run_case(n, samples)).collect();
    Baseline::stamped(cases)
}

/// `YYYY-MM-DD` (UTC) for a Unix-epoch millisecond stamp — used to name
/// `BENCH_<date>.json` files without a calendar dependency.
pub fn date_slug(created_ms: u64) -> String {
    // Howard Hinnant's civil-from-days algorithm.
    let z = (created_ms / 86_400_000) as i64 + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!("{y:04}-{m:02}-{d:02}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn case(name: &str, median_ns: u64) -> BaselineCase {
        BaselineCase {
            name: name.to_string(),
            n: 9,
            mode: "serial".to_string(),
            samples: 5,
            median_ns,
            p95_ns: median_ns + median_ns / 10,
            oracle_hit_rate: 0.9875,
            pool_items_per_worker: 128.5,
            per_conn_rate: 0.0,
        }
    }

    #[test]
    fn json_round_trips() {
        let base = Baseline {
            created_ms: 1_754_500_000_000,
            cases: vec![
                case("embed/n9/serial", 120_000_000),
                case("oracle/cold_miss/n7", 900_000),
            ],
        };
        let parsed = Baseline::from_json(&base.to_json()).unwrap();
        assert_eq!(parsed, base);
    }

    #[test]
    fn parses_v1_files_without_per_conn_rate() {
        // Committed baselines predate the field; they must stay readable
        // with the rate defaulting to zero.
        let text = "{\"schema\":\"star-bench/baseline/v1\",\"created_ms\":7,\"cases\":[\
                    {\"name\":\"embed/n9/serial\",\"n\":9,\"mode\":\"serial\",\"samples\":5,\
                    \"median_ns\":1,\"p95_ns\":2,\"oracle_hit_rate\":1.0,\
                    \"pool_items_per_worker\":0.0}]}";
        let parsed = Baseline::from_json(text).unwrap();
        assert_eq!(parsed.cases[0].per_conn_rate, 0.0);
    }

    #[test]
    fn embed_cell_times_its_samples_and_never_fans_out() {
        // n = 6 keeps the debug-build embed cheap.
        let cell = run_case(6, 2);
        assert_eq!((cell.name.as_str(), cell.samples), ("embed/n6/serial", 2));
        assert!(cell.median_ns > 0 && cell.p95_ns >= cell.median_ns);
        assert_eq!(cell.pool_items_per_worker, 0.0, "a single embed is serial");
        assert_eq!(cell.per_conn_rate, 0.0, "embed cells carry no request rate");
    }

    #[test]
    fn rejects_foreign_schema() {
        assert!(
            Baseline::from_json("{\"schema\":\"other/v9\",\"created_ms\":1,\"cases\":[]}").is_err()
        );
        assert!(Baseline::from_json("{}").is_err());
    }

    #[test]
    fn detects_synthetic_two_x_slowdown() {
        let base = Baseline {
            created_ms: 1,
            cases: vec![case("embed/n9/serial", 100_000_000)],
        };
        let mut slow = base.clone();
        slow.cases[0].median_ns *= 2;
        let lines = diff(&base, &slow, DEFAULT_THRESHOLD);
        assert_eq!(lines.len(), 1);
        assert!(lines[0].regressed, "2x slowdown must regress");
        assert!((lines[0].median_delta.unwrap() - 1.0).abs() < 1e-9);
        // The reverse direction (a 2x speedup) is not a regression.
        assert!(diff(&slow, &base, DEFAULT_THRESHOLD)
            .iter()
            .all(|l| !l.regressed));
    }

    #[test]
    fn threshold_is_exclusive_and_respected() {
        let base = Baseline {
            created_ms: 1,
            cases: vec![case("c", 1_000_000)],
        };
        let mut at = base.clone();
        at.cases[0].median_ns = 1_100_000; // exactly +10%
        assert!(!diff(&base, &at, 0.10)[0].regressed);
        at.cases[0].median_ns = 1_101_000; // just past
        assert!(diff(&base, &at, 0.10)[0].regressed);
    }

    #[test]
    fn added_and_removed_cases_never_regress() {
        let base = Baseline {
            created_ms: 1,
            cases: vec![case("gone", 5), case("kept", 5)],
        };
        let cur = Baseline {
            created_ms: 2,
            cases: vec![case("kept", 5), case("new", 5)],
        };
        let lines = diff(&base, &cur, DEFAULT_THRESHOLD);
        assert_eq!(lines.len(), 3);
        assert!(lines.iter().all(|l| !l.regressed));
        let gone = lines.iter().find(|l| l.name == "gone").unwrap();
        assert!(gone.cur_median_ns.is_none());
        let new = lines.iter().find(|l| l.name == "new").unwrap();
        assert!(new.base_median_ns.is_none());
    }

    #[test]
    fn date_slug_is_civil_utc() {
        assert_eq!(date_slug(0), "1970-01-01");
        assert_eq!(date_slug(86_400_000), "1970-01-02");
        // 2026-08-07 00:00:00 UTC (20672 days since the epoch).
        assert_eq!(date_slug(1_786_060_800_000), "2026-08-07");
        // Leap day.
        assert_eq!(date_slug(1_582_934_400_000), "2020-02-29");
    }

    #[test]
    fn percentile_bounds() {
        let sorted = [10, 20, 30, 40, 50];
        assert_eq!(percentile(&sorted, 0.5), 30);
        assert_eq!(percentile(&sorted, 0.95), 50);
        assert_eq!(percentile(&sorted, 0.0), 10);
    }
}
