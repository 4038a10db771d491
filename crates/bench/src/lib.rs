//! # star-bench
//!
//! The experiment harness: one binary per experiment in DESIGN.md's index
//! (E1–E7, A1), each printing the table the paper's corresponding claim
//! predicts and writing a CSV copy under `target/experiments/`.
//!
//! The paper is theory-only (no numbered tables/figures), so the
//! "reproduction" is of its quantitative claims; EXPERIMENTS.md records
//! claimed vs measured for every experiment.
//!
//! The crate sits above the library and the server, never below them:
//!
//! - [`baseline`] — the `BENCH_*.json` perf baselines and the regression
//!   comparator behind `bench-diff`;
//! - [`loadgen`] — the closed- and open-loop load generator behind
//!   `star-rings loadgen`;
//! - [`audit`] — the differential correctness gate behind
//!   `star-rings audit`, which cross-checks the embedder against the
//!   exhaustive oracle, certificates and the prior-art baselines;
//! - [`flags`] — the one `--flag [value]` parser of the `star-rings` CLI
//!   and the tool binaries (`baseline`, `bench-diff`, `encoding-bench`,
//!   `oracle-bench`).

pub mod audit;
pub mod baseline;
pub mod flags;
pub mod loadgen;

/// [`star_obs::json`] under its old path, still imported by `perfbench`.
pub use star_obs::json as jsonv;

use std::fmt::Display;
use std::fs;
use std::io::Write as _;
use std::path::PathBuf;

use star_obs::json::Json;

/// A simple aligned table that renders to the terminal and to CSV.
#[derive(Debug, Clone)]
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates a table with the given title and column headers.
    pub fn new(title: &str, headers: &[&str]) -> Self {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row (must match the header arity).
    pub fn row<D: Display>(&mut self, cells: &[D]) {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows
            .push(cells.iter().map(|c| c.to_string()).collect());
    }

    /// Renders the aligned table to stdout.
    pub fn print(&self) {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        println!("\n== {} ==", self.title);
        let render = |cells: &[String]| {
            let line: Vec<String> = cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect();
            println!("  {}", line.join("  "));
        };
        render(&self.headers);
        let total: usize = widths.iter().sum::<usize>() + 2 * widths.len();
        println!("  {}", "-".repeat(total));
        for row in &self.rows {
            render(row);
        }
    }

    /// Writes the table as CSV under `target/experiments/<slug>.csv` and
    /// returns the path.
    pub(crate) fn write_csv(&self, slug: &str) -> std::io::Result<PathBuf> {
        let dir = experiments_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{slug}.csv"));
        let mut f = fs::File::create(&path)?;
        writeln!(f, "{}", self.headers.join(","))?;
        for row in &self.rows {
            writeln!(f, "{}", row.join(","))?;
        }
        Ok(path)
    }

    /// The table as a JSON object:
    /// `{"title":…,"headers":[…],"rows":[[…],…]}`. Cells stay strings
    /// (they are display-formatted), so the output is schema-stable.
    pub fn to_json(&self) -> String {
        let strings = |cells: &[String]| Json::Arr(cells.iter().cloned().map(Json::from).collect());
        Json::Obj(vec![
            ("title".to_string(), Json::from(self.title.clone())),
            ("headers".to_string(), strings(&self.headers)),
            (
                "rows".to_string(),
                Json::Arr(self.rows.iter().map(|row| strings(row)).collect()),
            ),
        ])
        .to_string()
    }

    /// Writes the table as JSON under `target/experiments/<slug>.json`
    /// and returns the path.
    pub(crate) fn write_json(&self, slug: &str) -> std::io::Result<PathBuf> {
        let dir = experiments_dir();
        fs::create_dir_all(&dir)?;
        let path = dir.join(format!("{slug}.json"));
        fs::write(&path, self.to_json())?;
        Ok(path)
    }

    /// Prints and persists (CSV + JSON) in one call; the usual exit path
    /// of an experiment binary.
    pub fn finish(&self, slug: &str) {
        self.print();
        match self.write_csv(slug) {
            Ok(path) => println!("  [csv: {}]", path.display()),
            Err(e) => eprintln!("  [csv write failed: {e}]"),
        }
        match self.write_json(slug) {
            Ok(path) => println!("  [json: {}]", path.display()),
            Err(e) => eprintln!("  [json write failed: {e}]"),
        }
    }
}

fn experiments_dir() -> PathBuf {
    PathBuf::from(std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".to_string()))
        .join("experiments")
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(num: u64, den: u64) -> String {
    format!("{:.2}%", 100.0 * num as f64 / den as f64)
}

/// Experiment-binary entry point wrapper: runs `body` under a
/// `bench.experiment` span and, when `STAR_OBS_STATS` is set in the
/// environment, prints the accumulated star-obs metrics (pretty table,
/// or Prometheus text with `STAR_OBS_STATS=prom`, JSON with
/// `STAR_OBS_STATS=json`) to stderr on exit.
pub fn run_experiment(name: &'static str, body: impl FnOnce()) {
    let mut sp = star_obs::span("bench.experiment");
    sp.record("name", name);
    sp.hold(body);
    star_obs::incr("bench.experiments", 1);
    match std::env::var("STAR_OBS_STATS").ok().as_deref() {
        None | Some("") | Some("0") => {}
        Some("prom") => eprint!("{}", star_obs::snapshot().to_prometheus()),
        Some("json") => eprintln!("{}", star_obs::snapshot().to_json()),
        Some(_) => eprint!(
            "\n-- star-obs metrics ({name}) --\n{}",
            star_obs::snapshot()
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_roundtrip() {
        let mut t = Table::new("demo", &["a", "bb"]);
        t.row(&[1, 22]);
        t.row(&[333, 4]);
        let path = t.write_csv("unit-test-demo").unwrap();
        let text = std::fs::read_to_string(path).unwrap();
        assert_eq!(text, "a,bb\n1,22\n333,4\n");
    }

    #[test]
    #[should_panic]
    fn arity_checked() {
        let mut t = Table::new("demo", &["a", "b"]);
        t.row(&[1]);
    }

    #[test]
    fn pct_formats() {
        assert_eq!(pct(714, 720), "99.17%");
    }

    #[test]
    fn json_mirrors_csv() {
        let mut t = Table::new("demo \"quoted\"", &["a", "bb"]);
        t.row(&[1, 22]);
        t.row(&[333, 4]);
        assert_eq!(
            t.to_json(),
            "{\"title\":\"demo \\\"quoted\\\"\",\"headers\":[\"a\",\"bb\"],\
             \"rows\":[[\"1\",\"22\"],[\"333\",\"4\"]]}"
        );
        let path = t.write_json("unit-test-demo-json").unwrap();
        assert_eq!(std::fs::read_to_string(path).unwrap(), t.to_json());
    }
}
