//! Self-profiler: wall-clock attribution over a captured span tree.
//!
//! [`Profile::from_spans`] folds the spans of one [`crate::capture`]
//! session (or any slice of [`SpanRecord`]s) into a tree of aggregate
//! nodes keyed by **call path** — the `;`-joined chain of span names from
//! the root (`embed;embed.expand`). Each node carries how often the path
//! ran, its total (inclusive) wall time and its **self** time (inclusive
//! minus the children), which is the quantity flamegraphs plot.
//!
//! Two renderings:
//!
//! * [`Profile::collapsed`] — Brendan Gregg collapsed-stack lines
//!   (`path;to;frame <self_ns>`), directly consumable by
//!   `flamegraph.pl` / `inferno-flamegraph`;
//! * [`Profile::render`] — an indented table with per-phase percentages,
//!   what `star-rings profile` prints.

use std::collections::HashMap;

use crate::sink::format_ns;
use crate::span::SpanRecord;

/// One aggregated call-path node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfileNode {
    /// `;`-joined span names from the root, e.g. `embed;embed.expand`.
    pub path: String,
    /// Span name of the final frame.
    pub name: &'static str,
    /// Nesting depth (0 = root).
    pub depth: usize,
    /// Number of spans aggregated into this node.
    pub count: u64,
    /// Total inclusive wall time (ns).
    pub total_ns: u64,
    /// Inclusive minus children (ns) — the flamegraph sample value.
    pub self_ns: u64,
}

/// A wall-clock profile aggregated by call path.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Nodes in depth-first (pre-order) path order.
    pub nodes: Vec<ProfileNode>,
}

impl Profile {
    /// Aggregates captured spans (any order) into a path-keyed profile.
    ///
    /// Spans whose parent is absent from `spans` are treated as roots —
    /// that is exactly what a [`crate::capture`] around a pipeline stage
    /// produces.
    pub fn from_spans(spans: &[SpanRecord]) -> Profile {
        // Parent chain resolution: id -> index.
        let by_id: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
        // Path of span i, built by walking parents (memoized).
        let mut paths: Vec<Option<String>> = vec![None; spans.len()];
        fn path_of(
            i: usize,
            spans: &[SpanRecord],
            by_id: &HashMap<u64, usize>,
            paths: &mut Vec<Option<String>>,
        ) -> String {
            if let Some(p) = &paths[i] {
                return p.clone();
            }
            let p = match spans[i].parent.and_then(|pid| by_id.get(&pid).copied()) {
                Some(pi) => format!("{};{}", path_of(pi, spans, by_id, paths), spans[i].name),
                None => spans[i].name.to_string(),
            };
            paths[i] = Some(p.clone());
            p
        }

        // Aggregate totals per path; children-sum per path for self time.
        #[derive(Default)]
        struct Agg {
            name: &'static str,
            depth: usize,
            count: u64,
            total_ns: u64,
            child_ns: u64,
        }
        let mut agg: HashMap<String, Agg> = HashMap::new();
        for i in 0..spans.len() {
            let path = path_of(i, spans, &by_id, &mut paths);
            let depth = path.matches(';').count();
            let a = agg.entry(path.clone()).or_default();
            a.name = spans[i].name;
            a.depth = depth;
            a.count += 1;
            a.total_ns += spans[i].dur_ns;
            if let Some(pi) = spans[i].parent.and_then(|pid| by_id.get(&pid).copied()) {
                let parent_path = path_of(pi, spans, &by_id, &mut paths);
                agg.entry(parent_path).or_default().child_ns += spans[i].dur_ns;
            }
        }
        let mut nodes: Vec<ProfileNode> = agg
            .into_iter()
            .map(|(path, a)| ProfileNode {
                path,
                name: a.name,
                depth: a.depth,
                count: a.count,
                total_ns: a.total_ns,
                self_ns: a.total_ns.saturating_sub(a.child_ns),
            })
            .collect();
        // Pre-order: lexicographic on the path with `;` sorting low works
        // because every parent path is a strict prefix of its children.
        nodes.sort_by(|a, b| a.path.cmp(&b.path));
        Profile { nodes }
    }

    /// Total wall time of the root nodes (ns).
    pub(crate) fn root_ns(&self) -> u64 {
        self.nodes
            .iter()
            .filter(|n| n.depth == 0)
            .map(|n| n.total_ns)
            .sum()
    }

    /// Node lookup by exact path.
    pub fn node(&self, path: &str) -> Option<&ProfileNode> {
        self.nodes.iter().find(|n| n.path == path)
    }

    /// Collapsed-stack (flamegraph) output: one `path value` line per
    /// node with nonzero self time, value in nanoseconds.
    pub fn collapsed(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for n in &self.nodes {
            if n.self_ns > 0 {
                let _ = writeln!(out, "{} {}", n.path, n.self_ns);
            }
        }
        out
    }

    /// Indented per-phase attribution table with percentages of the root
    /// wall time.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let root = self.root_ns().max(1);
        let name_width = self
            .nodes
            .iter()
            .map(|n| 2 * n.depth + n.name.len())
            .max()
            .unwrap_or(0)
            .max("phase".len());
        let mut out = String::new();
        let _ = writeln!(
            out,
            "{:<name_width$}  {:>6}  {:>9}  {:>9}  {:>6}  {:>6}",
            "phase", "count", "total", "self", "tot%", "self%"
        );
        for n in &self.nodes {
            let _ = writeln!(
                out,
                "{:<name_width$}  {:>6}  {:>9}  {:>9}  {:>5.1}%  {:>5.1}%",
                format!("{}{}", "  ".repeat(n.depth), n.name),
                n.count,
                format_ns(n.total_ns),
                format_ns(n.self_ns),
                100.0 * n.total_ns as f64 / root as f64,
                100.0 * n.self_ns as f64 / root as f64,
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::span::FieldValue;

    fn rec(id: u64, parent: Option<u64>, name: &'static str, dur_ns: u64) -> SpanRecord {
        SpanRecord {
            id,
            parent,
            depth: 0,
            name,
            thread: 1,
            start_ns: 0,
            dur_ns,
            fields: Vec::<(&'static str, FieldValue)>::new(),
        }
    }

    /// embed(100) { positions(10), expand(60) { oracle(20), oracle(15) } }
    fn sample() -> Vec<SpanRecord> {
        vec![
            rec(5, Some(3), "oracle", 15),
            rec(4, Some(3), "oracle", 20),
            rec(2, Some(1), "embed.positions", 10),
            rec(3, Some(1), "embed.expand", 60),
            rec(1, None, "embed", 100),
        ]
    }

    #[test]
    fn attribution_totals_and_self_times() {
        let p = Profile::from_spans(&sample());
        let root = p.node("embed").unwrap();
        assert_eq!(root.total_ns, 100);
        assert_eq!(root.self_ns, 100 - 10 - 60);
        let expand = p.node("embed;embed.expand").unwrap();
        assert_eq!(expand.total_ns, 60);
        assert_eq!(expand.self_ns, 60 - 35);
        let oracle = p.node("embed;embed.expand;oracle").unwrap();
        assert_eq!(oracle.count, 2);
        assert_eq!(oracle.total_ns, 35);
        assert_eq!(oracle.self_ns, 35);
        assert_eq!(p.root_ns(), 100);
    }

    #[test]
    fn collapsed_stack_shape() {
        let text = Profile::from_spans(&sample()).collapsed();
        let lines: Vec<&str> = text.lines().collect();
        assert!(lines.contains(&"embed 30"));
        assert!(lines.contains(&"embed;embed.expand;oracle 35"));
        for l in &lines {
            let (path, value) = l.rsplit_once(' ').unwrap();
            assert!(!path.is_empty());
            assert!(value.parse::<u64>().is_ok(), "bad value in {l}");
        }
    }

    #[test]
    fn orphan_spans_become_roots() {
        // A span whose parent closed outside the capture window.
        let spans = vec![rec(9, Some(1000), "embed.verify", 40)];
        let p = Profile::from_spans(&spans);
        assert_eq!(p.node("embed.verify").unwrap().depth, 0);
        assert_eq!(p.root_ns(), 40);
    }

    #[test]
    fn render_mentions_percentages() {
        let text = Profile::from_spans(&sample()).render();
        assert!(text.contains("phase"));
        assert!(text.contains("embed.expand"));
        assert!(text.contains("100.0%"));
    }

    #[test]
    fn sibling_name_collisions_stay_separate_paths() {
        // Same name under different parents must not merge.
        let spans = vec![
            rec(2, Some(1), "step", 10),
            rec(1, None, "a", 20),
            rec(4, Some(3), "step", 5),
            rec(3, None, "b", 9),
        ];
        let p = Profile::from_spans(&spans);
        assert_eq!(p.node("a;step").unwrap().total_ns, 10);
        assert_eq!(p.node("b;step").unwrap().total_ns, 5);
    }
}
