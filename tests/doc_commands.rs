//! The commands README, EXPERIMENTS and DESIGN tell a reader to run
//! name targets that exist: every `--bin X`, `--example X` and
//! `--bench X` has a source file, and no `cargo bench` line outlives the
//! benches.

use std::path::PathBuf;

const DOCS: &[&str] = &["README.md", "EXPERIMENTS.md", "DESIGN.md"];

fn root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The member crates' directories (`crates/*`).
fn crate_dirs() -> Vec<PathBuf> {
    std::fs::read_dir(root().join("crates"))
        .expect("crates/ is readable")
        .map(|entry| entry.expect("crates/ entry").path())
        .filter(|p| p.is_dir())
        .collect()
}

/// Every source file a `--<kind> <name>` flag may name.
fn candidates(kind: &str, name: &str) -> Vec<PathBuf> {
    let file = format!("{name}.rs");
    let crates = crate_dirs();
    match kind {
        "bin" => std::iter::once(root().join("src/bin").join(&file))
            .chain(crates.iter().map(|c| c.join("src/bin").join(&file)))
            .collect(),
        "example" => vec![root().join("examples").join(&file)],
        "bench" => crates
            .iter()
            .map(|c| c.join("benches").join(&file))
            .collect(),
        _ => unreachable!("unknown target kind {kind}"),
    }
}

/// `(doc, line number, kind, name)` for every target flag in the docs.
fn target_flags() -> Vec<(&'static str, usize, &'static str, String)> {
    let mut found = Vec::new();
    for doc in DOCS {
        let text = std::fs::read_to_string(root().join(doc)).expect("doc is readable");
        for (i, line) in text.lines().enumerate() {
            let words: Vec<&str> = line
                .split(|c: char| c.is_whitespace() || c == '`')
                .filter(|w| !w.is_empty())
                .collect();
            for (k, word) in words.iter().enumerate() {
                for kind in ["bin", "example", "bench"] {
                    let flag = format!("--{kind}");
                    let name = match word.strip_prefix(&flag) {
                        Some("") => words.get(k + 1).copied(),
                        Some(rest) => rest.strip_prefix('='),
                        None => None,
                    };
                    let Some(name) = name else { continue };
                    let name = name.trim_end_matches([')', ',', '.', ';', ':']);
                    // Placeholders such as `--bin <name>` name no target.
                    if name.contains(['<', '*', '$']) {
                        continue;
                    }
                    found.push((*doc, i + 1, kind, name.to_string()));
                }
            }
        }
    }
    found
}

#[test]
fn every_documented_target_has_a_source_file() {
    let flags = target_flags();
    assert!(
        flags.iter().any(|(_, _, kind, _)| *kind == "bin"),
        "the docs name no --bin at all; the scan is broken"
    );
    let missing: Vec<String> = flags
        .iter()
        .filter(|(_, _, kind, name)| !candidates(kind, name).iter().any(|p| p.is_file()))
        .map(|(doc, line, kind, name)| format!("{doc}:{line}: --{kind} {name}"))
        .collect();
    assert!(
        missing.is_empty(),
        "documented targets with no source file:\n{}",
        missing.join("\n")
    );
}

#[test]
fn no_cargo_bench_line_outlives_the_benches() {
    let has_benches =
        crate_dirs().iter().any(|c| c.join("benches").is_dir()) || root().join("benches").is_dir();
    if has_benches {
        return;
    }
    let stale: Vec<String> = DOCS
        .iter()
        .flat_map(|doc| {
            let text = std::fs::read_to_string(root().join(doc)).expect("doc is readable");
            text.lines()
                .enumerate()
                .filter(|(_, line)| line.contains("cargo bench"))
                .map(|(i, _)| format!("{doc}:{}", i + 1))
                .collect::<Vec<_>>()
        })
        .collect();
    assert!(
        stale.is_empty(),
        "`cargo bench` with no benches to run: {stale:?}"
    );
}
