//! The benchmark holds itself to the workspace analyzer's rules and
//! agrees with `BENCHMARK.json`.
//!
//! The workspace self-tests (`every_workspace_file_lexes_with_exact_spans`,
//! `workspace_is_the_zero_finding_baseline`) only walk `crates/*/src`, so
//! this package applies the same checks to its own sources: every file
//! lexes with exact spans, the lint rules that bind every crate
//! (`no-sleep`, `no-debug-macros`, `bad-suppression`) find nothing, and
//! nothing is suppressed.

use perfbench::layers::per_layer_names;
use perfbench::workloads::{Workload, END_TO_END};
use sos_analyze::parse::collect_rust_files;
use sos_analyze::{run_lints_on, Workspace};
use std::path::{Path, PathBuf};

fn package_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn own_sources() -> Workspace {
    let root = package_root();
    let mut paths = Vec::new();
    for dir in ["src", "tests"] {
        collect_rust_files(&root.join(dir), &mut paths);
    }
    let sources: Vec<(String, String)> = paths
        .iter()
        .map(|path| {
            let text = std::fs::read_to_string(path).expect("own source is readable");
            let relative = path.strip_prefix(&root).unwrap_or(path);
            (format!("perfbench/{}", relative.display()), text)
        })
        .collect();
    let borrowed: Vec<(&str, &str, &str)> = sources
        .iter()
        .map(|(path, text)| ("perfbench", path.as_str(), text.as_str()))
        .collect();
    Workspace::from_sources(&borrowed)
}

#[test]
fn own_sources_lex_with_exact_spans() {
    let workspace = own_sources();
    assert!(workspace.files.len() >= 8, "sources not found");
    for file in &workspace.files {
        let source = &file.source;
        let mut previous_end = 0usize;
        for token in &file.tokens {
            assert!(
                token.start >= previous_end && token.end <= source.len(),
                "{}: token span {}..{} escapes",
                file.path.display(),
                token.start,
                token.end
            );
            let gap = &source[previous_end..token.start];
            assert!(
                gap.chars().all(char::is_whitespace),
                "{}: untokenised bytes before {}: {gap:?}",
                file.path.display(),
                token.start
            );
            assert_eq!(
                token.line,
                1 + source[..token.start].matches('\n').count(),
                "{}: wrong line at byte {}",
                file.path.display(),
                token.start
            );
            previous_end = token.end;
        }
        assert!(source[previous_end..].chars().all(char::is_whitespace));
    }
}

#[test]
fn own_sources_lint_clean_without_suppressions() {
    let workspace = own_sources();
    let outcome = run_lints_on(&workspace);
    assert!(
        outcome.findings.is_empty(),
        "lint findings:\n{}",
        outcome
            .findings
            .iter()
            .map(|f| f.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert_eq!(outcome.suppressed, 0, "suppressions in the benchmark");
    let marker = ["sos-lint", ": allow"].concat();
    for file in &workspace.files {
        assert!(
            !file.source.contains(&marker),
            "{} carries a suppression",
            file.path.display()
        );
    }
}

/// The `"name"` values inside the JSON array under `key`.
fn names_under(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\""))
        .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
    let body = &json[start..];
    let end = body.find(']').expect("array closes");
    body[..end]
        .split("\"name\"")
        .skip(1)
        .filter_map(|chunk| chunk.split('"').nth(1).map(str::to_string))
        .collect()
}

fn benchmark_json() -> String {
    let path = package_root().join("..").join("BENCHMARK.json");
    std::fs::read_to_string(Path::new(&path)).expect("BENCHMARK.json beside the benchmark")
}

#[test]
fn benchmark_json_names_what_the_benchmark_reports() {
    let json = benchmark_json();
    let workloads: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(names_under(&json, "workloads"), workloads);
    let per_layer: Vec<String> = per_layer_names().into_iter().map(|(n, _)| n).collect();
    assert_eq!(names_under(&json, "per_layer"), per_layer);
    assert_eq!(names_under(&json, "end_to_end"), END_TO_END);
}
