//! The shipped workspace must be qirana-lint-clean: the same invariant CI
//! enforces with `cargo xtask lint`, kept in `cargo test` so a violation
//! cannot land through a path that skips the lint step. Alongside it:
//! the item parser must account for every `fn` token in the workspace
//! (round-trip smoke), the call-graph artifacts must be byte-identical
//! across rebuilds (the CI `graph` lane's determinism contract), and every
//! bin or example the docs and CI name must exist.
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

use std::path::{Path, PathBuf};

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("xtask lives two levels under the workspace root")
        .to_path_buf()
}

#[test]
fn workspace_is_lint_clean() {
    let diags = xtask::lint_workspace(&workspace_root()).expect("workspace walk");
    assert!(
        diags.is_empty(),
        "qirana-lint violations in the workspace:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every `fn` keyword that introduces a named item must surface as a
/// parsed `FnItem` — if the parser silently drops a function, its calls
/// and panic sites vanish from the graph and QL007–QL009 under-report.
#[test]
fn parser_accounts_for_every_fn_in_the_workspace() {
    let sources = xtask::read_workspace_sources(&workspace_root()).expect("workspace walk");
    assert!(!sources.is_empty(), "workspace walk found no sources");
    for (path, src) in &sources {
        let ctx = xtask::analysis::FileContext::new(path, src);
        let parsed = xtask::parser::parse_file(&ctx);
        let expected = xtask::parser::count_fn_tokens(&ctx.code);
        assert_eq!(
            parsed.items.len(),
            expected,
            "{path}: parser found {} fn items but the token stream has {}",
            parsed.items.len(),
            expected
        );
    }
}

/// Two builds over the same sources must render identical DOT and JSON —
/// the byte-for-byte contract CI checks by running `cargo xtask graph`
/// twice and comparing the artifacts.
#[test]
fn graph_artifacts_are_deterministic_across_builds() {
    let root = workspace_root();
    let a = xtask::build_workspace_graph(&root).expect("first build");
    let b = xtask::build_workspace_graph(&root).expect("second build");
    assert!(!a.nodes.is_empty(), "workspace graph has no nodes");
    assert!(!a.edges.is_empty(), "workspace graph has no edges");
    assert_eq!(a.to_dot(), b.to_dot(), "DOT artifact must be deterministic");
    assert_eq!(
        a.to_json(),
        b.to_json(),
        "JSON artifact must be deterministic"
    );
}

/// The graph lints specifically (not just the union with per-file lints)
/// sweep the workspace clean: every panic reachable from public API is
/// typed or waived, no hash iteration taints a fingerprint/price producer,
/// and every broker commit path appends before applying.
#[test]
fn workspace_graph_lints_are_clean() {
    let g = xtask::build_workspace_graph(&workspace_root()).expect("workspace graph");
    let diags = xtask::lints::lint_graph(&g);
    assert!(
        diags.is_empty(),
        "interprocedural lint violations:\n{}",
        diags
            .iter()
            .map(|d| d.to_string())
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Every `--bin <name>` and `--example <name>` the docs and CI name must
/// resolve to a target in the tree — `crates/*/src/bin/<name>.rs` or
/// `examples/<name>.rs` — so deleting a bin cannot leave a command behind
/// that no longer runs.
#[test]
fn docs_and_ci_name_only_targets_that_exist() {
    let root = workspace_root();
    let crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .expect("crates dir")
        .map(|e| e.expect("crates entry").path())
        .collect();
    let exists = |flag: &str, name: &str| match flag {
        "--bin" => crates
            .iter()
            .any(|c| c.join("src/bin").join(format!("{name}.rs")).is_file()),
        _ => root.join("examples").join(format!("{name}.rs")).is_file(),
    };
    let trim = |w: &str| -> String {
        w.trim_matches(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '_'))
            .to_string()
    };
    let mut dangling = Vec::new();
    for doc in [
        "README.md",
        "DESIGN.md",
        "EXPERIMENTS.md",
        ".github/workflows/ci.yml",
    ] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc readable");
        let words: Vec<String> = text.split_whitespace().map(trim).collect();
        for pair in words.windows(2) {
            let (flag, name) = (pair[0].as_str(), pair[1].as_str());
            if matches!(flag, "--bin" | "--example") && !exists(flag, name) {
                dangling.push(format!("{doc}: {flag} {name}"));
            }
        }
    }
    assert!(
        dangling.is_empty(),
        "docs/CI name targets the tree lacks:\n{}",
        dangling.join("\n")
    );
}
