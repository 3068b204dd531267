//! Tier-1 gate: the workspace must be lint-clean.
//!
//! This is the test-side half of the contract `scripts/verify.sh`
//! enforces with `cargo run -p taxoglimpse-lint -- --workspace --check`:
//! any unsuppressed finding from the token rules
//! (D001/D002/D003/C001/M001), the interprocedural passes
//! (D101/L001/L002/P001), the linter's own registry self-check (S001),
//! or a `lint:allow` that no longer fires (U001) — fails `cargo test`.

use std::path::Path;

#[test]
fn workspace_has_no_lint_findings() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = taxoglimpse_lint::lint_workspace(root).expect("workspace sources readable");
    assert!(
        report.findings.is_empty(),
        "lint findings in the workspace:\n{}",
        report.render_table()
    );
    // Sanity: the walker actually visited the tree (root src + crates).
    assert!(report.files_scanned > 50, "only {} files scanned", report.files_scanned);
}

#[test]
fn lint_report_json_is_schema_valid() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = taxoglimpse_lint::lint_workspace(root).expect("workspace sources readable");
    assert_eq!(taxoglimpse_lint::SCHEMA_VERSION, 2);
    let text = report.to_json().render_pretty();
    let doc = taxoglimpse::json::from_str_value(&text).expect("report JSON parses");
    let n = taxoglimpse_lint::validate_report(&doc).expect("report JSON is schema-valid");
    assert_eq!(n, report.findings.len());
}

#[test]
fn interprocedural_passes_are_armed_against_this_workspace() {
    // A clean report proves nothing if the new passes never ran. Check
    // the engine end-to-end against the real tree: the triaged P001
    // suppressions must be consumed (so the report stays clean), and the
    // call graph must resolve the evaluation path. L002's detection is
    // covered by `crates/lint/tests/interproc.rs`.
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let report = taxoglimpse_lint::lint_workspace(root).expect("workspace sources readable");
    assert!(report.findings.is_empty(), "{}", report.render_table());
    assert!(
        report.allows_used >= 8,
        "expected the triaged P001 suppressions to fire; only {} allow(s) used",
        report.allows_used
    );

    let graph_json = taxoglimpse_lint::workspace_graph_json(root).expect("graph builds");
    let doc = taxoglimpse::json::from_str_value(&graph_json).expect("graph JSON parses");
    let rendered = doc.render_pretty();
    for expected in [
        "core::grid::GridRunner::run_cells",
        "core::resilience::ResilienceSession::call",
        "core::hier::HierWorkload::run",
        "core::eval",
    ] {
        assert!(rendered.contains(expected), "call graph is missing `{expected}`");
    }
}
