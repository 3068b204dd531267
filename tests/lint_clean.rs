//! Tier-1 gate: the workspace must be lint-clean.
//!
//! The one enforcement point for the workspace's source invariants: any
//! unsuppressed finding from the token rules
//! (D001/D002/D003/D004/C001/C002/M001/Q001), the interprocedural
//! passes (D101/L001/L002/P001), the linter's own registry self-check
//! (S001), or a `lint:allow` that no longer fires (U001) fails
//! `cargo test`. The three tests share one lint of the workspace, which
//! also yields the call graph the third inspects.

use std::path::Path;
use std::sync::OnceLock;

use taxoglimpse_lint::LintReport;

const ROOT: &str = env!("CARGO_MANIFEST_DIR");

/// The workspace's lint report and call graph JSON, from one scan.
fn lint() -> &'static (LintReport, String) {
    static LINT: OnceLock<(LintReport, String)> = OnceLock::new();
    LINT.get_or_init(|| {
        taxoglimpse_lint::lint_workspace_with_graph(Path::new(ROOT))
            .expect("workspace sources readable")
    })
}

fn report() -> &'static LintReport {
    &lint().0
}

/// `file: enclosing fn` of every own-line `// lint:allow(` comment in
/// the linted tree outside `crates/lint` (whose fixtures and rule tests
/// spell them out on purpose), in path order.
fn allow_sites() -> Vec<String> {
    let sources =
        taxoglimpse_lint::collect_workspace_sources(Path::new(ROOT)).expect("sources readable");
    let mut sites = Vec::new();
    for (path, text) in sources.iter().filter(|(path, _)| !path.starts_with("crates/lint/")) {
        let mut enclosing = "";
        for line in text.lines().map(str::trim_start) {
            if let Some(after) = line.split("fn ").nth(1).filter(|_| !line.starts_with("//")) {
                enclosing = after.split(|c: char| !c.is_alphanumeric() && c != '_').next().unwrap_or("");
            }
            if line.starts_with("// lint:allow(") {
                sites.push(format!("{path}: {enclosing}"));
            }
        }
    }
    sites
}

#[test]
fn workspace_has_no_lint_findings() {
    let report = report();
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
    assert_eq!(taxoglimpse_lint::SCHEMA_VERSION, 2);
    let text = report().to_json().render_pretty();
    let doc = taxoglimpse::json::from_str_value(&text).expect("report JSON parses");
    let n = taxoglimpse_lint::validate_report(&doc).expect("report JSON is schema-valid");
    assert_eq!(n, report().findings.len());
}

#[test]
fn interprocedural_passes_are_armed_against_this_workspace() {
    // A clean report proves nothing if the new passes never ran. Check
    // the engine end-to-end against the real tree: the triaged P001
    // suppressions must be consumed (so the report stays clean), and the
    // call graph must resolve the evaluation path. L002's detection is
    // covered by `crates/lint/tests/interproc.rs`.
    let report = report();
    assert!(report.findings.is_empty(), "{}", report.render_table());
    assert_eq!(
        allow_sites(),
        ["crates/core/src/casestudy.rs: run", "crates/core/src/grid.rs: run_indexed"],
        "the workspace's `lint:allow` annotations outside the linter moved"
    );
    assert_eq!(
        report.allows_used, 2,
        "expected exactly the two triaged P001 suppressions to fire: the worker-panic \
         re-raise in `grid::run_indexed` and the case study's precondition"
    );

    let doc = taxoglimpse::json::from_str_value(&lint().1).expect("graph JSON parses");
    let rendered = doc.render_pretty();
    for expected in [
        "core::grid::GridRunner::run_cells",
        "core::grid::GridRunner::question_loop",
        "\"core::resilience::ResilienceSession::call_impl\"",
        "core::hier::HierWorkload::run",
        "core::eval",
    ] {
        assert!(rendered.contains(expected), "call graph is missing `{expected}`");
    }
}
