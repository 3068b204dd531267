//! `taxoglimpse-lint` — the in-tree determinism & soundness linter.
//!
//! The workspace's credibility rests on byte-identical artifacts:
//! reports are digested (`reports_digest`), datasets replayed, and the
//! parallel grid proven equal to sequential. This crate enforces the
//! invariants behind those guarantees mechanically on every PR:
//!
//! | rule | invariant |
//! |------|-----------|
//! | D001 | no `HashMap`/`HashSet` in deterministic code — ordered containers or a justified suppression |
//! | D002 | no `SystemTime::now`/`Instant::now`/`RandomState` outside `crates/bench` and `#[cfg(test)]` |
//! | D003 | no `.unwrap()` / context-free `.expect(…)` in library code |
//! | D004 | no `thread_local!`: results must not depend on which worker ran a question |
//! | C001 | atomic `Ordering`, `unsafe`, `static mut` need adjacent justification comments |
//! | C002 | no `thread::scope`/`thread::spawn` outside `crates/core/src/grid.rs` |
//! | M001 | no bare `_` arm over project enums in scoring/parse matches |
//! | Q001 | no `Query::new` outside `crates/core/src/grid.rs` and `crates/core/src/serve/mod.rs` |
//! | U001 | `lint:allow` annotations must parse and must fire |
//! | D101 | deterministic roots must not *transitively* reach a D001/D002 source |
//! | L001 | the workspace lock-order graph must be acyclic |
//! | L002 | no model call (`answer`/`answer_batch`) while a lock is held |
//! | P001 | no panic-family site reachable from a public library entry point |
//! | S001 | the linter's own path registries must track the workspace |
//!
//! The first nine are token-local. The interprocedural rules run over a
//! workspace call graph built by [`parser`] (item-level, no expression
//! AST) and [`graph`] (name/type-based call resolution); see [`passes`]
//! for the propagation algorithms and DESIGN.md §10 for the soundness
//! trade-offs.
//!
//! Findings can be suppressed inline with `// lint:allow(<rule>, <reason>)`
//! as the comment's leading content — on the offending line (trailing)
//! or the line above (own-line). Suppressions that never fire are
//! themselves findings, so dead annotations cannot accumulate.
//!
//! The analysis is token-based (see [`lexer`]): trigger words inside
//! string literals, raw strings, char literals, or comments never fire.

use std::collections::BTreeSet;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

pub mod context;
pub mod findings;
pub mod graph;
pub mod lexer;
pub mod parser;
pub mod passes;
pub mod rules;

use context::{AllowLedger, SourceFile};
pub use findings::{
    explain_rule, validate_report, Finding, LintReport, SchemaError, PASSES, RULES,
    SCHEMA_VERSION,
};
pub use graph::CallGraph;

/// An I/O failure while walking or reading the workspace.
#[derive(Debug)]
pub struct LintError {
    /// The path being read when the error occurred.
    pub path: PathBuf,
    /// The underlying I/O error.
    pub source: io::Error,
}

impl fmt::Display for LintError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}: {}", self.path.display(), self.source)
    }
}

impl std::error::Error for LintError {}

/// Lint in-memory `(rel_path, source)` pairs — the entry point fixture
/// tests use, and the core `lint_workspace` delegates to.
pub fn lint_sources(sources: &[(String, String)]) -> LintReport {
    lint_files(&source_files(sources)).0
}

/// Lint every `.rs` source under `root`'s workspace layout: the root
/// crate's `src/` and `examples/`, plus each `crates/*/src/`. Test
/// trees (`tests/`, `benches/`) are out of scope by construction.
pub fn lint_workspace(root: &Path) -> Result<LintReport, LintError> {
    Ok(lint_sources(&collect_workspace_sources(root)?))
}

/// [`lint_workspace`] and, from the same scan, the workspace call graph
/// the interprocedural passes ran over, rendered as graph schema v1
/// JSON (what `--graph` writes).
pub fn lint_workspace_with_graph(root: &Path) -> Result<(LintReport, String), LintError> {
    let sources = collect_workspace_sources(root)?;
    let files = source_files(&sources);
    let (report, graph) = lint_files(&files);
    Ok((report, graph.to_json(&files).render_pretty() + "\n"))
}

fn source_files(sources: &[(String, String)]) -> Vec<SourceFile> {
    sources.iter().map(|(path, src)| SourceFile::new(path, src)).collect()
}

/// Run every rule over `files`; returns the report and the call graph.
fn lint_files(files: &[SourceFile]) -> (LintReport, CallGraph) {
    // Pass 1: project-wide facts — enum names for M001, suppression
    // registrations for U001.
    let mut enums = BTreeSet::new();
    let mut ledger = AllowLedger::default();
    for f in files {
        rules::collect_enums(f, &mut enums);
        ledger.register(f);
    }

    // Pass 2: per-file token rules.
    let mut findings = Vec::new();
    for f in files {
        rules::run_rules(f, &enums, &mut ledger, &mut findings);
    }

    // Pass 3: interprocedural — parse items, build the call graph, run
    // the reachability and lock passes over it.
    let parsed: Vec<parser::ParsedFile> = files.iter().map(parser::parse_items).collect();
    let graph = CallGraph::build(files, &parsed);
    passes::run_passes(files, &graph, &mut ledger, &mut findings);

    // Pass 4: the linter checks itself, then surfaces allows that never
    // fired.
    rules::self_check(files, &mut findings);
    rules::unused_allow_findings(&ledger, &mut findings);

    let mut report = LintReport {
        findings,
        files_scanned: files.len(),
        allows_used: ledger.used_count(),
    };
    report.sort();
    (report, graph)
}

/// Read every in-scope `.rs` file under `root` as `(rel_path, text)`.
pub fn collect_workspace_sources(
    root: &Path,
) -> Result<Vec<(String, String)>, LintError> {
    let mut rel_paths = Vec::new();
    collect_rs_files(root, &root.join("src"), &mut rel_paths)?;
    collect_rs_files(root, &root.join("examples"), &mut rel_paths)?;
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut members: Vec<PathBuf> = read_dir_sorted(&crates_dir)?
            .into_iter()
            .filter(|p| p.is_dir())
            .collect();
        members.sort();
        for member in members {
            collect_rs_files(root, &member.join("src"), &mut rel_paths)?;
        }
    }
    rel_paths.sort();

    let mut sources = Vec::with_capacity(rel_paths.len());
    for rel in rel_paths {
        let abs = root.join(&rel);
        let text = fs::read_to_string(&abs)
            .map_err(|source| LintError { path: abs.clone(), source })?;
        sources.push((rel.replace('\\', "/"), text));
    }
    Ok(sources)
}

/// Recursively gather `.rs` files under `dir` as root-relative paths.
fn collect_rs_files(
    root: &Path,
    dir: &Path,
    out: &mut Vec<String>,
) -> Result<(), LintError> {
    if !dir.is_dir() {
        return Ok(());
    }
    for entry in read_dir_sorted(dir)? {
        if entry.is_dir() {
            collect_rs_files(root, &entry, out)?;
        } else if entry.extension().is_some_and(|e| e == "rs") {
            let rel = entry.strip_prefix(root).unwrap_or(&entry);
            out.push(rel.to_string_lossy().replace('\\', "/"));
        }
    }
    Ok(())
}

/// `read_dir` with deterministic (sorted) order.
fn read_dir_sorted(dir: &Path) -> Result<Vec<PathBuf>, LintError> {
    let iter = fs::read_dir(dir)
        .map_err(|source| LintError { path: dir.to_path_buf(), source })?;
    let mut entries = Vec::new();
    for entry in iter {
        let entry = entry.map_err(|source| LintError { path: dir.to_path_buf(), source })?;
        entries.push(entry.path());
    }
    entries.sort();
    Ok(entries)
}
