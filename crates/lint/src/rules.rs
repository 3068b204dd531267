//! The rule engine: D001/D002/D003/D004/C001/C002/M001/Q001 over a
//! lexed file, plus the U001 meta-rule for unused or malformed
//! suppressions.
//!
//! Every matcher works on the token stream, never the raw text, so a
//! trigger word inside a string literal or comment can never fire.

use std::collections::BTreeSet;

use crate::context::{AllowLedger, SourceFile};
use crate::findings::Finding;
use crate::lexer::{Token, TokenKind};

/// Files whose `match` expressions score or parse model output; M001
/// keeps their arms exhaustive over project enums.
pub const M001_PATHS: &[&str] = &[
    "crates/core/src/eval.rs",
    "crates/core/src/parse.rs",
    "crates/core/src/metrics.rs",
    "crates/core/src/casestudy.rs",
    "crates/core/src/hybrid.rs",
    "crates/core/src/hier.rs",
    "crates/core/src/workload.rs",
    "crates/core/src/resilience.rs",
    "crates/core/src/cache.rs",
    "crates/core/src/serve/mod.rs",
    "crates/core/src/serve/admission.rs",
    "crates/core/src/serve/batcher.rs",
    "crates/core/src/serve/sim.rs",
    "crates/core/src/serve/traffic.rs",
    "crates/llm/src/faults.rs",
];

/// Files that may start threads (C002): `grid::run_indexed`'s pool.
pub const C002_PATHS: &[&str] = &["crates/core/src/grid.rs"];

/// Files that may build a `Query` (Q001): the grid runner and serving.
pub const Q001_PATHS: &[&str] = &["crates/core/src/grid.rs", "crates/core/src/serve/mod.rs"];

/// Minimum `expect("…")` message length D003 accepts as "carrying
/// context"; anything shorter reads as a bare assertion.
const MIN_EXPECT_CONTEXT: usize = 10;

/// Collect the names of enums declared in `file` (for M001's notion of
/// a "project enum").
pub fn collect_enums(file: &SourceFile, into: &mut BTreeSet<String>) {
    let toks = &file.lexed.tokens;
    for w in toks.windows(2) {
        if w[0].kind == TokenKind::Ident
            && w[0].text == "enum"
            && w[1].kind == TokenKind::Ident
        {
            into.insert(w[1].text.clone());
        }
    }
}

/// Run every rule over `file`, appending unsuppressed findings.
pub fn run_rules(
    file: &SourceFile,
    enums: &BTreeSet<String>,
    ledger: &mut AllowLedger,
    findings: &mut Vec<Finding>,
) {
    let is_bench = file.rel_path.starts_with("crates/bench/");
    let is_bin = file.rel_path.contains("/src/bin/") || file.rel_path.ends_with("src/main.rs");

    let mut emit = |rule: &'static str, line: u32, message: String| {
        if file.in_test(line) || ledger.try_suppress(&file.rel_path, rule, line) {
            return;
        }
        findings.push(Finding {
            file: file.rel_path.clone(),
            line,
            rule,
            message,
            snippet: file.snippet(line),
            pass: "token",
            chain: Vec::new(),
        });
    };

    let toks = &file.lexed.tokens;
    for (i, t) in toks.iter().enumerate() {
        if t.kind != TokenKind::Ident {
            continue;
        }
        match t.text.as_str() {
            // D001 — unordered containers anywhere in non-test code.
            // The workspace's serialized artifacts are digested byte-
            // for-byte, so ordered containers are the default and every
            // deliberate HashMap needs a lint:allow with its reason.
            "HashMap" | "HashSet" => {
                emit(
                    "D001",
                    t.line,
                    format!(
                        "`{}` in deterministic code — use BTree{} (or suppress with a reason if it provably never reaches serialized output)",
                        t.text,
                        if t.text == "HashMap" { "Map" } else { "Set" },
                    ),
                );
            }
            // D002 — wall-clock / entropy sources outside crates/bench.
            "SystemTime" | "Instant" if !is_bench => {
                if path_call(toks, i, "now") {
                    emit(
                        "D002",
                        t.line,
                        format!("`{}::now` outside crates/bench breaks replayability", t.text),
                    );
                }
            }
            "RandomState" if !is_bench => {
                emit(
                    "D002",
                    t.line,
                    "`RandomState` introduces per-process hash entropy".to_owned(),
                );
            }
            // D003 — bare unwrap / context-free expect in library code.
            "unwrap" if !is_bin => {
                if method_call(toks, i) && next_is(toks, i + 1, "(") && next_is(toks, i + 2, ")")
                {
                    emit(
                        "D003",
                        t.line,
                        "`.unwrap()` in library code — return a typed error or use `.expect(\"<context>\")`"
                            .to_owned(),
                    );
                }
            }
            "expect" if !is_bin => {
                if method_call(toks, i) && next_is(toks, i + 1, "(") {
                    let msg_ok = toks.get(i + 2).is_some_and(|arg| {
                        arg.kind == TokenKind::Str
                            && str_content_len(&arg.text) >= MIN_EXPECT_CONTEXT
                    });
                    if !msg_ok {
                        emit(
                            "D003",
                            t.line,
                            format!(
                                "`.expect(…)` without a context-carrying message (need a string literal of ≥ {MIN_EXPECT_CONTEXT} chars)"
                            ),
                        );
                    }
                }
            }
            // D004 — per-thread state; C002/Q001 — one worker pool and
            // one question path, each confined to its listed files.
            "thread_local" if next_is(toks, i + 1, "!") => {
                let msg = "`thread_local!` ties results to a worker — memoize on the question instead";
                emit("D004", t.line, msg.to_owned());
            }
            "thread" if path_call(toks, i, "scope") || path_call(toks, i, "spawn") => {
                if !C002_PATHS.contains(&file.rel_path.as_str()) {
                    let call = &toks[i + 2].text;
                    emit("C002", t.line, format!("`thread::{call}` outside grid.rs — use `grid::run_indexed`"));
                }
            }
            "Query" if path_call(toks, i, "new") => {
                if !Q001_PATHS.contains(&file.rel_path.as_str()) {
                    let msg = "`Query::new` outside grid.rs and serve/mod.rs — ask through `GridRunner::ask`";
                    emit("Q001", t.line, msg.to_owned());
                }
            }
            // C001 — atomics / unsafe / static mut need adjacent
            // justification comments.
            "Ordering" => {
                const MEMORY_ORDERINGS: [&str; 5] =
                    ["Relaxed", "Acquire", "Release", "AcqRel", "SeqCst"];
                let variant = toks
                    .get(i + 1)
                    .filter(|t| t.text == "::")
                    .and_then(|_| toks.get(i + 2))
                    .filter(|v| MEMORY_ORDERINGS.contains(&v.text.as_str()));
                if let Some(v) = variant {
                    if !justified(file, t.line) {
                        emit(
                            "C001",
                            t.line,
                            format!(
                                "`Ordering::{}` without an adjacent justification comment",
                                v.text
                            ),
                        );
                    }
                }
            }
            "unsafe" => {
                if !justified(file, t.line) {
                    emit(
                        "C001",
                        t.line,
                        "`unsafe` without an adjacent justification comment".to_owned(),
                    );
                }
            }
            "static" => {
                if toks.get(i + 1).is_some_and(|n| n.text == "mut") && !justified(file, t.line) {
                    emit(
                        "C001",
                        t.line,
                        "`static mut` without an adjacent justification comment".to_owned(),
                    );
                }
            }
            // M001 — bare `_` arms over project enums in scoring/parse
            // matches.
            "match" if M001_PATHS.contains(&file.rel_path.as_str()) => {
                for (line, enum_name) in wildcard_arms_over_enums(toks, i, enums) {
                    emit(
                        "M001",
                        line,
                        format!(
                            "bare `_` arm in a match over project enum `{enum_name}` — spell the variants out so new ones must be scored deliberately"
                        ),
                    );
                }
            }
            _ => {}
        }
    }

    // U001 — malformed lint:allow comments.
    for (line, detail) in &file.malformed_allows {
        findings.push(Finding {
            file: file.rel_path.clone(),
            line: *line,
            rule: "U001",
            message: format!("malformed lint:allow annotation: {detail}"),
            snippet: file.snippet(*line),
            pass: "meta",
            chain: Vec::new(),
        });
    }
}

/// Enum names whose appearance in a match *pattern* marks a file as
/// scoring/parse logic that must be listed in [`M001_PATHS`]. `Metrics`
/// is currently a struct, so the entry is future-proofing; `Outcome` is
/// the live scoring enum.
const S001_SCORING_ENUMS: &[&str] = &["Outcome", "Metrics"];

/// S001 — the linter's own registries must track the workspace. Armed
/// only on full-workspace scans (marker: the core crate root is in the
/// scanned set), so fixture and unit scans are unaffected. Two checks:
/// every path in [`M001_PATHS`], [`C002_PATHS`], [`Q001_PATHS`] and
/// the D101 root set exists on disk, and every core file that matches
/// over a scoring enum is listed in [`M001_PATHS`]. Not suppressible: a
/// stale registry silently turns other rules off (or, for an allowlist,
/// on everywhere), which is exactly the drift this rule exists to
/// catch.
pub fn self_check(files: &[SourceFile], findings: &mut Vec<Finding>) {
    if !files.iter().any(|f| f.rel_path == "crates/core/src/lib.rs") {
        return;
    }
    let scanned: BTreeSet<&str> = files.iter().map(|f| f.rel_path.as_str()).collect();

    let listed = M001_PATHS
        .iter()
        .map(|p| ("M001_PATHS", *p))
        .chain(C002_PATHS.iter().map(|p| ("C002_PATHS", *p)))
        .chain(Q001_PATHS.iter().map(|p| ("Q001_PATHS", *p)))
        .chain(crate::passes::D101_ROOT_FILES.iter().map(|p| ("the D101 root set", *p)));
    for (registry, path) in listed {
        if !scanned.contains(path) {
            findings.push(Finding {
                file: path.to_owned(),
                line: 1,
                rule: "S001",
                message: format!(
                    "stale lint registry: `{path}` is listed in {registry} but no longer \
                     exists in the workspace"
                ),
                snippet: String::new(),
                pass: "selfcheck",
                chain: Vec::new(),
            });
        }
    }

    for file in files {
        if !file.rel_path.starts_with("crates/core/src/")
            || M001_PATHS.contains(&file.rel_path.as_str())
        {
            continue;
        }
        let toks = &file.lexed.tokens;
        'file: for (i, t) in toks.iter().enumerate() {
            if t.kind != TokenKind::Ident || t.text != "match" || file.in_test(t.line) {
                continue;
            }
            for arm in match_arms(toks, i) {
                for w in arm.windows(2) {
                    if w[0].kind == TokenKind::Ident
                        && w[1].text == "::"
                        && S001_SCORING_ENUMS.contains(&w[0].text.as_str())
                    {
                        findings.push(Finding {
                            file: file.rel_path.clone(),
                            line: t.line,
                            rule: "S001",
                            message: format!(
                                "this file matches over scoring enum `{}` but is not listed \
                                 in M001_PATHS — add it so M001 guards its arms",
                                w[0].text
                            ),
                            snippet: file.snippet(t.line),
                            pass: "selfcheck",
                            chain: Vec::new(),
                        });
                        break 'file; // one finding per file is enough
                    }
                }
            }
        }
    }
}

/// After all files ran, turn allows that never fired into U001.
pub fn unused_allow_findings(ledger: &AllowLedger, findings: &mut Vec<Finding>) {
    for (file, comment_line, rule) in ledger.unused() {
        findings.push(Finding {
            file: file.to_owned(),
            line: comment_line,
            rule: "U001",
            message: format!(
                "unused suppression: lint:allow({rule}) matched no finding — remove it"
            ),
            snippet: String::new(),
            pass: "meta",
            chain: Vec::new(),
        });
    }
}

/// `true` iff the token before `i` is the method-call dot (so a free fn
/// or a definition named `unwrap`/`expect` is not flagged).
fn method_call(toks: &[Token], i: usize) -> bool {
    i > 0 && toks[i - 1].kind == TokenKind::Punct && toks[i - 1].text == "."
}

/// `true` iff tokens at `i` start `<ident> :: <name>`.
fn path_call(toks: &[Token], i: usize, name: &str) -> bool {
    toks.get(i + 1).is_some_and(|t| t.text == "::")
        && toks.get(i + 2).is_some_and(|t| t.text == name)
}

fn next_is(toks: &[Token], i: usize, text: &str) -> bool {
    toks.get(i).is_some_and(|t| t.text == text)
}

/// Character count of a string literal's content (quotes, raw fences,
/// and prefixes stripped).
fn str_content_len(text: &str) -> usize {
    let Some(open) = text.find('"') else { return 0 };
    let Some(close) = text.rfind('"') else { return 0 };
    if close <= open {
        return 0;
    }
    let inner = &text[open + 1..close];
    // Trim the raw-string closing fence if present (`"..."##` shapes
    // never reach here: rfind already points at the last quote).
    inner.chars().count()
}

/// C001's justification test: a comment on the same line, or an
/// own-line comment immediately above.
fn justified(file: &SourceFile, line: u32) -> bool {
    if file.has_comment_on(line) {
        return true;
    }
    line > 1 && file.has_comment_on(line - 1) && !file.has_code_on(line - 1)
}

/// For the `match` keyword at `match_idx`, return `(line, enum_name)`
/// for every bare `_` arm, when at least one sibling arm mentions a
/// project enum by path.
fn wildcard_arms_over_enums(
    toks: &[Token],
    match_idx: usize,
    enums: &BTreeSet<String>,
) -> Vec<(u32, String)> {
    let arms = match_arms(toks, match_idx);

    // Which enum (if any) do the sibling arms mention by path?
    let mut enum_name = None;
    for arm in &arms {
        for w in arm.windows(2) {
            if w[0].kind == TokenKind::Ident && w[1].text == "::" && enums.contains(&w[0].text)
            {
                enum_name = Some(w[0].text.clone());
            }
        }
    }
    let Some(enum_name) = enum_name else { return Vec::new() };

    arms.iter()
        .filter(|arm| arm.len() == 1 && arm[0].text == "_")
        .map(|arm| (arm[0].line, enum_name.clone()))
        .collect()
}

/// Segment the arm *patterns* of the `match` expression whose keyword
/// sits at `match_idx`. Arm bodies are not returned.
fn match_arms(toks: &[Token], match_idx: usize) -> Vec<Vec<&Token>> {
    // Find the body-opening `{`: the first one at delimiter depth 0
    // after the scrutinee (parens/brackets inside the scrutinee nest).
    let mut j = match_idx + 1;
    let mut depth = 0i32;
    let body_open = loop {
        let Some(t) = toks.get(j) else { return Vec::new() };
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "(" | "[" => depth += 1,
                ")" | "]" => depth -= 1,
                "{" if depth == 0 => break j,
                ";" if depth == 0 => return Vec::new(), // not a match expr
                _ => {}
            }
        }
        j += 1;
    };

    // Segment the arms: pattern tokens run up to a depth-1 `=>`; the
    // arm body ends at a depth-1 `,` or when a block body's `}` closes
    // back to depth 1.
    let mut arms: Vec<Vec<&Token>> = Vec::new();
    let mut pattern: Vec<&Token> = Vec::new();
    let mut in_pattern = true;
    let mut depth = 1i32;
    let mut k = body_open + 1;
    while let Some(t) = toks.get(k) {
        let mut consumed = false;
        if t.kind == TokenKind::Punct {
            match t.text.as_str() {
                "{" | "(" | "[" => depth += 1,
                "}" | ")" | "]" => {
                    depth -= 1;
                    if depth == 0 {
                        break; // end of the match body
                    }
                    if depth == 1 && !in_pattern {
                        in_pattern = true; // block arm body just closed
                        consumed = true;
                    }
                }
                "=>" if depth == 1 && in_pattern => {
                    arms.push(std::mem::take(&mut pattern));
                    in_pattern = false;
                    consumed = true;
                }
                "," if depth == 1 && !in_pattern => {
                    in_pattern = true;
                    consumed = true;
                }
                _ => {}
            }
        }
        if in_pattern && !consumed {
            pattern.push(t);
        }
        k += 1;
    }
    // A non-empty leftover `pattern` means the body closed mid-pattern
    // (malformed input); it is deliberately discarded.
    arms
}
