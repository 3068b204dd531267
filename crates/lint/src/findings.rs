//! Finding and report types, their JSON encoding, the human-readable
//! table, and schema validation for `--validate`.
//!
//! Schema v2 (PR 8) adds two fields to every finding — `pass`, naming
//! the analysis stage that produced it, and `chain`, the propagation
//! path for interprocedural findings (empty for token-local rules).
//! All v1 fields are unchanged.

use std::fmt;

use taxoglimpse_json::{Json, JsonError};

/// Report schema version written into the JSON document; bump on any
/// incompatible change to the finding fields.
pub const SCHEMA_VERSION: u64 = 2;

/// Analysis stages findings can come from; `pass` is validated against
/// this list.
pub const PASSES: &[&str] = &["token", "meta", "reach", "locks", "selfcheck"];

/// Every rule the engine knows, as `(id, summary)` pairs. `U001` is
/// the meta-rule for unused or malformed `lint:allow` annotations,
/// `S001` the self-check for stale rule configuration; neither can be
/// suppressed.
pub const RULES: &[(&str, &str)] = &[
    ("D001", "no HashMap/HashSet in deterministic (serialized/digested) paths; use BTreeMap/BTreeSet or sort at emission"),
    ("D002", "no SystemTime::now/Instant::now/RandomState entropy outside crates/bench and #[cfg(test)]"),
    ("D003", "no unwrap()/short expect() in library code without lint:allow(D003, reason)"),
    ("D004", "no thread_local! state: results must not depend on which worker ran a question"),
    ("C001", "atomic Ordering / unsafe / static mut requires an adjacent justification comment"),
    ("C002", "no thread::scope/thread::spawn outside crates/core/src/grid.rs: grid::run_indexed is the one worker pool"),
    ("M001", "no bare `_` wildcard arm over project enums in scoring/parse matches"),
    ("Q001", "no Query::new outside grid.rs and serve/mod.rs: a single question goes through GridRunner::ask"),
    ("U001", "lint:allow annotation is unused or malformed"),
    ("D101", "deterministic code must not transitively reach a D001/D002 entropy source through any call chain"),
    ("L001", "no cycle in the workspace lock-order graph (AB/BA acquisition patterns deadlock)"),
    ("L002", "no model call (answer/answer_batch) or chunk evaluation while a Mutex guard is held"),
    ("P001", "no panic!/unreachable!/unchecked-op reachable from public library entry points"),
    ("S001", "rule path lists (M001_PATHS, C002_PATHS, Q001_PATHS, D101 roots) must match the workspace on disk"),
];

/// Long-form documentation for `--explain <rule>`: `(id, doc,
/// rationale, failing example, passing example)`.
pub const EXPLAIN: &[(&str, &str, &str, &str, &str)] = &[
    (
        "D001",
        "Unordered hash containers (HashMap/HashSet) are forbidden in non-test code.",
        "Reports, datasets, and bench artifacts are digested byte-for-byte; hash-iteration order is seeded per process and would silently break replay. Use BTreeMap/BTreeSet, or suppress with a reason proving the container never reaches serialized output.",
        "use std::collections::HashMap;\nfn tally() -> HashMap<String, u32> { HashMap::new() }",
        "use std::collections::BTreeMap;\nfn tally() -> BTreeMap<String, u32> { BTreeMap::new() }",
    ),
    (
        "D002",
        "Wall-clock and entropy sources (SystemTime::now, Instant::now, RandomState) are forbidden outside crates/bench.",
        "Every simulated latency, backoff, and fault draw is derived from seeds so reruns are bit-identical; one wall-clock read anywhere in the pipeline breaks that. Benches measure real time, so crates/bench is exempt.",
        "fn stamp() -> std::time::Instant { std::time::Instant::now() }",
        "fn stamp(clock: &VirtualClock) -> f64 { clock.now_s() }",
    ),
    (
        "D003",
        ".unwrap() and context-free .expect(…) are forbidden in library code.",
        "A panic in library code takes down every worker sharing the process; errors must carry enough context to debug a failed replay. expect() with a message of >= 10 chars stating the violated invariant passes; bins and tests are exempt.",
        "fn head(v: &[u32]) -> u32 { *v.first().unwrap() }",
        "fn head(v: &[u32]) -> Option<u32> { v.first().copied() }",
    ),
    (
        "D004",
        "thread_local! is forbidden in non-test code.",
        "Work is spread over grid::run_indexed's workers in whatever order they claim it; a per-thread memo makes a result depend on which worker ran a question, so a rerun with a different thread count can differ. Memoize per question instead (Question::surface, filled by DatasetBuilder).",
        "thread_local! { static MEMO: RefCell<Vec<String>> = RefCell::new(Vec::new()); }",
        "let surface = question.surface(); // memoized on the question itself",
    ),
    (
        "C001",
        "Atomic memory orderings, unsafe blocks, and static mut need an adjacent justification comment.",
        "These constructs encode concurrency contracts the compiler cannot check; the justification comment (same line or the line above) is the reviewable record of why the contract holds.",
        "counter.fetch_add(1, Ordering::Relaxed);",
        "// Relaxed: monotonic counter, no ordering needed.\ncounter.fetch_add(1, Ordering::Relaxed);",
    ),
    (
        "C002",
        "Threads start only in crates/core/src/grid.rs (C002_PATHS): thread::scope and thread::spawn are forbidden elsewhere.",
        "grid::run_indexed is the workspace's one worker pool, byte-identical to a sequential run; grid cells, hier instances and serve prefetch all run on it. A second executor would need its own determinism proof and its own thread-count policy.",
        "fn fan_out(jobs: &[Job]) { std::thread::scope(|s| for j in jobs { s.spawn(|| j.run()); }); }",
        "fn fan_out(jobs: &[Job], threads: usize) -> Vec<Out> { grid::run_indexed(threads, jobs.len(), |i| jobs[i].run()) }",
    ),
    (
        "M001",
        "Bare `_` arms over project enums are forbidden in scoring/parse matches (M001_PATHS files).",
        "When a new Outcome or answer variant is added, every scoring match must be forced to decide how to count it; a wildcard arm silently scores new variants as whatever the default was.",
        "match outcome { Outcome::Correct => 1, _ => 0 }",
        "match outcome { Outcome::Correct => 1, Outcome::Missed | Outcome::Wrong => 0 }",
    ),
    (
        "Q001",
        "Only crates/core/src/grid.rs and crates/core/src/serve/mod.rs (Q001_PATHS) build a Query.",
        "A single question goes through GridRunner::ask (ad-hoc true/false probes come from Question::probe), so it renders, retries, parses and scores exactly like the Tables 5-7 grid. A hand-built Query skips the resilience session and drifts from the grid's answers under faults.",
        "let response = model.answer(&Query::new(&prompt, &question, setting));",
        "let answer = GridRunner::default().ask(model, &question, &[]);",
    ),
    (
        "U001",
        "Every lint:allow annotation must parse and must suppress at least one finding.",
        "Dead suppressions accumulate and hide real regressions: a refactor that moves the offending line leaves the allow behind, silently disarmed. Malformed annotations are flagged so a typo cannot disable a suppression.",
        "// lint:allow(D003, nothing here unwraps)\nfn f() -> u32 { 1 }",
        "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(D003, demo fixture)",
    ),
    (
        "D101",
        "A function reachable from deterministic code must not transitively reach a D001/D002 entropy source.",
        "Token-local rules stop at the call site: a one-line wrapper in an exempt location (crates/bench) launders Instant::now past D002. D101 walks the workspace call graph from the deterministic root set (core eval/parse/metrics/grid/cache/resilience, synth, taxonomy, report) and reports the full propagation chain. Sites carrying a lint:allow(D001/D002) are trusted — their reason documents why the source is safe.",
        "// crates/core/src/eval.rs\nfn score() -> f64 { stamp() }\n// crates/bench/src/util.rs (D002-exempt)\npub fn stamp() -> f64 { elapsed_s(Instant::now()) }",
        "// crates/core/src/eval.rs\nfn score(clock: &VirtualClock) -> f64 { clock.now_s() }",
    ),
    (
        "L001",
        "The workspace lock-order graph must be acyclic.",
        "If one code path acquires lock A then B while another acquires B then A, two threads can deadlock. Held-lock sets are propagated along call edges, so the AB and BA acquisitions may live in different functions or crates and still form the cycle.",
        "fn ab(&self) { let _a = self.a.lock().expect(\"a\"); let _b = self.b.lock().expect(\"b\"); }\nfn ba(&self) { let _b = self.b.lock().expect(\"b\"); let _a = self.a.lock().expect(\"a\"); }",
        "fn ab(&self) { let _a = self.a.lock().expect(\"a\"); let _b = self.b.lock().expect(\"b\"); }\nfn also_ab(&self) { let _a = self.a.lock().expect(\"a\"); let _b = self.b.lock().expect(\"b\"); }",
    ),
    (
        "L002",
        "No model call (answer/answer_batch, or anything that transitively makes one) while a Mutex guard is held.",
        "A model call is the slowest operation in the system; holding a lock across it serializes every worker behind one in-flight request and invites lock-order inversions with the model's own internal locks. Deliberate single-lock wrappers (e.g. a session serializer) suppress with the reason documenting why the hold is the point.",
        "let g = self.stats.lock().expect(\"stats lock\");\nlet r = self.inner.answer(query);",
        "let r = self.inner.answer(query);\nlet mut g = self.stats.lock().expect(\"stats lock\");\ng.record(&r);",
    ),
    (
        "P001",
        "panic!/unreachable!/todo!/unimplemented!/unchecked ops must not be reachable from public library entry points.",
        "D003 stops unwrap() at the token; P001 extends it across calls: a public entry whose callee three frames down can panic is a public entry that panics. Deliberate re-panics (worker panic propagation) and impossible-by-construction arms suppress with the reason. Library unwrap()/expect() stay D003's business.",
        "pub fn entry() { helper() }\nfn helper() { panic!(\"boom\") }",
        "pub fn entry() -> Result<(), Error> { helper() }\nfn helper() -> Result<(), Error> { Err(Error::Boom) }",
    ),
    (
        "S001",
        "Hand-maintained rule path lists must match the workspace.",
        "M001_PATHS, C002_PATHS, Q001_PATHS and the D101 root set are lists of files; when a file is renamed or a new core module starts matching over Outcome/Metrics, a stale list silently skips it (or, for C002/Q001, flags the renamed file). S001 fails --check on the drift: listed paths must exist, and every core file matching over Outcome/Metrics must be listed.",
        "// M001_PATHS lists crates/core/src/scores.rs, but the file was renamed to eval.rs",
        "// M001_PATHS lists exactly the on-disk scoring files, including every new one",
    ),
];

/// One lint finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// Rule id (`D001`…).
    pub rule: &'static str,
    /// Human explanation of this particular occurrence.
    pub message: String,
    /// Short source excerpt around the offending token.
    pub snippet: String,
    /// Analysis stage that produced the finding (see [`PASSES`]).
    pub pass: &'static str,
    /// Propagation chain for interprocedural findings, outermost
    /// context first; empty for token-local rules.
    pub chain: Vec<String>,
}

/// The result of linting a set of sources.
#[derive(Debug, Default)]
pub struct LintReport {
    /// All findings, sorted by (file, line, rule).
    pub findings: Vec<Finding>,
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Number of `lint:allow` annotations that suppressed a finding.
    pub allows_used: usize,
}

impl LintReport {
    /// Canonical ordering so output bytes are stable run-to-run.
    pub fn sort(&mut self) {
        self.findings.sort_by(|a, b| {
            (a.file.as_str(), a.line, a.rule, &a.chain)
                .cmp(&(b.file.as_str(), b.line, b.rule, &b.chain))
        });
    }

    /// The machine-readable document `--json` writes.
    pub fn to_json(&self) -> Json {
        Json::obj(vec![
            ("schema_version", Json::U64(SCHEMA_VERSION)),
            (
                "rules",
                Json::Arr(
                    RULES
                        .iter()
                        .map(|(id, summary)| {
                            Json::obj(vec![
                                ("id", Json::Str((*id).to_owned())),
                                ("summary", Json::Str((*summary).to_owned())),
                            ])
                        })
                        .collect(),
                ),
            ),
            ("files_scanned", Json::U64(self.files_scanned as u64)),
            ("allows_used", Json::U64(self.allows_used as u64)),
            (
                "findings",
                Json::Arr(
                    self.findings
                        .iter()
                        .map(|f| {
                            Json::obj(vec![
                                ("file", Json::Str(f.file.clone())),
                                ("line", Json::U64(u64::from(f.line))),
                                ("rule", Json::Str(f.rule.to_owned())),
                                ("pass", Json::Str(f.pass.to_owned())),
                                ("message", Json::Str(f.message.clone())),
                                ("snippet", Json::Str(f.snippet.clone())),
                                (
                                    "chain",
                                    Json::Arr(
                                        f.chain
                                            .iter()
                                            .map(|link| Json::Str(link.clone()))
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The human-readable table printed to stdout.
    pub fn render_table(&self) -> String {
        let mut out = String::new();
        if self.findings.is_empty() {
            out.push_str(&format!(
                "lint: clean — {} files scanned, {} allow(s) used\n",
                self.files_scanned, self.allows_used
            ));
            return out;
        }
        let loc_width = self
            .findings
            .iter()
            .map(|f| f.file.len() + 1 + digits(f.line))
            .max()
            .unwrap_or(8)
            .max("location".len());
        out.push_str(&format!("{:<loc_width$}  {:<4}  finding\n", "location", "rule"));
        out.push_str(&format!("{:-<loc_width$}  {:-<4}  {:-<40}\n", "", "", ""));
        for f in &self.findings {
            let loc = format!("{}:{}", f.file, f.line);
            out.push_str(&format!("{loc:<loc_width$}  {:<4}  {}\n", f.rule, f.message));
            if !f.chain.is_empty() {
                out.push_str(&format!(
                    "{:<loc_width$}        chain: {}\n",
                    "",
                    f.chain.join(" → ")
                ));
            }
            if !f.snippet.is_empty() {
                out.push_str(&format!("{:<loc_width$}        | {}\n", "", f.snippet));
            }
        }
        out.push_str(&format!(
            "\nlint: {} finding(s) in {} files scanned, {} allow(s) used\n",
            self.findings.len(),
            self.files_scanned,
            self.allows_used
        ));
        out
    }
}

fn digits(mut n: u32) -> usize {
    let mut d = 1;
    while n >= 10 {
        n /= 10;
        d += 1;
    }
    d
}

/// Render the `--explain` text for `rule`, or `None` if unknown.
pub fn explain_rule(rule: &str) -> Option<String> {
    let (id, doc, rationale, fail, pass) =
        EXPLAIN.iter().find(|(id, ..)| *id == rule)?;
    let summary = RULES
        .iter()
        .find(|(rid, _)| rid == id)
        .map(|(_, s)| *s)
        .unwrap_or_default();
    let mut out = String::new();
    out.push_str(&format!("{id} — {summary}\n\n"));
    out.push_str(&format!("{doc}\n\nWhy: {rationale}\n\nFails:\n"));
    for line in fail.lines() {
        out.push_str(&format!("    {line}\n"));
    }
    out.push_str("\nPasses:\n");
    for line in pass.lines() {
        out.push_str(&format!("    {line}\n"));
    }
    Some(out)
}

/// A schema violation reported by [`validate_report`].
#[derive(Debug)]
pub struct SchemaError(pub String);

impl fmt::Display for SchemaError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl From<JsonError> for SchemaError {
    fn from(e: JsonError) -> SchemaError {
        SchemaError(e.to_string())
    }
}

/// Check that `doc` is a well-formed lint report (the shape
/// [`LintReport::to_json`] writes). Returns the number of findings.
pub fn validate_report(doc: &Json) -> Result<usize, SchemaError> {
    let version = doc
        .field("schema_version")?
        .as_u64()
        .ok_or_else(|| SchemaError("schema_version must be a non-negative integer".into()))?;
    if version != SCHEMA_VERSION {
        return Err(SchemaError(format!(
            "schema_version {version} unsupported (expected {SCHEMA_VERSION})"
        )));
    }
    let rules = doc
        .field("rules")?
        .as_arr()
        .ok_or_else(|| SchemaError("rules must be an array".into()))?;
    for (i, rule) in rules.iter().enumerate() {
        for key in ["id", "summary"] {
            if rule.get(key).and_then(Json::as_str).is_none() {
                return Err(SchemaError(format!("rules[{i}].{key} must be a string")));
            }
        }
    }
    for key in ["files_scanned", "allows_used"] {
        if doc.field(key)?.as_u64().is_none() {
            return Err(SchemaError(format!("{key} must be a non-negative integer")));
        }
    }
    let findings = doc
        .field("findings")?
        .as_arr()
        .ok_or_else(|| SchemaError("findings must be an array".into()))?;
    let known: Vec<&str> = RULES.iter().map(|(id, _)| *id).collect();
    for (i, f) in findings.iter().enumerate() {
        for key in ["file", "rule", "message", "snippet", "pass"] {
            if f.get(key).and_then(Json::as_str).is_none() {
                return Err(SchemaError(format!("findings[{i}].{key} must be a string")));
            }
        }
        if f.field("line")?.as_u64().is_none() {
            return Err(SchemaError(format!("findings[{i}].line must be a non-negative integer")));
        }
        let rule = f.get("rule").and_then(Json::as_str).unwrap_or_default();
        if !known.contains(&rule) {
            return Err(SchemaError(format!("findings[{i}].rule `{rule}` is not a known rule")));
        }
        let pass = f.get("pass").and_then(Json::as_str).unwrap_or_default();
        if !PASSES.contains(&pass) {
            return Err(SchemaError(format!("findings[{i}].pass `{pass}` is not a known pass")));
        }
        let chain = f
            .field("chain")?
            .as_arr()
            .ok_or_else(|| SchemaError(format!("findings[{i}].chain must be an array")))?;
        if chain.iter().any(|link| link.as_str().is_none()) {
            return Err(SchemaError(format!("findings[{i}].chain must contain only strings")));
        }
    }
    Ok(findings.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_report() -> LintReport {
        LintReport {
            findings: vec![
                Finding {
                    file: "crates/x/src/lib.rs".into(),
                    line: 7,
                    rule: "D001",
                    message: "HashMap iterated into serialized output".into(),
                    snippet: "for (k, v) in map.iter() {".into(),
                    pass: "token",
                    chain: Vec::new(),
                },
                Finding {
                    file: "crates/x/src/lib.rs".into(),
                    line: 11,
                    rule: "D101",
                    message: "entropy source reachable from deterministic code".into(),
                    snippet: "Instant::now()".into(),
                    pass: "reach",
                    chain: vec!["eval::score".into(), "util::stamp".into(), "Instant::now".into()],
                },
            ],
            files_scanned: 3,
            allows_used: 1,
        }
    }

    #[test]
    fn json_roundtrip_validates() {
        let doc = sample_report().to_json();
        let text = doc.render_pretty();
        let parsed = taxoglimpse_json::from_str_value(&text).expect("report JSON reparses");
        assert_eq!(validate_report(&parsed).expect("schema-valid"), 2);
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut doc = sample_report().to_json();
        if let Json::Obj(fields) = &mut doc {
            for (k, v) in fields.iter_mut() {
                if k == "schema_version" {
                    *v = Json::U64(99);
                }
            }
        }
        assert!(validate_report(&doc).is_err());

        let empty = Json::obj(vec![]);
        assert!(validate_report(&empty).is_err());

        let mut bad_rule = sample_report();
        bad_rule.findings[0].rule = "Z999";
        assert!(validate_report(&bad_rule.to_json()).is_err());

        let mut bad_pass = sample_report();
        bad_pass.findings[0].pass = "vibes";
        assert!(validate_report(&bad_pass.to_json()).is_err());
    }

    #[test]
    fn table_mentions_every_finding_and_chain() {
        let table = sample_report().render_table();
        assert!(table.contains("crates/x/src/lib.rs:7"));
        assert!(table.contains("D001"));
        assert!(table.contains("chain: eval::score → util::stamp → Instant::now"));
        assert!(table.contains("2 finding(s)"));
    }

    #[test]
    fn explain_covers_every_rule() {
        for (id, _) in RULES {
            let text = explain_rule(id).expect("every rule has explain text");
            assert!(text.contains(id), "{id}");
            assert!(text.contains("Fails:"), "{id}");
            assert!(text.contains("Passes:"), "{id}");
        }
        assert!(explain_rule("Z999").is_none());
    }

    #[test]
    fn sort_orders_by_file_line_rule() {
        let mk = |file: &str, line: u32, rule: &'static str| Finding {
            file: file.into(),
            line,
            rule,
            message: String::new(),
            snippet: String::new(),
            pass: "token",
            chain: Vec::new(),
        };
        let mut report = LintReport {
            findings: vec![mk("b.rs", 1, "D001"), mk("a.rs", 9, "M001"), mk("a.rs", 9, "D003")],
            files_scanned: 2,
            allows_used: 0,
        };
        report.sort();
        let order: Vec<(String, u32, &str)> =
            report.findings.iter().map(|f| (f.file.clone(), f.line, f.rule)).collect();
        assert_eq!(order, [
            ("a.rs".to_owned(), 9, "D003"),
            ("a.rs".to_owned(), 9, "M001"),
            ("b.rs".to_owned(), 1, "D001"),
        ]);
    }
}
