//! Fixture corpus for the linter: known-bad and known-good snippets per
//! rule, including the tricky cases the tokenizer exists for — trigger
//! words inside string literals, doc comments, and raw-string spans.

use taxoglimpse_lint::{lint_sources, Finding, LintReport};

fn lint_one(rel_path: &str, source: &str) -> LintReport {
    lint_sources(&[(rel_path.to_owned(), source.to_owned())])
}

fn rules_of(report: &LintReport) -> Vec<&'static str> {
    report.findings.iter().map(|f| f.rule).collect()
}

// ---------------------------------------------------------------- D001

#[test]
fn d001_flags_hashmap_and_hashset_in_code() {
    let report = lint_one(
        "crates/x/src/lib.rs",
        "use std::collections::HashMap;\nfn f() { let s: HashSet<u32> = HashSet::new(); }\n",
    );
    assert_eq!(rules_of(&report), ["D001", "D001", "D001"]);
    assert_eq!(report.findings[0].line, 1);
}

#[test]
fn d001_ignores_hashmap_in_string_literal() {
    let report = lint_one(
        "crates/x/src/lib.rs",
        "fn f() -> &'static str { \"prefer HashMap over BTreeMap, says this string\" }\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn d001_ignores_hashmap_in_raw_string_span() {
    // The raw string contains quotes and spans lines; nothing in it is
    // code, including the `HashMap::new()` spelled inside.
    let src = "fn f() -> &'static str {\n    r#\"let m = HashMap::new(); // \"quoted\" HashSet\n       still the same HashMap literal\"#\n}\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn d001_ignores_hashmap_in_comments() {
    let report = lint_one(
        "crates/x/src/lib.rs",
        "/// Unlike a HashMap, this is ordered.\n// HashSet would be wrong here.\n/* and a HashMap in a block comment */\nfn f() {}\n",
    );
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn d001_skips_cfg_test_modules() {
    let src = "fn f() {}\n\n#[cfg(test)]\nmod tests {\n    use std::collections::HashMap;\n    #[test]\n    fn t() { let _m: HashMap<u8, u8> = HashMap::new(); }\n}\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

// ---------------------------------------------------------------- D002

#[test]
fn d002_flags_clock_and_entropy_sources() {
    let src = "fn f() {\n    let t = std::time::Instant::now();\n    let s = SystemTime::now();\n    let h: std::collections::hash_map::RandomState = Default::default();\n}\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    assert_eq!(rules_of(&report), ["D002", "D002", "D002"]);
}

#[test]
fn d002_exempts_crates_bench() {
    let src = "fn f() { let t = Instant::now(); }\n";
    let report = lint_one("crates/bench/src/bin/table1.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn d002_ignores_instant_without_now() {
    // Mentioning the type (e.g. storing a duration) is fine; only the
    // `::now` entropy source is flagged.
    let report =
        lint_one("crates/x/src/lib.rs", "fn f(t: std::time::Instant) -> Instant { t }\n");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

// ---------------------------------------------------------------- D003

#[test]
fn d003_flags_unwrap_and_short_expect() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() }\nfn g(x: Option<u32>) -> u32 { x.expect(\"oops\") }\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    assert_eq!(rules_of(&report), ["D003", "D003"]);
}

#[test]
fn d003_accepts_contextful_expect() {
    let src = "fn f(x: Option<u32>) -> u32 { x.expect(\"capacity reserved in the constructor\") }\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn d003_ignores_unwrap_in_doc_comment() {
    let src = "/// Calls `x.unwrap()` internally? No: this is only a doc comment.\n/// ```\n/// let y = maybe().unwrap();\n/// ```\nfn f() {}\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn d003_exempts_bins_and_tests() {
    let src = "fn main() { run().unwrap(); }\n";
    assert!(lint_one("crates/x/src/main.rs", src).findings.is_empty());
    assert!(lint_one("crates/x/src/bin/tool.rs", src).findings.is_empty());

    let test_src = "#[cfg(test)]\nmod tests {\n    #[test]\n    fn t() { make().unwrap(); }\n}\n";
    assert!(lint_one("crates/x/src/lib.rs", test_src).findings.is_empty());
}

#[test]
fn d003_ignores_similarly_named_methods() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or(0) }\nfn g(x: Option<u32>) -> u32 { x.unwrap_or_default() }\nfn unwrap(y: u32) -> u32 { y }\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

// ---------------------------------------------------------------- C001

#[test]
fn c001_requires_justification_for_relaxed_ordering() {
    let src = "fn f(c: &AtomicUsize) -> usize { c.fetch_add(1, Ordering::Relaxed) }\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    assert_eq!(rules_of(&report), ["C001"]);
}

#[test]
fn c001_accepts_same_line_or_preceding_comment() {
    let trailing =
        "fn f(c: &AtomicUsize) -> usize { c.fetch_add(1, Ordering::Relaxed) } // counter only\n";
    assert!(lint_one("crates/x/src/lib.rs", trailing).findings.is_empty());

    let above = "fn f(c: &AtomicUsize) -> usize {\n    // Sole coordination point; join publishes the writes.\n    c.fetch_add(1, Ordering::Relaxed)\n}\n";
    assert!(lint_one("crates/x/src/lib.rs", above).findings.is_empty());
}

#[test]
fn c001_flags_unsafe_and_static_mut() {
    let src = "static mut COUNTER: u32 = 0;\nfn f() { unsafe { COUNTER += 1 } }\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    assert_eq!(rules_of(&report), ["C001", "C001"]);
}

#[test]
fn c001_ignores_cmp_ordering_variants() {
    // `std::cmp::Ordering::Less` is not a memory ordering.
    let src = "fn f(a: u32, b: u32) -> Ordering { if a < b { Ordering::Less } else { Ordering::Greater } }\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

// ---------------------------------------------------------------- M001

/// A scoring file plus the enum it matches over, as the engine sees
/// them (the enum may live in a different file).
fn scoring_fixture(match_body: &str) -> LintReport {
    let enum_file = ("crates/core/src/metrics.rs".to_owned(),
        "pub enum Outcome { Correct, Missed, Wrong }\n".to_owned());
    let scoring = format!("fn score(o: Outcome) -> u32 {{\n    match o {{\n{match_body}    }}\n}}\n");
    lint_sources(&[enum_file, ("crates/core/src/eval.rs".to_owned(), scoring)])
}

#[test]
fn m001_flags_bare_wildcard_over_project_enum() {
    let report = scoring_fixture("        Outcome::Correct => 1,\n        _ => 0,\n");
    assert_eq!(rules_of(&report), ["M001"]);
    assert_eq!(report.findings[0].file, "crates/core/src/eval.rs");
}

#[test]
fn m001_accepts_explicit_arms_and_guarded_wildcards() {
    let explicit = scoring_fixture(
        "        Outcome::Correct => 1,\n        Outcome::Missed | Outcome::Wrong => 0,\n",
    );
    assert!(explicit.findings.is_empty(), "{:?}", explicit.findings);

    // `_ if cond` is a deliberate catch — not a bare wildcard.
    let guarded = scoring_fixture(
        "        Outcome::Correct => 1,\n        _ if true => 2,\n        Outcome::Wrong => 0,\n",
    );
    assert!(guarded.findings.is_empty(), "{:?}", guarded.findings);
}

#[test]
fn m001_ignores_matches_without_project_enums() {
    let report = scoring_fixture("        1 => 1,\n        _ => 0,\n");
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

#[test]
fn m001_is_scoped_to_scoring_and_parse_paths() {
    let enum_file =
        ("crates/core/src/metrics.rs".to_owned(), "pub enum Outcome { A, B }\n".to_owned());
    let elsewhere = ("crates/report/src/table.rs".to_owned(),
        "fn f(o: Outcome) -> u32 { match o { Outcome::A => 1, _ => 0 } }\n".to_owned());
    let report = lint_sources(&[enum_file, elsewhere]);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

// ------------------------------------------------- C002 / D004 / Q001

/// `(rule, offending statement, the file allowed to contain it)`. D004
/// has no allowed file.
const SOURCE_INVARIANTS: [(&str, &str, Option<&str>); 4] = [
    ("C002", "std::thread::scope(|s| { s.spawn(|| 1); });", Some("crates/core/src/grid.rs")),
    ("C002", "let h = thread::spawn(|| 1);", Some("crates/core/src/grid.rs")),
    ("D004", "thread_local! { static MEMO: u32 = 0; }", None),
    ("Q001", "let q = Query::new(\"p\", &question, setting);", Some("crates/core/src/serve/mod.rs")),
];

#[test]
fn source_invariants_fire_in_library_binary_and_example_code() {
    for (rule, stmt, _) in SOURCE_INVARIANTS {
        let src = format!("fn f() {{\n    {stmt}\n}}\n");
        for path in ["crates/x/src/lib.rs", "crates/bench/src/bin/tool.rs", "examples/demo.rs"] {
            let report = lint_one(path, &src);
            assert_eq!(rules_of(&report), [rule], "{path}: {stmt}");
            assert_eq!(report.findings[0].line, 2, "{path}: {stmt}");
        }
    }
}

#[test]
fn source_invariants_are_silent_in_their_allowed_files() {
    for (rule, stmt, allowed) in SOURCE_INVARIANTS {
        let src = format!("fn f() {{\n    {stmt}\n}}\n");
        match allowed {
            Some(path) => {
                let report = lint_one(path, &src);
                assert!(report.findings.is_empty(), "{rule} in {path}: {:?}", report.findings);
            }
            // No file may keep per-thread state, not even the pool.
            None => assert_eq!(rules_of(&lint_one("crates/core/src/grid.rs", &src)), [rule]),
        }
    }
    // grid.rs may build a Query as well as start threads.
    let src = "fn f() { let q = Query::new(p, q, s); }\n";
    assert!(lint_one("crates/core/src/grid.rs", src).findings.is_empty());
}

#[test]
fn source_invariants_ignore_comments_and_strings() {
    for (_, stmt, _) in SOURCE_INVARIANTS {
        let quoted = stmt.replace('"', "\\\"");
        let src = format!(
            "/// Never `{stmt}` here.\n// {stmt}\n/* {stmt} */\nfn f() -> (&'static str, &'static str) {{\n    (\"{quoted}\", r#\"{stmt}\n{stmt}\"#)\n}}\n"
        );
        let report = lint_one("crates/x/src/lib.rs", &src);
        assert!(report.findings.is_empty(), "{src}\n{:?}", report.findings);
    }
}

#[test]
fn source_invariants_skip_cfg_test_items() {
    for (_, stmt, _) in SOURCE_INVARIANTS {
        let src = format!(
            "fn f() {{}}\n\n#[cfg(test)]\nmod tests {{\n    #[test]\n    fn t() {{\n        {stmt}\n    }}\n}}\n\n#[cfg(test)]\nfn helper() {{ {stmt} }}\n"
        );
        let report = lint_one("crates/x/src/lib.rs", &src);
        assert!(report.findings.is_empty(), "{stmt}: {:?}", report.findings);
    }
}

#[test]
fn source_invariants_fire_after_a_cfg_test_module() {
    // A test module ends at its closing brace, not at the end of the
    // file: library code below it is checked like any other.
    for (rule, stmt, _) in SOURCE_INVARIANTS {
        let src = format!(
            "#[cfg(test)]\nmod tests {{\n    fn t() {{ {stmt} }}\n}}\n\nfn f() {{\n    {stmt}\n}}\n"
        );
        let report = lint_one("crates/x/src/lib.rs", &src);
        assert_eq!(rules_of(&report), [rule], "{stmt}");
        assert_eq!(report.findings[0].line, 7, "{stmt}");
    }
}

// ------------------------------------------------------- suppressions

#[test]
fn allow_suppresses_trailing_and_own_line() {
    let src = "// lint:allow(D001, interning cache is never iterated)\nuse std::collections::HashMap;\nfn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(D003, demo)\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
    assert_eq!(report.allows_used, 2);
}

#[test]
fn allow_for_wrong_rule_does_not_suppress() {
    let src = "fn f(x: Option<u32>) -> u32 { x.unwrap() } // lint:allow(D001, wrong rule)\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    // The D003 finding stands, and the D001 allow is unused → U001.
    assert_eq!(rules_of(&report), ["D003", "U001"]);
}

#[test]
fn unused_allow_is_flagged() {
    let src = "// lint:allow(D003, nothing here unwraps)\nfn f() -> u32 { 1 }\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    assert_eq!(rules_of(&report), ["U001"]);
    assert!(report.findings[0].message.contains("unused suppression"));
    assert_eq!(report.allows_used, 0);
}

#[test]
fn malformed_allow_is_flagged() {
    let src = "// lint:allow D003 forgot the parens\nfn f(x: Option<u32>) -> u32 { x.unwrap() }\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    // Malformed annotation cannot suppress: both U001 and D003 fire.
    assert_eq!(rules_of(&report), ["U001", "D003"]);
}

#[test]
fn prose_mention_of_lint_allow_is_not_an_annotation() {
    let src = "/// Suppressions use `lint:allow(D003, reason)` as described in DESIGN.md.\nfn f() -> u32 { 1 }\n";
    let report = lint_one("crates/x/src/lib.rs", src);
    assert!(report.findings.is_empty(), "{:?}", report.findings);
}

// ------------------------------------------------------------- report

#[test]
fn findings_are_sorted_and_json_schema_valid() {
    let sources = vec![
        ("crates/b/src/lib.rs".to_owned(), "fn f(x: Option<u8>) -> u8 { x.unwrap() }\n".to_owned()),
        ("crates/a/src/lib.rs".to_owned(), "use std::collections::HashMap;\n".to_owned()),
    ];
    let report = lint_sources(&sources);
    let files: Vec<&str> = report.findings.iter().map(|f| f.file.as_str()).collect();
    assert_eq!(files, ["crates/a/src/lib.rs", "crates/b/src/lib.rs"]);
    assert_eq!(report.files_scanned, 2);

    let text = report.to_json().render_pretty();
    let doc = taxoglimpse_json::from_str_value(&text).expect("report JSON parses");
    assert_eq!(taxoglimpse_lint::validate_report(&doc).expect("schema-valid"), 2);

    // Every finding surfaces a snippet of the offending line.
    assert!(report.findings.iter().all(|f: &Finding| !f.snippet.is_empty()));
}
