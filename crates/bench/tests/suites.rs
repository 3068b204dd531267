//! Drives the six `bench_*` suite binaries through `--check`: every
//! committed `BENCH_*.json` passes, one mutation per headline invariant
//! fails with exit 1, and bad arguments fail with exit 2 before any
//! work runs.

use std::path::PathBuf;
use std::process::{Command, Output};
use taxoglimpse_json::{from_str_value, Json, ToJson};

const SUITES: [(&str, &str); 6] = [
    ("eval", env!("CARGO_BIN_EXE_bench_eval")),
    ("synth", env!("CARGO_BIN_EXE_bench_synth")),
    ("resilience", env!("CARGO_BIN_EXE_bench_resilience")),
    ("shard", env!("CARGO_BIN_EXE_bench_shard")),
    ("serve", env!("CARGO_BIN_EXE_bench_serve")),
    ("hier", env!("CARGO_BIN_EXE_bench_hier")),
];

fn bin(suite: &str) -> &'static str {
    SUITES.iter().find(|(name, _)| *name == suite).map(|(_, path)| *path).unwrap()
}

fn committed(suite: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join(format!("../../BENCH_{suite}.json"))
}

fn run(suite: &str, args: &[&str]) -> Output {
    Command::new(bin(suite)).args(args).output().unwrap()
}

/// The node at a dotted path such as `results.0.reports_digest`.
fn at<'a>(mut node: &'a mut Json, path: &str) -> &'a mut Json {
    for step in path.split('.') {
        node = match node {
            Json::Obj(fields) => &mut fields.iter_mut().find(|(k, _)| k == step).unwrap().1,
            Json::Arr(items) => &mut items[step.parse::<usize>().unwrap()],
            _ => panic!("{path} does not match the document shape"),
        };
    }
    node
}

/// Copy the committed document of `suite`, apply `mutate`, and run
/// `--check` on the result.
fn check_mutated(suite: &str, mutate: impl FnOnce(&mut Json)) -> Output {
    let text = std::fs::read_to_string(committed(suite)).unwrap();
    let mut doc = from_str_value(&text).unwrap();
    mutate(&mut doc);
    let path = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("mutated_{suite}.json"));
    std::fs::write(&path, doc.render_pretty()).unwrap();
    run(suite, &["--check", path.to_str().unwrap()])
}

fn assert_exit(output: &Output, code: i32, stderr_has: &str) {
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(code), "stderr: {stderr}");
    assert!(stderr.contains(stderr_has), "expected {stderr_has:?} in stderr: {stderr}");
}

#[test]
fn committed_bench_documents_pass_check() {
    for (suite, _) in SUITES {
        let output = run(suite, &["--check", committed(suite).to_str().unwrap()]);
        assert!(
            output.status.success(),
            "BENCH_{suite}.json: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        assert!(String::from_utf8_lossy(&output.stdout).contains(": OK ("));
    }
}

#[test]
fn each_headline_invariant_rejects_its_mutation() {
    let zero = || "0000000000000000".to_json();
    let cases: [(&str, &str, Json, &str); 5] = [
        ("eval", "results.0.configs.1.reports_digest", zero(), "differs from setting digest"),
        ("resilience", "results.0.reports_digest", zero(), "!= bare_digest"),
        ("shard", "grid.0.entries.1.reports_digest", zero(), "sharding changed report bytes"),
        ("serve", "results.0.availability", 0.5.to_json(), "fault rate 0 availability 0.5 != 1"),
        ("hier", "taxonomies.0.entries.0.metrics.hier_invalid", 1u64.to_json(), "hier_invalid = 1"),
    ];
    for (suite, path, value, error) in cases {
        assert_exit(&check_mutated(suite, |doc| *at(doc, path) = value), 1, error);
    }
    let out = check_mutated("synth", |doc| {
        if let Json::Obj(fields) = at(doc, "results.0") {
            fields.retain(|(k, _)| k != "snap_load_ms");
        }
    });
    assert_exit(&out, 1, "missing \"snap_load_ms\"");
}

#[test]
fn a_flag_the_suite_does_not_declare_exits_two() {
    assert_exit(&run("synth", &["--cap", "5"]), 2, "unknown argument \"--cap\"");
}

#[test]
fn out_of_range_scale_and_zero_repeat_exit_two() {
    assert_exit(&run("hier", &["--scale", "0"]), 2, "--scale must be in (0, 1]");
    assert_exit(&run("shard", &["--big-scale", "nan"]), 2, "--big-scale must be in (0, 1]");
    assert_exit(&run("eval", &["--repeat", "0"]), 2, "--repeat must be at least 1");
}
