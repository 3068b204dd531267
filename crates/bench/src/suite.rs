//! The one scaffold behind the six `bench_*` suite binaries.
//!
//! A suite binary declares a [`Suite`] (name, schema version, accepted
//! flags, full- and quick-mode defaults) and hands [`main`] two
//! functions: one runs the workload and returns the document body, the
//! other validates a parsed document for `--check`. Everything else
//! lives here: flag parsing ([`parse`]), the
//! `{schema_version, label, workload, …}` envelope and its validation,
//! the exit codes (2 for a bad argument; 1 for a failed check, a write
//! error or a digest divergence), the best-of timing loop
//! ([`time_reps`]), the first-seen digest abort ([`DigestGate`]), the
//! `--check` validator helpers and the workload pieces several suites
//! share.

use std::fmt;
use std::time::Instant;
use taxoglimpse_core::dataset::{Dataset, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_json::{from_str_value, Json, ToJson};
use taxoglimpse_llm::profile::ModelId;

use crate::{build_dataset, next_value, parse_scale, parse_value, RunOptions, TaxonomyCache};

/// Default model subset: one per major family tier, so the workload
/// exercises terse, chatty, and abstention-prone response paths.
pub const DEFAULT_MODELS: [ModelId; 4] =
    [ModelId::Gpt4, ModelId::Gpt35, ModelId::Llama2_7b, ModelId::FlanT5_3b];

/// Flags every suite accepts; [`Suite::flags`] adds the rest.
const COMMON_FLAGS: [&str; 6] = ["--scale", "--seed", "--repeat", "--label", "--out", "--check"];

/// Whether `TAXOGLIMPSE_BENCH_QUICK` (any value but `0`) asks for a
/// smoke-test-sized run.
pub fn quick_mode() -> bool {
    std::env::var("TAXOGLIMPSE_BENCH_QUICK").map(|v| v != "0").unwrap_or(false)
}

/// A suite's workload defaults in one mode (full or quick).
#[derive(Debug, Clone, Copy)]
pub struct Defaults {
    /// `--scale`.
    pub scale: f64,
    /// `--cap`.
    pub cap: Option<usize>,
    /// `--repeat`.
    pub repeat: usize,
    /// `--big-scale` (`bench_shard`).
    pub big_scale: f64,
    /// `--requests` (`bench_serve`).
    pub requests: usize,
    /// `--top-k` (`bench_hier`).
    pub top_k: usize,
}

impl Defaults {
    /// Filler for the fields a suite's flags never read; suites override
    /// the rest with struct-update syntax.
    pub const BASE: Defaults =
        Defaults { scale: 0.1, cap: None, repeat: 1, big_scale: 1.0, requests: 0, top_k: 0 };
}

/// What one suite binary is: its name, document schema, flags and
/// defaults.
#[derive(Debug, Clone, Copy)]
pub struct Suite {
    /// Short name: the binary is `bench_{name}` and writes
    /// `BENCH_{name}.json` unless `--out` says otherwise.
    pub name: &'static str,
    /// `schema_version` the suite writes and `--check` requires.
    pub schema_version: u64,
    /// Flags accepted beyond `--scale --seed --repeat --label --out
    /// --check`: any of `--cap --models --threads --chunk` plus the
    /// suite's own flag.
    pub flags: &'static [&'static str],
    /// Defaults of a measured run.
    pub full: Defaults,
    /// Defaults under `TAXOGLIMPSE_BENCH_QUICK`.
    pub quick: Defaults,
}

/// Parsed suite arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Taxonomy scale in `(0, 1]`.
    pub scale: f64,
    /// Per-level sample cap.
    pub cap: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Models to evaluate.
    pub models: Vec<ModelId>,
    /// Timed reps per measurement (at least 1).
    pub repeat: usize,
    /// Grid worker threads.
    pub threads: usize,
    /// Grid chunk size.
    pub chunk: usize,
    /// Free-form label recorded in the document.
    pub label: String,
    /// Output path.
    pub out: String,
    /// `--check FILE`: validate instead of running.
    pub check: Option<String>,
    /// Whether the quick-mode defaults apply.
    pub quick: bool,
    /// `--baseline FILE` (`bench_eval`).
    pub baseline: Option<String>,
    /// `--big-scale` in `(0, 1]` (`bench_shard`).
    pub big_scale: f64,
    /// `--requests` (`bench_serve`).
    pub requests: usize,
    /// `--top-k` (`bench_hier`).
    pub top_k: usize,
}

impl Args {
    /// The model list as a JSON array of names.
    pub fn models_json(&self) -> Json {
        Json::Arr(self.models.iter().map(|m| m.to_string().to_json()).collect())
    }

    /// The cap as JSON (`null` when uncapped).
    pub fn cap_json(&self) -> Json {
        self.cap.map(|c| (c as u64).to_json()).unwrap_or(Json::Null)
    }
}

/// Parse suite arguments (without `argv[0]`). `--scale/--cap/--seed/--models`
/// go through [`RunOptions`]; a flag neither common to every suite nor
/// in `suite.flags` is an unknown argument.
pub fn parse(
    suite: &Suite,
    quick: bool,
    args: impl IntoIterator<Item = String>,
) -> Result<Args, String> {
    let d = if quick { suite.quick } else { suite.full };
    let mut run = RunOptions { scale: d.scale, cap: d.cap, ..RunOptions::default() };
    let mut o = Args {
        scale: d.scale,
        cap: d.cap,
        seed: run.seed,
        models: Vec::new(),
        repeat: d.repeat,
        threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
        chunk: 256,
        label: "current".to_owned(),
        out: format!("BENCH_{}.json", suite.name),
        check: None,
        quick,
        baseline: None,
        big_scale: d.big_scale,
        requests: d.requests,
        top_k: d.top_k,
    };
    let mut args = args.into_iter();
    while let Some(flag) = args.next() {
        if !COMMON_FLAGS.contains(&flag.as_str()) && !suite.flags.contains(&flag.as_str()) {
            return Err(format!("unknown argument {flag:?}"));
        }
        if run.parse_flag(&flag, &mut args)? {
            continue;
        }
        match flag.as_str() {
            "--repeat" => {
                o.repeat = parse_value(&flag, &mut args)?;
                if o.repeat == 0 {
                    return Err("--repeat must be at least 1".to_owned());
                }
            }
            "--threads" => o.threads = parse_value(&flag, &mut args)?,
            "--chunk" => o.chunk = parse_value(&flag, &mut args)?,
            "--big-scale" => o.big_scale = parse_scale(&flag, &mut args)?,
            "--requests" => o.requests = parse_value(&flag, &mut args)?,
            "--top-k" => o.top_k = parse_value(&flag, &mut args)?,
            "--label" => o.label = next_value(&mut args, &flag)?,
            "--out" => o.out = next_value(&mut args, &flag)?,
            "--check" => o.check = Some(next_value(&mut args, &flag)?),
            "--baseline" => o.baseline = Some(next_value(&mut args, &flag)?),
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    o.scale = run.scale;
    o.cap = run.cap;
    o.seed = run.seed;
    o.models = run.models.unwrap_or_else(|| DEFAULT_MODELS.to_vec());
    Ok(o)
}

/// Run a suite binary. `--check FILE` validates the file's envelope and
/// then hands the document to `check`, whose summary is printed; any
/// other invocation calls `run` for the workload object and the
/// sections after it, and writes
/// `{schema_version, label, workload, sections…}` to `--out`.
pub fn main(
    suite: &Suite,
    run: impl FnOnce(&Args) -> (Json, Vec<(&'static str, Json)>),
    check: impl FnOnce(&Json) -> Result<String, String>,
) {
    let args = parse(suite, quick_mode(), std::env::args().skip(1)).unwrap_or_else(|msg| {
        eprintln!("error: {msg}");
        std::process::exit(2);
    });
    if let Some(path) = &args.check {
        match check_file(suite, path, check) {
            Ok(summary) => println!("{path}: OK ({summary}, schema v{})", suite.schema_version),
            Err(msg) => fail(format_args!("{path}: {msg}")),
        }
        return;
    }
    let (workload, sections) = run(&args);
    let mut fields = vec![
        ("schema_version", suite.schema_version.to_json()),
        ("label", args.label.to_json()),
        ("workload", workload),
    ];
    fields.extend(sections);
    let rendered = Json::obj(fields).render_pretty();
    if let Err(e) = std::fs::write(&args.out, format!("{rendered}\n")) {
        fail(format_args!("{}: {e}", args.out));
    }
    println!("wrote {}", args.out);
}

/// Print `error: {msg}` and exit 1: the suites' abort for a broken
/// invariant or an unusable input.
pub fn fail(msg: impl fmt::Display) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(1);
}

fn check_file(
    suite: &Suite,
    path: &str,
    check: impl FnOnce(&Json) -> Result<String, String>,
) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = from_str_value(&text).map_err(|e| e.to_string())?;
    let version =
        doc.get("schema_version").and_then(Json::as_u64).ok_or("missing schema_version")?;
    if version != suite.schema_version {
        return Err(format!("schema_version {version} (expected {})", suite.schema_version));
    }
    doc.get("label").and_then(Json::as_str).ok_or("missing label")?;
    doc.get("workload").and_then(Json::as_obj).ok_or("missing workload object")?;
    check(&doc)
}

/// Best and mean wall-clock seconds over a measurement's timed reps.
#[derive(Debug, Clone, Copy)]
pub struct Timing {
    /// Fastest rep.
    pub best_s: f64,
    /// Mean over all reps.
    pub mean_s: f64,
}

/// Time `repeat` (at least 1) calls of `f`. Rep 0's result is handed
/// to `first` (for digests and metrics) before the next call, and the
/// last rep's result is returned. Each result is dropped *before* the
/// next timed call: holding a ~100 MB taxonomy across rounds would deny
/// the allocator its pages and charge every round a fresh page-fault
/// bill that no real caller pays.
pub fn time_reps<T>(
    repeat: usize,
    mut f: impl FnMut() -> T,
    first: impl FnOnce(&T),
) -> (Timing, T) {
    let mut first = Some(first);
    let mut best = f64::INFINITY;
    let mut total = 0.0;
    let mut last = None;
    for _ in 0..repeat {
        drop(last.take());
        let start = Instant::now();
        let value = f();
        let elapsed = start.elapsed().as_secs_f64();
        total += elapsed;
        best = best.min(elapsed);
        if let Some(first) = first.take() {
            first(&value);
        }
        last = Some(value);
    }
    let timing = Timing { best_s: best, mean_s: total / repeat as f64 };
    (timing, last.expect("the suite parser rejects --repeat 0"))
}

/// The byte-identity gate of one group of runs: the first digest seen
/// is the reference, and any later digest that differs aborts the run
/// (exit 1) naming both runs, e.g. `8 workers` vs `1 worker`.
#[derive(Debug)]
pub struct DigestGate {
    group: String,
    first: Option<(String, u64)>,
}

impl DigestGate {
    /// A gate for `group` (the prefix of its error message).
    pub fn new(group: impl fmt::Display) -> Self {
        DigestGate { group: group.to_string(), first: None }
    }

    /// Record `digest` for the run named `identity`.
    pub fn check(&mut self, identity: impl fmt::Display, digest: u64) {
        match &self.first {
            None => self.first = Some((identity.to_string(), digest)),
            Some((first_id, first)) if *first != digest => fail(format_args!(
                "{}: digest {digest:016x} at {identity} != {first:016x} at {first_id}",
                self.group
            )),
            Some(_) => {}
        }
    }

    /// The group's digest, once a run has been recorded.
    pub fn digest(&self) -> Option<u64> {
        self.first.as_ref().map(|&(_, d)| d)
    }
}

/// `n` followed by `noun`, pluralised: `1 worker`, `8 workers`.
pub fn counted(n: usize, noun: &str) -> String {
    format!("{n} {noun}{}", if n == 1 { "" } else { "s" })
}

/// A digest as the 16-hex-digit string the documents store.
pub fn hex(digest: u64) -> Json {
    format!("{digest:016x}").to_json()
}

/// `values` as a JSON array of integers.
pub fn uints(values: &[usize]) -> Json {
    Json::Arr(values.iter().map(|&v| (v as u64).to_json()).collect())
}

/// The labels of `kinds` as a JSON array.
pub fn labels(kinds: &[TaxonomyKind]) -> Json {
    Json::Arr(kinds.iter().map(|k| k.label().to_json()).collect())
}

/// The Hard-flavour dataset of every taxonomy at the run's scale, cap
/// and seed, in [`TaxonomyKind::ALL`] order.
pub fn hard_grid(cache: &TaxonomyCache, args: &Args) -> Vec<Dataset> {
    eprintln!("generating {} taxonomies at scale {} ...", TaxonomyKind::ALL.len(), args.scale);
    let run =
        RunOptions { scale: args.scale, cap: args.cap, seed: args.seed, ..RunOptions::default() };
    TaxonomyKind::ALL
        .into_iter()
        .map(|kind| {
            let taxonomy = cache.get(kind, args.seed, args.scale);
            build_dataset(&taxonomy, kind, QuestionDataset::Hard, &run)
        })
        .collect()
}

/// Accepted range of a number [`number`] validates.
#[derive(Debug, Clone, Copy)]
pub enum Range {
    /// Any number.
    Any,
    /// Strictly positive.
    Positive,
    /// Within `[0, 1]`.
    Unit,
    /// At least 1 (with a 1e-9 tolerance).
    AtLeastOne,
}

impl Range {
    fn admits(self, x: f64) -> bool {
        match self {
            Range::Any => true,
            Range::Positive => x > 0.0,
            Range::Unit => (0.0..=1.0).contains(&x),
            Range::AtLeastOne => x >= 1.0 - 1e-9,
        }
    }
}

impl fmt::Display for Range {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Range::Any => "a number",
            Range::Positive => "a positive number",
            Range::Unit => "a number in [0, 1]",
            Range::AtLeastOne => "a number >= 1",
        })
    }
}

/// `node[key]` as a number within `range`.
pub fn number(node: &Json, key: &str, range: Range) -> Result<f64, String> {
    node.get(key)
        .and_then(Json::as_f64)
        .filter(|x| range.admits(*x))
        .ok_or_else(|| format!("{key} must be {range}"))
}

/// `node[key]` as an unsigned integer.
pub fn integer(node: &Json, key: &str) -> Result<u64, String> {
    node.get(key).and_then(Json::as_u64).ok_or_else(|| format!("{key} must be an integer"))
}

/// `node[key]` as a string.
pub fn text<'a>(node: &'a Json, key: &str) -> Result<&'a str, String> {
    node.get(key).and_then(Json::as_str).ok_or_else(|| format!("{key} must be a string"))
}

/// `node[key]` as a non-empty array.
pub fn array<'a>(node: &'a Json, key: &str) -> Result<&'a [Json], String> {
    let items =
        node.get(key).and_then(Json::as_arr).ok_or_else(|| format!("missing {key} array"))?;
    if items.is_empty() {
        return Err(format!("empty {key} array"));
    }
    Ok(items)
}

/// Every key of `keys` is present in `node`.
pub fn require(node: &Json, keys: &[&str]) -> Result<(), String> {
    match keys.iter().find(|key| node.get(key).is_none()) {
        Some(key) => Err(format!("missing {key:?}")),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUITE: Suite = Suite {
        name: "demo",
        schema_version: 1,
        flags: &["--cap"],
        full: Defaults { scale: 0.1, cap: Some(250), repeat: 3, ..Defaults::BASE },
        quick: Defaults { scale: 0.05, cap: Some(20), ..Defaults::BASE },
    };

    fn parse_demo(quick: bool, args: &[&str]) -> Result<Args, String> {
        parse(&SUITE, quick, args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn suite_defaults_follow_the_mode() {
        let full = parse_demo(false, &[]).unwrap();
        assert_eq!((full.scale, full.cap, full.repeat), (0.1, Some(250), 3));
        assert_eq!(full.out, "BENCH_demo.json");
        assert_eq!(full.models, DEFAULT_MODELS);
        let quick = parse_demo(true, &["--cap", "7", "--seed", "9"]).unwrap();
        assert_eq!((quick.scale, quick.cap, quick.seed, quick.repeat), (0.05, Some(7), 9, 1));
    }

    #[test]
    fn time_reps_hands_over_rep_zero_and_returns_the_last() {
        let mut calls = 0;
        let mut seen = None;
        let (timing, last) = time_reps(
            3,
            || {
                calls += 1;
                calls
            },
            |v| seen = Some(*v),
        );
        assert_eq!((seen, last), (Some(1), 3));
        assert!(timing.best_s <= timing.mean_s);
    }

    #[test]
    fn validators_name_the_key() {
        let doc = from_str_value(r#"{"a": 0.5, "n": 3, "s": "x", "xs": []}"#).unwrap();
        assert_eq!(number(&doc, "a", Range::Unit), Ok(0.5));
        assert_eq!(number(&doc, "a", Range::AtLeastOne), Err("a must be a number >= 1".to_owned()));
        assert_eq!(integer(&doc, "n"), Ok(3));
        assert_eq!(text(&doc, "s"), Ok("x"));
        assert_eq!(array(&doc, "xs"), Err("empty xs array".to_owned()));
        assert_eq!(require(&doc, &["a", "zz"]), Err("missing \"zz\"".to_owned()));
        assert_eq!(counted(1, "worker"), "1 worker");
        assert_eq!(counted(8, "shard"), "8 shards");
    }
}
