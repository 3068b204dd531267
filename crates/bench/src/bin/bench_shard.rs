//! `bench_shard` — the machine-readable sharded scale-out baseline.
//!
//! Exercises `core::shard` at both of its levels and records the
//! results in `BENCH_shard.json` (schema v1):
//!
//! * **Grid section**: the ten-taxonomy × model grid runs as
//!   {1, 2, 8} shards, each shard owning a disjoint set of
//!   (model, taxonomy) cells with its own `GridRunner`, its own
//!   response cache, and its own fault-injector instances, at fault
//!   rates 0% / 5% / 20%.
//! * **Big-taxonomy section**: NCBI and ICD-10-CM at `--big-scale`
//!   (default 1.0 — NCBI is 2.19M nodes, ten times the grid section's
//!   0.1 scale) are split into content-keyed subtree slots
//!   (`SubtreePartition`), evaluated as {1, 2, 8} shards, and the
//!   per-shard partial reports merged in shard-index order.
//!
//! One invariant is *enforced in-run*, not just recorded: within every
//! fault rate the reports digest (grid) and the merged-report digest
//! (big taxonomies) must be byte-identical across all shard counts.
//! Any divergence aborts the run — sharding must be a pure executor.
//! Alongside the digests the document records scaling efficiency vs
//! the single-shard baseline and the availability-vs-shard-count curve
//! at every fault rate, plus per-shard cache hit rates.
//!
//! ```text
//! cargo run --release -p taxoglimpse-bench --bin bench_shard -- \
//!     [--scale S] [--big-scale B] [--cap N] [--seed N] [--models CSV] \
//!     [--repeat R] [--threads T] [--chunk C] [--label L] [--out FILE]
//! cargo run --release -p taxoglimpse-bench --bin bench_shard -- --check FILE
//! ```
//!
//! `TAXOGLIMPSE_BENCH_QUICK=1` shrinks the workload to smoke-test size.

use std::sync::Arc;
use std::time::Instant;
use taxoglimpse_bench::TaxonomyCache;
use taxoglimpse_core::cache::{CacheStats, CachedModel, ResponseCache};
use taxoglimpse_core::dataset::{Dataset, DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::eval::{EvalReport, Evaluator};
use taxoglimpse_core::grid::GridRunnerBuilder;
use taxoglimpse_core::metrics::Metrics;
use taxoglimpse_core::model::LanguageModel;
use taxoglimpse_core::shard::{run_grid_sharded, run_sharded, ShardedDataset, NUM_SLOTS};
use taxoglimpse_json::{from_str_value, Json, ToJson};
use taxoglimpse_llm::faults::{FaultInjector, FaultPlan};
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::simulate::SimulatedLlm;
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_report::merge::merge_sharded;
use taxoglimpse_synth::rng::{hash_str, mix64};
use taxoglimpse_taxonomy::SubtreePartition;

/// Current schema version of `BENCH_shard.json` (see README.md).
const SCHEMA_VERSION: u64 = 1;

/// Shard counts whose reports must be byte-identical within each rate.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// The fault-rate ladder every section measures.
const FAULT_RATES: [f64; 3] = [0.0, 0.05, 0.20];

/// Batch size used throughout (the `bench_eval` headline batch tier).
const BATCH_SIZE: usize = 32;

/// The big taxonomies sharded at `--big-scale`.
const BIG_TAXONOMIES: [TaxonomyKind; 2] = [TaxonomyKind::Ncbi, TaxonomyKind::Icd10Cm];

/// Same default model subset as `bench_eval` / `bench_resilience`.
const DEFAULT_MODELS: [ModelId; 4] =
    [ModelId::Gpt4, ModelId::Gpt35, ModelId::Llama2_7b, ModelId::FlanT5_3b];

#[derive(Debug)]
struct BenchOptions {
    scale: f64,
    big_scale: f64,
    cap: Option<usize>,
    seed: u64,
    models: Vec<ModelId>,
    repeat: usize,
    threads: usize,
    chunk: usize,
    label: String,
    out: String,
    check: Option<String>,
}

impl BenchOptions {
    fn parse(args: impl Iterator<Item = String>) -> Result<Self, String> {
        let quick = std::env::var("TAXOGLIMPSE_BENCH_QUICK").map(|v| v != "0").unwrap_or(false);
        let mut o = BenchOptions {
            scale: if quick { 0.05 } else { 0.1 },
            big_scale: if quick { 0.1 } else { 1.0 },
            cap: Some(if quick { 20 } else { 250 }),
            seed: 42,
            models: DEFAULT_MODELS.to_vec(),
            repeat: if quick { 1 } else { 3 },
            threads: std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1),
            chunk: 256,
            label: "current".to_owned(),
            out: "BENCH_shard.json".to_owned(),
            check: None,
        };
        let mut args = args.peekable();
        while let Some(arg) = args.next() {
            let mut value =
                |flag: &str| args.next().ok_or_else(|| format!("{flag} needs a value"));
            match arg.as_str() {
                "--scale" => o.scale = value("--scale")?.parse().map_err(|e| format!("--scale: {e}"))?,
                "--big-scale" => {
                    o.big_scale =
                        value("--big-scale")?.parse().map_err(|e| format!("--big-scale: {e}"))?
                }
                "--cap" => o.cap = Some(value("--cap")?.parse().map_err(|e| format!("--cap: {e}"))?),
                "--seed" => o.seed = value("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
                "--repeat" => o.repeat = value("--repeat")?.parse().map_err(|e| format!("--repeat: {e}"))?,
                "--threads" => o.threads = value("--threads")?.parse().map_err(|e| format!("--threads: {e}"))?,
                "--chunk" => o.chunk = value("--chunk")?.parse().map_err(|e| format!("--chunk: {e}"))?,
                "--label" => o.label = value("--label")?,
                "--out" => o.out = value("--out")?,
                "--check" => o.check = Some(value("--check")?),
                "--models" => {
                    let csv = value("--models")?;
                    let mut models = Vec::new();
                    for name in csv.split(',') {
                        models.push(name.trim().parse::<ModelId>()?);
                    }
                    o.models = models;
                }
                other => return Err(format!("unknown argument {other:?}")),
            }
        }
        Ok(o)
    }
}

fn main() {
    let opts = match BenchOptions::parse(std::env::args().skip(1)) {
        Ok(o) => o,
        Err(msg) => {
            eprintln!("error: {msg}");
            std::process::exit(2);
        }
    };

    if let Some(path) = &opts.check {
        match check_file(path) {
            Ok(summary) => println!("{summary}"),
            Err(msg) => {
                eprintln!("error: {path}: {msg}");
                std::process::exit(1);
            }
        }
        return;
    }

    let doc = run_bench(&opts);
    let rendered = doc.render_pretty();
    std::fs::write(&opts.out, format!("{rendered}\n")).unwrap_or_else(|e| {
        eprintln!("error: {}: {e}", opts.out);
        std::process::exit(1);
    });
    println!("wrote {}", opts.out);
}

/// Digest over the JSON of every report, in order (same recipe as
/// `bench_eval` / `bench_resilience` and the pinned determinism test).
fn digest_reports(reports: &[EvalReport]) -> u64 {
    let mut digest = 0xBA5E_11AEu64;
    for report in reports {
        let json = taxoglimpse_json::to_string(report).expect("reports serialize");
        digest = mix64(digest ^ hash_str(0x5EED, &json));
    }
    digest
}

/// Abort the run if `digest` diverges from the rate's first-seen digest.
fn enforce_rate_digest(
    rate_digest: &mut Option<u64>,
    digest: u64,
    section: &str,
    rate: f64,
    shards: usize,
) {
    if *rate_digest.get_or_insert(digest) != digest {
        eprintln!(
            "error: {section}: rate {rate}: {shards} shards produced digest {digest:016x}, \
             other shard counts produced {:016x} — sharding changed report bytes",
            rate_digest.expect("rate digest was just inserted"),
        );
        std::process::exit(1);
    }
}

/// Run the measured workload and build the `BENCH_shard.json` document.
fn run_bench(opts: &BenchOptions) -> Json {
    let cache = TaxonomyCache::new();
    let zoo = ModelZoo::default_zoo();

    // ---- Grid section: ten taxonomies × model subset, sharded by cell.
    eprintln!("generating {} taxonomies at scale {} ...", TaxonomyKind::ALL.len(), opts.scale);
    let datasets: Vec<Dataset> = TaxonomyKind::ALL
        .into_iter()
        .map(|kind| {
            let taxonomy = cache.get(kind, opts.seed, opts.scale);
            DatasetBuilder::new(&taxonomy, kind, opts.seed)
                .sample_cap(opts.cap)
                .build(QuestionDataset::Hard)
                .expect("benchmark taxonomies have probe levels")
        })
        .collect();
    let dataset_refs: Vec<&Dataset> = datasets.iter().collect();
    let questions: usize = datasets.iter().map(Dataset::len).sum();
    let queries = questions * opts.models.len();
    let model_arcs: Vec<Arc<SimulatedLlm>> =
        opts.models.iter().map(|&id| zoo.get(id).expect("zoo covers all ids")).collect();

    let mut grid_results = Vec::new();
    for rate in FAULT_RATES {
        let mut rate_digest: Option<u64> = None;
        let mut single_best: Option<f64> = None;
        let mut entries = Vec::new();
        for shards in SHARD_COUNTS {
            // Keep the total worker budget roughly constant across
            // shard counts: each shard's runner gets its slice.
            let threads = (opts.threads / shards).max(1);
            let builder = GridRunnerBuilder::default()
                .with_threads(threads)
                .with_chunk_size(opts.chunk)
                .with_batch_size(BATCH_SIZE);
            // One response cache per shard, shared by that shard's
            // models across reps: rep 0 fills it cold, warm reps
            // measure the served path. Each shard also gets its own
            // injector instances (per-shard breakers and stats) over
            // the same pure fault plan.
            let shard_caches: Vec<Arc<ResponseCache>> =
                (0..shards).map(|_| Arc::new(ResponseCache::new())).collect();
            let stacks: Vec<Vec<FaultInjector<CachedModel<Arc<SimulatedLlm>>>>> = shard_caches
                .iter()
                .map(|shard_cache| {
                    model_arcs
                        .iter()
                        .map(|m| {
                            FaultInjector::new(
                                CachedModel::with_cache(Arc::clone(m), Arc::clone(shard_cache)),
                                FaultPlan::uniform(opts.seed, rate),
                            )
                        })
                        .collect()
                })
                .collect();
            let stack_refs: Vec<Vec<&dyn LanguageModel>> = stacks
                .iter()
                .map(|stack| stack.iter().map(|m| m as &dyn LanguageModel).collect())
                .collect();

            let mut best = f64::INFINITY;
            let mut total = 0.0;
            let mut digest = 0u64;
            let mut availability = 0.0;
            for rep in 0..opts.repeat.max(1) {
                let start = Instant::now();
                let reports = run_grid_sharded(builder, &stack_refs, &dataset_refs);
                let elapsed = start.elapsed().as_secs_f64();
                total += elapsed;
                best = best.min(elapsed);
                if rep == 0 {
                    digest = digest_reports(&reports);
                    let mut pooled = Metrics::default();
                    for report in &reports {
                        pooled += report.overall;
                    }
                    availability = pooled.availability();
                }
            }
            enforce_rate_digest(&mut rate_digest, digest, "grid", rate, shards);

            let repeats = opts.repeat.max(1) as f64;
            let qps = queries as f64 / best;
            let cache_stats: CacheStats = shard_caches.iter().map(|c| c.stats()).sum();
            let speedup = match single_best {
                None => {
                    single_best = Some(best);
                    1.0
                }
                Some(single) => single / best,
            };
            eprintln!(
                "grid rate {rate}: {shards} shards × {threads} workers: best {:.1} ms, \
                 {:.0} q/s, avail {:.4}, hit rate {:.2}, digest {digest:016x}",
                best * 1e3,
                qps,
                availability,
                cache_stats.hit_rate(),
            );
            entries.push(Json::obj(vec![
                ("shards", (shards as u64).to_json()),
                ("workers_per_shard", (threads as u64).to_json()),
                ("best_elapsed_ms", (best * 1e3).to_json()),
                ("mean_elapsed_ms", (total / repeats * 1e3).to_json()),
                ("queries_per_sec", qps.to_json()),
                ("availability", availability.to_json()),
                ("cache_hit_rate", cache_stats.hit_rate().to_json()),
                ("speedup_vs_single_shard", speedup.to_json()),
                ("reports_digest", format!("{digest:016x}").to_json()),
            ]));
        }
        grid_results.push(Json::obj(vec![
            ("fault_rate", rate.to_json()),
            ("queries", (queries as u64).to_json()),
            ("entries", Json::Arr(entries)),
        ]));
    }

    // ---- Big-taxonomy section: NCBI / ICD-10-CM subtree-sharded.
    let mut big_results = Vec::new();
    for kind in BIG_TAXONOMIES {
        eprintln!("generating {} at scale {} ...", kind.label(), opts.big_scale);
        let taxonomy = cache.get(kind, opts.seed, opts.big_scale);
        let dataset = DatasetBuilder::new(&taxonomy, kind, opts.seed)
            .sample_cap(opts.cap)
            .threads(opts.threads)
            .build(QuestionDataset::Hard)
            .expect("big taxonomies have probe levels");
        let partition = SubtreePartition::new(&taxonomy, NUM_SLOTS);
        let sharded = ShardedDataset::partition(&dataset, &taxonomy, &partition);
        assert_eq!(sharded.len(), dataset.len(), "partitioning must not drop questions");
        let evaluator = Evaluator::builder().with_batch_size(BATCH_SIZE).build();
        let base = zoo.get(ModelId::Gpt4).expect("zoo covers GPT-4");

        let mut rate_results = Vec::new();
        for rate in FAULT_RATES {
            let mut rate_digest: Option<u64> = None;
            let mut single_best: Option<f64> = None;
            let mut entries = Vec::new();
            for shards in SHARD_COUNTS {
                let shard_caches: Vec<Arc<ResponseCache>> =
                    (0..shards).map(|_| Arc::new(ResponseCache::new())).collect();
                let stacks: Vec<FaultInjector<CachedModel<Arc<SimulatedLlm>>>> = shard_caches
                    .iter()
                    .map(|shard_cache| {
                        FaultInjector::new(
                            CachedModel::with_cache(Arc::clone(&base), Arc::clone(shard_cache)),
                            FaultPlan::uniform(opts.seed, rate),
                        )
                    })
                    .collect();
                let stack_refs: Vec<&dyn LanguageModel> =
                    stacks.iter().map(|m| m as &dyn LanguageModel).collect();

                let mut best = f64::INFINITY;
                let mut total = 0.0;
                let mut digest = 0u64;
                let mut availability = 0.0;
                let mut per_shard = Vec::new();
                for rep in 0..opts.repeat.max(1) {
                    let start = Instant::now();
                    let runs = run_sharded(&evaluator, &stack_refs, &sharded);
                    let elapsed = start.elapsed().as_secs_f64();
                    total += elapsed;
                    best = best.min(elapsed);
                    if rep == 0 {
                        let merged = merge_sharded(&runs).unwrap_or_else(|e| {
                            eprintln!("error: {}: {shards} shards: {e}", kind.label());
                            std::process::exit(1);
                        });
                        digest = digest_reports(std::slice::from_ref(&merged));
                        availability = merged.overall.availability();
                        per_shard = runs
                            .iter()
                            .map(|run| {
                                Json::obj(vec![
                                    ("shard", (run.shard as u64).to_json()),
                                    ("slots", (run.slots.len() as u64).to_json()),
                                    ("questions", (run.questions as u64).to_json()),
                                    (
                                        "availability",
                                        run.report.overall.availability().to_json(),
                                    ),
                                    (
                                        "cache_hit_rate",
                                        shard_caches[run.shard].stats().hit_rate().to_json(),
                                    ),
                                ])
                            })
                            .collect();
                    }
                }
                enforce_rate_digest(&mut rate_digest, digest, kind.label(), rate, shards);

                let repeats = opts.repeat.max(1) as f64;
                let qps = dataset.len() as f64 / best;
                let speedup = match single_best {
                    None => {
                        single_best = Some(best);
                        1.0
                    }
                    Some(single) => single / best,
                };
                let efficiency = speedup / shards as f64;
                eprintln!(
                    "{} rate {rate}: {shards} shards: best {:.1} ms, {:.0} q/s, \
                     avail {:.4}, speedup {speedup:.2}x, eff {efficiency:.2}, digest {digest:016x}",
                    kind.label(),
                    best * 1e3,
                    qps,
                    availability,
                );
                entries.push(Json::obj(vec![
                    ("shards", (shards as u64).to_json()),
                    ("best_elapsed_ms", (best * 1e3).to_json()),
                    ("mean_elapsed_ms", (total / repeats * 1e3).to_json()),
                    ("queries_per_sec", qps.to_json()),
                    ("availability", availability.to_json()),
                    ("speedup_vs_single_shard", speedup.to_json()),
                    ("scaling_efficiency", efficiency.to_json()),
                    ("merged_digest", format!("{digest:016x}").to_json()),
                    ("per_shard", Json::Arr(per_shard)),
                ]));
            }
            rate_results.push(Json::obj(vec![
                ("fault_rate", rate.to_json()),
                ("entries", Json::Arr(entries)),
            ]));
        }
        big_results.push(Json::obj(vec![
            ("taxonomy", kind.label().to_json()),
            ("nodes", (taxonomy.len() as u64).to_json()),
            ("questions", (dataset.len() as u64).to_json()),
            ("occupied_slots", (sharded.occupied_slots() as u64).to_json()),
            ("rates", Json::Arr(rate_results)),
        ]));
    }

    let workload = Json::obj(vec![
        ("models", Json::Arr(opts.models.iter().map(|m| m.to_string().to_json()).collect())),
        (
            "taxonomies",
            Json::Arr(TaxonomyKind::ALL.iter().map(|k| k.label().to_json()).collect()),
        ),
        (
            "big_taxonomies",
            Json::Arr(BIG_TAXONOMIES.iter().map(|k| k.label().to_json()).collect()),
        ),
        ("flavor", "hard".to_json()),
        ("scale", opts.scale.to_json()),
        ("big_scale", opts.big_scale.to_json()),
        ("cap", opts.cap.map(|c| (c as u64).to_json()).unwrap_or(Json::Null)),
        ("seed", opts.seed.to_json()),
        ("grid_questions", (questions as u64).to_json()),
        ("grid_queries_per_rate", (queries as u64).to_json()),
        ("num_slots", (NUM_SLOTS as u64).to_json()),
        ("batch_size", (BATCH_SIZE as u64).to_json()),
        ("threads", (opts.threads as u64).to_json()),
        ("chunk_size", (opts.chunk as u64).to_json()),
        ("repeats", (opts.repeat as u64).to_json()),
        (
            "shard_counts",
            Json::Arr(SHARD_COUNTS.iter().map(|s| (*s as u64).to_json()).collect()),
        ),
        ("fault_rates", Json::Arr(FAULT_RATES.iter().map(|r| r.to_json()).collect())),
    ]);

    Json::obj(vec![
        ("schema_version", SCHEMA_VERSION.to_json()),
        ("label", opts.label.to_json()),
        ("workload", workload),
        ("grid", Json::Arr(grid_results)),
        ("big", Json::Arr(big_results)),
    ])
}

/// `--check FILE`: parse with the in-tree JSON crate and validate shape
/// plus the invariants the document claims: within every fault rate the
/// digest is identical across shard counts (grid and big sections), at
/// rate 0 availability is exactly 1, and throughput / efficiency
/// numbers are positive.
fn check_file(path: &str) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| e.to_string())?;
    let doc = from_str_value(&text).map_err(|e| e.to_string())?;
    let version = doc
        .get("schema_version")
        .and_then(Json::as_u64)
        .ok_or("missing schema_version")?;
    if version != SCHEMA_VERSION {
        return Err(format!("schema_version {version} (expected {SCHEMA_VERSION})"));
    }
    doc.get("label").and_then(Json::as_str).ok_or("missing label")?;
    doc.get("workload").and_then(Json::as_obj).ok_or("missing workload object")?;

    let grid = doc.get("grid").and_then(Json::as_arr).ok_or("missing grid array")?;
    if grid.is_empty() {
        return Err("empty grid array".to_owned());
    }
    let mut grid_entries = 0usize;
    for group in grid {
        let rate =
            group.get("fault_rate").and_then(Json::as_f64).ok_or("grid group missing fault_rate")?;
        let tag = format!("grid rate {rate}");
        grid_entries += check_entry_group(group, &tag, rate, "reports_digest")?;
    }

    let big = doc.get("big").and_then(Json::as_arr).ok_or("missing big array")?;
    if big.is_empty() {
        return Err("empty big array".to_owned());
    }
    let mut big_entries = 0usize;
    for section in big {
        let taxonomy =
            section.get("taxonomy").and_then(Json::as_str).ok_or("big section missing taxonomy")?;
        for key in ["nodes", "questions", "occupied_slots"] {
            if section.get(key).is_none() {
                return Err(format!("{taxonomy}: big section missing {key:?}"));
            }
        }
        let rates =
            section.get("rates").and_then(Json::as_arr).ok_or("big section missing rates array")?;
        if rates.is_empty() {
            return Err(format!("{taxonomy}: empty rates array"));
        }
        for group in rates {
            let rate = group
                .get("fault_rate")
                .and_then(Json::as_f64)
                .ok_or("big rate group missing fault_rate")?;
            let tag = format!("{taxonomy} rate {rate}");
            big_entries += check_entry_group(group, &tag, rate, "merged_digest")?;
        }
    }

    Ok(format!(
        "{path}: OK ({} grid rates / {grid_entries} entries, {} big taxonomies / \
         {big_entries} entries, schema v{version})",
        grid.len(),
        big.len(),
    ))
}

/// Validate one rate group's `entries`: required keys, positive
/// throughput, availability in [0, 1] (exactly 1 at fault rate 0),
/// digests identical across every shard count in the group, and —
/// when present — positive scaling efficiency and per-shard stats in
/// range. Returns the number of entries checked.
fn check_entry_group(
    group: &Json,
    tag: &str,
    rate: f64,
    digest_key: &str,
) -> Result<usize, String> {
    let entries =
        group.get("entries").and_then(Json::as_arr).ok_or_else(|| format!("{tag}: missing entries"))?;
    if entries.is_empty() {
        return Err(format!("{tag}: empty entries array"));
    }
    let mut group_digest: Option<&str> = None;
    for entry in entries {
        let shards = entry
            .get("shards")
            .and_then(Json::as_u64)
            .filter(|s| *s >= 1)
            .ok_or_else(|| format!("{tag}: entry missing a positive shards count"))?;
        for key in ["best_elapsed_ms", "mean_elapsed_ms", "speedup_vs_single_shard"] {
            if entry.get(key).is_none() {
                return Err(format!("{tag}: {shards} shards: entry missing {key:?}"));
            }
        }
        entry
            .get("queries_per_sec")
            .and_then(Json::as_f64)
            .filter(|q| *q > 0.0)
            .ok_or_else(|| format!("{tag}: {shards} shards: queries_per_sec must be positive"))?;
        let avail = entry
            .get("availability")
            .and_then(Json::as_f64)
            .filter(|a| (0.0..=1.0).contains(a))
            .ok_or_else(|| format!("{tag}: {shards} shards: availability must be in [0, 1]"))?;
        if rate == 0.0 && avail != 1.0 {
            return Err(format!("{tag}: {shards} shards: availability {avail} != 1 at rate 0"));
        }
        if let Some(eff) = entry.get("scaling_efficiency") {
            eff.as_f64()
                .filter(|e| *e > 0.0)
                .ok_or_else(|| format!("{tag}: {shards} shards: scaling_efficiency must be positive"))?;
        }
        if let Some(hit) = entry.get("cache_hit_rate") {
            hit.as_f64()
                .filter(|h| (0.0..=1.0).contains(h))
                .ok_or_else(|| format!("{tag}: {shards} shards: cache_hit_rate must be in [0, 1]"))?;
        }
        if let Some(per_shard) = entry.get("per_shard") {
            let shard_entries = per_shard
                .as_arr()
                .filter(|a| a.len() == shards as usize)
                .ok_or_else(|| format!("{tag}: {shards} shards: per_shard must list every shard"))?;
            for shard_entry in shard_entries {
                for key in ["shard", "slots", "questions"] {
                    if shard_entry.get(key).is_none() {
                        return Err(format!("{tag}: {shards} shards: per-shard entry missing {key:?}"));
                    }
                }
                shard_entry
                    .get("availability")
                    .and_then(Json::as_f64)
                    .filter(|a| (0.0..=1.0).contains(a))
                    .ok_or_else(|| {
                        format!("{tag}: {shards} shards: per-shard availability must be in [0, 1]")
                    })?;
            }
        }
        let digest = entry
            .get(digest_key)
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{tag}: {shards} shards: entry missing {digest_key:?}"))?;
        if *group_digest.get_or_insert(digest) != digest {
            return Err(format!(
                "{tag}: {shards} shards digest {digest} differs from {} — \
                 sharding changed report bytes",
                group_digest.unwrap_or_default(),
            ));
        }
    }
    Ok(entries.len())
}
