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
use taxoglimpse_bench::suite::{self, counted, Args, Defaults, DigestGate, Suite};
use taxoglimpse_bench::TaxonomyCache;
use taxoglimpse_core::cache::{CacheStats, CachedModel, ResponseCache};
use taxoglimpse_core::dataset::{Dataset, DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::eval::Evaluator;
use taxoglimpse_core::grid::GridRunnerBuilder;
use taxoglimpse_core::metrics::Metrics;
use taxoglimpse_core::model::LanguageModel;
use taxoglimpse_core::reports_digest;
use taxoglimpse_core::shard::{run_grid_sharded, run_sharded, ShardedDataset, NUM_SLOTS};
use taxoglimpse_json::{Json, ToJson};
use taxoglimpse_llm::faults::{FaultInjector, FaultPlan};
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::simulate::SimulatedLlm;
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_report::merge::merge_sharded;
use taxoglimpse_taxonomy::SubtreePartition;

const SUITE: Suite = Suite {
    name: "shard",
    schema_version: 1,
    flags: &["--cap", "--models", "--threads", "--chunk", "--big-scale"],
    full: Defaults { scale: 0.1, big_scale: 1.0, cap: Some(250), repeat: 3, ..Defaults::BASE },
    quick: Defaults { scale: 0.05, big_scale: 0.1, cap: Some(20), repeat: 1, ..Defaults::BASE },
};

/// Shard counts whose reports must be byte-identical within each rate.
const SHARD_COUNTS: [usize; 3] = [1, 2, 8];

/// The fault-rate ladder every section measures.
const FAULT_RATES: [f64; 3] = [0.0, 0.05, 0.20];

/// Batch size used throughout (the `bench_eval` headline batch tier).
const BATCH_SIZE: usize = 32;

/// The big taxonomies sharded at `--big-scale`.
const BIG_TAXONOMIES: [TaxonomyKind; 2] = [TaxonomyKind::Ncbi, TaxonomyKind::Icd10Cm];

fn main() {
    suite::main(&SUITE, run_bench, check_doc);
}

/// Speedup of `best_s` over the group's first (single-shard) entry,
/// which it records.
fn speedup_vs_first(single_best: &mut Option<f64>, best_s: f64) -> f64 {
    *single_best.get_or_insert(best_s) / best_s
}

/// Run the measured workload and build the `BENCH_shard.json` body.
fn run_bench(opts: &Args) -> (Json, Vec<(&'static str, Json)>) {
    let cache = TaxonomyCache::new();
    let zoo = ModelZoo::default_zoo();

    // ---- Grid section: ten taxonomies × model subset, sharded by cell.
    let datasets = suite::hard_grid(&cache, opts);
    let dataset_refs: Vec<&Dataset> = datasets.iter().collect();
    let questions: usize = datasets.iter().map(Dataset::len).sum();
    let queries = questions * opts.models.len();
    let model_arcs: Vec<Arc<SimulatedLlm>> =
        opts.models.iter().map(|&id| zoo.get(id).expect("zoo covers all ids")).collect();

    let mut grid_results = Vec::new();
    for rate in FAULT_RATES {
        let mut gate = DigestGate::new(format_args!("grid: rate {rate}"));
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

            let mut digest = 0u64;
            let mut availability = 0.0;
            let (timing, _) = suite::time_reps(
                opts.repeat,
                || run_grid_sharded(builder, &stack_refs, &dataset_refs),
                |reports| {
                    digest = reports_digest(reports);
                    let mut pooled = Metrics::default();
                    for report in reports {
                        pooled += report.overall;
                    }
                    availability = pooled.availability();
                },
            );
            gate.check(counted(shards, "shard"), digest);

            let best = timing.best_s;
            let qps = queries as f64 / best;
            let cache_stats: CacheStats = shard_caches.iter().map(|c| c.stats()).sum();
            let speedup = speedup_vs_first(&mut single_best, best);
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
                ("mean_elapsed_ms", (timing.mean_s * 1e3).to_json()),
                ("queries_per_sec", qps.to_json()),
                ("availability", availability.to_json()),
                ("cache_hit_rate", cache_stats.hit_rate().to_json()),
                ("speedup_vs_single_shard", speedup.to_json()),
                ("reports_digest", suite::hex(digest)),
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
            let mut gate = DigestGate::new(format_args!("{}: rate {rate}", kind.label()));
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

                let mut digest = 0u64;
                let mut availability = 0.0;
                let mut per_shard = Vec::new();
                let (timing, _) = suite::time_reps(
                    opts.repeat,
                    || run_sharded(&evaluator, &stack_refs, &sharded),
                    |runs| {
                        let merged = merge_sharded(runs).unwrap_or_else(|e| {
                            suite::fail(format_args!("{}: {shards} shards: {e}", kind.label()))
                        });
                        digest = reports_digest(std::slice::from_ref(&merged));
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
                    },
                );
                gate.check(counted(shards, "shard"), digest);

                let best = timing.best_s;
                let qps = dataset.len() as f64 / best;
                let speedup = speedup_vs_first(&mut single_best, best);
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
                    ("mean_elapsed_ms", (timing.mean_s * 1e3).to_json()),
                    ("queries_per_sec", qps.to_json()),
                    ("availability", availability.to_json()),
                    ("speedup_vs_single_shard", speedup.to_json()),
                    ("scaling_efficiency", efficiency.to_json()),
                    ("merged_digest", suite::hex(digest)),
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
        ("models", opts.models_json()),
        ("taxonomies", suite::labels(&TaxonomyKind::ALL)),
        ("big_taxonomies", suite::labels(&BIG_TAXONOMIES)),
        ("flavor", "hard".to_json()),
        ("scale", opts.scale.to_json()),
        ("big_scale", opts.big_scale.to_json()),
        ("cap", opts.cap_json()),
        ("seed", opts.seed.to_json()),
        ("grid_questions", (questions as u64).to_json()),
        ("grid_queries_per_rate", (queries as u64).to_json()),
        ("num_slots", (NUM_SLOTS as u64).to_json()),
        ("batch_size", (BATCH_SIZE as u64).to_json()),
        ("threads", (opts.threads as u64).to_json()),
        ("chunk_size", (opts.chunk as u64).to_json()),
        ("repeats", (opts.repeat as u64).to_json()),
        ("shard_counts", suite::uints(&SHARD_COUNTS)),
        ("fault_rates", Json::Arr(FAULT_RATES.iter().map(|r| r.to_json()).collect())),
    ]);

    (workload, vec![("grid", Json::Arr(grid_results)), ("big", Json::Arr(big_results))])
}

/// `--check FILE`: validate shape plus the invariants the document
/// claims: within every fault rate the digest is identical across shard
/// counts (grid and big sections), at rate 0 availability is exactly 1,
/// and throughput / efficiency numbers are positive.
fn check_doc(doc: &Json) -> Result<String, String> {
    let grid = suite::array(doc, "grid")?;
    let mut grid_entries = 0usize;
    for group in grid {
        let rate = suite::number(group, "fault_rate", suite::Range::Any)
            .map_err(|e| format!("grid group: {e}"))?;
        grid_entries += check_entry_group(group, rate, "reports_digest")
            .map_err(|e| format!("grid rate {rate}: {e}"))?;
    }
    let big = suite::array(doc, "big")?;
    let mut big_entries = 0usize;
    for section in big {
        let taxonomy = suite::text(section, "taxonomy").map_err(|e| format!("big section: {e}"))?;
        big_entries += check_big_section(section).map_err(|e| format!("{taxonomy}: {e}"))?;
    }
    Ok(format!(
        "{} grid rates / {grid_entries} entries, {} big taxonomies / {big_entries} entries",
        grid.len(),
        big.len(),
    ))
}

/// Validate one big-taxonomy section; returns its entry count.
fn check_big_section(section: &Json) -> Result<usize, String> {
    suite::require(section, &["nodes", "questions", "occupied_slots"])?;
    let mut entries = 0;
    for group in suite::array(section, "rates")? {
        let rate = suite::number(group, "fault_rate", suite::Range::Any)?;
        entries += check_entry_group(group, rate, "merged_digest")
            .map_err(|e| format!("rate {rate}: {e}"))?;
    }
    Ok(entries)
}

/// Validate one rate group's `entries` and require their digests to be
/// identical across every shard count in the group. Returns the number
/// of entries checked.
fn check_entry_group(group: &Json, rate: f64, digest_key: &str) -> Result<usize, String> {
    let entries = suite::array(group, "entries")?;
    let mut group_digest: Option<&str> = None;
    for entry in entries {
        let shards = suite::integer(entry, "shards")
            .ok()
            .filter(|s| *s >= 1)
            .ok_or("entry missing a positive shards count")?;
        check_entry(entry, shards, rate).map_err(|e| format!("{shards} shards: {e}"))?;
        let digest = suite::text(entry, digest_key).map_err(|e| format!("{shards} shards: {e}"))?;
        if *group_digest.get_or_insert(digest) != digest {
            return Err(format!(
                "{shards} shards digest {digest} differs from {} — sharding changed report bytes",
                group_digest.unwrap_or_default(),
            ));
        }
    }
    Ok(entries.len())
}

/// One entry: required keys, positive throughput, availability in
/// [0, 1] (exactly 1 at fault rate 0), and — when present — positive
/// scaling efficiency and per-shard stats in range.
fn check_entry(entry: &Json, shards: u64, rate: f64) -> Result<(), String> {
    suite::require(entry, &["best_elapsed_ms", "mean_elapsed_ms", "speedup_vs_single_shard"])?;
    suite::number(entry, "queries_per_sec", suite::Range::Positive)?;
    let avail = suite::number(entry, "availability", suite::Range::Unit)?;
    if rate == 0.0 && avail != 1.0 {
        return Err(format!("availability {avail} != 1 at rate 0"));
    }
    if entry.get("scaling_efficiency").is_some() {
        suite::number(entry, "scaling_efficiency", suite::Range::Positive)?;
    }
    if entry.get("cache_hit_rate").is_some() {
        suite::number(entry, "cache_hit_rate", suite::Range::Unit)?;
    }
    if let Some(per_shard) = entry.get("per_shard") {
        let shard_entries = per_shard
            .as_arr()
            .filter(|a| a.len() == shards as usize)
            .ok_or("per_shard must list every shard")?;
        for shard_entry in shard_entries {
            suite::require(shard_entry, &["shard", "slots", "questions"])
                .map_err(|e| format!("per-shard entry {e}"))?;
            suite::number(shard_entry, "availability", suite::Range::Unit)
                .map_err(|e| format!("per-shard {e}"))?;
        }
    }
    Ok(())
}
