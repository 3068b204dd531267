//! `bench_eval` — the machine-readable end-to-end throughput baseline.
//!
//! Runs the full grid pipeline (datasets × models × prompt settings)
//! through [`GridRunner`] exactly as `tables567` does, measures
//! queries/second per prompt setting, and writes `BENCH_eval.json` so
//! every perf PR records before/after numbers on the same machine and
//! future PRs have a trajectory to defend.
//!
//! ```text
//! cargo run --release -p taxoglimpse-bench --bin bench_eval -- \
//!     [--scale S] [--cap N] [--seed N] [--models CSV] [--repeat R] \
//!     [--threads T] [--chunk C] [--label L] [--baseline FILE] [--out FILE]
//! cargo run --release -p taxoglimpse-bench --bin bench_eval -- --check FILE
//! ```
//!
//! Since schema v2 every prompt setting is measured under a sweep of
//! execution configs — batch size × response cache on/off (see
//! [`CONFIGS`]) — and each config records a `reports_digest`: a stable
//! 64-bit hash over the JSON of every [`EvalReport`] the grid produced.
//! The run *aborts* if any config's digest diverges from the others
//! within a setting: batching and caching must be pure executors, and
//! identical digests prove the optimised pipeline returned
//! byte-identical results, which is this repo's core invariant. The
//! setting-level headline throughput is the best cache-enabled config.
//!
//! With the cache enabled, rep 0 runs cold (it both measures and fills
//! the cache) and later reps run warm, so `--repeat R` yields a steady
//! `(R-1)/R` hit rate and the best-of measurement reflects the served
//! path.
//!
//! `TAXOGLIMPSE_BENCH_QUICK=1` shrinks the workload to smoke-test size
//! (CI uses this to catch bit-rot without paying for a real measurement).

use std::sync::Arc;
use taxoglimpse_bench::suite::{self, Args, Defaults, DigestGate, Suite};
use taxoglimpse_bench::TaxonomyCache;
use taxoglimpse_core::cache::{CachedModel, ResponseCache};
use taxoglimpse_core::dataset::Dataset;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::eval::EvalConfig;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_core::model::LanguageModel;
use taxoglimpse_core::prompts::PromptSetting;
use taxoglimpse_core::reports_digest;
use taxoglimpse_json::{from_str_value, Json, ToJson};
use taxoglimpse_llm::simulate::SimulatedLlm;
use taxoglimpse_llm::zoo::ModelZoo;

const SUITE: Suite = Suite {
    name: "eval",
    schema_version: 2,
    flags: &["--cap", "--models", "--threads", "--chunk", "--baseline"],
    full: Defaults { scale: 0.1, cap: Some(250), repeat: 5, ..Defaults::BASE },
    quick: Defaults { scale: 0.05, cap: Some(20), repeat: 1, ..Defaults::BASE },
};

/// Minimum admissible zero-shot speedup over an embedded baseline when
/// `--check` finds one (the batching + caching acceptance gate).
const MIN_ZERO_SHOT_SPEEDUP: f64 = 2.0;

/// Execution configs swept per prompt setting: (batch size, cache).
/// Batch 1 without cache replays the historical sequential path; the
/// cache-enabled configs are the headline candidates.
const CONFIGS: [(usize, bool); 5] =
    [(1, false), (32, false), (256, false), (32, true), (256, true)];

fn main() {
    suite::main(&SUITE, run_bench, check_doc);
}

/// Run the measured workload and build the `BENCH_eval.json` body.
fn run_bench(opts: &Args) -> (Json, Vec<(&'static str, Json)>) {
    let cache = TaxonomyCache::new();
    let zoo = ModelZoo::default_zoo();

    let datasets = suite::hard_grid(&cache, opts);
    let dataset_refs: Vec<&Dataset> = datasets.iter().collect();
    let questions: usize = datasets.iter().map(Dataset::len).sum();
    let queries = questions * opts.models.len();

    let model_arcs: Vec<_> =
        opts.models.iter().map(|&id| zoo.get(id).expect("zoo covers all ids")).collect();
    let model_refs: Vec<&dyn LanguageModel> =
        model_arcs.iter().map(|m| m.as_ref() as &dyn LanguageModel).collect();

    let mut results = Vec::new();
    for setting in PromptSetting::ALL {
        let mut gate = DigestGate::new(setting);
        let mut config_entries = Vec::new();
        // Headline = best cache-enabled config: (timing, qps, hit_rate).
        let mut headline: Option<(suite::Timing, f64, f64)> = None;
        for (batch, cache_on) in CONFIGS {
            let runner = GridRunner::builder()
                .with_config(EvalConfig::default().with_setting(setting))
                .with_threads(opts.threads)
                .with_chunk_size(opts.chunk)
                .with_batch_size(batch)
                .build();
            // One fresh cache per config, shared across its repeat reps
            // and all models (keys include the model name): rep 0 fills
            // it cold, warm reps measure the served path.
            let response_cache = Arc::new(ResponseCache::new());
            let cached_models: Vec<CachedModel<Arc<SimulatedLlm>>> = if cache_on {
                model_arcs
                    .iter()
                    .map(|m| CachedModel::with_cache(Arc::clone(m), Arc::clone(&response_cache)))
                    .collect()
            } else {
                Vec::new()
            };
            let config_refs: Vec<&dyn LanguageModel> = if cache_on {
                cached_models.iter().map(|m| m as &dyn LanguageModel).collect()
            } else {
                model_refs.clone()
            };
            let mut digest = 0;
            let (timing, _) = suite::time_reps(
                opts.repeat,
                || runner.run_cross(&config_refs, &dataset_refs),
                |reports| digest = reports_digest(reports),
            );
            let on_off = if cache_on { "on" } else { "off" };
            gate.check(format_args!("batch {batch} cache {on_off}"), digest);
            let best = timing.best_s;
            let qps = queries as f64 / best;
            let stats = response_cache.stats();
            let hit_rate = if cache_on { stats.hit_rate() } else { 0.0 };
            eprintln!(
                "{setting} [batch {batch:>3}, cache {on_off:<3}]: best {:.1} ms, {:.0} q/s, \
                 hit rate {:.2}, digest {digest:016x}",
                best * 1e3,
                qps,
                hit_rate,
            );
            if cache_on && headline.map(|(t, _, _)| best < t.best_s).unwrap_or(true) {
                headline = Some((timing, qps, hit_rate));
            }
            config_entries.push(Json::obj(vec![
                ("batch_size", (batch as u64).to_json()),
                ("cache", cache_on.to_json()),
                ("best_elapsed_ms", (best * 1e3).to_json()),
                ("mean_elapsed_ms", (timing.mean_s * 1e3).to_json()),
                ("queries_per_sec", qps.to_json()),
                ("cache_hit_rate", hit_rate.to_json()),
                ("cache_entries", (response_cache.len() as u64).to_json()),
                ("reports_digest", suite::hex(digest)),
            ]));
        }
        let digest = gate.digest().expect("CONFIGS is non-empty");
        let (timing, qps, hit_rate) = headline.expect("CONFIGS has cache-enabled entries");
        eprintln!("{setting}: headline {:.0} q/s (digest {digest:016x})", qps);
        results.push(Json::obj(vec![
            ("setting", setting.to_string().to_json()),
            ("queries", (queries as u64).to_json()),
            ("best_elapsed_ms", (timing.best_s * 1e3).to_json()),
            ("mean_elapsed_ms", (timing.mean_s * 1e3).to_json()),
            ("queries_per_sec", qps.to_json()),
            ("cache_hit_rate", hit_rate.to_json()),
            ("reports_digest", suite::hex(digest)),
            ("configs", Json::Arr(config_entries)),
        ]));
    }

    let workload = Json::obj(vec![
        ("models", opts.models_json()),
        ("taxonomies", suite::labels(&TaxonomyKind::ALL)),
        ("flavor", "hard".to_json()),
        ("scale", opts.scale.to_json()),
        ("cap", opts.cap_json()),
        ("seed", opts.seed.to_json()),
        ("questions", (questions as u64).to_json()),
        ("queries_per_setting", (queries as u64).to_json()),
        ("threads", (opts.threads as u64).to_json()),
        ("chunk_size", (opts.chunk as u64).to_json()),
        ("repeats", (opts.repeat as u64).to_json()),
    ]);

    let baseline = match &opts.baseline {
        Some(path) => {
            let mut doc = std::fs::read_to_string(path)
                .map_err(|e| e.to_string())
                .and_then(|text| from_str_value(&text).map_err(|e| e.to_string()))
                .unwrap_or_else(|e| suite::fail(format_args!("--baseline {path}: {e}")));
            // A baseline of a baseline would nest without bound; embed
            // only the measurement itself.
            if let Json::Obj(fields) = &mut doc {
                fields.retain(|(k, _)| k != "baseline");
            }
            doc
        }
        None => Json::Null,
    };

    (workload, vec![("results", Json::Arr(results)), ("baseline", baseline)])
}

/// `--check FILE`: validate the v2 shape — per-config entries present,
/// digests identical across the configs of each setting, hit rates
/// within `[0, 1]`, and (when the file embeds a baseline with a
/// matching setting) the zero-shot headline at least
/// [`MIN_ZERO_SHOT_SPEEDUP`]× the baseline's.
fn check_doc(doc: &Json) -> Result<String, String> {
    let results = suite::array(doc, "results")?;
    let mut configs_seen = 0usize;
    for entry in results {
        let setting = suite::text(entry, "setting")?;
        configs_seen += check_setting(entry).map_err(|e| format!("{setting}: {e}"))?;
    }
    let speedup_note = match check_baseline_speedup(doc)? {
        Some(s) => format!(", zero-shot {s:.1}x baseline"),
        None => String::new(),
    };
    Ok(format!("{} settings, {configs_seen} configs{speedup_note}", results.len()))
}

/// Validate one setting's entry; returns its config count.
fn check_setting(entry: &Json) -> Result<usize, String> {
    suite::require(entry, &["queries", "best_elapsed_ms", "queries_per_sec", "reports_digest"])?;
    suite::number(entry, "queries_per_sec", suite::Range::Positive)?;
    suite::number(entry, "cache_hit_rate", suite::Range::Unit)?;
    let setting_digest = suite::text(entry, "reports_digest")?;
    let configs = suite::array(entry, "configs")?;
    for config in configs {
        suite::require(
            config,
            &["batch_size", "cache", "best_elapsed_ms", "queries_per_sec", "cache_entries"],
        )?;
        suite::number(config, "cache_hit_rate", suite::Range::Unit)?;
        let digest = suite::text(config, "reports_digest")?;
        if digest != setting_digest {
            return Err(format!(
                "config digest {digest} differs from setting digest \
                 {setting_digest} — batching/caching changed report bytes"
            ));
        }
    }
    Ok(configs.len())
}

/// When the document embeds a baseline whose results include a
/// zero-shot entry, require the document's zero-shot headline to be at
/// least [`MIN_ZERO_SHOT_SPEEDUP`]× the baseline's throughput. Returns
/// the measured speedup, or `None` when no comparable baseline exists
/// (smoke runs omit `--baseline`).
fn check_baseline_speedup(doc: &Json) -> Result<Option<f64>, String> {
    let find_zero_shot = |node: &Json| -> Option<f64> {
        node.get("results")?.as_arr()?.iter().find_map(|entry| {
            let setting = entry.get("setting")?.as_str()?;
            if setting == "zero-shot" {
                entry.get("queries_per_sec")?.as_f64()
            } else {
                None
            }
        })
    };
    let baseline = match doc.get("baseline") {
        Some(b) if !matches!(b, Json::Null) => b,
        _ => return Ok(None),
    };
    let (Some(current), Some(reference)) = (find_zero_shot(doc), find_zero_shot(baseline)) else {
        return Ok(None);
    };
    if reference <= 0.0 {
        return Ok(None);
    }
    let speedup = current / reference;
    if speedup < MIN_ZERO_SHOT_SPEEDUP {
        return Err(format!(
            "zero-shot throughput is only {speedup:.2}x the embedded baseline \
             (needs >= {MIN_ZERO_SHOT_SPEEDUP}x: {current:.0} vs {reference:.0} q/s)"
        ));
    }
    Ok(Some(speedup))
}
