//! Pinned digests: every determinism gate of the reproduction, rerun
//! through the public crate APIs and asserted against hex constants.
//!
//! Each test below reruns one full workload (seed 42; models GPT-4,
//! GPT-3.5, Llama-2-7B and Flan-T5-3B unless noted) and compares its
//! digests with constants that must never move. A refactor is
//! byte-neutral exactly when this file still passes untouched. Costs
//! are dev-profile wall times of each test run alone on a 2-vCPU
//! x86-64 host; the whole file takes about 35 s on two test threads.
//!
//! Gate ledger:
//!
//! * **synth** ([`synth_seq_digests_survive_a_snapshot_round_trip`]):
//!   the `content_digest()` of `generate(kind, {seed 42, scale 1.0})`
//!   for all ten kinds, each also equal after a save/load through a
//!   temporary `SnapshotStore` (11.7 s). Generating NCBI (2.19M nodes)
//!   takes 5.5 s of that and the other nine kinds 0.16 s together; NCBI
//!   is generated once per process and shared with the big-taxonomy test.
//! * **eval** ([`eval_digests_are_batch_and_cache_invariant`]): the
//!   Hard grid (ten taxonomies at scale 0.1, cap 250), for each prompt
//!   setting under all five `(batch, cache)` configs, cold and warm
//!   cache, equals that setting's constant (8.0 s).
//! * **resilience** ([`resilience_digests_are_worker_invariant_per_fault_rate`]):
//!   the same grid behind a `FaultInjector` at rates 0, 0.05 and 0.2,
//!   at 1, 2 and 8 workers, equals the rate's constant. At rate 0 it
//!   also equals the bare models' digest, availability is 1, the
//!   injectors see exactly one delivery per query, and no query moves
//!   a `ResilienceSession` clock (5.0 s).
//! * **cached grid** ([`cached_faulty_grid_matches_resilience`]):
//!   `run_cross` over `FaultInjector<CachedModel>` stacks sharing one
//!   response cache, at batch 32, cold and warm, at 1, 2 and 8 workers,
//!   gives the resilience constants; availability is 1 at rate 0
//!   (8.4 s).
//! * **big taxonomy** ([`big_taxonomy_digests_are_worker_count_invariant`]):
//!   NCBI and ICD-10-CM at scale 1.0, cap 250, GPT-4 only, batch 32:
//!   `GridRunner::run` over the whole Hard dataset behind a
//!   `FaultInjector<CachedModel>`, at 1, 2 and 8 workers, equals the
//!   constant of its fault rate (11.3 s with NCBI generated in-test).
//! * **serve** ([`serve_trace_digests_are_pinned`]): 18 cells, rate
//!   factor {0.5, 0.9, 1.3} x batch deadline {5, 50} ms x fault rate
//!   {0, 0.05, 0.2}, 25,000 target requests over the eBay Hard dataset
//!   (scale 0.1, cap 250), one `FaultInjector<CachedModel>` lane per
//!   model. Each cell's trace digest is pinned, `admitted + shed ==
//!   arrivals`, and availability is 1 at fault 0 (3.1 s). Cells rotate
//!   through 1, 2 and 8 prefetch workers; full-report worker invariance
//!   is `tests/serve.rs::reports_are_worker_count_invariant`.
//! * **hier** ([`hier_report_digests_are_pinned`]): ten taxonomies x
//!   four models at scale 0.1, cap 120: 40 report digests, zero
//!   invalid descent labels, and outcome counts that partition the
//!   instances (10.6 s, NCBI's four cells about 8.5 of it). Cells
//!   rotate through 1, 2 and 8 workers; per-cell worker invariance is
//!   `tests/hier.rs::hier_reports_byte_identical_across_workers_cache_and_faults`.
//! * **wire** ([`wire_bytes_of_every_record_are_pinned`]): the
//!   `json::to_string` bytes of one fixed instance of each struct record
//!   (eBay at scale 0.1: a cap-4 Hard dataset, GPT-4's grid report over
//!   it, its `DetailedRun` JSONL, a cap-12 hier report, the taxonomy's
//!   stats and its flat JSON), each also equal after a decode and
//!   re-encode (under 0.1 s). The other gates hash reports only; this one
//!   holds dataset, question, transcript and taxonomy bytes too.

use std::sync::{Arc, OnceLock};

use taxoglimpse::core::cache::CacheStats;
use taxoglimpse::core::dataset::Dataset;
use taxoglimpse::core::detailed::DetailedRun;
use taxoglimpse::core::prompts::render_prompt;
use taxoglimpse::core::reports_digest;
use taxoglimpse::core::resilience::ResilienceSession;
use taxoglimpse::core::templates::TemplateVariant;
use taxoglimpse::json::{self, FromJson, ToJson};
use taxoglimpse::prelude::*;
use taxoglimpse::synth::rng::hash_str;
use taxoglimpse::synth::SEQ_STREAM_VERSION;
use taxoglimpse::taxonomy::{SnapshotStore, TaxonomyStats};

const SEED: u64 = 42;

/// One model per family tier, so every workload sees terse, chatty and
/// abstention-prone response paths.
const DEFAULT_MODELS: [ModelId; 4] =
    [ModelId::Gpt4, ModelId::Gpt35, ModelId::Llama2_7b, ModelId::FlanT5_3b];

const FAULT_RATES: [f64; 3] = [0.0, 0.05, 0.2];

/// Worker counts every executor gate sweeps.
const COUNTS: [usize; 3] = [1, 2, 8];

/// `content_digest()` of each kind at scale 1.0, in `TaxonomyKind::ALL`
/// order.
const SYNTH_DIGESTS: [(TaxonomyKind, &str); 10] = [
    (TaxonomyKind::Ebay, "55fe8b95dfa60a8a"),
    (TaxonomyKind::Amazon, "7dbef3ab334c7fc3"),
    (TaxonomyKind::Google, "7625b0dca8fb5321"),
    (TaxonomyKind::Schema, "00e8d125dc5a6b49"),
    (TaxonomyKind::AcmCcs, "9823bbc459a2cd94"),
    (TaxonomyKind::GeoNames, "37a6b7474dcafe12"),
    (TaxonomyKind::Glottolog, "d389fa80af5533f6"),
    (TaxonomyKind::Icd10Cm, "a295e64df265f5df"),
    (TaxonomyKind::Oae, "3d38cdb83fc7551a"),
    (TaxonomyKind::Ncbi, "d59f8b0076129478"),
];

/// Hard-grid reports digest per prompt setting.
const EVAL_DIGESTS: [(PromptSetting, &str); 3] = [
    (PromptSetting::ZeroShot, "ed6fc555126eab4c"),
    (PromptSetting::FewShot, "98c473c6de2b1e91"),
    (PromptSetting::ChainOfThought, "e1eae244daf37c45"),
];

/// Zero-shot Hard-grid reports digest per fault rate (rate 0 is the
/// bare models' digest).
const RESILIENCE_DIGESTS: [(f64, &str); 3] =
    [(0.0, "ed6fc555126eab4c"), (0.05, "f721e97f266fa756"), (0.2, "3f6cff3cdf51b013")];

/// GPT-4 report digest per big taxonomy and fault rate.
const BIG_TAXONOMY_DIGESTS: [(TaxonomyKind, [&str; 3]); 2] = [
    (TaxonomyKind::Ncbi, ["ab39eb8575c27d38", "89296988b0eeee66", "451bd865af228b15"]),
    (TaxonomyKind::Icd10Cm, ["d5c076bfed340529", "f99f3a05c7250c44", "933cfa24b5070942"]),
];

/// Serve trace digest per `(rate factor, batch deadline ms, fault rate)`.
const SERVE_DIGESTS: [(f64, f64, f64, &str); 18] = [
    (0.5, 5.0, 0.0, "93fe17c1a0a65c9d"),
    (0.5, 5.0, 0.05, "f580de34bd9f4d3d"),
    (0.5, 5.0, 0.2, "c71f57b1514d4413"),
    (0.5, 50.0, 0.0, "a5b3cb7b28907df4"),
    (0.5, 50.0, 0.05, "bca1a059e0cfffb8"),
    (0.5, 50.0, 0.2, "4fa0919c2d8c8c2b"),
    (0.9, 5.0, 0.0, "26a33efd982e7898"),
    (0.9, 5.0, 0.05, "ef4f5f718cccff8a"),
    (0.9, 5.0, 0.2, "e4e09cbd7477b03d"),
    (0.9, 50.0, 0.0, "f25f2772e263c8d8"),
    (0.9, 50.0, 0.05, "ef4f5f718cccff8a"),
    (0.9, 50.0, 0.2, "e4e09cbd7477b03d"),
    (1.3, 5.0, 0.0, "2ad569f469fd3417"),
    (1.3, 5.0, 0.05, "0a57ceb940758eee"),
    (1.3, 5.0, 0.2, "d54a8b478a98183c"),
    (1.3, 50.0, 0.0, "f0eaa5ba2289a7a1"),
    (1.3, 50.0, 0.05, "0a57ceb940758eee"),
    (1.3, 50.0, 0.2, "d54a8b478a98183c"),
];

/// Hier report digest per taxonomy, one per model in
/// [`DEFAULT_MODELS`] order.
const HIER_DIGESTS: [(TaxonomyKind, [&str; 4]); 10] = [
    (
        TaxonomyKind::Ebay,
        ["5e82e2364bdeb7b7", "624798cb64215e29", "a67fcaf2d7688c94", "6428ba10d43a32e8"],
    ),
    (
        TaxonomyKind::Amazon,
        ["184bd5bd7155c084", "bde59e88fdf72175", "1e4b144431bac8c7", "b5f11218cb495770"],
    ),
    (
        TaxonomyKind::Google,
        ["679f95dddd49994b", "da69afbe200b4a68", "c54b6b528c65d2bf", "0a837c2d19167560"],
    ),
    (
        TaxonomyKind::Schema,
        ["4aed4219048db84b", "870c448578db5692", "ce9f2a0cd83070ab", "59e60f46dc95522d"],
    ),
    (
        TaxonomyKind::AcmCcs,
        ["27508c91aa8526b2", "5db6db12d7df58de", "fd405bdf79182a2c", "e3dbe0e818ca28e1"],
    ),
    (
        TaxonomyKind::GeoNames,
        ["35d8b8fe7263e941", "5d51dc6305891f59", "83ba50c9235adf8b", "829a14d2f73992e2"],
    ),
    (
        TaxonomyKind::Glottolog,
        ["6ecc59bb174ee6db", "8e74a928e2b578f0", "d37febafeb97708a", "279bbaa470c025dd"],
    ),
    (
        TaxonomyKind::Icd10Cm,
        ["adbe3529fd44ce2f", "b527030afda506d3", "d70322a155bac850", "1378f24b5f583052"],
    ),
    (
        TaxonomyKind::Oae,
        ["e92f0a39f2122706", "9b4d41e13e695d69", "0fcd7bb190e18828", "19a288b074bf5407"],
    ),
    (
        TaxonomyKind::Ncbi,
        ["4dff9450dbbddab2", "43f59f433877f1f7", "0c1f1c2fb1fb313e", "ae216a12ccb63aac"],
    ),
];

/// `hash_str` of each record's `json::to_string` bytes, one fixed
/// instance per type (see [`wire_bytes_of_every_record_are_pinned`]).
const WIRE_DIGESTS: [(&str, &str); 10] = [
    ("Dataset", "239662c0312a1d0b"),
    ("LevelSlice", "405bdd3c8273358c"),
    ("Question", "3d41ba1683930114"),
    ("EvalReport", "b76f7d01a440e3eb"),
    ("LevelMetrics", "4642c4851f64b683"),
    ("Exchange", "672f78626f38a1c8"),
    ("HierReport", "df0fdd8a09f99a21"),
    ("HierMetrics", "9322e2b02b03a27c"),
    ("TaxonomyStats", "1f61893646a50e05"),
    ("FlatTaxonomy", "ac3383a6f2ca7739"),
];

fn hex(digest: u64) -> String {
    format!("{digest:016x}")
}

fn taxonomy(kind: TaxonomyKind, scale: f64) -> Taxonomy {
    generate(kind, GenOptions { seed: SEED, scale }).expect("valid scale")
}

/// NCBI at scale 1.0, generated once and shared by the synth and
/// big-taxonomy tests.
fn ncbi_full() -> &'static Taxonomy {
    static NCBI: OnceLock<Taxonomy> = OnceLock::new();
    NCBI.get_or_init(|| taxonomy(TaxonomyKind::Ncbi, 1.0))
}

fn hard_dataset(taxonomy: &Taxonomy, kind: TaxonomyKind, cap: usize) -> Dataset {
    DatasetBuilder::new(taxonomy, kind, SEED)
        .sample_cap(Some(cap))
        .build(QuestionDataset::Hard)
        .expect("benchmark taxonomies have probe levels")
}

/// The Hard dataset of all ten taxonomies at scale 0.1, cap 250.
fn hard_grid() -> Vec<Dataset> {
    TaxonomyKind::ALL
        .into_iter()
        .map(|kind| hard_dataset(&taxonomy(kind, 0.1), kind, 250))
        .collect()
}

fn models() -> Vec<Arc<SimulatedLlm>> {
    let zoo = ModelZoo::default_zoo();
    DEFAULT_MODELS.iter().map(|&id| zoo.get(id).expect("zoo covers all ids")).collect()
}

fn as_dyn<M: LanguageModel>(models: &[M]) -> Vec<&dyn LanguageModel> {
    models.iter().map(|m| m as &dyn LanguageModel).collect()
}

fn pooled_availability(reports: &[EvalReport]) -> f64 {
    let mut pooled = Metrics::default();
    for report in reports {
        pooled += report.overall;
    }
    pooled.availability()
}

#[test]
fn synth_seq_digests_survive_a_snapshot_round_trip() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("pinned_digests_snapshots");
    let store = SnapshotStore::new(&dir);
    for (kind, expected) in SYNTH_DIGESTS {
        let fresh;
        let generated = if kind == TaxonomyKind::Ncbi {
            ncbi_full()
        } else {
            fresh = taxonomy(kind, 1.0);
            &fresh
        };
        assert_eq!(hex(generated.content_digest()), expected, "{kind}: generator stream moved");
        let key = SnapshotStore::key(kind.label(), SEED, 1.0, SEQ_STREAM_VERSION);
        store.save(&key, generated).expect("snapshot dir is writable");
        let loaded = store.load(&key).expect("a just-saved snapshot loads");
        assert_eq!(hex(loaded.content_digest()), expected, "{kind}: snapshot round trip");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn eval_digests_are_batch_and_cache_invariant() {
    let datasets = hard_grid();
    let dataset_refs: Vec<&Dataset> = datasets.iter().collect();
    let models = models();
    for (setting, expected) in EVAL_DIGESTS {
        for (batch, cache_on) in [(1, false), (32, false), (256, false), (32, true), (256, true)] {
            let runner = GridRunner::builder()
                .with_config(EvalConfig::default().with_setting(setting))
                .with_batch_size(batch)
                .build();
            let config = format!("{setting}, batch {batch}, cache {cache_on}");
            if cache_on {
                // One cache shared by all four models (keys carry the
                // model name): the first run fills it, the second is
                // served from it.
                let cache = Arc::new(ResponseCache::new());
                let cached: Vec<_> = models
                    .iter()
                    .map(|m| CachedModel::with_cache(Arc::clone(m), Arc::clone(&cache)))
                    .collect();
                for pass in ["cold", "warm"] {
                    let reports = runner.run_cross(&as_dyn(&cached), &dataset_refs);
                    assert_eq!(hex(reports_digest(&reports)), expected, "{config}, {pass}");
                }
                assert!(cache.stats().hits > 0, "{config}: the warm pass never hit the cache");
            } else {
                let reports = runner.run_cross(&as_dyn(&models), &dataset_refs);
                assert_eq!(hex(reports_digest(&reports)), expected, "{config}");
            }
        }
    }
}

/// The four models, each behind a uniform fault plan at `rate`.
fn injected(rate: f64) -> Vec<FaultInjector<SimulatedLlm>> {
    DEFAULT_MODELS
        .iter()
        .map(|&id| FaultInjector::new(SimulatedLlm::new(id), FaultPlan::uniform(SEED, rate)))
        .collect()
}

#[test]
fn resilience_digests_are_worker_invariant_per_fault_rate() {
    let datasets = hard_grid();
    let dataset_refs: Vec<&Dataset> = datasets.iter().collect();
    let queries = datasets.iter().map(Dataset::len).sum::<usize>() * DEFAULT_MODELS.len();
    let runner = |workers| GridRunner::builder().with_threads(workers).build();

    let bare: Vec<SimulatedLlm> = DEFAULT_MODELS.iter().map(|&id| SimulatedLlm::new(id)).collect();
    let bare_digest = reports_digest(&runner(1).run_cross(&as_dyn(&bare), &dataset_refs));
    assert_eq!(hex(bare_digest), RESILIENCE_DIGESTS[0].1, "bare models");

    for (rate, expected) in RESILIENCE_DIGESTS {
        for workers in COUNTS {
            let injectors = injected(rate);
            let reports = runner(workers).run_cross(&as_dyn(&injectors), &dataset_refs);
            let digest = reports_digest(&reports);
            assert_eq!(hex(digest), expected, "rate {rate}, {workers} workers");
            if rate == 0.0 {
                assert_eq!(digest, bare_digest, "rate 0 must be byte-invisible");
                assert_eq!(pooled_availability(&reports), 1.0, "{workers} workers");
                let calls: u64 = injectors.iter().map(|i| i.stats().calls).sum();
                assert_eq!(calls, queries as u64, "rate 0 delivers each query exactly once");
            }
        }
    }

    // At rate 0 the retry layer costs no virtual time on any query.
    for injector in &injected(0.0) {
        let mut session = ResilienceSession::new(ResiliencePolicy::default());
        for question in datasets.iter().flat_map(Dataset::questions) {
            let setting = PromptSetting::ZeroShot;
            let prompt = render_prompt(question, setting, TemplateVariant::default(), &[]);
            let before_s = session.clock_s();
            let _ = session.call(injector, &Query::new(&prompt, question, setting));
            assert_eq!(session.clock_s(), before_s, "{}: a query moved the clock", question.child);
        }
    }
}

/// `FaultInjector<CachedModel>` stacks over the base models, all
/// sharing `cache`.
fn cached_stacks(
    base: &[Arc<SimulatedLlm>],
    cache: &Arc<ResponseCache>,
    rate: f64,
) -> Vec<FaultInjector<CachedModel<Arc<SimulatedLlm>>>> {
    base.iter()
        .map(|m| {
            FaultInjector::new(
                CachedModel::with_cache(Arc::clone(m), Arc::clone(cache)),
                FaultPlan::uniform(SEED, rate),
            )
        })
        .collect()
}

#[test]
fn cached_faulty_grid_matches_resilience() {
    let datasets = hard_grid();
    let dataset_refs: Vec<&Dataset> = datasets.iter().collect();
    let models = models();
    for (rate, expected) in RESILIENCE_DIGESTS {
        for workers in COUNTS {
            let runner = GridRunner::builder().with_batch_size(32).with_threads(workers).build();
            let cache = Arc::new(ResponseCache::new());
            let stacks = cached_stacks(&models, &cache, rate);
            let mut cold: Option<(CacheStats, usize)> = None;
            for pass in ["cold", "warm"] {
                let reports = runner.run_cross(&as_dyn(&stacks), &dataset_refs);
                let at = format!("rate {rate}, {workers} workers, {pass}");
                assert_eq!(hex(reports_digest(&reports)), expected, "{at}");
                if rate == 0.0 {
                    assert_eq!(pooled_availability(&reports), 1.0, "{at}");
                }
                // The fault streams replay, so every delivery of the warm
                // pass reaches the cache as one the cold pass stored.
                let (stats, len) = (cache.stats(), cache.len());
                if let Some((before, before_len)) = cold {
                    assert_eq!(stats.misses, before.misses, "{at}: a warm lookup missed");
                    assert_eq!(stats.insertions, before.insertions, "{at}: the warm pass inserted");
                    assert_eq!(len, before_len, "{at}: the warm pass grew the cache");
                    assert!(stats.hits > before.hits, "{at}: the warm pass never hit the cache");
                }
                cold = Some((stats, len));
            }
        }
    }
}

#[test]
fn big_taxonomy_digests_are_worker_count_invariant() {
    let gpt4 = models().swap_remove(0);
    for (kind, expected) in BIG_TAXONOMY_DIGESTS {
        let icd;
        let taxonomy = if kind == TaxonomyKind::Ncbi {
            ncbi_full()
        } else {
            icd = taxonomy(kind, 1.0);
            &icd
        };
        let dataset = hard_dataset(taxonomy, kind, 250);
        for (rate, expected) in FAULT_RATES.into_iter().zip(expected) {
            for workers in COUNTS {
                let runner =
                    GridRunner::builder().with_batch_size(32).with_threads(workers).build();
                let cache = Arc::new(ResponseCache::new());
                let stack = cached_stacks(std::slice::from_ref(&gpt4), &cache, rate);
                let report = runner.run(&stack[0], &dataset);
                let at = format!("{kind}, rate {rate}, {workers} workers");
                assert_eq!(hex(reports_digest(std::slice::from_ref(&report))), expected, "{at}");
                if rate == 0.0 {
                    assert_eq!(report.overall.availability(), 1.0, "{at}");
                }
            }
        }
    }
}

/// The serving data plane's retry/breaker policy: backoff and cooldown
/// scaled to millisecond service times.
fn serving_policy() -> ResiliencePolicy {
    ResiliencePolicy::default()
        .with_backoff(
            BackoffPolicy::default().with_base_s(0.01).with_multiplier(2.0).with_max_s(0.1),
        )
        .with_breaker(
            BreakerPolicy::default()
                .with_failure_threshold(5)
                .with_cooldown_s(0.5)
                .with_fast_fail_s(0.001),
        )
}

/// One serving lane: fault injection over a private response cache over
/// a simulated model.
fn tower(id: ModelId, fault_rate: f64) -> FaultInjector<CachedModel<Arc<SimulatedLlm>>> {
    let plan = if fault_rate > 0.0 {
        FaultPlan::uniform(SEED, fault_rate).with_retry_after_s(0.02)
    } else {
        FaultPlan::disabled(SEED)
    };
    FaultInjector::new(CachedModel::new(Arc::new(SimulatedLlm::new(id))), plan)
}

#[test]
fn serve_trace_digests_are_pinned() {
    const TARGET_REQUESTS: f64 = 25_000.0;
    let ebay = taxonomy(TaxonomyKind::Ebay, 0.1);
    let questions: Vec<Question> =
        hard_dataset(&ebay, TaxonomyKind::Ebay, 250).questions().cloned().collect();
    let base = ServeConfig::default().with_resilience(serving_policy());
    let capacity_qps = base.lane_capacity_qps() * DEFAULT_MODELS.len() as f64;
    for (i, (rate_factor, deadline_ms, fault_rate, expected)) in
        SERVE_DIGESTS.into_iter().enumerate()
    {
        let offered_qps = capacity_qps * rate_factor;
        let traffic =
            TrafficConfig::mixed_fleet(SEED, offered_qps, TARGET_REQUESTS / offered_qps);
        let workers = COUNTS[i % COUNTS.len()];
        let config = base.with_batch_deadline_s(deadline_ms / 1e3).with_workers(workers);
        let towers: Vec<_> = DEFAULT_MODELS.iter().map(|&id| tower(id, fault_rate)).collect();
        let report = run_serve(&as_dyn(&towers), &questions, &traffic, &config);
        let cell = format!("rate {rate_factor}, deadline {deadline_ms} ms, fault {fault_rate}");
        assert_eq!(hex(report.trace_digest), expected, "{cell}, {workers} workers");
        assert_eq!(report.admitted + report.shed.total(), report.arrivals, "{cell}");
        if fault_rate == 0.0 {
            assert_eq!(report.availability(), 1.0, "{cell}");
        }
    }
}

#[test]
fn hier_report_digests_are_pinned() {
    let models = models();
    let workload = HierWorkload::new()
        .with_router(RouterConfig::default())
        .with_sample_cap(Some(120));
    let mut cell = 0;
    for (kind, expected) in HIER_DIGESTS {
        let taxonomy = taxonomy(kind, 0.1);
        let cx = WorkloadContext::new(&taxonomy, kind, SEED);
        let data = workload.build(&cx).expect("benchmark taxonomies support hier");
        for ((model, id), expected) in models.iter().zip(DEFAULT_MODELS).zip(expected) {
            let workers = COUNTS[cell % COUNTS.len()];
            cell += 1;
            let runner = GridRunner::builder().with_threads(workers).build();
            let report = workload.run(&runner, model.as_ref(), &cx, &data);
            let at = format!("{kind} / {id}");
            assert_eq!(
                hex(reports_digest(std::slice::from_ref(&report))),
                expected,
                "{at}, {workers} workers"
            );
            let m = &report.metrics;
            assert_eq!(m.hier_invalid, 0, "{at}: the descent emitted an invalid label");
            assert_eq!(
                m.hier_correct + m.hier_wrong_branch + m.hier_abstained + m.hier_failed,
                m.instances,
                "{at}: descent outcomes do not partition the instances"
            );
            assert_eq!(
                m.flat_correct + m.flat_wrong_valid + m.flat_invalid + m.flat_abstained
                    + m.flat_failed,
                m.instances,
                "{at}: flat outcomes do not partition the instances"
            );
        }
    }
}

/// The digest of `value`'s wire bytes, after checking that decoding
/// them and encoding again reproduces them.
fn wire<T: ToJson + FromJson>(value: &T) -> String {
    let bytes = json::to_string(value).expect("records serialize");
    let back: T = json::from_str(&bytes).expect("written records decode");
    assert_eq!(json::to_string(&back).expect("records serialize"), bytes, "re-encode moved");
    hex(hash_str(0x5EED, &bytes))
}

#[test]
fn wire_bytes_of_every_record_are_pinned() {
    let kind = TaxonomyKind::Ebay;
    let taxonomy = taxonomy(kind, 0.1);
    let dataset = hard_dataset(&taxonomy, kind, 4);
    let gpt4 = models().swap_remove(0);
    let report = GridRunner::default().run(gpt4.as_ref(), &dataset);
    let run = DetailedRun::record(&GridRunner::default(), gpt4.as_ref(), &dataset);
    let jsonl = run.to_jsonl();
    let decoded = DetailedRun::from_jsonl(&run.model, &jsonl).expect("written JSONL decodes");
    assert_eq!(decoded.to_jsonl(), jsonl, "JSONL re-encode moved");
    let workload = HierWorkload::new().with_sample_cap(Some(12));
    let cx = WorkloadContext::new(&taxonomy, kind, SEED);
    let data = workload.build(&cx).expect("eBay supports hier");
    let hier = workload.run(&GridRunner::default(), gpt4.as_ref(), &cx, &data);
    let flat = taxonomy.to_json();
    assert_eq!(Taxonomy::from_json(&flat).expect("flat JSON decodes").to_json(), flat);

    let actual = [
        ("Dataset", wire(&dataset)),
        ("LevelSlice", wire(&dataset.levels[0])),
        ("Question", wire(&dataset.levels[0].questions[0])),
        ("EvalReport", wire(&report)),
        ("LevelMetrics", wire(&report.by_level[0])),
        ("Exchange", hex(hash_str(0x5EED, &jsonl))),
        ("HierReport", wire(&hier)),
        ("HierMetrics", wire(&hier.metrics)),
        ("TaxonomyStats", wire(&TaxonomyStats::compute(&taxonomy))),
        ("FlatTaxonomy", hex(hash_str(0x5EED, &flat))),
    ];
    let pinned = WIRE_DIGESTS.map(|(name, digest)| (name, digest.to_owned()));
    assert_eq!(actual, pinned, "wire bytes moved");
}
