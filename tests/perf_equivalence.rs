//! Equivalence guarantees for the allocation-free hot path and the
//! chunked grid scheduler: every fast path must produce byte-identical
//! results to its straightforward counterpart.
//!
//! Three groups, matching the three tentpole optimisations:
//! * chunked-parallel [`GridRunner`] output equals a sequential
//!   one-thread, one-chunk-per-level pass, across thread counts and
//!   chunk sizes;
//! * cached-prefix prompt rendering equals fresh whole-prompt renders
//!   for every `PromptSetting × TemplateVariant`;
//! * each question's [`Surface`] record equals the plain
//!   `core::text::similarity`, containment and head-match rules on a
//!   fuzz-style name corpus, and filling its memo changes no answer.
//!
//! On the data-production side, the snapshot cache must round-trip
//! taxonomies byte-exactly — or fall back to regeneration, never to a
//! wrong answer.

use taxoglimpse::core::dataset::Dataset;
use taxoglimpse::synth::SEQ_STREAM_VERSION;
use taxoglimpse::taxonomy::snapshot::SnapshotStore;
use taxoglimpse::core::eval::EvalConfig;
use taxoglimpse::core::grid::{GridRunner, GridRunnerBuilder};
use taxoglimpse::core::model::LanguageModel;
use taxoglimpse::core::prompts::{render_prefix, render_prompt, render_prompt_into};
use taxoglimpse::core::templates::TemplateVariant;
use taxoglimpse::core::question::{NegativeKind, QuestionBody};
use taxoglimpse::core::similarity::Surface;
use taxoglimpse::core::text::similarity;
use taxoglimpse::json::{FromJson, ToJson};
use taxoglimpse::llm::simulate::SimulatedLlm;
use taxoglimpse::prelude::*;

/// The plain sequential pass every fast path is compared against: one
/// worker, and one chunk (so one resilience session) per level.
fn sequential_runner(config: EvalConfig) -> GridRunnerBuilder {
    GridRunner::builder().with_config(config).with_threads(1).with_chunk_size(usize::MAX)
}

fn datasets() -> Vec<Dataset> {
    [
        (TaxonomyKind::Ebay, QuestionDataset::Hard),
        (TaxonomyKind::Ncbi, QuestionDataset::Easy),
        (TaxonomyKind::Oae, QuestionDataset::Mcq),
    ]
    .into_iter()
    .map(|(kind, flavor)| {
        let scale = if kind == TaxonomyKind::Ncbi { 0.01 } else { 0.3 };
        let t = generate(kind, GenOptions { seed: 17, scale }).unwrap();
        DatasetBuilder::new(&t, kind, 17).sample_cap(Some(60)).build(flavor).unwrap()
    })
    .collect()
}

/// Chunked-parallel grid output must be byte-identical to a plain
/// sequential pass — for every thread count and chunk size,
/// including a chunk of 1 and a chunk larger than any dataset.
#[test]
fn chunked_parallel_grid_is_byte_identical_to_sequential() {
    let ds = datasets();
    let dataset_refs: Vec<&Dataset> = ds.iter().collect();
    let zoo = ModelZoo::default_zoo();
    let gpt4 = zoo.get(ModelId::Gpt4).unwrap();
    let flan = zoo.get(ModelId::FlanT5_3b).unwrap();
    let models: Vec<&dyn LanguageModel> = vec![gpt4.as_ref(), flan.as_ref()];

    for setting in PromptSetting::ALL {
        let config = EvalConfig { setting, ..Default::default() };
        let baseline = sequential_runner(config).build();
        let sequential: Vec<String> = models
            .iter()
            .flat_map(|m| dataset_refs.iter().map(|d| {
                taxoglimpse::json::to_string(&baseline.run(*m, d)).unwrap()
            }))
            .collect();

        for threads in [1usize, 2, 8] {
            for chunk in [1usize, 7, usize::MAX] {
                let reports = GridRunner::builder()
                    .with_config(config)
                    .with_threads(threads)
                    .with_chunk_size(chunk)
                    .build()
                    .run_cross(&models, &dataset_refs);
                let rendered: Vec<String> = reports
                    .iter()
                    .map(|r| taxoglimpse::json::to_string(r).unwrap())
                    .collect();
                assert_eq!(
                    rendered, sequential,
                    "setting {setting}, threads {threads}, chunk {chunk}"
                );
            }
        }
    }
}

/// Prompts assembled from a cached per-level prefix must equal a fresh
/// whole-prompt render for every setting × template variant.
#[test]
fn cached_prefix_prompts_equal_fresh_renders() {
    let ds = datasets();
    for dataset in &ds {
        for setting in PromptSetting::ALL {
            for variant in TemplateVariant::ALL {
                for slice in &dataset.levels {
                    let prefix =
                        render_prefix(setting, variant, &slice.exemplars, PromptSetting::SHOTS);
                    // The buffer is deliberately reused across questions
                    // and (dirty) across settings — render_prompt_into
                    // must fully overwrite it.
                    let mut buf = String::from("stale content from a previous query");
                    for question in &slice.questions {
                        render_prompt_into(question, setting, variant, &prefix, &mut buf);
                        let fresh = render_prompt(question, setting, variant, &slice.exemplars);
                        assert_eq!(buf, fresh, "{setting} {variant:?}");
                    }
                }
            }
        }
    }
}

/// Whole-name containment, the plain way: `concept` has at least four
/// bytes and occurs in `name`, ignoring ASCII case.
fn reference_contains(name: &str, concept: &str) -> bool {
    concept.len() >= 4 && name.to_ascii_lowercase().contains(&concept.to_ascii_lowercase())
}

/// Head-noun match, the plain way: the last word of `concept`, less a
/// trailing lowercase `s`, has at least three bytes and occurs in
/// `name`, ignoring ASCII case.
fn reference_head_matches(name: &str, concept: &str) -> bool {
    let head = concept.split(' ').next_back().unwrap_or(concept);
    let head = head.strip_suffix('s').unwrap_or(head);
    head.len() >= 3 && name.to_ascii_lowercase().contains(&head.to_ascii_lowercase())
}

/// Every body shape the models read, with `child` against `names`: TF
/// positive and negative, each as concept and as instance typing; MCQ;
/// sibling rounds with the gold child shown and absent; and a
/// hand-built sibling round wider than the record.
fn body_shapes(child: &str, names: [&str; 5]) -> Vec<Question> {
    let question = |true_parent: &str, instance_typing: bool, body: QuestionBody| Question {
        id: 1,
        taxonomy: TaxonomyKind::Amazon,
        child: child.to_owned(),
        child_level: 2,
        parent_level: 1,
        true_parent: true_parent.to_owned(),
        instance_typing,
        body,
        surface_memo: Default::default(),
    };
    let tf = |expected_yes: bool| QuestionBody::TrueFalse {
        candidate: names[0].to_owned(),
        expected_yes,
        negative: (!expected_yes).then_some(NegativeKind::Hard),
    };
    let mut shapes = Vec::new();
    for instance_typing in [false, true] {
        shapes.push(question(names[0], instance_typing, tf(true)));
        shapes.push(question(names[1], instance_typing, tf(false)));
    }
    let options = [0, 1, 2, 3].map(|i| names[i].to_owned());
    shapes.push(question(names[2], false, QuestionBody::Mcq { options, correct: 2 }));
    let sibling = |n: &[&str], correct| {
        QuestionBody::Sibling { options: n.iter().map(|&s| s.to_owned()).collect(), correct }
    };
    shapes.push(question(names[1], true, sibling(&names[..3], Some(1))));
    shapes.push(question(names[4], true, sibling(&names[..2], None)));
    shapes.push(question(names[4], true, sibling(&names, Some(4))));
    shapes
}

/// Each question's surface record, its precomputed similarity cache,
/// must equal the direct rules: `f64` similarities bit for bit,
/// containment and head matches exactly, on adversarial names plus real
/// generated ones, for every body shape.
#[test]
fn similarity_cache_matches_direct_on_fuzz_corpus() {
    let mut corpus: Vec<String> = vec![
        String::new(),
        "a".into(),
        "ab".into(),
        "abc".into(),
        "ABC".into(),
        "aBc".into(),
        "CARS".into(),
        "cars".into(),
        "three car garage".into(),
        "three cars here".into(),
        "Compact Pencil X137".into(),
        "Pencils".into(),
        "pencil".into(),
        "  spaced  name ".into(),
        "naïve café names".into(),
        "ends with s".into(),
        "ENDS WITH S".into(),
        "日本語 ラベル".into(),
        "mixed 日本語 tail s".into(),
    ];
    let t = generate(TaxonomyKind::Amazon, GenOptions { seed: 23, scale: 0.1 }).unwrap();
    let d = DatasetBuilder::new(&t, TaxonomyKind::Amazon, 23)
        .sample_cap(Some(30))
        .build(QuestionDataset::Hard)
        .unwrap();
    for q in d.questions().take(40) {
        corpus.push(q.child.clone());
        corpus.push(q.true_parent.clone());
    }

    let n = corpus.len();
    for child in &corpus {
        for j in 0..n {
            let names = [0, 1, 5, 11, 17].map(|k| corpus[(j + k) % n].as_str());
            for q in body_shapes(child, names) {
                check_surface(&q, true);
            }
        }
    }
    // Names with more distinct trigrams than the record's 14-bit counts
    // hold are scored directly.
    let long = |seed: u32| -> String {
        (0..40_000u32).filter_map(|i| char::from_u32(0x100 + (i * 7919 + seed) % 0xD000)).collect()
    };
    let (child, name) = (long(0), long(1));
    check_surface(&body_shapes(&child, [&name, "b", "c", "d", "e"])[0], false);
}

/// Check `q`'s surface record against the plain rules, slot by slot;
/// `recorded` says whether its similarities fit the record.
fn check_surface(q: &Question, recorded: bool) {
    let surface = q.surface();
    let child = &q.child;
    for (slot, name) in q.surface_names().enumerate() {
        let direct = similarity(child, name);
        // The failure message is formatted only when an assertion fails.
        macro_rules! check {
            ($got:expr, $want:expr) => {
                assert_eq!($got, $want, "{child:?} vs {name:?} (slot {slot} of {:?})", q.body)
            };
        }
        check!(q.similarity_to(slot).to_bits(), direct.to_bits());
        if slot < Surface::SLOTS {
            check!(surface.similarity(slot).map(f64::to_bits), recorded.then_some(direct.to_bits()));
            check!(surface.contains(slot), reference_contains(child, name));
            check!(surface.head_matches(slot), reference_head_matches(child, name));
        }
    }
    assert!(q.shown_similarities().eq(q.shown_names().iter().map(|o| similarity(child, o))));
}

/// The surface memo is invisible: a question rebuilt from its JSON or
/// from a struct literal starts with an empty memo, yet equals the
/// `DatasetBuilder`-filled original, and the simulated model answers
/// both with the same bytes and the same usage.
#[test]
fn surface_memo_changes_no_answer() {
    let t = generate(TaxonomyKind::Ncbi, GenOptions { seed: 29, scale: 0.003 }).unwrap();
    for flavor in QuestionDataset::ALL {
        let d = DatasetBuilder::new(&t, TaxonomyKind::Ncbi, 29)
            .sample_cap(Some(40))
            .build(flavor)
            .unwrap();
        let filled: Vec<Question> = d.questions().cloned().collect();
        let from_json: Vec<Question> =
            filled.iter().map(|q| Question::from_json(&q.to_json()).unwrap()).collect();
        let literal: Vec<Question> = filled
            .iter()
            .map(|q| Question { surface_memo: Default::default(), ..q.clone() })
            .collect();
        for copies in [from_json, literal] {
            assert_eq!(copies, filled, "{flavor}");
            for setting in PromptSetting::ALL {
                let answer = |questions: &[Question]| {
                    let model = SimulatedLlm::new(ModelId::Gpt4);
                    let prompts: Vec<String> =
                        questions.iter().map(|q| render_prompt(q, setting, Default::default(), &[])).collect();
                    let queries: Vec<Query<'_>> = prompts
                        .iter()
                        .zip(questions)
                        .map(|(p, q)| Query::new(p, q, setting))
                        .collect();
                    (model.answer_batch(&queries), model.usage())
                };
                assert_eq!(answer(&copies), answer(&filled), "{flavor} {setting}");
            }
        }
    }
}

/// PR 6: the batched executor and the response cache are pure execution
/// details. Reports must be byte-identical across batch sizes {1, 32,
/// 256} × worker counts {1, 2, 8}, with the cache off, cold, and warm
/// — all compared against the plain sequential pass.
#[test]
fn batched_and_cached_grid_is_byte_identical_to_sequential() {
    use std::sync::Arc;

    let ds = datasets();
    let dataset_refs: Vec<&Dataset> = ds.iter().collect();
    let zoo = ModelZoo::default_zoo();
    let gpt4 = zoo.get(ModelId::Gpt4).unwrap();
    let flan = zoo.get(ModelId::FlanT5_3b).unwrap();

    for setting in [PromptSetting::ZeroShot, PromptSetting::FewShot] {
        let config = EvalConfig { setting, ..Default::default() };
        let baseline = sequential_runner(config).build();
        let sequential: Vec<String> = [gpt4.as_ref(), flan.as_ref()]
            .iter()
            .flat_map(|m| {
                dataset_refs
                    .iter()
                    .map(|d| taxoglimpse::json::to_string(&baseline.run(*m, d)).unwrap())
            })
            .collect();

        for batch in [1usize, 32, 256] {
            for threads in [1usize, 2, 8] {
                for cache_on in [false, true] {
                    let shared = Arc::new(ResponseCache::new());
                    let cached = [Arc::clone(&gpt4), Arc::clone(&flan)]
                        .map(|m| CachedModel::with_cache(m, Arc::clone(&shared)));
                    let models: Vec<&dyn LanguageModel> = if cache_on {
                        cached.iter().map(|m| m as &dyn LanguageModel).collect()
                    } else {
                        vec![gpt4.as_ref(), flan.as_ref()]
                    };
                    let runner = GridRunner::builder()
                        .with_config(config)
                        .with_threads(threads)
                        .with_chunk_size(16)
                        .with_batch_size(batch)
                        .build();
                    // Two passes with the same cache: the first runs
                    // cold (filling it), the second warm (served from
                    // it). Both must equal the sequential bytes.
                    for pass in ["cold", "warm"] {
                        let rendered: Vec<String> = runner
                            .run_cross(&models, &dataset_refs)
                            .iter()
                            .map(|r| taxoglimpse::json::to_string(r).unwrap())
                            .collect();
                        assert_eq!(
                            rendered, sequential,
                            "setting {setting}, batch {batch}, threads {threads}, \
                             cache {cache_on} ({pass})"
                        );
                        if !cache_on {
                            break;
                        }
                    }
                    if cache_on {
                        let stats = shared.stats();
                        assert!(
                            stats.hits > 0 && stats.misses > 0,
                            "warm pass must actually hit: {stats:?}"
                        );
                    }
                }
            }
        }
    }
}

/// The same invariance under the PR 5 fault/resilience stack: with a
/// deterministic fault plan injecting failures around a cached model
/// (`FaultInjector<CachedModel<_>>` — the cache only ever sees
/// successful deliveries), reports stay byte-identical across batch
/// sizes, worker counts, and cache off/cold/warm.
#[test]
fn batched_and_cached_grid_is_fault_invariant() {
    use std::sync::Arc;
    use taxoglimpse::core::resilience::ResiliencePolicy;
    use taxoglimpse::llm::faults::{FaultInjector, FaultPlan};

    let ds = datasets();
    let dataset_refs: Vec<&Dataset> = ds.iter().collect();
    let plan = FaultPlan::uniform(0x5EED_FA17, 0.3);
    let policy = ResiliencePolicy::default().with_max_attempts(4).without_breaker();
    let config = EvalConfig::default();

    let sequential: Vec<String> = {
        let model =
            FaultInjector::new(SimulatedLlm::new(ModelId::Gpt4), plan.clone());
        let baseline = sequential_runner(config).with_resilience(policy).build();
        dataset_refs
            .iter()
            .map(|d| taxoglimpse::json::to_string(&baseline.run(&model, d)).unwrap())
            .collect()
    };

    for batch in [1usize, 32, 256] {
        for threads in [1usize, 2, 8] {
            for cache_on in [false, true] {
                let shared = Arc::new(ResponseCache::new());
                let cached = FaultInjector::new(
                    CachedModel::with_cache(SimulatedLlm::new(ModelId::Gpt4), Arc::clone(&shared)),
                    plan.clone(),
                );
                let plain =
                    FaultInjector::new(SimulatedLlm::new(ModelId::Gpt4), plan.clone());
                let models: Vec<&dyn LanguageModel> = if cache_on {
                    vec![&cached]
                } else {
                    vec![&plain]
                };
                let runner = GridRunner::builder()
                    .with_config(config)
                    .with_threads(threads)
                    .with_chunk_size(16)
                    .with_batch_size(batch)
                    .with_resilience(policy)
                    .build();
                for pass in ["cold", "warm"] {
                    let rendered: Vec<String> = runner
                        .run_cross(&models, &dataset_refs)
                        .iter()
                        .map(|r| taxoglimpse::json::to_string(r).unwrap())
                        .collect();
                    assert_eq!(
                        rendered, sequential,
                        "batch {batch}, threads {threads}, cache {cache_on} ({pass})"
                    );
                    if !cache_on {
                        break;
                    }
                }
            }
        }
    }
}

/// A saved snapshot must load back digest-identical, and a corrupted
/// one must miss (load → `None`) and regenerate through
/// `load_or_generate` — silently serving corrupt bytes is the one
/// unacceptable outcome for a cache.
#[test]
fn snapshot_round_trips_and_corruption_falls_back_to_regeneration() {
    let dir = std::env::temp_dir().join("taxoglimpse-perf-equiv-snap");
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::new(&dir);
    let options = GenOptions { seed: 37, scale: 0.05 };
    let t = generate(TaxonomyKind::Glottolog, options).unwrap();
    let key = SnapshotStore::key(t.label(), options.seed, options.scale, SEQ_STREAM_VERSION);

    store.save(&key, &t).unwrap();
    let loaded = store.load(&key).expect("fresh snapshot must hit");
    assert_eq!(loaded.content_digest(), t.content_digest());
    assert_eq!(loaded.to_binary(), t.to_binary(), "round-trip is byte-exact");

    // Flip one byte in the middle of the payload: the checksum must
    // reject it, and load_or_generate must transparently regenerate.
    let path = store.path_for(&key);
    let mut bytes = std::fs::read(&path).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x40;
    std::fs::write(&path, &bytes).unwrap();
    assert!(store.load(&key).is_none(), "corrupt snapshot must miss");
    let mut regenerated = 0;
    let back = store.load_or_generate(&key, || {
        regenerated += 1;
        generate(TaxonomyKind::Glottolog, options).unwrap()
    });
    assert_eq!(regenerated, 1, "corruption must force regeneration");
    assert_eq!(back.content_digest(), t.content_digest());
    // The regenerated taxonomy was re-saved; the store must hit again.
    assert_eq!(store.load(&key).expect("re-saved").content_digest(), t.content_digest());
    let _ = std::fs::remove_dir_all(&dir);
}
