//! Reproducibility guarantees: identical seeds produce byte-identical
//! artifacts at every stage — taxonomies, datasets, model answers, and
//! whole evaluation reports — and different seeds genuinely differ.

mod common;

use std::sync::Arc;

use taxoglimpse::core::dataset::Dataset;
use taxoglimpse::core::model::Query;
use taxoglimpse::prelude::*;

#[test]
fn taxonomies_are_byte_identical_across_runs() {
    for kind in TaxonomyKind::ALL {
        let scale = if kind == TaxonomyKind::Ncbi { 0.002 } else { 0.1 };
        let a = generate(kind, GenOptions { seed: 5, scale }).unwrap();
        let b = generate(kind, GenOptions { seed: 5, scale }).unwrap();
        assert_eq!(a.to_tsv(), b.to_tsv(), "{kind}");
    }
}

#[test]
fn datasets_are_identical_across_processes_shapes() {
    // Serialize the dataset to JSON; identical seed ⇒ identical bytes.
    let t = generate(TaxonomyKind::Oae, GenOptions { seed: 8, scale: 0.1 }).unwrap();
    let mk = || {
        taxoglimpse::json::to_string(
            &DatasetBuilder::new(&t, TaxonomyKind::Oae, 8)
                .build(QuestionDataset::Mcq)
                .unwrap(),
        )
        .unwrap()
    };
    assert_eq!(mk(), mk());
}

#[test]
fn model_answers_are_stable_per_question() {
    let t = generate(TaxonomyKind::Icd10Cm, GenOptions { seed: 3, scale: 0.2 }).unwrap();
    let d = DatasetBuilder::new(&t, TaxonomyKind::Icd10Cm, 3)
        .sample_cap(Some(20))
        .build(QuestionDataset::Hard)
        .unwrap();
    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::Claude3).unwrap();
    for q in d.questions() {
        let prompt = taxoglimpse::core::templates::render_question(q, Default::default());
        let query = Query::new(&prompt, q, PromptSetting::ZeroShot);
        let first = model.answer(&query);
        for _ in 0..3 {
            assert_eq!(model.answer(&query), first);
        }
    }
}

#[test]
fn reports_identical_for_identical_seeds_distinct_for_different() {
    let t = generate(TaxonomyKind::Google, GenOptions { seed: 6, scale: 0.2 }).unwrap();
    let d = DatasetBuilder::new(&t, TaxonomyKind::Google, 6)
        .build(QuestionDataset::Easy)
        .unwrap();
    let runner = GridRunner::default();
    let r1 = runner.run(ModelZoo::with_seed(9).get(ModelId::Gpt35).unwrap().as_ref(), &d);
    let r2 = runner.run(ModelZoo::with_seed(9).get(ModelId::Gpt35).unwrap().as_ref(), &d);
    let r3 = runner.run(ModelZoo::with_seed(10).get(ModelId::Gpt35).unwrap().as_ref(), &d);
    assert_eq!(taxoglimpse::json::to_string(&r1).unwrap(), taxoglimpse::json::to_string(&r2).unwrap());
    assert_ne!(taxoglimpse::json::to_string(&r1).unwrap(), taxoglimpse::json::to_string(&r3).unwrap());
}

#[test]
fn seed_changes_propagate_to_taxonomies() {
    let a = generate(TaxonomyKind::Glottolog, GenOptions { seed: 1, scale: 0.05 }).unwrap();
    let b = generate(TaxonomyKind::Glottolog, GenOptions { seed: 2, scale: 0.05 }).unwrap();
    assert_ne!(a.to_tsv(), b.to_tsv());
    // Shape is seed-independent (only names/assignments change).
    assert_eq!(a.num_levels(), b.num_levels());
    assert_eq!(a.len(), b.len());
    for level in 0..a.num_levels() {
        assert_eq!(a.nodes_at_level(level).len(), b.nodes_at_level(level).len());
    }
}

/// The `reports_digest` recipe `tests/pinned_digests.rs` pins at scale,
/// here over a fixed small workload. The constant was captured before the
/// D001 container conversions (`HashMap`/`HashSet` → ordered
/// equivalents) and must never move: report bytes are the repo's core
/// deterministic artifact, and this test is what lets a container or
/// scheduler refactor prove it changed nothing observable.
#[test]
fn reports_digest_is_pinned() {
    assert_eq!(common::pinned_workload_digests(), ["55e93db6e5f85df9", "ca98ddf7b5163d0a"]);
}

/// Pin the legacy (sequential) name streams of all ten kinds. The
/// constants were captured before the allocation-free generator engine
/// landed and must never move: `generate`'s byte output is the substrate
/// under every pinned report digest (including `reports_digest_is_pinned`
/// above), so a generator refactor is only admissible if this test still
/// passes untouched.
#[test]
fn legacy_name_streams_are_pinned() {
    use taxoglimpse::synth::rng::hash_str;
    const PINS: [(TaxonomyKind, f64, u64); 10] = [
        (TaxonomyKind::Ebay, 0.1, 0x1f64000b1945214c),
        (TaxonomyKind::Amazon, 0.1, 0x9ee632a92f30d268),
        (TaxonomyKind::Google, 0.1, 0xc651977aca086ab1),
        (TaxonomyKind::Schema, 0.1, 0x39df1d98afaf25aa),
        (TaxonomyKind::AcmCcs, 0.1, 0xe7bc33faa32a3013),
        (TaxonomyKind::GeoNames, 0.1, 0xc5eba4852f191586),
        (TaxonomyKind::Glottolog, 0.1, 0xc2a025ebb1320887),
        (TaxonomyKind::Icd10Cm, 0.1, 0xf9ac7efb577b0860),
        (TaxonomyKind::Oae, 0.1, 0x9eb5bcc8c5728b25),
        (TaxonomyKind::Ncbi, 0.002, 0xf90b10051a1ce587),
    ];
    for (kind, scale, expected) in PINS {
        let t = generate(kind, GenOptions { seed: 42, scale }).unwrap();
        let digest = hash_str(0x7a67, &t.to_tsv());
        assert_eq!(digest, expected, "{kind}: legacy name stream moved");
    }
}

#[test]
fn instance_typing_and_casestudy_are_deterministic() {
    use taxoglimpse::core::casestudy::{CaseStudy, CaseStudyConfig};
    let t = generate(TaxonomyKind::Amazon, GenOptions { seed: 4, scale: 0.05 }).unwrap();
    let mk_it = || {
        taxoglimpse::json::to_string(
            &DatasetBuilder::new(&t, TaxonomyKind::Amazon, 4)
                .sample_cap(Some(25))
                .instance_typing(QuestionDataset::Hard)
                .unwrap(),
        )
        .unwrap()
    };
    assert_eq!(mk_it(), mk_it());

    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::Llama2_70b).unwrap();
    let mk_cs = || {
        CaseStudy::new(&t, TaxonomyKind::Amazon, CaseStudyConfig {
            cutoff_level: 3,
            products_per_concept: 6,
            sample_cap: Some(20),
            seed: 4,
        })
        .run(model.as_ref())
    };
    assert_eq!(mk_cs(), mk_cs());
}

#[test]
fn cache_hit_rate_is_worker_count_invariant() {
    // Easy and Hard share their positive questions, so with several
    // workers their chunks race to miss on the same deliveries.
    let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 5, scale: 1.0 }).unwrap();
    let datasets: Vec<Dataset> = [QuestionDataset::Easy, QuestionDataset::Hard]
        .into_iter()
        .map(|flavor| DatasetBuilder::new(&t, TaxonomyKind::Ebay, 5).build(flavor).unwrap())
        .collect();
    let refs: Vec<&Dataset> = datasets.iter().collect();
    let base = Arc::new(SimulatedLlm::new(ModelId::Gpt4));
    let mut first: Option<(f64, u64)> = None;
    for workers in [1, 2, 8] {
        let runner = GridRunner::builder().with_chunk_size(16).with_threads(workers).build();
        for rep in 0..10 {
            let cached = CachedModel::new(Arc::clone(&base));
            runner.run_cross(&[&cached], &refs);
            let stats = cached.cache().stats();
            let counted = (stats.hit_rate(), stats.hits + stats.duplicates);
            let expected = *first.get_or_insert(counted);
            assert_eq!(counted, expected, "{workers} workers, repetition {rep}: {stats:?}");
        }
    }
    assert!(first.is_some_and(|(rate, _)| rate > 0.0), "Easy and Hard shared no delivery");
}
