//! The paper's five findings, re-measured from the full pipeline (not
//! read off the calibration tables): these tests run models over
//! generated datasets and assert the *shape* of the results.

use taxoglimpse::prelude::*;

fn run(
    model: ModelId,
    kind: TaxonomyKind,
    flavor: QuestionDataset,
    setting: PromptSetting,
    scale: f64,
) -> taxoglimpse::core::eval::EvalReport {
    let taxonomy = generate(kind, GenOptions { seed: 777, scale }).expect("valid options");
    let dataset = DatasetBuilder::new(&taxonomy, kind, 777)
        .build(flavor)
        .expect("probe levels exist");
    let zoo = ModelZoo::default_zoo();
    GridRunner::builder().with_config(EvalConfig { setting, ..Default::default() }).build()
        .run(zoo.get(model).unwrap().as_ref(), &dataset)
}

/// Finding 1: state-of-the-art LLMs are reliable on common domains
/// (Shopping, General) and unreliable on specialized ones (Biology,
/// Language).
#[test]
fn finding_1_common_vs_specialized() {
    for model in [ModelId::Gpt4, ModelId::Gpt35, ModelId::Llama3_70b] {
        let ebay = run(model, TaxonomyKind::Ebay, QuestionDataset::Hard, PromptSetting::ZeroShot, 1.0);
        let glotto = run(model, TaxonomyKind::Glottolog, QuestionDataset::Hard, PromptSetting::ZeroShot, 0.3);
        let ncbi = run(model, TaxonomyKind::Ncbi, QuestionDataset::Hard, PromptSetting::ZeroShot, 0.003);
        assert!(
            ebay.overall.accuracy() > glotto.overall.accuracy() + 0.1,
            "{model}: eBay {} vs Glottolog {}",
            ebay.overall.accuracy(),
            glotto.overall.accuracy()
        );
        assert!(
            ebay.overall.accuracy() > ncbi.overall.accuracy() + 0.1,
            "{model}: eBay {} vs NCBI {}",
            ebay.overall.accuracy(),
            ncbi.overall.accuracy()
        );
    }
}

/// Finding 2: a root-to-leaf accuracy decline in most taxonomies, with
/// the NCBI species→genus uplift at the last level.
#[test]
fn finding_2_root_to_leaf_decline() {
    // Deep taxonomies where the decline is visible.
    for kind in [TaxonomyKind::Glottolog, TaxonomyKind::AcmCcs, TaxonomyKind::Amazon] {
        let scale = if kind == TaxonomyKind::Amazon { 0.3 } else { 0.5 };
        let report = run(ModelId::Gpt4, kind, QuestionDataset::Hard, PromptSetting::ZeroShot, scale);
        let curve = report.accuracy_by_level();
        assert!(curve.len() >= 3, "{kind}");
        let first = curve.first().unwrap().1;
        let last = curve.last().unwrap().1;
        assert!(
            first > last,
            "{kind}: expected decline, got first {first:.3} last {last:.3} ({curve:?})"
        );
    }
}

/// Finding 2 (NCBI exception): the species→genus level gets a sudden
/// uplift because species names embed the genus.
#[test]
fn finding_2_ncbi_species_uplift() {
    let report = run(ModelId::Gpt4, TaxonomyKind::Ncbi, QuestionDataset::Hard, PromptSetting::ZeroShot, 0.005);
    let curve = report.accuracy_by_level();
    assert_eq!(curve.len(), 6, "NCBI probes six child levels");
    let last = curve[5].1;
    let second_to_last = curve[4].1;
    assert!(
        last > second_to_last + 0.05,
        "expected species-level uplift: L5 {second_to_last:.3} -> L6 {last:.3} ({curve:?})"
    );
}

/// Finding 3a: larger models help for Llama-2 and Flan-T5…
#[test]
fn finding_3_size_helps_llama2_flant5() {
    for (small, large, kind) in [
        (ModelId::Llama2_7b, ModelId::Llama2_70b, TaxonomyKind::Amazon),
        (ModelId::FlanT5_3b, ModelId::FlanT5_11b, TaxonomyKind::Ebay),
    ] {
        let scale = if kind == TaxonomyKind::Amazon { 0.2 } else { 1.0 };
        let s = run(small, kind, QuestionDataset::Hard, PromptSetting::ZeroShot, scale);
        let l = run(large, kind, QuestionDataset::Hard, PromptSetting::ZeroShot, scale);
        assert!(
            l.overall.accuracy() > s.overall.accuracy(),
            "{large} {} should beat {small} {}",
            l.overall.accuracy(),
            s.overall.accuracy()
        );
    }
}

/// Finding 3b: …but not for Vicuna and Falcon (bigger is worse).
#[test]
fn finding_3_size_hurts_vicuna_falcon() {
    for (small, large) in [
        (ModelId::Vicuna7b, ModelId::Vicuna13b),
        (ModelId::Falcon7b, ModelId::Falcon40b),
    ] {
        let s = run(small, TaxonomyKind::Google, QuestionDataset::Easy, PromptSetting::ZeroShot, 0.5);
        let l = run(large, TaxonomyKind::Google, QuestionDataset::Easy, PromptSetting::ZeroShot, 0.5);
        assert!(
            s.overall.accuracy() > l.overall.accuracy(),
            "{small} {} should beat {large} {}",
            s.overall.accuracy(),
            l.overall.accuracy()
        );
    }
}

/// Finding 3c: domain-specific instruction tuning (LLMs4OL) stably and
/// significantly outperforms its backbone (Flan-T5-3B).
#[test]
fn finding_3_domain_specific_tuning_uplift() {
    let mut wins = 0;
    let cases = [
        (TaxonomyKind::Schema, 1.0),
        (TaxonomyKind::Glottolog, 0.3),
        (TaxonomyKind::Ncbi, 0.003),
        (TaxonomyKind::Ebay, 1.0),
    ];
    for (kind, scale) in cases {
        let backbone = run(ModelId::FlanT5_3b, kind, QuestionDataset::Hard, PromptSetting::ZeroShot, scale);
        let tuned = run(ModelId::Llms4Ol, kind, QuestionDataset::Hard, PromptSetting::ZeroShot, scale);
        if tuned.overall.accuracy() > backbone.overall.accuracy() {
            wins += 1;
        }
    }
    assert!(wins >= 3, "LLMs4OL won only {wins}/4 taxonomies");
}

/// Finding 4: few-shot and CoT barely move the best models, while
/// few-shot mainly suppresses weak models' abstention.
#[test]
fn finding_4_prompting_effects() {
    // GPT-4 is stable across settings.
    let kind = TaxonomyKind::Icd10Cm;
    let zero = run(ModelId::Gpt4, kind, QuestionDataset::Hard, PromptSetting::ZeroShot, 1.0);
    let few = run(ModelId::Gpt4, kind, QuestionDataset::Hard, PromptSetting::FewShot, 1.0);
    let cot = run(ModelId::Gpt4, kind, QuestionDataset::Hard, PromptSetting::ChainOfThought, 1.0);
    assert!((few.overall.accuracy() - zero.overall.accuracy()).abs() < 0.05);
    assert!((cot.overall.accuracy() - zero.overall.accuracy()).abs() < 0.05);

    // Llama-2-7B: few-shot slashes the miss rate and lifts accuracy.
    let zero7 = run(ModelId::Llama2_7b, kind, QuestionDataset::Hard, PromptSetting::ZeroShot, 1.0);
    let few7 = run(ModelId::Llama2_7b, kind, QuestionDataset::Hard, PromptSetting::FewShot, 1.0);
    assert!(zero7.overall.miss_rate() > 0.7);
    assert!(few7.overall.miss_rate() < zero7.overall.miss_rate() * 0.3);
    assert!(few7.overall.accuracy() > zero7.overall.accuracy() + 0.2);
}

/// Finding 5 direction: instance typing mirrors the common-to-
/// specialized gap — shopping instances type far better than NCBI
/// species.
#[test]
fn finding_5_instance_typing_gap() {
    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::Gpt4).unwrap();
    let runner = GridRunner::default();

    let accuracy = |kind: TaxonomyKind, scale: f64| {
        let taxonomy = generate(kind, GenOptions { seed: 55, scale }).expect("valid");
        let dataset = DatasetBuilder::new(&taxonomy, kind, 55)
            .sample_cap(Some(150))
            .instance_typing(QuestionDataset::Hard)
            .unwrap();
        runner.run(model.as_ref(), &dataset).overall.accuracy()
    };
    let google = accuracy(TaxonomyKind::Google, 0.5);
    let ncbi = accuracy(TaxonomyKind::Ncbi, 0.003);
    let glotto = accuracy(TaxonomyKind::Glottolog, 0.3);
    assert!(google > ncbi, "google {google:.3} vs ncbi {ncbi:.3}");
    assert!(google > glotto, "google {google:.3} vs glottolog {glotto:.3}");
}
