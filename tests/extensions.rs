//! Integration tests for the extension systems built on top of the
//! benchmark: the hybrid taxonomy (§5.1), enrichment, baselines, the
//! parallel grid runner, the serving/cost layer, and release drift.

use taxoglimpse::core::analysis::{level_trend, two_proportion_z};
use taxoglimpse::core::enrich::evaluate_reattachment;
use taxoglimpse::core::grid::GridRunner;
use taxoglimpse::core::hybrid::{recommended_cutoff, HybridTaxonomy};
use taxoglimpse::core::model::LanguageModel;
use taxoglimpse::llm::api::cost_usd;
use taxoglimpse::llm::baselines::{LexicalBaseline, RandomBaseline};
use taxoglimpse::llm::{FaultInjector, FaultPlan, SimulatedLlm};
use taxoglimpse::prelude::*;
use taxoglimpse::synth::drift::{evolve, DriftConfig};
use taxoglimpse::taxonomy::diff::diff;

#[test]
fn hybrid_reliability_recommends_shallower_cutoffs_for_specialized_domains() {
    // The paper's core recommendation: common domains can push more of
    // the tree into the LLM than specialized ones. Measure it via
    // recommended_cutoff at a fixed target: a *smaller* cutoff means
    // more levels can be replaced.
    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::Gpt4).unwrap();
    let target = 0.75;

    let ebay = generate(TaxonomyKind::Ebay, GenOptions { seed: 70, scale: 1.0 }).unwrap();
    let ebay_cutoff = recommended_cutoff(&ebay, TaxonomyKind::Ebay, model.as_ref(), target, 70, Some(150));

    let glotto = generate(TaxonomyKind::Glottolog, GenOptions { seed: 70, scale: 0.3 }).unwrap();
    let glotto_cutoff =
        recommended_cutoff(&glotto, TaxonomyKind::Glottolog, model.as_ref(), target, 70, Some(150));

    // eBay: the whole tree below the roots is replaceable at 75%.
    assert_eq!(ebay_cutoff, Some(1), "eBay should be fully replaceable, got {ebay_cutoff:?}");
    // Glottolog: nothing (or almost nothing) meets 75%.
    assert!(
        glotto_cutoff.is_none() || glotto_cutoff.unwrap() > 3,
        "Glottolog should resist replacement, got {glotto_cutoff:?}"
    );
}

#[test]
fn hybrid_end_to_end_routing_and_querying() {
    let full = generate(TaxonomyKind::Amazon, GenOptions { seed: 71, scale: 0.1 }).unwrap();
    let hybrid = HybridTaxonomy::build(&full, TaxonomyKind::Amazon, 3);
    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::Gpt4).unwrap();

    // Route every removed level-3 concept; all must land on a kept node.
    let mut routed = 0;
    for &concept in full.nodes_at_level(3).iter().take(25) {
        if hybrid.route(full.name(concept), model.as_ref()).is_some() {
            routed += 1;
        }
    }
    assert_eq!(routed, 25);
}

#[test]
fn enrichment_quality_orders_models_sensibly() {
    let t = generate(TaxonomyKind::Ncbi, GenOptions { seed: 72, scale: 0.002 }).unwrap();
    let zoo = ModelZoo::default_zoo();
    let strong = evaluate_reattachment(&t, TaxonomyKind::Ncbi, zoo.get(ModelId::Gpt4).unwrap().as_ref(), 72, Some(50));
    let weak = evaluate_reattachment(&t, TaxonomyKind::Ncbi, &RandomBaseline::new(1), 72, Some(50));
    assert!(strong.evaluated > 0);
    // The shortlist is shared; the model quality shows in top-1.
    assert!(
        strong.top1_accuracy >= weak.top1_accuracy,
        "GPT-4 {} vs random {}",
        strong.top1_accuracy,
        weak.top1_accuracy
    );
    assert!(strong.shortlist_mrr > 0.5, "species shortlists find the genus");
}

#[test]
fn baselines_tell_the_surface_form_story() {
    // The paper attributes NCBI's species-level performance to surface
    // forms. If that is right, a pure surface baseline must beat the
    // random baseline decisively on NCBI hard, and the gap must be
    // statistically significant.
    let t = generate(TaxonomyKind::Ncbi, GenOptions { seed: 73, scale: 0.003 }).unwrap();
    let d = DatasetBuilder::new(&t, TaxonomyKind::Ncbi, 73)
        .sample_cap(Some(120))
        .build(QuestionDataset::Hard)
        .unwrap();
    let runner = GridRunner::default();
    let lex = runner.run(&LexicalBaseline::default(), &d);
    let rnd = runner.run(&RandomBaseline::new(2), &d);
    let test = two_proportion_z(&lex.overall, &rnd.overall);
    assert!(test.significant(), "lexical {} vs random {}: p = {}", lex.overall.accuracy(), rnd.overall.accuracy(), test.p_value);
    assert!(lex.overall.accuracy() > rnd.overall.accuracy());
}

#[test]
fn grid_runner_parallel_equals_sequential_on_real_models() {
    let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 74, scale: 1.0 }).unwrap();
    let datasets: Vec<_> = QuestionDataset::ALL
        .iter()
        .map(|&f| DatasetBuilder::new(&t, TaxonomyKind::Ebay, 74).sample_cap(Some(40)).build(f).unwrap())
        .collect();
    let dataset_refs: Vec<_> = datasets.iter().collect();
    let zoo = ModelZoo::default_zoo();
    let arcs: Vec<_> = [ModelId::Gpt4, ModelId::Mistral7b, ModelId::Vicuna33b]
        .into_iter()
        .map(|id| zoo.get(id).unwrap())
        .collect();
    let models: Vec<&dyn LanguageModel> = arcs.iter().map(|a| a.as_ref() as &dyn LanguageModel).collect();

    let parallel =
        GridRunner::builder().with_threads(6).build().run_cross(&models, &dataset_refs);
    let sequential: Vec<_> = models
        .iter()
        .flat_map(|m| dataset_refs.iter().map(|d| GridRunner::default().run(*m, d)))
        .collect();
    for (p, s) in parallel.iter().zip(&sequential) {
        assert_eq!(p.overall, s.overall, "{} on {} {}", p.model, p.taxonomy, p.flavor);
    }
}

#[test]
fn api_layer_is_transparent_to_quality() {
    let t = generate(TaxonomyKind::Icd10Cm, GenOptions { seed: 75, scale: 0.3 }).unwrap();
    let d = DatasetBuilder::new(&t, TaxonomyKind::Icd10Cm, 75)
        .sample_cap(Some(60))
        .build(QuestionDataset::Hard)
        .unwrap();
    let runner = GridRunner::default();
    let bare = SimulatedLlm::new(ModelId::Claude3);
    let direct = runner.run(&bare, &d);
    // The `cost` bin's serving plan: 2% of deliveries lost to outages.
    let served = FaultInjector::new(
        SimulatedLlm::new(ModelId::Claude3),
        FaultPlan::disabled(75).with_unavailable_rate(0.02),
    );
    let through_api = runner.run(&served, &d);
    assert!(served.stats().injected > 0, "2% outages must fire");
    // The runner's session retries every outage away, and an outage
    // never reaches the model, so quality and billed tokens are those
    // of a fault-free run.
    assert_eq!(direct.overall, through_api.overall);
    assert_eq!(direct.by_level, through_api.by_level);
    let usage = served.base().usage();
    assert_eq!(usage, bare.usage());
    assert!(cost_usd(ModelId::Claude3, usage.prompt_tokens, usage.completion_tokens) > 0.0);
}

#[test]
fn drift_then_diff_supports_the_maintenance_argument() {
    let v1 = generate(TaxonomyKind::Amazon, GenOptions { seed: 76, scale: 0.05 }).unwrap();
    let v2 = evolve(&v1, TaxonomyKind::Amazon, DriftConfig::default(), 76);
    let d = diff(&v1, &v2);
    assert!(!d.is_empty());
    // All drift is at depth >= 1 and the lion's share at the leaves
    // (depth >= 3 of this 5-level taxonomy).
    assert_eq!(d.changes_at_or_below(1), d.total_changes());
    assert!(d.changes_at_or_below(3) * 2 > d.total_changes());
}

#[test]
fn level_trends_are_negative_for_strong_models_on_deep_taxonomies() {
    let t = generate(TaxonomyKind::Glottolog, GenOptions { seed: 77, scale: 0.3 }).unwrap();
    let d = DatasetBuilder::new(&t, TaxonomyKind::Glottolog, 77).build(QuestionDataset::Hard).unwrap();
    let zoo = ModelZoo::default_zoo();
    for id in [ModelId::Gpt4, ModelId::FlanT5_11b, ModelId::Vicuna7b] {
        let report = GridRunner::default().run(zoo.get(id).unwrap().as_ref(), &d);
        assert!(level_trend(&report) < 0.0, "{id} should decline root-to-leaf");
    }
}
