//! End-to-end pipeline tests spanning all crates: synthesize → build
//! datasets → prompt → simulate → parse → aggregate.

use taxoglimpse::prelude::*;

fn dataset(kind: TaxonomyKind, scale: f64, flavor: QuestionDataset, cap: usize) -> (taxoglimpse::taxonomy::Taxonomy, Dataset) {
    let taxonomy = generate(kind, GenOptions { seed: 1234, scale }).expect("valid options");
    let dataset = DatasetBuilder::new(&taxonomy, kind, 1234)
        .sample_cap(Some(cap))
        .build(flavor)
        .expect("probe levels exist");
    (taxonomy, dataset)
}

use taxoglimpse::core::dataset::Dataset;

#[test]
fn full_pipeline_runs_for_every_taxonomy_and_flavor() {
    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::Llama3_8b).unwrap();
    let runner = GridRunner::default();
    for kind in TaxonomyKind::ALL {
        let scale = if kind == TaxonomyKind::Ncbi { 0.003 } else { 0.15 };
        for flavor in QuestionDataset::ALL {
            let (_t, d) = dataset(kind, scale, flavor, 40);
            assert!(!d.is_empty(), "{kind} {flavor}");
            let report = runner.run(model.as_ref(), &d);
            assert_eq!(report.overall.total(), d.len());
            let sum = report.overall.correct + report.overall.missed + report.overall.wrong;
            assert_eq!(sum, d.len());
        }
    }
}

#[test]
fn all_eighteen_models_answer_parseably() {
    // Every model's free-text output must be understood by the parser:
    // with a valid question, the outcome distribution can contain
    // correct/missed/wrong, but *unparseable garbage* would inflate
    // `wrong` to near 100% for strong models — so GPT-4-class models
    // scoring well is evidence the loop is airtight.
    let (_t, d) = dataset(TaxonomyKind::Ebay, 1.0, QuestionDataset::Hard, 30);
    let zoo = ModelZoo::default_zoo();
    let runner = GridRunner::default();
    for model in zoo.all() {
        let report = runner.run(model.as_ref(), &d);
        assert_eq!(report.overall.total(), d.len(), "{}", report.model);
    }
    let strong = runner.run(zoo.get(ModelId::Gpt4).unwrap().as_ref(), &d);
    assert!(strong.overall.accuracy() > 0.8, "GPT-4 accuracy {}", strong.overall.accuracy());
}

#[test]
fn prompt_settings_flow_through_the_whole_stack() {
    let (_t, d) = dataset(TaxonomyKind::Amazon, 0.1, QuestionDataset::Hard, 50);
    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::Llama2_7b).unwrap();
    let mut misses = Vec::new();
    for setting in PromptSetting::ALL {
        let report = GridRunner::builder().with_config(EvalConfig { setting, ..Default::default() }).build().run(model.as_ref(), &d);
        assert_eq!(report.setting, setting);
        misses.push(report.overall.miss_rate());
    }
    // zero-shot, few-shot, CoT: few-shot strictly lowest miss for
    // Llama-2-7B, CoT at least zero-shot.
    assert!(misses[1] < misses[0], "few-shot {} vs zero-shot {}", misses[1], misses[0]);
    assert!(misses[2] >= misses[0] * 0.95, "cot {} vs zero-shot {}", misses[2], misses[0]);
}

#[test]
fn instance_typing_pipeline_end_to_end() {
    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::Gpt4).unwrap();
    let runner = GridRunner::default();
    for kind in TaxonomyKind::ALL.into_iter().filter(|k| k.has_instances()) {
        let scale = if kind == TaxonomyKind::Ncbi { 0.003 } else { 0.1 };
        let taxonomy = generate(kind, GenOptions { seed: 99, scale }).expect("valid options");
        let d = DatasetBuilder::new(&taxonomy, kind, 99)
            .sample_cap(Some(40))
            .instance_typing(QuestionDataset::Hard)
            .expect("hard flavor defined for instance-bearing kinds");
        assert!(!d.is_empty(), "{kind}");
        let report = runner.run(model.as_ref(), &d);
        assert!(report.overall.accuracy() > 0.2, "{kind}: {}", report.overall.accuracy());
        // Slices are keyed by target ancestor level and cover the root.
        assert!(d.levels.iter().any(|s| s.child_level == 0), "{kind} misses root-level pairs");
    }
}

#[test]
fn template_paraphrases_leave_results_stable() {
    // §2.2: "We observed similar results when using slight paraphrasing
    // of the templates."
    use taxoglimpse::core::templates::TemplateVariant;
    let (_t, d) = dataset(TaxonomyKind::Google, 0.3, QuestionDataset::Hard, 80);
    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::FlanT5_11b).unwrap();
    let mut accuracies = Vec::new();
    for variant in TemplateVariant::ALL {
        let report =
            GridRunner::builder().with_config(EvalConfig { variant, ..Default::default() }).build().run(model.as_ref(), &d);
        accuracies.push(report.overall.accuracy());
    }
    let spread = accuracies.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
        - accuracies.iter().cloned().fold(f64::INFINITY, f64::min);
    assert!(spread < 0.08, "paraphrase spread {spread} too large: {accuracies:?}");
}

#[test]
fn reports_serialize_for_downstream_tools() {
    let (_t, d) = dataset(TaxonomyKind::Schema, 0.5, QuestionDataset::Mcq, 40);
    let zoo = ModelZoo::default_zoo();
    let report = GridRunner::default().run(zoo.get(ModelId::Mixtral8x7b).unwrap().as_ref(), &d);
    let json = taxoglimpse::json::to_string(&report).expect("reports are serializable");
    let back: taxoglimpse::core::eval::EvalReport = taxoglimpse::json::from_str(&json).expect("round trip");
    assert_eq!(back.overall, report.overall);
    assert_eq!(back.model, "Mixtral");
}
