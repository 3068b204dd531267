//! The `e2e/` benchmark package is not built by the workspace's
//! `cargo test`, so this suite repeats its two runner call shapes on a
//! tiny dataset: an API change that would break the benchmark fails
//! here first.

use taxoglimpse::core::workload::WorkloadRunner;
use taxoglimpse::prelude::*;

#[test]
fn benchmark_call_shapes_compile_and_run() {
    let kind = TaxonomyKind::Ebay;
    let taxonomy = generate(kind, GenOptions { seed: 1, scale: 0.2 }).expect("valid options");
    let dataset = DatasetBuilder::new(&taxonomy, kind, 1)
        .sample_cap(Some(5))
        .build(QuestionDataset::Hard)
        .expect("ebay has probe levels");
    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::Gpt4).expect("zoo covers all ids");
    let models: Vec<&dyn LanguageModel> = vec![model.as_ref()];
    let dataset_refs = vec![&dataset];

    let reports = GridRunner::builder()
        .with_config(EvalConfig::default().with_setting(PromptSetting::FewShot))
        .with_threads(2)
        .build()
        .run_cross(&models, &dataset_refs);
    assert_eq!(reports.len(), 1);
    assert_eq!(reports[0].overall.total(), dataset.len());

    // `WorkloadRunner` is `GridRunner` under its older name.
    let runner: GridRunner = WorkloadRunner::builder().with_threads(2).build();
    let workload = HierWorkload::new().with_sample_cap(Some(3));
    let cx = WorkloadContext::new(&taxonomy, kind, 1);
    let data = workload.build(&cx).expect("ebay is deep enough");
    let report = workload.run(&runner, model.as_ref(), &cx, &data);
    assert_eq!(report.metrics.instances, data.instances.len());
}
