//! Regenerates **Figure 4** — radar-chart data for representative models
//! (GPT-4, Flan-T5-11B, Llama-2-7B) on the hard datasets under
//! zero-shot, few-shot and CoT prompting: accuracy and miss rate per
//! taxonomy.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- fig4 [--cap 100]`.

use taxoglimpse_bench::{build_dataset, RunOptions, TaxonomyCache};
use taxoglimpse_core::dataset::QuestionDataset;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::eval::EvalConfig;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_core::model::LanguageModel;
use taxoglimpse_core::prompts::PromptSetting;
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_report::figures::{Figure, Series};

pub fn run(opts: &RunOptions, cache: &TaxonomyCache) {
    let zoo = ModelZoo::default_zoo();

    for model in zoo.figure4_representatives() {
        let mut acc_figure = Figure::new(format!("Figure 4: {} — accuracy radar (hard)", model.name()));
        let mut miss_figure = Figure::new(format!("Figure 4: {} — miss-rate radar (hard)", model.name()));
        for setting in PromptSetting::ALL {
            let runner = GridRunner::builder().with_config(EvalConfig { setting, ..Default::default() }).build();
            let mut acc_points = Vec::new();
            let mut miss_points = Vec::new();
            for kind in TaxonomyKind::ALL {
                let taxonomy = cache.get(kind, opts.seed, opts.scale);
                let dataset = build_dataset(&taxonomy, kind, QuestionDataset::Hard, opts);
                let report = runner.run(model.as_ref(), &dataset);
                acc_points.push((kind.display_name().to_owned(), report.overall.accuracy()));
                miss_points.push((kind.display_name().to_owned(), report.overall.miss_rate()));
            }
            acc_figure.push(Series::new(setting.to_string(), acc_points));
            miss_figure.push(Series::new(setting.to_string(), miss_points));
        }
        println!("{}", acc_figure.render_text());
        println!("{}", miss_figure.render_text());

        // Finding-4 deltas for this model.
        let mean = |s: &Series| s.points.iter().map(|p| p.1).sum::<f64>() / s.points.len() as f64;
        let zero_acc = mean(&acc_figure.series[0]);
        let few_acc = mean(&acc_figure.series[1]);
        let cot_acc = mean(&acc_figure.series[2]);
        let zero_miss = mean(&miss_figure.series[0]);
        let few_miss = mean(&miss_figure.series[1]);
        println!(
            "{}: mean accuracy zero-shot {zero_acc:.3}, few-shot {few_acc:.3} (d{:+.3}), CoT {cot_acc:.3} (d{:+.3}); \
             mean miss zero-shot {zero_miss:.3} -> few-shot {few_miss:.3}\n",
            model.name(),
            few_acc - zero_acc,
            cot_acc - zero_acc,
        );
    }
}
