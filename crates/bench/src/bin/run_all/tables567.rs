//! Regenerates **Tables 5, 6 and 7** — overall accuracy *A* and miss
//! rate *M* of the eighteen models on the Hard, Easy and MCQ datasets —
//! and prints the paper-vs-measured fidelity summary.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- tables567 [--models GPT-4]`.

use taxoglimpse_bench::{build_dataset, RunOptions, TaxonomyCache};
use taxoglimpse_core::dataset::{Dataset, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::eval::EvalConfig;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_core::model::LanguageModel;
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_report::compare::ComparisonSummary;
use taxoglimpse_report::table::{fmt3, Table};

pub fn run(opts: &RunOptions, cache: &TaxonomyCache) {
    let zoo = ModelZoo::default_zoo();
    let runner = GridRunner::builder().with_config(EvalConfig::default()).build();
    let models = opts.model_list();

    for flavor in QuestionDataset::ALL {
        let table_no = match flavor {
            QuestionDataset::Hard => 5,
            QuestionDataset::Easy => 6,
            QuestionDataset::Mcq => 7,
        };
        let mut headers = vec!["Model".into(), "".into()];
        headers.extend(TaxonomyKind::ALL.iter().map(|k| k.display_name().to_owned()));
        let mut table = Table::new(
            format!("Table {table_no}: Overall results on {flavor} datasets (scale {})", opts.scale),
            headers,
        );

        // Build the ten datasets once, then fan the grid out in parallel.
        let datasets: Vec<Dataset> = TaxonomyKind::ALL
            .into_iter()
            .map(|kind| {
                let taxonomy = cache.get(kind, opts.seed, opts.scale);
                build_dataset(&taxonomy, kind, flavor, opts)
            })
            .collect();
        let dataset_refs: Vec<&Dataset> = datasets.iter().collect();
        let model_arcs: Vec<_> = models.iter().map(|&id| zoo.get(id).expect("zoo covers all ids")).collect();
        let model_refs: Vec<&dyn LanguageModel> =
            model_arcs.iter().map(|m| m.as_ref() as &dyn LanguageModel).collect();
        let reports = runner.run_cross(&model_refs, &dataset_refs);

        let mut comparisons = Vec::new();
        for (mi, &model_id) in models.iter().enumerate() {
            let mut row_a = vec![model_id.to_string(), "A".to_owned()];
            let mut row_m = vec![String::new(), "M".to_owned()];
            for di in 0..dataset_refs.len() {
                let report = &reports[mi * dataset_refs.len() + di];
                row_a.push(fmt3(report.overall.accuracy()));
                row_m.push(fmt3(report.overall.miss_rate()));
                comparisons.push((model_id, report.clone()));
            }
            table.push_row(row_a);
            table.push_row(row_m);
        }
        println!("{}", table.render_ascii());

        let summary = ComparisonSummary::from_reports(flavor, &comparisons);
        println!(
            "fidelity vs paper ({flavor}): mean |dA| = {:.3}, mean |dM| = {:.3}, max |dA| = {:.3}, winner agreement = {:.0}%",
            summary.mean_delta_a(),
            summary.mean_delta_m(),
            summary.max_delta_a(),
            summary.winner_agreement() * 100.0
        );
        println!();
    }
}
