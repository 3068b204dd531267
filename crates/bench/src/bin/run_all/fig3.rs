//! Regenerates **Figure 3** — per-level accuracy on the hard datasets
//! under zero-shot prompting, for the nine multi-level taxonomies
//! (GeoNames has a single child level and is omitted, as in the paper).
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- fig3 [--models GPT-4,LLMs4OL]`.

use taxoglimpse_bench::{build_dataset, RunOptions, TaxonomyCache};
use taxoglimpse_core::dataset::QuestionDataset;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_report::figures::{Figure, Series};

pub fn run(opts: &RunOptions, cache: &TaxonomyCache) {
    let zoo = ModelZoo::default_zoo();
    let runner = GridRunner::default();
    let models = opts.model_list();

    let mut panel = b'a';
    for kind in TaxonomyKind::ALL {
        if kind == TaxonomyKind::GeoNames {
            continue; // single child level: nothing to plot (paper §4.2)
        }
        let taxonomy = cache.get(kind, opts.seed, opts.scale);
        let dataset = build_dataset(&taxonomy, kind, QuestionDataset::Hard, opts);
        let mut figure = Figure::new(format!(
            "Figure 3({}): {} — accuracy per level, hard, zero-shot",
            panel as char,
            kind.display_name()
        ));
        for &model_id in &models {
            let model = zoo.get(model_id).expect("zoo covers all ids");
            let report = runner.run(model.as_ref(), &dataset);
            let points = report
                .accuracy_by_level()
                .into_iter()
                .map(|(level, acc)| (format!("L{level}"), acc))
                .collect();
            figure.push(Series::new(model_id.to_string(), points));
        }
        println!("{}", figure.render_text());
        let declining = figure.series.iter().filter(|s| Figure::series_declines(s)).count();
        println!(
            "root-to-leaf decline: {declining}/{} models decline on {}\n",
            figure.series.len(),
            kind.display_name()
        );
        panel += 1;
    }
}
