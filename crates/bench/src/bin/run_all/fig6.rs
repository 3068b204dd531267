//! Regenerates **Figure 6** — instance-typing accuracy per target level
//! on hard datasets, zero-shot, for the six instance-bearing taxonomies
//! (Amazon, Google, Glottolog, ICD-10-CM, OAE, NCBI).
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- fig6 [--cap 100]`.

use taxoglimpse_bench::{RunOptions, TaxonomyCache};
use taxoglimpse_core::dataset::{DatasetBuilder, QuestionDataset};
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
        if !kind.has_instances() {
            continue;
        }
        let taxonomy = cache.get(kind, opts.seed, opts.scale);
        let dataset = DatasetBuilder::new(&taxonomy, kind, opts.seed)
            .sample_cap(opts.cap)
            .instance_typing(QuestionDataset::Hard)
            .expect("hard flavor is always defined for instance-bearing kinds");

        let mut figure = Figure::new(format!(
            "Figure 6({}): {} — instance typing accuracy per target level, hard, zero-shot",
            panel as char,
            kind.display_name()
        ));
        for &model_id in &models {
            let model = zoo.get(model_id).expect("zoo covers all ids");
            let report = runner.run(model.as_ref(), &dataset);
            let points = report
                .accuracy_by_level()
                .into_iter()
                .map(|(level, acc)| (format!("to-L{level}"), acc))
                .collect();
            figure.push(Series::new(model_id.to_string(), points));
        }
        println!("{}", figure.render_text());
        panel += 1;
    }
}
