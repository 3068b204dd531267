//! End-to-end pipeline benchmark: generate → build dataset → evaluate,
//! the unit of work behind one (model, taxonomy) cell of Tables 5–7,
//! plus the §5.3 case study.

use taxoglimpse_bench::harness::{black_box, Bench};
use taxoglimpse_core::casestudy::{CaseStudy, CaseStudyConfig};
use taxoglimpse_core::dataset::{DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_synth::{generate, GenOptions};

fn bench_cell(b: &mut Bench) {
    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::Gpt4).unwrap();
    b.bench("pipeline/ebay_hard_full_cell", || {
        let taxonomy = generate(TaxonomyKind::Ebay, GenOptions { seed: 3, scale: 1.0 }).unwrap();
        let dataset = DatasetBuilder::new(&taxonomy, TaxonomyKind::Ebay, 3)
            .build(QuestionDataset::Hard)
            .unwrap();
        black_box(GridRunner::builder().with_threads(1).build().run(model.as_ref(), &dataset))
    });
}

fn bench_case_study(b: &mut Bench) {
    let taxonomy = generate(TaxonomyKind::Amazon, GenOptions { seed: 3, scale: 0.1 }).unwrap();
    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::Llama2_70b).unwrap();
    b.bench("pipeline/casestudy_amazon_50_concepts", || {
        let study = CaseStudy::new(&taxonomy, TaxonomyKind::Amazon, CaseStudyConfig {
            cutoff_level: 3,
            products_per_concept: 8,
            sample_cap: Some(50),
            seed: 3,
        });
        black_box(study.run(model.as_ref()))
    });
}

fn main() {
    let mut b = Bench::from_env();
    bench_cell(&mut b);
    bench_case_study(&mut b);
}
