//! Regenerates the **§5.3 case study** — replacing level-4-and-below of
//! the Amazon Product Category with Llama-2-70B.
//!
//! Paper reference points: 59% construction/maintenance saving,
//! precision 0.713, recall 0.792.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- casestudy [--cap 100]`.

use taxoglimpse_bench::{RunOptions, TaxonomyCache};
use taxoglimpse_core::casestudy::{CaseStudy, CaseStudyConfig};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::zoo::ModelZoo;

pub fn run(opts: &RunOptions, cache: &TaxonomyCache) {
    let taxonomy = cache.get(TaxonomyKind::Amazon, opts.seed, opts.scale);

    let config = CaseStudyConfig {
        cutoff_level: 4,
        products_per_concept: 12,
        sample_cap: opts.cap,
        seed: opts.seed,
    };
    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::Llama2_70b).expect("zoo covers all ids");

    let study = CaseStudy::new(&taxonomy, TaxonomyKind::Amazon, config);
    let start = std::time::Instant::now();
    let result = study.run(model.as_ref());
    let elapsed = start.elapsed();

    println!("Case study (§5.3): Amazon Product Category levels >= 4 replaced by Llama-2-70B");
    println!("  kept nodes:        {}", result.kept_nodes);
    println!("  removed nodes:     {}", result.removed_nodes);
    println!("  cost saving:       {:.1}%   (paper: 59%)", result.cost_saving * 100.0);
    println!("  precision:         {:.3}   (paper: 0.713)", result.precision);
    println!("  recall:            {:.3}   (paper: 0.792)", result.recall);
    println!("  concepts sampled:  {}", result.concepts_evaluated);
    println!("  classifications:   {}", result.classifications);
    eprintln!("classified in {elapsed:?}");
}
