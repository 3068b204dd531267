//! Quickstart: generate a benchmark taxonomy, build its Hard dataset,
//! evaluate two models, and print overall + per-level metrics.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use taxoglimpse::prelude::*;

fn main() {
    // 1. A synthetic stand-in for the eBay shopping taxonomy with the
    //    exact Table-1 shape (13 trees, 595 entities, 3 levels).
    let taxonomy = generate(TaxonomyKind::Ebay, GenOptions::default()).expect("valid options");
    println!(
        "taxonomy: {} — {} entities over {} levels, {} trees",
        TaxonomyKind::Ebay,
        taxonomy.len(),
        taxonomy.num_levels(),
        taxonomy.roots().len()
    );

    // 2. The Hard dataset: positives + uncle negatives, Cochran-sampled
    //    per level exactly like the paper's §2.2.
    let dataset = DatasetBuilder::new(&taxonomy, TaxonomyKind::Ebay, 42)
        .build(QuestionDataset::Hard)
        .expect("eBay has probe levels");
    println!("dataset: {} questions across {} levels", dataset.len(), dataset.levels.len());

    // A taste of what the models see:
    let sample = dataset.questions().next().expect("nonempty dataset");
    println!(
        "sample question: {}",
        taxoglimpse::core::templates::render_question(sample, Default::default())
    );

    // 3. Evaluate GPT-4 and Llama-2-7B (simulated, calibrated on the
    //    paper's published results) through the one evaluation path.
    let zoo = ModelZoo::default_zoo();
    let runner = GridRunner::default();
    for id in [ModelId::Gpt4, ModelId::Llama2_7b] {
        let model = zoo.get(id).expect("zoo covers all models");
        let report = runner.run(model.as_ref(), &dataset);
        println!("\n{} on eBay hard (zero-shot):", report.model);
        println!("  overall: {}", report.overall);
        for level in &report.by_level {
            println!(
                "  level {} -> {}: A={:.3} M={:.3}",
                level.child_level,
                level.child_level - 1,
                level.metrics.accuracy(),
                level.metrics.miss_rate()
            );
        }
    }

    // 4. Serving faults? Wrap any model in the deterministic fault
    //    injector: the runner retries transient errors, scores what
    //    still fails as Failed, and reports availability alongside
    //    accuracy — no crash, no lost report.
    let flaky = FaultInjector::new(SimulatedLlm::new(ModelId::Gpt4), FaultPlan::uniform(7, 0.2));
    let degraded = runner.run(&flaky, &dataset);
    println!(
        "\nGPT-4 behind a 20% fault injector: A={:.3}, availability {:.1}%",
        degraded.overall.accuracy(),
        degraded.overall.availability() * 100.0
    );
}
