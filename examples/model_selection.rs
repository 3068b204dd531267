//! Model selection under a budget — the decision the paper's
//! "industrial users" actually face: which model handles *your* domain's
//! taxonomy questions best per dollar (or GPU-hour)?
//!
//! The pipeline: evaluate candidate models on the domain's hard dataset
//! in parallel, rank them with confidence intervals, price the workload
//! at list prices, and print a quality-vs-cost decision table.
//!
//! ```text
//! cargo run --release --example model_selection [-- icd-10-cm]
//! ```

use taxoglimpse::llm::api::cost_usd;
use taxoglimpse::prelude::*;
use taxoglimpse::report::leaderboard::{leaderboard, render};

fn main() {
    let kind: TaxonomyKind = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "icd-10-cm".into())
        .parse()
        .expect("known taxonomy");
    let monthly_queries = 1_000_000u64;

    let taxonomy = generate(kind, GenOptions { seed: 42, scale: 1.0 }).expect("valid options");
    let dataset = DatasetBuilder::new(&taxonomy, kind, 42)
        .build(QuestionDataset::Hard)
        .expect("probe levels exist");
    println!(
        "domain: {kind} — {} entities; calibration set: {} hard questions\n",
        taxonomy.len(),
        dataset.len()
    );

    // 1. Quality: parallel evaluation of the candidates.
    let candidates = [
        ModelId::Gpt4,
        ModelId::Gpt35,
        ModelId::Claude3,
        ModelId::Llama3_8b,
        ModelId::Llama2_70b,
        ModelId::FlanT5_11b,
        ModelId::Llms4Ol,
    ];
    let zoo = ModelZoo::default_zoo();
    let arcs: Vec<_> =
        candidates.iter().map(|&id| zoo.get(id).expect("candidate is in the default zoo")).collect();
    let models: Vec<&dyn LanguageModel> = arcs.iter().map(|m| m.as_ref() as &dyn LanguageModel).collect();
    let reports = GridRunner::default().run_cross(&models, &[&dataset]);
    println!("{}", render(&leaderboard(&reports)));

    // 2. Cost: price a production month at list prices.
    println!("cost of {monthly_queries} queries/month (avg 30 prompt + 8 completion tokens):\n");
    println!("{:<12} {:>14} {:>16}", "model", "monthly USD", "or GPU-hours");
    for &id in &candidates {
        let usd = cost_usd(id, monthly_queries * 30, monthly_queries * 8);
        let gpu_hours = taxoglimpse::llm::scalability::footprint(id)
            .map(|f| f.seconds_per_question * monthly_queries as f64 / 3600.0);
        match (usd > 0.0, gpu_hours) {
            (true, _) => println!("{:<12} {:>13.0}$ {:>16}", id.to_string(), usd, "-"),
            (false, Some(h)) => println!("{:<12} {:>14} {:>15.0}h", id.to_string(), "-", h),
            _ => println!("{:<12} {:>14} {:>16}", id.to_string(), "-", "-"),
        }
    }

    // 3. The verdict, paper-style.
    let board = leaderboard(&reports);
    let best = &board[0];
    println!(
        "\nbest quality: {} (A = {:.3}); if its serving cost is prohibitive, the first\n\
         self-hosted entry below it on the board is the paper's recommended trade-off —\n\
         and for specialized domains, keep the tree (Finding 1).",
        best.model, best.macro_accuracy
    );
}
