//! Serving-cost estimate: what would running the full TaxoGlimpse
//! benchmark (all three flavors, all ten taxonomies) cost per model —
//! dollars for API models, simulated GPU-hours for self-hosted ones?
//!
//! Each model is served through the same tower every workload uses: a
//! [`FaultInjector`] failing 2% of deliveries as `Unavailable`, run over
//! every dataset (built once, shared by all models) by `GridRunner::run`,
//! whose per-chunk resilience sessions retry them. A run resets the
//! model's counters, so the ledger adds up the usage meter and the
//! injector's stats after each run. Tokens and dollars come from the
//! usage meter; every delivery, retried or not, takes one
//! `seconds_per_delivery` of simulated serving time.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- cost [--models GPT-4,Llama-2-70B] [--cap 50]`.

use taxoglimpse_bench::{build_dataset, RunOptions, TaxonomyCache};
use taxoglimpse_core::dataset::{Dataset, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_llm::api::{cost_usd, seconds_per_delivery};
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::simulate::{SimulatedLlm, UsageStats};
use taxoglimpse_llm::{FaultInjector, FaultPlan, FaultStats};
use taxoglimpse_report::table::Table;

/// Share of deliveries the serving layer loses to transient outages.
const UNAVAILABLE_RATE: f64 = 0.02;

pub fn run(opts: &RunOptions, cache: &TaxonomyCache) {
    let runner = GridRunner::default();
    let models = opts
        .models
        .clone()
        .unwrap_or_else(|| vec![ModelId::Gpt4, ModelId::Gpt35, ModelId::Claude3, ModelId::Llama2_70b, ModelId::FlanT5_3b]);

    let mut table = Table::new(
        format!("Full-benchmark serving cost (scale {}, all flavors)", opts.scale),
        vec![
            "Model".into(),
            "questions".into(),
            "prompt tok".into(),
            "compl. tok".into(),
            "retries".into(),
            "sim. hours".into(),
            "USD".into(),
        ],
    );

    let datasets: Vec<Dataset> = TaxonomyKind::ALL
        .into_iter()
        .flat_map(|kind| {
            let taxonomy = cache.get(kind, opts.seed, opts.scale);
            QuestionDataset::ALL.map(|flavor| build_dataset(&taxonomy, kind, flavor, opts))
        })
        .collect();
    let questions: usize = datasets.iter().map(Dataset::len).sum();

    for model_id in models {
        let client = FaultInjector::new(
            SimulatedLlm::new(model_id),
            FaultPlan::disabled(opts.seed).with_unavailable_rate(UNAVAILABLE_RATE),
        );
        let (mut usage, mut faults) = (UsageStats::default(), FaultStats::default());
        for dataset in &datasets {
            runner.run(&client, dataset);
            usage += client.base().usage();
            faults += client.stats();
        }
        let UsageStats { prompt_tokens, completion_tokens, .. } = usage;
        let FaultStats { injected: retries, calls: deliveries, .. } = faults;
        let usd = cost_usd(model_id, prompt_tokens, completion_tokens);
        table.push_row(vec![
            model_id.to_string(),
            questions.to_string(),
            prompt_tokens.to_string(),
            completion_tokens.to_string(),
            retries.to_string(),
            format!("{:.2}", deliveries as f64 * seconds_per_delivery(model_id) / 3600.0),
            if usd > 0.0 { format!("${usd:.2}") } else { "self-hosted".into() },
        ]);
    }
    println!("{}", table.render_ascii());
    println!("API prices are the 2024 list prices per million tokens; self-hosted models cost GPU time instead.");
}
