//! Statistical companion to the headline tables: significance tests,
//! the popularity→accuracy correlation behind Finding 1, per-model
//! level-trend slopes behind Finding 2, and multi-seed variance of the
//! simulation vs the benchmark's own sampling error.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- analysis [--cap 200]`.

use taxoglimpse_bench::{build_dataset, RunOptions, TaxonomyCache};
use taxoglimpse_core::analysis::{level_trend, spearman, two_proportion_z};
use taxoglimpse_core::dataset::QuestionDataset;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::simulate::SimulatedLlm;
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_report::table::Table;
use taxoglimpse_synth::PopularityModel;

pub fn run(opts: &RunOptions, cache: &TaxonomyCache) {
    let zoo = ModelZoo::default_zoo();
    let runner = GridRunner::default();

    // ── popularity → accuracy correlation (Finding 1, quantified) ────
    println!("Popularity vs accuracy (hard datasets, Spearman rank correlation)\n");
    let popularity = PopularityModel::new(opts.seed);
    let mut table = Table::new(
        "per-model correlation between taxonomy popularity and accuracy".to_owned(),
        vec!["Model".into(), "rho".into()],
    );
    let pops: Vec<f64> = TaxonomyKind::ALL.iter().map(|&k| popularity.anchor(k)).collect();
    for model_id in [ModelId::Gpt4, ModelId::Gpt35, ModelId::Llama3_8b, ModelId::FlanT5_11b, ModelId::Llms4Ol] {
        let model = zoo.get(model_id).expect("zoo covers all ids");
        let accs: Vec<f64> = TaxonomyKind::ALL
            .iter()
            .map(|&kind| {
                let taxonomy = cache.get(kind, opts.seed, opts.scale);
                let dataset = build_dataset(&taxonomy, kind, QuestionDataset::Hard, opts);
                runner.run(model.as_ref(), &dataset).overall.accuracy()
            })
            .collect();
        table.push_row(vec![model_id.to_string(), format!("{:+.3}", spearman(&pops, &accs))]);
    }
    println!("{}", table.render_ascii());

    // ── pairwise significance on a specialized taxonomy ──────────────
    println!("Pairwise significance, Glottolog hard (two-proportion z-test)\n");
    let glotto = cache.get(TaxonomyKind::Glottolog, opts.seed, opts.scale);
    let gd = build_dataset(&glotto, TaxonomyKind::Glottolog, QuestionDataset::Hard, opts);
    let contenders = [ModelId::Gpt4, ModelId::Llms4Ol, ModelId::Llama3_8b, ModelId::FlanT5_11b];
    let reports: Vec<_> = contenders
        .iter()
        .map(|&id| runner.run(zoo.get(id).unwrap().as_ref(), &gd))
        .collect();
    for i in 0..contenders.len() {
        for j in (i + 1)..contenders.len() {
            let t = two_proportion_z(&reports[i].overall, &reports[j].overall);
            println!(
                "  {:<12} ({:.3}) vs {:<12} ({:.3}): z = {:+.2}, p = {:.4} {}",
                contenders[i].to_string(),
                reports[i].overall.accuracy(),
                contenders[j].to_string(),
                reports[j].overall.accuracy(),
                t.z,
                t.p_value,
                if t.significant() { "*" } else { "" }
            );
        }
    }

    // ── level-trend slopes (Finding 2, quantified) ───────────────────
    println!("\nLevel-trend slopes (accuracy per level step; negative = root-to-leaf decline)\n");
    for kind in [TaxonomyKind::Amazon, TaxonomyKind::Glottolog, TaxonomyKind::Oae] {
        let taxonomy = cache.get(kind, opts.seed, opts.scale);
        let dataset = build_dataset(&taxonomy, kind, QuestionDataset::Hard, opts);
        let mut slopes = Vec::new();
        for model in zoo.all() {
            slopes.push(level_trend(&runner.run(model.as_ref(), &dataset)));
        }
        let declining = slopes.iter().filter(|&&s| s < 0.0).count();
        let mean = slopes.iter().sum::<f64>() / slopes.len() as f64;
        println!("  {:<10} mean slope {mean:+.3}, {declining}/18 models declining", kind.display_name());
    }

    // ── simulation variance vs sampling error ────────────────────────
    println!("\nMulti-seed variance (GPT-4, eBay hard): simulation noise vs the ±5% design margin\n");
    let ebay = cache.get(TaxonomyKind::Ebay, opts.seed, 1.0);
    let ed = build_dataset(&ebay, TaxonomyKind::Ebay, QuestionDataset::Hard, opts);
    let accs: Vec<f64> = (0..8u64)
        .map(|s| {
            runner
                .run(&SimulatedLlm::with_seed(ModelId::Gpt4, s), &ed)
                .overall
                .accuracy()
        })
        .collect();
    let mean = accs.iter().sum::<f64>() / accs.len() as f64;
    let sd = (accs.iter().map(|a| (a - mean) * (a - mean)).sum::<f64>() / accs.len() as f64).sqrt();
    let (lo, hi) = runner
        .run(&SimulatedLlm::new(ModelId::Gpt4), &ed)
        .overall
        .accuracy_ci95();
    println!("  8-seed accuracy: mean {mean:.3}, sd {sd:.3}; single-run Wilson 95% CI [{lo:.3}, {hi:.3}]");
    println!("  simulation noise sits inside the benchmark's own sampling error.");
}
