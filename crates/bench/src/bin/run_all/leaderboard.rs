//! The model leaderboard: all eighteen models ranked by accuracy pooled
//! over every (taxonomy × flavor) cell, with its Wilson CI and the
//! macro averages beside it — plus the polarity and similarity-band
//! failure analysis for the winner and a weak model.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- leaderboard [--cap 100]`.

use taxoglimpse_bench::{build_dataset, RunOptions, TaxonomyCache};
use taxoglimpse_core::dataset::{Dataset, QuestionDataset};
use taxoglimpse_core::detailed::DetailedRun;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_core::model::LanguageModel;
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_report::leaderboard::{leaderboard, render};

pub fn run(opts: &RunOptions, cache: &TaxonomyCache) {
    let zoo = ModelZoo::default_zoo();

    // Datasets: all taxonomies × all flavors.
    let mut datasets: Vec<Dataset> = Vec::new();
    for kind in TaxonomyKind::ALL {
        let taxonomy = cache.get(kind, opts.seed, opts.scale);
        for flavor in QuestionDataset::ALL {
            datasets.push(build_dataset(&taxonomy, kind, flavor, opts));
        }
    }
    let dataset_refs: Vec<&Dataset> = datasets.iter().collect();
    let arcs: Vec<_> = opts.model_list().iter().map(|&id| zoo.get(id).expect("zoo")).collect();
    let models: Vec<&dyn LanguageModel> = arcs.iter().map(|m| m.as_ref() as &dyn LanguageModel).collect();

    let reports = GridRunner::builder().build().run_cross(&models, &dataset_refs);
    println!("{}", render(&leaderboard(&reports)));

    // Failure analysis: polarity + similarity bands on Glottolog hard.
    println!("Failure analysis, Glottolog hard (positives vs hard negatives; similarity bands)\n");
    let glotto = cache.get(TaxonomyKind::Glottolog, opts.seed, opts.scale);
    let gd = build_dataset(&glotto, TaxonomyKind::Glottolog, QuestionDataset::Hard, opts);
    for id in [ModelId::Gpt4, ModelId::Vicuna13b] {
        let model = zoo.get(id).expect("zoo");
        let run = DetailedRun::record(&GridRunner::default(), model.as_ref(), &gd);
        let (pos, _easy, hard) = run.by_polarity();
        let (low, mid, high) = run.by_similarity_band();
        println!("  {id}:");
        println!("    positives      A={:.3} (n={})", pos.accuracy(), pos.total());
        println!("    hard negatives A={:.3} (n={})", hard.accuracy(), hard.total());
        println!(
            "    similarity bands: low {:.3} (n={}), mid {:.3} (n={}), high {:.3} (n={})",
            low.accuracy(),
            low.total(),
            mid.accuracy(),
            mid.total(),
            high.accuracy(),
            high.total()
        );
        println!("    sample failure: {:?}\n", run.failures().next().map(|e| (&e.prompt, &e.response)));
    }
}
