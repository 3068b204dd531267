//! Ablation studies for the design choices called out in DESIGN.md §4:
//!
//! 1. **hard vs easy negatives** — the uncle-sampling accuracy gap;
//! 2. **surface evidence on/off** — the NCBI species→genus uplift must
//!    disappear when the model cannot see name forms;
//! 3. **template paraphrases** — results stable under "a kind of" / "a
//!    sort of" (paper §2.2);
//! 4. **synthetic scale** — Cochran sample sizes saturate, so dataset
//!    sizes are insensitive to generating a 10× smaller NCBI.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- ablation`.

use taxoglimpse_bench::{build_dataset, RunOptions, TaxonomyCache};
use taxoglimpse_core::dataset::{DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::eval::EvalConfig;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_core::templates::TemplateVariant;
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::simulate::SimulatedLlm;
use taxoglimpse_report::table::{fmt3, Table};

pub fn run(opts: &RunOptions, cache: &TaxonomyCache) {
    let runner = GridRunner::default();

    // ── 1. hard vs easy negatives ────────────────────────────────────
    println!("Ablation 1: negative sampling (uncles vs random), GPT-4, zero-shot\n");
    let mut t1 = Table::new(
        "accuracy by negative regime".to_owned(),
        vec!["Taxonomy".into(), "easy".into(), "hard".into(), "gap".into()],
    );
    let model = SimulatedLlm::new(ModelId::Gpt4);
    for kind in [TaxonomyKind::Amazon, TaxonomyKind::Glottolog, TaxonomyKind::Ncbi] {
        let taxonomy = cache.get(kind, opts.seed, opts.scale);
        let easy = runner.run(&model, &build_dataset(&taxonomy, kind, QuestionDataset::Easy, opts));
        let hard = runner.run(&model, &build_dataset(&taxonomy, kind, QuestionDataset::Hard, opts));
        t1.push_row(vec![
            kind.display_name().into(),
            fmt3(easy.overall.accuracy()),
            fmt3(hard.overall.accuracy()),
            fmt3(easy.overall.accuracy() - hard.overall.accuracy()),
        ]);
    }
    println!("{}", t1.render_ascii());

    // ── 2. surface evidence on/off ───────────────────────────────────
    println!("Ablation 2: surface-form evidence and the NCBI last-level uplift\n");
    let ncbi = cache.get(TaxonomyKind::Ncbi, opts.seed, opts.scale);
    let dataset = build_dataset(&ncbi, TaxonomyKind::Ncbi, QuestionDataset::Hard, opts);
    let with = runner.run(&SimulatedLlm::new(ModelId::Gpt4), &dataset);
    let without = runner.run(
        &SimulatedLlm::new(ModelId::Gpt4).without_surface_evidence(),
        &dataset,
    );
    let mut t2 = Table::new(
        "GPT-4 per-level accuracy on NCBI hard".to_owned(),
        vec!["variant".into(), "L1".into(), "L2".into(), "L3".into(), "L4".into(), "L5".into(), "L6 (species)".into()],
    );
    for (label, report) in [("with evidence", &with), ("without evidence", &without)] {
        let mut row = vec![label.to_owned()];
        row.extend(report.accuracy_by_level().into_iter().map(|(_, a)| fmt3(a)));
        t2.push_row(row);
    }
    println!("{}", t2.render_ascii());
    let uplift = |r: &taxoglimpse_core::eval::EvalReport| {
        let c = r.accuracy_by_level();
        c[5].1 - c[4].1
    };
    println!(
        "species-level uplift: with evidence {:+.3}, without {:+.3} — the uplift is a surface-form effect\n",
        uplift(&with),
        uplift(&without)
    );

    // ── 3. template paraphrases ──────────────────────────────────────
    println!("Ablation 3: template paraphrase stability (Flan-T5-11B, Google hard)\n");
    let google = cache.get(TaxonomyKind::Google, opts.seed, opts.scale);
    let gd = build_dataset(&google, TaxonomyKind::Google, QuestionDataset::Hard, opts);
    let flan = SimulatedLlm::new(ModelId::FlanT5_11b);
    for variant in TemplateVariant::ALL {
        let report = GridRunner::builder().with_config(EvalConfig { variant, ..Default::default() }).build().run(&flan, &gd);
        println!("  {variant:?}: A={}", fmt3(report.overall.accuracy()));
    }
    println!();

    // ── 4. synthetic scale insensitivity ─────────────────────────────
    println!("Ablation 4: Cochran saturation — NCBI dataset sizes vs taxonomy scale\n");
    for scale in [1.0, 0.5, 0.1] {
        let t = cache.get(TaxonomyKind::Ncbi, opts.seed, scale);
        let d = DatasetBuilder::new(&t, TaxonomyKind::Ncbi, opts.seed)
            .build(QuestionDataset::Mcq)
            .expect("probe levels");
        println!(
            "  scale {scale:>4}: {:>9} entities -> {:>5} MCQ questions",
            t.len(),
            d.len()
        );
    }
    println!("\nsample sizes saturate at ~385/level, so benchmark size is nearly scale-invariant.");
}
