//! Regenerates **Figure 5** — example few-shot and Chain-of-Thoughts
//! prompts, rendered from a real dataset slice.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- fig5`.

use taxoglimpse_bench::{build_dataset, RunOptions, TaxonomyCache};
use taxoglimpse_core::dataset::QuestionDataset;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::prompts::{render_prompt, PromptSetting};
use taxoglimpse_core::templates::TemplateVariant;

pub fn run(opts: &RunOptions, cache: &TaxonomyCache) {
    let kind = TaxonomyKind::Glottolog;
    let taxonomy = cache.get(kind, opts.seed, opts.scale.min(0.2));
    let dataset = build_dataset(&taxonomy, kind, QuestionDataset::Hard, opts);

    let slice = &dataset.levels[dataset.levels.len() - 1];
    let question = &slice.questions[0];

    println!("Figure 5: Few-shot and Chain-of-Thoughts examples ({})\n", kind.display_name());
    println!("--- Few-shot ---");
    println!(
        "{}\n",
        render_prompt(question, PromptSetting::FewShot, TemplateVariant::Canonical, &slice.exemplars)
    );
    println!("--- Chain-of-Thoughts ---");
    println!(
        "{}",
        render_prompt(question, PromptSetting::ChainOfThought, TemplateVariant::Canonical, &[])
    );
}
