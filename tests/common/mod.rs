//! Helpers shared by the integration suites: the deterministic
//! property loop and the pinned report-digest workload. Each suite uses
//! a subset, hence the `dead_code` allowance.
#![allow(dead_code)]

use taxoglimpse::core::reports_digest;
use taxoglimpse::prelude::*;
use taxoglimpse::synth::rng::{fork, SynthRng};

/// Run `f` for `n` cases, case `i` drawing from `fork(seed, tag, i)`,
/// and report the failing case index (which is all that's needed to
/// replay it).
pub fn cases(seed: u64, n: u64, tag: &str, f: impl Fn(&mut SynthRng, u64)) {
    for i in 0..n {
        let mut rng = fork(seed, tag, i);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut rng, i)));
        if let Err(payload) = result {
            let message = payload
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_owned()))
                .unwrap_or_else(|| "non-string panic payload".to_owned());
            panic!("property `{tag}` failed at case {i}/{n}: {message}");
        }
    }
}

/// Report digests of the canonical pinned workload: GPT-4 and
/// Llama-2-7B on the eBay and GeoNames Hard datasets (seed 42, scale
/// 0.1, at most 60 questions per level) on a 4-worker grid, zero-shot
/// then few-shot.
pub fn pinned_workload_digests() -> Vec<String> {
    let datasets: Vec<_> = [TaxonomyKind::Ebay, TaxonomyKind::GeoNames]
        .into_iter()
        .map(|kind| {
            let t = generate(kind, GenOptions { seed: 42, scale: 0.1 }).unwrap();
            DatasetBuilder::new(&t, kind, 42)
                .sample_cap(Some(60))
                .build(QuestionDataset::Hard)
                .unwrap()
        })
        .collect();
    let dataset_refs: Vec<_> = datasets.iter().collect();
    let zoo = ModelZoo::default_zoo();
    let model_arcs = [zoo.get(ModelId::Gpt4).unwrap(), zoo.get(ModelId::Llama2_7b).unwrap()];
    let models: Vec<&dyn LanguageModel> = model_arcs.iter().map(|m| m.as_ref() as _).collect();
    [PromptSetting::ZeroShot, PromptSetting::FewShot]
        .into_iter()
        .map(|setting| {
            let reports = GridRunner::builder()
                .with_config(EvalConfig::default().with_setting(setting))
                .with_threads(4)
                .build()
                .run_cross(&models, &dataset_refs);
            format!("{:016x}", reports_digest(&reports))
        })
        .collect()
}
