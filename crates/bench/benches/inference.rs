//! Benchmarks of simulated-LLM inference: decision + free-text response
//! + parsing throughput, per model family and prompt setting.

use taxoglimpse_bench::harness::{black_box, Bench, Throughput};
use taxoglimpse_core::dataset::{DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::eval::EvalConfig;
use taxoglimpse_core::grid::GridRunner;
use taxoglimpse_core::parse::parse_tf;
use taxoglimpse_core::prompts::PromptSetting;
use taxoglimpse_core::text::similarity;
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_llm::zoo::ModelZoo;
use taxoglimpse_synth::{generate, GenOptions};

fn bench_trigram(b: &mut Bench) {
    b.bench("similarity/species_genus", || {
        similarity(black_box("Verbascum chaixii"), black_box("Verbascum"))
    });
}

fn bench_parse(b: &mut Bench) {
    b.bench("parse_tf/verbose", || {
        parse_tf(black_box("Yes, Hailu is a type of Hakka-Chinese."))
    });
}

fn bench_inference(b: &mut Bench) {
    let ebay = generate(TaxonomyKind::Ebay, GenOptions { seed: 9, scale: 1.0 }).unwrap();
    let dataset = DatasetBuilder::new(&ebay, TaxonomyKind::Ebay, 9)
        .sample_cap(Some(100))
        .build(QuestionDataset::Hard)
        .unwrap();
    let zoo = ModelZoo::default_zoo();
    let questions = dataset.len() as u64;

    for model_id in [ModelId::Gpt4, ModelId::FlanT5_3b, ModelId::Llama2_7b] {
        let model = zoo.get(model_id).unwrap();
        for setting in [PromptSetting::ZeroShot, PromptSetting::FewShot] {
            let runner = GridRunner::builder().with_config(EvalConfig { setting, ..Default::default() }).with_threads(1).build();
            let name = format!(
                "inference/ebay_hard_200q/{}/{setting}",
                model_id.display_name()
            );
            b.bench_with_throughput(&name, Throughput::Elements(questions), || {
                runner.run(model.as_ref(), &dataset)
            });
        }
    }
}

fn main() {
    let mut b = Bench::from_env();
    bench_trigram(&mut b);
    bench_parse(&mut b);
    bench_inference(&mut b);
}
