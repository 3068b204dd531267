//! Reproduce the paper's Example 1 interactively: walk one root-to-leaf
//! chain of the Glottolog-shaped taxonomy, asking a model "Is <child> a
//! type of <parent>?" at every level, then show the per-level accuracy
//! curve that generalizes the anecdote (Figure 3(f)).
//!
//! ```text
//! cargo run --release --example level_probe [-- GPT-4]
//! ```

use taxoglimpse::core::eval::score;
use taxoglimpse::core::parse::parse_tf;
use taxoglimpse::core::question::{Question, QuestionBody};
use taxoglimpse::core::templates::render_question;
use taxoglimpse::prelude::*;

fn main() {
    let model_name = std::env::args().nth(1).unwrap_or_else(|| "GPT-4".to_owned());
    let zoo = ModelZoo::default_zoo();
    let model = zoo
        .by_name(&model_name)
        .unwrap_or_else(|| panic!("unknown model {model_name:?}"));

    let kind = TaxonomyKind::Glottolog;
    let taxonomy = generate(kind, GenOptions { seed: 42, scale: 0.3 }).expect("valid options");

    // Pick the deepest leaf and walk its chain from the root, exactly
    // like the paper's Hailu → Hakka-Chinese → … → Sino-Tibetan example.
    let deepest = taxonomy
        .ids()
        .max_by_key(|&id| taxonomy.level(id))
        .expect("nonempty taxonomy");
    let chain = taxonomy.chain_from_root(deepest);
    println!(
        "probing chain: {}\n",
        chain.iter().map(|&n| taxonomy.name(n)).collect::<Vec<_>>().join(" ← ")
    );

    for pair in chain.windows(2) {
        let (parent, child) = (pair[0], pair[1]);
        let question = Question {
            id: taxonomy.level(child) as u64,
            taxonomy: kind,
            child: taxonomy.name(child).to_owned(),
            child_level: taxonomy.level(child),
            parent_level: taxonomy.level(parent),
            true_parent: taxonomy.name(parent).to_owned(),
            instance_typing: false,
            body: QuestionBody::TrueFalse {
                candidate: taxonomy.name(parent).to_owned(),
                expected_yes: true,
                negative: None,
            },
            surface_memo: Default::default(),
        };
        let prompt = render_question(&question, Default::default());
        let query = Query::new(&prompt, &question, PromptSetting::ZeroShot);
        let (text, outcome) = match model.answer(&query) {
            Ok(response) => {
                let outcome = score(&question, parse_tf(&response.text));
                (response.text, outcome)
            }
            Err(error) => (format!("[{error}]"), Outcome::Failed),
        };
        println!("L{} Q: {prompt}", question.child_level);
        println!("   {}: {text}   [{outcome:?}]\n", model.name());
    }

    // The anecdote, generalized: the full per-level accuracy curve,
    // through the unified Workload API.
    let cx = WorkloadContext::new(&taxonomy, kind, 42);
    let report = QaWorkload::new(QuestionDataset::Hard)
        .with_sample_cap(Some(150))
        .build_and_run(&GridRunner::default(), model.as_ref(), &cx)
        .expect("probe levels exist");
    println!("{} per-level accuracy on {} (hard, zero-shot):", model.name(), kind);
    for (level, accuracy) in report.accuracy_by_level() {
        let bar = "#".repeat((accuracy * 40.0).round() as usize);
        println!("  L{level}: {accuracy:.3} {bar}");
    }
}
