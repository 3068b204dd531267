//! Reproduce the paper's Example 1 interactively: walk one root-to-leaf
//! chain of the Glottolog-shaped taxonomy, asking a model "Is <child> a
//! type of <parent>?" at every level, then show the per-level accuracy
//! curve that generalizes the anecdote (Figure 3(f)).
//!
//! ```text
//! cargo run --release --example level_probe [-- GPT-4]
//! ```

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

    let runner = GridRunner::default();
    for pair in chain.windows(2) {
        let (parent, child) = (pair[0], pair[1]);
        let question = Question {
            id: taxonomy.level(child) as u64,
            ..Question::probe(kind, taxonomy.name(child), taxonomy.name(parent), taxonomy.level(parent), None)
        };
        let answer = runner.ask(model.as_ref(), &question, &[]);
        let text = match answer.response {
            Ok(response) => response.text.to_string(),
            Err(error) => format!("[{error}]"),
        };
        println!("L{} Q: {}", question.child_level, answer.prompt);
        println!("   {}: {text}   [{:?}]\n", model.name(), answer.outcome);
    }

    // The anecdote, generalized: the full per-level accuracy curve.
    let dataset = DatasetBuilder::new(&taxonomy, kind, 42)
        .sample_cap(Some(150))
        .build(QuestionDataset::Hard)
        .expect("probe levels exist");
    let report = runner.run(model.as_ref(), &dataset);
    println!("{} per-level accuracy on {} (hard, zero-shot):", model.name(), kind);
    for (level, accuracy) in report.accuracy_by_level() {
        let bar = "#".repeat((accuracy * 40.0).round() as usize);
        println!("  L{level}: {accuracy:.3} {bar}");
    }
}
