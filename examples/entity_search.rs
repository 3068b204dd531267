//! The paper's motivating application (§1): entity search — "best
//! health tracker" as a shopping query — over a hybrid taxonomy.
//!
//! Pipeline: the free-text query routes to a kept category of the
//! truncated Google-shaped taxonomy (lexical shortlist + LLM
//! confirmation), the category's breadcrumb renders from the explicit
//! tree, and the inventory is filtered to products the model accepts as
//! members.
//!
//! ```text
//! cargo run --release --example entity_search [-- "smart watch"]
//! ```

use taxoglimpse::core::hybrid::HybridTaxonomy;
use taxoglimpse::core::parse::ParsedAnswer;
use taxoglimpse::prelude::*;
use taxoglimpse::synth::instances::InstanceGenerator;
use taxoglimpse::taxonomy::diff::path_of;

fn main() {
    let query = std::env::args().nth(1).unwrap_or_else(|| "portable speaker".to_owned());

    // Catalog: a Google-shaped product taxonomy with products under its
    // leaves, deep levels delegated to GPT-4.
    let kind = TaxonomyKind::Google;
    let full = generate(kind, GenOptions { seed: 42, scale: 0.3 }).expect("valid options");
    let hybrid = HybridTaxonomy::build(&full, kind, 3);
    let zoo = ModelZoo::default_zoo();
    let model = zoo.get(ModelId::Gpt4).expect("zoo covers all models");

    println!(
        "catalog: {} categories ({} kept explicit, {:.0}% delegated to {})",
        full.len(),
        hybrid.explicit().len(),
        hybrid.cost_saving() * 100.0,
        model.name()
    );

    // 1. Route the query to a kept category.
    let Some(category) = hybrid.route(&query, model.as_ref()) else {
        println!("no category found for {query:?}");
        return;
    };
    let kept = hybrid.explicit();
    println!(
        "\nquery {query:?} routed to: {}\nbreadcrumb: {}",
        kept.name(category),
        path_of(kept, category)
    );

    // 2. Gather candidate products: instances under the corresponding
    //    region of the *full* taxonomy (the shop's inventory).
    let full_index = full.name_index();
    let full_node = full_index
        .lookup(kept.name(category))
        .into_iter()
        .next()
        .expect("kept categories exist in the full taxonomy");
    let leaves = full.leaves_under(full_node);
    let instgen = InstanceGenerator::new(kind, 42).expect("google has instances");
    let inventory = instgen.instances_for(&full, &leaves[..leaves.len().min(8)], 4);
    println!("\ninventory under that category: {} products; asking {} which match…", inventory.len(), model.name());

    // 3. LLM-filter the inventory against the query concept.
    let runner = GridRunner::default();
    let mut hits = Vec::new();
    for item in &inventory {
        let question = Question {
            instance_typing: true,
            ..Question::probe(kind, &item.name, &query, full.num_levels() - 1, None)
        };
        // A query the session gives up on simply leaves the product out
        // of the hits — graceful degradation, not a crash.
        if runner.ask(model.as_ref(), &question, &[]).parsed == ParsedAnswer::Yes {
            hits.push(item);
        }
    }

    println!("\ntop results for {query:?}:");
    for item in hits.iter().take(8) {
        println!("  • {}   [{}]", item.name, path_of(&full, item.leaf));
    }
    if hits.is_empty() {
        println!("  (no confident matches — the model declined everything)");
    }
}
