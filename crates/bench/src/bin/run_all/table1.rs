//! Regenerates **Table 1** — statistics of the ten taxonomies.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- table1 [--scale 1.0]`.

use taxoglimpse_bench::{RunOptions, TaxonomyCache};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_report::table::Table;
use taxoglimpse_taxonomy::TaxonomyStats;

pub fn run(opts: &RunOptions, cache: &TaxonomyCache) {
    let mut table = Table::new(
        format!("Table 1: Statistics of taxonomies (scale {})", opts.scale),
        vec![
            "Domain".into(),
            "Taxonomy".into(),
            "# of entities".into(),
            "# of levels".into(),
            "# of trees".into(),
            "# of nodes and classes in each level".into(),
        ],
    );
    for kind in TaxonomyKind::ALL {
        let start = std::time::Instant::now();
        let taxonomy = cache.get(kind, opts.seed, opts.scale);
        let stats = TaxonomyStats::compute(&taxonomy);
        eprintln!("materialized {kind} ({} nodes) in {:?}", stats.num_entities, start.elapsed());
        table.push_row(vec![
            kind.domain().to_string(),
            kind.display_name().to_owned(),
            stats.num_entities.to_string(),
            stats.num_levels.to_string(),
            stats.num_trees.to_string(),
            stats.shape_string(),
        ]);
    }
    println!("{}", table.render_ascii());
}
