//! Regenerates **Table 4** — per-level statistics of the Easy, Hard and
//! MCQ datasets.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- table4 [--scale 1.0]`.

use taxoglimpse_bench::{build_dataset, RunOptions, TaxonomyCache};
use taxoglimpse_core::dataset::QuestionDataset;
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_report::table::Table;

pub fn run(opts: &RunOptions, cache: &TaxonomyCache) {

    // Rows: level × flavor; columns: taxonomies.
    let max_levels = 7; // NCBI depth
    let mut headers = vec!["Level".into(), "Set".into()];
    headers.extend(TaxonomyKind::ALL.iter().map(|k| k.display_name().to_owned()));
    let mut table = Table::new(
        format!("Table 4: Statistics of datasets (scale {})", opts.scale),
        headers,
    );

    // counts[kind][flavor][child_level] = question count
    let mut counts =
        vec![[[None::<usize>; 8]; 3]; TaxonomyKind::ALL.len()];
    let mut totals = vec![[0usize; 3]; TaxonomyKind::ALL.len()];
    for (ki, &kind) in TaxonomyKind::ALL.iter().enumerate() {
        let taxonomy = cache.get(kind, opts.seed, opts.scale);
        for (fi, flavor) in QuestionDataset::ALL.into_iter().enumerate() {
            let dataset = build_dataset(&taxonomy, kind, flavor, opts);
            for (level, n) in dataset.level_counts() {
                counts[ki][fi][level] = Some(n);
            }
            totals[ki][fi] = dataset.len();
        }
    }

    let flavor_label = ["Easy", "Hard", "MCQ"];
    for level in 1..=max_levels {
        for fi in 0..3 {
            let mut row = vec![format!("Level {}-{}", level, level - 1), flavor_label[fi].to_owned()];
            for per_kind in counts.iter() {
                row.push(match per_kind[fi][level] {
                    Some(n) => n.to_string(),
                    None => "n/a".into(),
                });
            }
            if row[2..].iter().any(|c| c != "n/a") {
                table.push_row(row);
            }
        }
    }
    for fi in 0..3 {
        let mut row = vec!["Total".to_owned(), flavor_label[fi].to_owned()];
        for per_kind in totals.iter() {
            row.push(per_kind[fi].to_string());
        }
        table.push_row(row);
    }

    println!("{}", table.render_ascii());
}
