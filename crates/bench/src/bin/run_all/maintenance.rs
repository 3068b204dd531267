//! Maintenance-cost experiment (extends §5.3's construction-cost
//! argument): simulate several releases of a taxonomy under realistic
//! curation drift and count how many edit operations a maintainer must
//! apply — versus how many a hybrid taxonomy (deep levels delegated to
//! an LLM) absorbs for free.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- maintenance [--scale 0.2]`.

use taxoglimpse_bench::{RunOptions, TaxonomyCache};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_report::table::Table;
use taxoglimpse_synth::drift::{evolve, DriftConfig};
use taxoglimpse_synth::{generate, GenOptions};
use taxoglimpse_taxonomy::diff::diff;

pub fn run(opts: &RunOptions, _cache: &TaxonomyCache) {
    let releases = 5usize;
    let config = DriftConfig::default();

    let mut table = Table::new(
        format!(
            "Maintenance over {releases} releases (drift: +{:.0}% / -{:.0}% / ~{:.0}% of leaves per release)",
            config.add_rate * 100.0,
            config.remove_rate * 100.0,
            config.move_rate * 100.0
        ),
        vec![
            "Taxonomy".into(),
            "cutoff".into(),
            "total edits".into(),
            "edits in kept levels".into(),
            "maintenance absorbed".into(),
        ],
    );

    for (kind, cutoff, scale) in [
        (TaxonomyKind::Amazon, 4usize, opts.scale.min(0.2)),
        (TaxonomyKind::Glottolog, 4, opts.scale.min(0.3)),
        (TaxonomyKind::Oae, 3, opts.scale.min(0.3)),
    ] {
        let mut current = generate(kind, GenOptions { seed: opts.seed, scale }).expect("valid");
        let mut total_edits = 0usize;
        let mut kept_edits = 0usize;
        for release in 0..releases {
            let next = evolve(&current, kind, config, opts.seed ^ release as u64);
            let d = diff(&current, &next);
            total_edits += d.total_changes();
            // Edits strictly above the cutoff still need a human; edits
            // at or below it vanish in the hybrid form.
            kept_edits += d.total_changes() - d.changes_at_or_below(cutoff);
            current = next;
        }
        let absorbed = if total_edits == 0 {
            0.0
        } else {
            100.0 * (total_edits - kept_edits) as f64 / total_edits as f64
        };
        table.push_row(vec![
            kind.display_name().into(),
            cutoff.to_string(),
            total_edits.to_string(),
            kept_edits.to_string(),
            format!("{absorbed:.1}%"),
        ]);
    }
    println!("{}", table.render_ascii());
    println!(
        "curation churn concentrates at the leaves, so the hybrid form absorbs nearly all of it —\n\
         the maintenance-cost complement to the paper's 59% construction saving."
    );
}
