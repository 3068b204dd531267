//! Regenerates **Figure 2** — popularity of the ten taxonomies, measured
//! as the mean simulated web-hit count over 100 sampled concepts each.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- fig2 [--scale 0.1]`.

use taxoglimpse_bench::{RunOptions, TaxonomyCache};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_synth::PopularityModel;

pub fn run(opts: &RunOptions, cache: &TaxonomyCache) {
    let model = PopularityModel::new(opts.seed);

    let taxonomies: Vec<(TaxonomyKind, std::sync::Arc<taxoglimpse_taxonomy::Taxonomy>)> =
        TaxonomyKind::ALL
            .into_iter()
            .map(|kind| (kind, cache.get(kind, opts.seed, opts.scale)))
            .collect();
    let refs: Vec<(TaxonomyKind, &taxoglimpse_taxonomy::Taxonomy)> =
        taxonomies.iter().map(|(k, t)| (*k, t.as_ref())).collect();

    let series = model.figure2_series(&refs, 100);
    println!("Figure 2: The popularity of different taxonomies (mean hits over 100 sampled concepts)");
    println!("{:<12} {:>14}  {:<9} bar (log scale)", "taxonomy", "mean hits", "class");
    let max_log = series
        .iter()
        .map(|&(_, v)| v.max(1.0).log10())
        .fold(0.0f64, f64::max);
    for (kind, hits) in &series {
        let log = hits.max(1.0).log10();
        let bar_len = ((log / max_log) * 48.0).round() as usize;
        let class = if kind.domain().is_common() { "common" } else { "special" };
        println!("{:<12} {:>14.0}  {:<9} {}", kind.display_name(), hits, class, "#".repeat(bar_len));
    }

    // The paper's headline claim for Figure 2: the four common
    // taxonomies rank above the six specialized ones.
    let first_special = series.iter().position(|(k, _)| !k.domain().is_common());
    let last_common = series.iter().rposition(|(k, _)| k.domain().is_common());
    if let (Some(fs), Some(lc)) = (first_special, last_common) {
        println!(
            "\ncommon-before-specialized ordering holds: {}",
            if lc < fs { "yes" } else { "no (noise this run)" }
        );
    }
}
