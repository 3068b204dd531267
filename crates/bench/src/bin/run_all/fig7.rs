//! Regenerates **Figure 7** — scalability of the six open-source model
//! series: GPU RAM and average per-question inference time.
//!
//! Alone: `cargo run --release -p taxoglimpse-bench -- fig7`.

use taxoglimpse_bench::{RunOptions, TaxonomyCache};
use taxoglimpse_llm::scalability::{family_latency_slope, figure7_series};
use taxoglimpse_report::table::Table;

pub fn run(_opts: &RunOptions, _cache: &TaxonomyCache) {
    let mut table = Table::new(
        "Figure 7: Scalability of different model series".to_owned(),
        vec![
            "Series".into(),
            "Model".into(),
            "GPU RAM (GiB)".into(),
            "s / question".into(),
        ],
    );
    for (family, footprints) in figure7_series() {
        for f in footprints {
            table.push_row(vec![
                format!("{family:?}"),
                f.model.to_string(),
                format!("{:.1}", f.gpu_ram_gib),
                format!("{:.3}", f.seconds_per_question),
            ]);
        }
    }
    println!("{}", table.render_ascii());

    println!("latency growth slope (s/question per extra billion parameters):");
    let mut slopes = Vec::new();
    for (family, _) in figure7_series() {
        if let Some(slope) = family_latency_slope(family) {
            println!("  {family:?}: {slope:.4}");
            slopes.push((slope, family));
        }
    }
    slopes.sort_by(|a, b| a.0.total_cmp(&b.0));
    let best: Vec<String> = slopes.iter().take(3).map(|(_, family)| format!("{family:?}")).collect();
    println!("\nthe three smallest slopes (best scaling here): {}", best.join(", "));
    println!("paper's qualitative claim: Flan-T5s, Vicunas and Llama-3s scale best.");
}
