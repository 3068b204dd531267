//! Runs the paper's experiments (Tables 1/4/5/6/7, Figures 2–7, the
//! case study and the extensions) in one process, over one
//! [`TaxonomyCache`], each under its own header.
//!
//! ```text
//! cargo run --release -p taxoglimpse-bench                        # all, in registry order
//! cargo run --release -p taxoglimpse-bench -- fig2 tables567 --scale 0.05 --cap 100
//! ```
//!
//! Positional arguments name registry entries to run, in the order
//! given; none runs them all. An unknown name exits 2 and lists the
//! registry.

mod ablation;
mod analysis;
mod casestudy;
mod cost;
mod fig2;
mod fig3;
mod fig4;
mod fig5;
mod fig6;
mod fig7;
mod leaderboard;
mod maintenance;
mod shots;
mod table1;
mod table4;
mod tables567;

use taxoglimpse_bench::{RunOptions, TaxonomyCache};

/// One experiment: it prints its artifact to stdout.
type Experiment = fn(&RunOptions, &TaxonomyCache);

/// Every experiment, in the order a full run prints them.
const REGISTRY: [(&str, Experiment); 16] = [
    ("table1", table1::run),
    ("fig2", fig2::run),
    ("table4", table4::run),
    ("tables567", tables567::run),
    ("fig3", fig3::run),
    ("fig4", fig4::run),
    ("fig5", fig5::run),
    ("fig6", fig6::run),
    ("fig7", fig7::run),
    ("casestudy", casestudy::run),
    ("ablation", ablation::run),
    ("maintenance", maintenance::run),
    ("cost", cost::run),
    ("analysis", analysis::run),
    ("leaderboard", leaderboard::run),
    ("shots", shots::run),
];

fn main() {
    let opts = RunOptions::from_env();
    let selected: Vec<(&str, Experiment)> = if opts.positional.is_empty() {
        REGISTRY.to_vec()
    } else {
        opts.positional
            .iter()
            .map(|name| {
                REGISTRY.into_iter().find(|(n, _)| n == name).unwrap_or_else(|| {
                    let names: Vec<&str> = REGISTRY.iter().map(|(n, _)| *n).collect();
                    eprintln!("error: unknown experiment {name:?} (want one of: {})", names.join(", "));
                    std::process::exit(2);
                })
            })
            .collect()
    };

    let cache = TaxonomyCache::new();
    for (name, run) in selected {
        println!("\n==================== {name} ====================\n");
        run(&opts, &cache);
    }
    println!("\nall experiments completed");
}
