//! # taxoglimpse-bench
//!
//! Shared plumbing for the experiments. Each paper table/figure is an
//! entry (`table1`, `table4`, `tables567`, `fig2`–`fig7`, `casestudy`,
//! …) in the registry of the one binary, `run_all`, which runs the
//! entries named on its command line (all of them by default) in one
//! process over one [`TaxonomyCache`]. It accepts:
//!
//! ```text
//! --scale <f64>   taxonomy scale factor (default 1.0 = Table-1 fidelity;
//!                 NCBI at 1.0 is 2.19M nodes)
//! --cap <usize>   per-level sample-size cap (default: the paper's
//!                 Cochran sizes)
//! --seed <u64>    master seed (default 42)
//! --models <csv>  restrict to a comma-separated model list
//! ```
//!
//! The determinism gates of the reproduction (every pinned digest) are
//! tier-1 tests in `tests/pinned_digests.rs`; the `e2e` benchmark
//! package measures throughput.

#![warn(missing_docs)]

use std::collections::BTreeMap;
use std::sync::Mutex;
use taxoglimpse_core::dataset::{Dataset, DatasetBuilder, QuestionDataset};
use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_llm::profile::ModelId;
use taxoglimpse_synth::{generate, GenOptions, SEQ_STREAM_VERSION};
use taxoglimpse_taxonomy::{SnapshotStore, Taxonomy};

/// Command-line options shared by every experiment.
#[derive(Debug, Clone)]
pub struct RunOptions {
    /// Taxonomy scale in `(0, 1]`.
    pub scale: f64,
    /// Optional per-level sample cap.
    pub cap: Option<usize>,
    /// Master seed.
    pub seed: u64,
    /// Restrict to these models (`None` = all eighteen).
    pub models: Option<Vec<ModelId>>,
    /// Positional arguments left after flag parsing (for `run_all`,
    /// the experiments to run).
    pub positional: Vec<String>,
}

impl Default for RunOptions {
    fn default() -> Self {
        RunOptions { scale: 1.0, cap: None, seed: 42, models: None, positional: Vec::new() }
    }
}

impl RunOptions {
    /// Parse from an iterator of CLI arguments (without `argv[0]`).
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Self, String> {
        let mut opts = RunOptions::default();
        while let Some(arg) = args.next() {
            match arg.as_str() {
                "--scale" => {
                    // The generator's range, (0, 1]; NaN fails both
                    // comparisons.
                    let scale: f64 = parse_value(&arg, &mut args)?;
                    if !(scale > 0.0 && scale <= 1.0) {
                        return Err(format!("{arg} must be in (0, 1]"));
                    }
                    opts.scale = scale;
                }
                "--cap" => opts.cap = Some(parse_value(&arg, &mut args)?),
                "--seed" => opts.seed = parse_value(&arg, &mut args)?,
                "--models" => {
                    let csv = next_value(&mut args, &arg)?;
                    let mut models = Vec::new();
                    for name in csv.split(',') {
                        models.push(name.trim().parse::<ModelId>()?);
                    }
                    opts.models = Some(models);
                }
                flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
                _ => opts.positional.push(arg),
            }
        }
        Ok(opts)
    }

    /// Parse from the process arguments, exiting with a message on error.
    pub fn from_env() -> Self {
        match Self::parse(std::env::args().skip(1)) {
            Ok(opts) => opts,
            Err(msg) => {
                eprintln!("error: {msg}");
                std::process::exit(2);
            }
        }
    }

    /// The models to evaluate.
    pub fn model_list(&self) -> Vec<ModelId> {
        self.models.clone().unwrap_or_else(|| ModelId::ALL.to_vec())
    }
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next().ok_or_else(|| format!("{flag} needs a value"))
}

fn parse_value<T: std::str::FromStr>(
    flag: &str,
    args: &mut impl Iterator<Item = String>,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    next_value(args, flag)?.parse().map_err(|e| format!("{flag}: {e}"))
}

/// Cache of generated taxonomies, shared by every experiment of one
/// `run_all` process so a run builds each only once.
///
/// Two tiers: an in-process map (so one run never regenerates), backed
/// by the on-disk [`SnapshotStore`] (so *successive* runs load the
/// binary snapshot instead of regenerating — the NCBI forest costs
/// hundreds of milliseconds to generate and tens to load). Snapshots
/// are keyed by everything that determines the bytes (kind, seed,
/// scale, stream + codec versions) and checksum-verified on load, so a
/// stale or corrupt file silently degrades to regeneration.
pub struct TaxonomyCache {
    inner: Mutex<BTreeMap<(TaxonomyKind, u64, u64), std::sync::Arc<Taxonomy>>>,
    store: SnapshotStore,
}

impl Default for TaxonomyCache {
    fn default() -> Self {
        Self::new()
    }
}

impl TaxonomyCache {
    /// A cache backed by the default on-disk snapshot store
    /// (`$TAXOGLIMPSE_CACHE_DIR`, else `target/taxo-cache`).
    pub fn new() -> Self {
        TaxonomyCache { inner: Mutex::new(BTreeMap::new()), store: SnapshotStore::open_default() }
    }

    /// Get or generate the taxonomy for `(kind, seed, scale)`.
    ///
    /// Generation uses [`generate`]'s one sequential stream, the
    /// substrate under every pinned report digest in the workspace.
    pub fn get(&self, kind: TaxonomyKind, seed: u64, scale: f64) -> std::sync::Arc<Taxonomy> {
        let key = (kind, seed, scale.to_bits());
        if let Some(t) = self.inner.lock().expect("cache lock").get(&key) {
            return t.clone();
        }
        let fresh = || generate(kind, GenOptions { seed, scale }).expect("valid scale");
        let skey = SnapshotStore::key(kind.label(), seed, scale, SEQ_STREAM_VERSION);
        let t = std::sync::Arc::new(self.store.load_or_generate(&skey, fresh));
        self.inner.lock().expect("cache lock").insert(key, t.clone());
        t
    }
}

/// Build a dataset with the run options applied.
pub fn build_dataset(
    taxonomy: &Taxonomy,
    kind: TaxonomyKind,
    flavor: QuestionDataset,
    opts: &RunOptions,
) -> Dataset {
    DatasetBuilder::new(taxonomy, kind, opts.seed)
        .sample_cap(opts.cap)
        .build(flavor)
        .expect("benchmark taxonomies always have probe levels")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<RunOptions, String> {
        RunOptions::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let o = parse(&[]).unwrap();
        assert_eq!(o.scale, 1.0);
        assert_eq!(o.cap, None);
        assert_eq!(o.seed, 42);
        assert!(o.models.is_none());
    }

    #[test]
    fn full_flag_set() {
        let o = parse(&["--scale", "0.1", "--cap", "50", "--seed", "7", "--models", "GPT-4, Mistral", "hard"]).unwrap();
        assert_eq!(o.scale, 0.1);
        assert_eq!(o.cap, Some(50));
        assert_eq!(o.seed, 7);
        assert_eq!(o.models, Some(vec![ModelId::Gpt4, ModelId::Mistral7b]));
        assert_eq!(o.positional, vec!["hard"]);
    }

    #[test]
    fn errors() {
        assert!(parse(&["--scale"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
        assert!(parse(&["--models", "GPT-5"]).is_err());
        assert!(parse(&["--cap", "x"]).is_err());
        for scale in ["0", "2", "nan", "inf", "-0.5"] {
            assert_eq!(
                parse(&["--scale", scale]).unwrap_err(),
                "--scale must be in (0, 1]",
                "--scale {scale}"
            );
        }
    }

    #[test]
    fn cache_generates_once() {
        let cache = TaxonomyCache::new();
        let a = cache.get(TaxonomyKind::Ebay, 1, 1.0);
        let b = cache.get(TaxonomyKind::Ebay, 1, 1.0);
        assert!(std::sync::Arc::ptr_eq(&a, &b));
        let c = cache.get(TaxonomyKind::Ebay, 2, 1.0);
        assert!(!std::sync::Arc::ptr_eq(&a, &c));
    }

    #[test]
    fn build_dataset_applies_cap() {
        let opts = RunOptions { cap: Some(5), ..RunOptions::default() };
        let cache = TaxonomyCache::new();
        let t = cache.get(TaxonomyKind::Ebay, opts.seed, 1.0);
        let d = build_dataset(&t, TaxonomyKind::Ebay, QuestionDataset::Mcq, &opts);
        for (_, n) in d.level_counts() {
            assert!(n <= 5);
        }
    }
}
