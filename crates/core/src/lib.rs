//! # taxoglimpse-core
//!
//! The TaxoGlimpse benchmark itself — the primary contribution of the
//! paper *"Are Large Language Models a Good Replacement of Taxonomies?"*
//! (VLDB 2024):
//!
//! * **Question design** (§2.2): True/False and MCQ templates per domain
//!   ([`templates`]), positive / negative-easy / negative-hard / MCQ
//!   generation ([`qgen`]).
//! * **Sampling** : Cochran sample sizes at 95% confidence / 5% margin
//!   with finite-population correction ([`sampling`]) — reproduces the
//!   per-level dataset sizes of the paper's Table 4.
//! * **Datasets**: Easy, Hard and MCQ datasets per taxonomy level
//!   ([`dataset`]).
//! * **Prompting settings** (§4.4): zero-shot, five-shot and
//!   chain-of-thought rendering ([`prompts`], the paper's Figure 5).
//! * **Model interface**: the [`model::LanguageModel`] trait takes
//!   rendered prompt text and returns free natural-language text —
//!   fallibly ([`model::ModelError`]), because real serving stacks
//!   fail; the harness parses successful text with [`parse`].
//! * **Resilience** ([`resilience`]): deterministic retry/backoff and
//!   circuit breaking over the fallible model API; exhausted queries
//!   score as `Failed` and lower a report's availability.
//! * **Metrics** (§3.3): accuracy *A*, miss rate *M* and availability
//!   ([`metrics`]).
//! * **Evaluation harness** (§4): [`eval::Evaluator`] producing overall
//!   and per-level reports.
//! * **Instance typing** (§4.5): [`instance_typing`].
//! * **Text rules** ([`text`]): the one trigram-similarity kernel and the
//!   one token counter every layer shares.
//! * **Case study** (§5.3): hybrid LLM + truncated-taxonomy product
//!   retrieval with precision/recall accounting ([`casestudy`]).
//! * **Sharded scale-out** ([`shard`]): one logical benchmark over
//!   partitioned taxonomies and grids behind a deterministic
//!   content-keyed router; merged reports are byte-identical across
//!   shard counts.
//! * **Online serving** ([`serve`]): a virtual-time discrete-event
//!   serving layer — open-loop multi-tenant traffic, dynamic batching,
//!   admission control — over the same model towers, with
//!   byte-identical traces across prefetch worker counts.

#![warn(missing_docs)]

pub mod analysis;
pub mod cache;
pub mod casestudy;
pub mod dataset;
pub mod detailed;
pub mod domain;
pub mod enrich;
pub mod eval;
pub mod grid;
pub mod hier;
pub mod hybrid;
pub mod instance_typing;
pub mod metrics;
pub mod model;
pub mod parse;
pub mod prompts;
pub mod qgen;
pub mod question;
pub mod resilience;
pub mod sampling;
pub mod serve;
pub mod shard;
pub mod store;
pub mod templates;
pub mod text;
pub mod workload;

pub use cache::{CachedModel, ResponseCache};
pub use dataset::{Dataset, DatasetBuilder, QuestionDataset};
pub use domain::{Domain, TaxonomyKind};
pub use eval::{EvalConfig, EvalReport, Evaluator};
pub use grid::GridRunner;
pub use hier::{DescentConfig, HierReport, HierWorkload, RouterConfig};
pub use hybrid::HybridTaxonomy;
pub use metrics::Metrics;
pub use model::{LanguageModel, ModelError, Query, Response};
pub use prompts::PromptSetting;
pub use question::{NegativeKind, Question, QuestionBody, QuestionKind};
pub use resilience::{BackoffPolicy, BreakerPolicy, Resilient, ResiliencePolicy};
pub use serve::{run_serve, ServeConfig, ServeReport, TrafficConfig};
pub use shard::{ShardRouter, ShardRun, ShardedDataset};
pub use workload::{InstanceTypingWorkload, QaWorkload, Workload, WorkloadContext, WorkloadError};

/// The pinned reports digest: a 64-bit hash chained over the compact
/// JSON of every report, in order. Every pinned digest in
/// `tests/pinned_digests.rs` and `tests/determinism.rs` uses this one
/// recipe.
pub fn reports_digest<T: taxoglimpse_json::ToJson>(reports: &[T]) -> u64 {
    use taxoglimpse_synth::rng::{hash_str, mix64};
    reports.iter().fold(0xBA5E_11AE, |digest, report| {
        mix64(digest ^ hash_str(0x5EED, &report.to_json().render()))
    })
}
