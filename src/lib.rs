//! # TaxoGlimpse-RS
//!
//! A from-scratch Rust reproduction of *"Are Large Language Models a Good
//! Replacement of Taxonomies?"* (Sun et al., VLDB 2024) — the TaxoGlimpse
//! benchmark.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`taxonomy`] — the Is-A forest substrate,
//! * [`synth`] — synthetic taxonomy/instance generators for the paper's
//!   ten taxonomies,
//! * [`core`] — the benchmark itself: question design, sampling, datasets,
//!   prompting settings, metrics, evaluation harness, case study,
//! * [`llm`] — the simulated-LLM substrate with the eighteen-model zoo,
//! * [`report`] — table and figure renderers.
//!
//! ```
//! use taxoglimpse::prelude::*;
//!
//! // Generate a small shopping taxonomy and evaluate one simulated
//! // model on its hard QA dataset through the one evaluation path.
//! let tax = generate(TaxonomyKind::Ebay, GenOptions::default()).unwrap();
//! let dataset = DatasetBuilder::new(&tax, TaxonomyKind::Ebay, 7)
//!     .build(QuestionDataset::Hard)
//!     .unwrap();
//! let model = ModelZoo::default_zoo().get(ModelId::Gpt4).unwrap();
//! let report = GridRunner::default().run(model.as_ref(), &dataset);
//! assert!(report.overall.accuracy() > 0.5);
//! ```

#![warn(missing_docs)]

pub use taxoglimpse_core as core;
pub use taxoglimpse_json as json;
pub use taxoglimpse_llm as llm;
pub use taxoglimpse_report as report;
pub use taxoglimpse_synth as synth;
pub use taxoglimpse_taxonomy as taxonomy;

/// Convenient glob-import surface covering the common workflow types:
/// dataset construction (grid QA and instance typing through
/// [`DatasetBuilder`](taxoglimpse_core::dataset::DatasetBuilder)), the
/// fallible model interface, evaluation and single questions through
/// the one [`GridRunner`](taxoglimpse_core::grid::GridRunner), the
/// [`Workload`](taxoglimpse_core::workload::Workload) surface of
/// hierarchical classification, resilience, fault injection, and the
/// virtual-time serving layer.
pub mod prelude {
    pub use taxoglimpse_core::{
        cache::{CachedModel, ResponseCache},
        dataset::{DatasetBuilder, QuestionDataset},
        domain::{Domain, TaxonomyKind},
        eval::{EvalConfig, EvalReport},
        grid::GridRunner,
        hier::{HierMetrics, HierReport, HierWorkload, RouterConfig},
        metrics::{Metrics, Outcome},
        model::{LanguageModel, ModelError, Query, Response},
        prompts::PromptSetting,
        question::{Question, QuestionKind},
        resilience::{BackoffPolicy, BreakerPolicy, ResiliencePolicy},
        serve::{run_serve, ServeConfig, ServeReport, TenantSpec, TrafficConfig},
        workload::{Workload, WorkloadContext, WorkloadError},
    };
    pub use taxoglimpse_report::histogram::LatencyHistogram;
    pub use taxoglimpse_llm::{
        faults::{FaultInjector, FaultPlan},
        profile::ModelId,
        simulate::SimulatedLlm,
        zoo::ModelZoo,
    };
    pub use taxoglimpse_synth::{generate, GenOptions};
    pub use taxoglimpse_taxonomy::{NodeId, Taxonomy, TaxonomyBuilder};
}
