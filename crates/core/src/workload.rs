//! The workload-entry surface.
//!
//! A [`Workload`] is *what* to measure: it builds its dataset from a
//! [`WorkloadContext`] (taxonomy + kind + seed) and turns one model's
//! answers into a typed report; [`Workload::build_and_run`] is provided
//! on top of `build` and `run`. A [`GridRunner`] is *how* to run it:
//! one builder-configured policy (prompt setting, resilience, batch
//! size, worker threads, chunk size) that every workload's `run`
//! receives.
//!
//! The hierarchical scenario ([`crate::hier::HierWorkload`]) implements
//! it: its build samples instances and its run owns per-run state, so
//! the trait carries real work there. Grid QA and instance typing need
//! no wrapper: a dataset from [`crate::dataset::DatasetBuilder::build`]
//! or [`crate::dataset::DatasetBuilder::instance_typing`] goes straight
//! to [`GridRunner::run`]. Determinism is inherited, not re-proven: report
//! bytes are already proven independent of worker count, batch size,
//! cache state and fault plans. [`WorkloadRunner`] is an alias of
//! [`GridRunner`], kept for callers that name the runner by its earlier
//! name.

use crate::domain::TaxonomyKind;
use crate::grid::GridRunner;
use crate::model::LanguageModel;
use std::fmt;
use taxoglimpse_taxonomy::Taxonomy;

/// Everything a workload needs to build its dataset: the taxonomy to
/// probe, its kind, and the sampling seed.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadContext<'t> {
    /// The taxonomy under test.
    pub taxonomy: &'t Taxonomy,
    /// Which of the paper's taxonomies it is.
    pub kind: TaxonomyKind,
    /// Seed for all sampling inside the workload's `build`.
    pub seed: u64,
}

impl<'t> WorkloadContext<'t> {
    /// Bundle a taxonomy with its kind and a sampling seed.
    pub fn new(taxonomy: &'t Taxonomy, kind: TaxonomyKind, seed: u64) -> Self {
        WorkloadContext { taxonomy, kind, seed }
    }
}

/// Errors from workload dataset construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkloadError {
    /// The workload cannot run on this context (reason inside).
    Unsupported(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Unsupported(reason) => write!(f, "workload unsupported: {reason}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

/// One benchmark scenario: build a dataset from a context, then turn a
/// model's answers into a typed report.
///
/// The contract every implementation upholds:
///
/// * `build` is a pure function of the context — same taxonomy, kind
///   and seed produce an identical `Data` value;
/// * `run` is deterministic given `(runner, model, data)`: report bytes
///   never depend on worker count, batch size, response-cache state or
///   which worker observed an injected fault;
/// * `run` resets the model before measuring, so back-to-back runs are
///   independent.
pub trait Workload {
    /// The built dataset type.
    type Data;
    /// The typed report `run` produces.
    type Report;

    /// Stable workload name (for labels and report files).
    fn name(&self) -> &'static str;

    /// Build the workload's dataset for one context.
    fn build(&self, cx: &WorkloadContext<'_>) -> Result<Self::Data, WorkloadError>;

    /// Run one model over previously built data under the runner's
    /// execution policy.
    fn run(
        &self,
        runner: &GridRunner,
        model: &dyn LanguageModel,
        cx: &WorkloadContext<'_>,
        data: &Self::Data,
    ) -> Self::Report;

    /// Build and run one `(model, context)` cell.
    fn build_and_run(
        &self,
        runner: &GridRunner,
        model: &dyn LanguageModel,
        cx: &WorkloadContext<'_>,
    ) -> Result<Self::Report, WorkloadError> {
        let data = self.build(cx)?;
        Ok(self.run(runner, model, cx, &data))
    }
}

pub use crate::grid::GridRunner as WorkloadRunner;
