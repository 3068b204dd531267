//! The unified workload-entry surface.
//!
//! Every experiment runs one model's questions on one taxonomy under a
//! prompt setting; this module gives that shape one contract:
//!
//! * a [`Workload`] is *what* to measure: it builds its dataset from a
//!   [`WorkloadContext`] (taxonomy + kind + seed) and turns one model's
//!   answers into a typed report. [`Workload::build_and_run`] and
//!   [`Workload::run_cross`] are provided on top of `build` and `run`;
//! * a [`GridRunner`] is *how* to run it: one builder-configured policy
//!   (prompt setting, resilience, batch size, worker threads, chunk
//!   size) that every workload's `run` receives.
//!
//! The scenarios implement it ([`QaWorkload`],
//! [`InstanceTypingWorkload`], [`crate::hier::HierWorkload`]), so a bin
//! or example configures *one* runner and swaps workloads freely. QA
//! and instance typing run through [`GridRunner::run`]; the
//! hierarchical workload shares the grid's worker pool. Determinism is
//! inherited, not re-proven: report bytes are already proven
//! independent of worker count, batch size, cache state and fault plans.
//! [`WorkloadRunner`] is an alias of [`GridRunner`], kept for callers
//! that name the runner by its earlier name.

use crate::dataset::{Dataset, DatasetBuilder, DatasetError, QuestionDataset};
use crate::domain::TaxonomyKind;
use crate::eval::EvalReport;
use crate::grid::GridRunner;
use crate::instance_typing::InstanceTypingError;
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
    /// Standard QA dataset construction failed.
    Dataset(DatasetError),
    /// Instance-typing dataset construction failed.
    InstanceTyping(InstanceTypingError),
    /// The workload cannot run on this context (reason inside).
    Unsupported(String),
}

impl fmt::Display for WorkloadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorkloadError::Dataset(e) => write!(f, "dataset construction failed: {e}"),
            WorkloadError::InstanceTyping(e) => write!(f, "instance typing failed: {e}"),
            WorkloadError::Unsupported(reason) => write!(f, "workload unsupported: {reason}"),
        }
    }
}

impl std::error::Error for WorkloadError {}

impl From<DatasetError> for WorkloadError {
    fn from(e: DatasetError) -> Self {
        WorkloadError::Dataset(e)
    }
}

impl From<InstanceTypingError> for WorkloadError {
    fn from(e: InstanceTypingError) -> Self {
        WorkloadError::InstanceTyping(e)
    }
}

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

    /// Run over the model × context grid, building each context's
    /// dataset once. Reports come back model-major (all of model 0's
    /// contexts, then model 1's, …), matching [`GridRunner::run_cross`]
    /// cell order.
    fn run_cross(
        &self,
        runner: &GridRunner,
        models: &[&dyn LanguageModel],
        cxs: &[WorkloadContext<'_>],
    ) -> Result<Vec<Self::Report>, WorkloadError> {
        let data = cxs.iter().map(|cx| self.build(cx)).collect::<Result<Vec<_>, _>>()?;
        Ok(models
            .iter()
            .flat_map(|&m| cxs.iter().zip(&data).map(move |(cx, d)| self.run(runner, m, cx, d)))
            .collect())
    }
}

pub use crate::grid::GridRunner as WorkloadRunner;

/// The paper's grid QA scenario (§4): Easy/Hard/MCQ datasets built by
/// [`DatasetBuilder`], evaluated over the chunked grid.
#[derive(Debug, Clone, Copy)]
pub struct QaWorkload {
    flavor: QuestionDataset,
    sample_cap: Option<usize>,
}

impl QaWorkload {
    /// QA over one dataset flavor.
    pub fn new(flavor: QuestionDataset) -> Self {
        QaWorkload { flavor, sample_cap: None }
    }

    /// Cap per-level question sampling (for quick runs).
    pub fn with_sample_cap(mut self, cap: Option<usize>) -> Self {
        self.sample_cap = cap;
        self
    }
}

impl Workload for QaWorkload {
    type Data = Dataset;
    type Report = EvalReport;

    fn name(&self) -> &'static str {
        "grid-qa"
    }

    fn build(&self, cx: &WorkloadContext<'_>) -> Result<Dataset, WorkloadError> {
        Ok(DatasetBuilder::new(cx.taxonomy, cx.kind, cx.seed)
            .sample_cap(self.sample_cap)
            .build(self.flavor)?)
    }

    fn run(
        &self,
        runner: &GridRunner,
        model: &dyn LanguageModel,
        _cx: &WorkloadContext<'_>,
        data: &Dataset,
    ) -> EvalReport {
        runner.run(model, data)
    }
}

/// The instance-typing scenario (§4.5) behind the same surface.
#[derive(Debug, Clone, Copy)]
pub struct InstanceTypingWorkload {
    flavor: QuestionDataset,
    sample_cap: Option<usize>,
}

impl InstanceTypingWorkload {
    /// Instance typing over the Easy or Hard flavor (MCQ is rejected at
    /// `build`, as in the paper).
    pub fn new(flavor: QuestionDataset) -> Self {
        InstanceTypingWorkload { flavor, sample_cap: None }
    }

    /// Cap the number of sampled leaf concepts (for quick runs).
    pub fn with_sample_cap(mut self, cap: Option<usize>) -> Self {
        self.sample_cap = cap;
        self
    }
}

impl Workload for InstanceTypingWorkload {
    type Data = Dataset;
    type Report = EvalReport;

    fn name(&self) -> &'static str {
        "instance-typing"
    }

    fn build(&self, cx: &WorkloadContext<'_>) -> Result<Dataset, WorkloadError> {
        Ok(crate::instance_typing::build_dataset(
            cx.taxonomy,
            cx.kind,
            cx.seed,
            self.sample_cap,
            self.flavor,
        )?)
    }

    fn run(
        &self,
        runner: &GridRunner,
        model: &dyn LanguageModel,
        _cx: &WorkloadContext<'_>,
        data: &Dataset,
    ) -> EvalReport {
        runner.run(model, data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FixedAnswerModel;
    use taxoglimpse_synth::{generate, GenOptions};

    fn context(t: &Taxonomy) -> WorkloadContext<'_> {
        WorkloadContext::new(t, TaxonomyKind::Ebay, 21)
    }

    #[test]
    fn run_cross_is_model_major() {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 21, scale: 0.5 }).unwrap();
        let cx = context(&t);
        let workload = QaWorkload::new(QuestionDataset::Easy).with_sample_cap(Some(10));
        let yes = FixedAnswerModel::always_yes();
        let idk = FixedAnswerModel::always_idk();
        let reports = workload
            .run_cross(&GridRunner::default(), &[&yes, &idk], &[cx, cx])
            .unwrap();
        assert_eq!(reports.len(), 4);
        assert_eq!(reports[0].model, yes.name());
        assert_eq!(reports[3].model, idk.name());
        assert_eq!(reports[2].overall.miss_rate(), 1.0);
    }

    #[test]
    fn instance_typing_workload_rejects_unsupported_kind() {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 1, scale: 0.2 }).unwrap();
        let cx = context(&t);
        let workload = InstanceTypingWorkload::new(QuestionDataset::Hard);
        assert!(matches!(
            workload.build(&cx),
            Err(WorkloadError::InstanceTyping(InstanceTypingError::Unsupported(_)))
        ));
    }
}
