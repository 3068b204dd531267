//! The unified workload-entry surface.
//!
//! The repo grew four divergent ways to run a scenario — `Evaluator`
//! for sequential QA, `GridRunner` for the model × taxonomy grid,
//! a dataset builder + evaluator plumbing for §4.5, and the
//! serving layer's own configuration — and the hierarchical
//! classification scenario ([`crate::hier`]) would have made a fifth.
//! This module collapses them behind one contract:
//!
//! * a [`Workload`] is *what* to measure: it builds its dataset from a
//!   [`WorkloadContext`] (taxonomy + kind + seed) and turns one model's
//!   answers into a typed report;
//! * a [`WorkloadRunner`] is *how* to run it: one builder-configured
//!   bundle of prompt settings, resilience policy, batch size, worker
//!   threads and chunking that every execution path — `run`,
//!   [`WorkloadRunner::run_cross`], [`WorkloadRunner::run_sharded`],
//!   [`WorkloadRunner::serve`] — dispatches through.
//!
//! The existing scenarios implement it ([`QaWorkload`],
//! [`InstanceTypingWorkload`], [`crate::hier::HierWorkload`]), so a bin
//! or example configures *one* runner and swaps workloads freely.
//! Determinism is inherited, not re-proven: every dispatch path bottoms
//! out in the same `Evaluator`/`GridRunner` machinery whose report
//! bytes are already proven independent of worker count, batch size,
//! cache state and fault plans.

use crate::dataset::{Dataset, DatasetBuilder, DatasetError, QuestionDataset};
use crate::domain::TaxonomyKind;
use crate::eval::{EvalConfig, EvalReport, Evaluator, DEFAULT_BATCH_SIZE};
use crate::grid::{GridRunner, GridRunnerBuilder};
use crate::instance_typing::InstanceTypingError;
use crate::model::LanguageModel;
use crate::question::Question;
use crate::resilience::ResiliencePolicy;
use crate::serve::{run_serve, ServeConfig, ServeReport, TrafficConfig};
use crate::shard::{run_sharded, ShardRun, ShardedDataset};
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
        runner: &WorkloadRunner,
        model: &dyn LanguageModel,
        cx: &WorkloadContext<'_>,
        data: &Self::Data,
    ) -> Self::Report;
}

/// Builder-configured execution policy shared by every workload: which
/// prompts to render, how to retry failures, how to batch model calls,
/// and how many threads may carry the work.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadRunner {
    config: EvalConfig,
    resilience: ResiliencePolicy,
    batch_size: usize,
    threads: Option<usize>,
    chunk_size: usize,
}

/// Builder for [`WorkloadRunner`] — the workspace's clamping `with_*`
/// idiom: cheap default, chainable overrides that clamp rather than
/// panic, infallible `build()`.
#[derive(Debug, Clone, Copy)]
pub struct WorkloadRunnerBuilder {
    config: EvalConfig,
    resilience: ResiliencePolicy,
    batch_size: usize,
    threads: Option<usize>,
    chunk_size: usize,
}

impl Default for WorkloadRunnerBuilder {
    fn default() -> Self {
        WorkloadRunnerBuilder {
            config: EvalConfig::default(),
            resilience: ResiliencePolicy::default(),
            batch_size: DEFAULT_BATCH_SIZE,
            threads: None,
            chunk_size: crate::grid::DEFAULT_CHUNK_SIZE,
        }
    }
}

impl WorkloadRunnerBuilder {
    /// Override the evaluation configuration (setting + variant).
    pub fn with_config(mut self, config: EvalConfig) -> Self {
        self.config = config;
        self
    }

    /// Override the resilience policy applied to every model call.
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = resilience;
        self
    }

    /// Override the `answer_batch` batch size (clamped to ≥ 1).
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Pin the worker-thread count (clamped to ≥ 1). Unset, the runner
    /// sizes to the machine. Purely an execution detail — report bytes
    /// are identical at every thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Override the work-unit chunk size (clamped to ≥ 1).
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = chunk_size.max(1);
        self
    }

    /// Finish the builder.
    pub fn build(self) -> WorkloadRunner {
        WorkloadRunner {
            config: self.config,
            resilience: self.resilience,
            batch_size: self.batch_size,
            threads: self.threads,
            chunk_size: self.chunk_size,
        }
    }
}

impl Default for WorkloadRunner {
    fn default() -> Self {
        WorkloadRunner::builder().build()
    }
}

impl WorkloadRunner {
    /// Start building a runner.
    pub fn builder() -> WorkloadRunnerBuilder {
        WorkloadRunnerBuilder::default()
    }

    /// The evaluation configuration in force.
    pub fn config(&self) -> EvalConfig {
        self.config
    }

    /// The resilience policy in force.
    pub fn resilience(&self) -> ResiliencePolicy {
        self.resilience
    }

    /// The `answer_batch` batch size in force.
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The pinned worker-thread count, if any.
    pub fn threads(&self) -> Option<usize> {
        self.threads
    }

    /// The work-unit chunk size in force.
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// The sequential evaluator this runner's policy configures.
    pub fn evaluator(&self) -> Evaluator {
        Evaluator::builder()
            .with_config(self.config)
            .with_resilience(self.resilience)
            .with_batch_size(self.batch_size)
            .build()
    }

    /// A grid-runner builder carrying this runner's policy (callers may
    /// still layer shard labels etc. on top before building).
    pub fn grid_builder(&self) -> GridRunnerBuilder {
        let builder = GridRunner::builder()
            .with_config(self.config)
            .with_resilience(self.resilience)
            .with_batch_size(self.batch_size)
            .with_chunk_size(self.chunk_size);
        match self.threads {
            Some(threads) => builder.with_threads(threads),
            None => builder,
        }
    }

    /// The grid runner this runner's policy configures.
    pub fn grid(&self) -> GridRunner {
        self.grid_builder().build()
    }

    /// Build and run one workload for one `(model, context)` cell.
    pub fn run<W: Workload>(
        &self,
        workload: &W,
        model: &dyn LanguageModel,
        cx: &WorkloadContext<'_>,
    ) -> Result<W::Report, WorkloadError> {
        let data = workload.build(cx)?;
        Ok(workload.run(self, model, cx, &data))
    }

    /// Run a workload over the model × context grid, building each
    /// context's dataset once. Reports come back model-major (all of
    /// model 0's contexts, then model 1's, …), matching
    /// [`GridRunner::run_cross`] cell order.
    pub fn run_cross<W: Workload>(
        &self,
        workload: &W,
        models: &[&dyn LanguageModel],
        cxs: &[WorkloadContext<'_>],
    ) -> Result<Vec<W::Report>, WorkloadError> {
        let data: Vec<W::Data> =
            cxs.iter().map(|cx| workload.build(cx)).collect::<Result<_, _>>()?;
        let mut reports = Vec::with_capacity(models.len() * cxs.len());
        for model in models {
            for (cx, d) in cxs.iter().zip(&data) {
                reports.push(workload.run(self, *model, cx, d));
            }
        }
        Ok(reports)
    }

    /// Dispatch a sharded run (one worker per shard, merged in
    /// shard-index order) under this runner's policy.
    pub fn run_sharded(
        &self,
        shard_models: &[&dyn LanguageModel],
        sharded: &ShardedDataset,
    ) -> Vec<ShardRun> {
        run_sharded(&self.evaluator(), shard_models, sharded)
    }

    /// A serving configuration carrying this runner's prompt settings
    /// and resilience policy (serving-specific knobs keep their
    /// defaults; override them on the returned value).
    pub fn serve_config(&self) -> ServeConfig {
        ServeConfig {
            max_batch: self.batch_size,
            setting: self.config.setting,
            variant: self.config.variant,
            resilience: self.resilience,
            ..ServeConfig::default()
        }
    }

    /// Dispatch the virtual-time serving loop over a question pool
    /// under this runner's policy.
    pub fn serve(
        &self,
        models: &[&dyn LanguageModel],
        questions: &[Question],
        traffic: &TrafficConfig,
    ) -> ServeReport {
        run_serve(models, questions, traffic, &self.serve_config())
    }
}

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
        runner: &WorkloadRunner,
        model: &dyn LanguageModel,
        _cx: &WorkloadContext<'_>,
        data: &Dataset,
    ) -> EvalReport {
        let mut reports = runner.grid().run_cross(&[model], &[data]);
        reports.remove(0)
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
        runner: &WorkloadRunner,
        model: &dyn LanguageModel,
        _cx: &WorkloadContext<'_>,
        data: &Dataset,
    ) -> EvalReport {
        let mut reports = runner.grid().run_cross(&[model], &[data]);
        reports.remove(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FixedAnswerModel;
    use taxoglimpse_json::ToJson;
    use taxoglimpse_synth::{generate, GenOptions};

    fn context(t: &Taxonomy) -> WorkloadContext<'_> {
        WorkloadContext::new(t, TaxonomyKind::Ebay, 21)
    }

    #[test]
    fn qa_workload_matches_direct_evaluator() {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 21, scale: 1.0 }).unwrap();
        let cx = context(&t);
        let workload = QaWorkload::new(QuestionDataset::Hard).with_sample_cap(Some(40));
        let runner = WorkloadRunner::builder().with_threads(2).build();
        let model = FixedAnswerModel::always_yes();
        let report = runner.run(&workload, &model, &cx).unwrap();
        let direct = Evaluator::default().run(&model, &workload.build(&cx).unwrap());
        assert_eq!(
            taxoglimpse_json::to_string(&report.to_json()).unwrap(),
            taxoglimpse_json::to_string(&direct.to_json()).unwrap()
        );
    }

    #[test]
    fn run_cross_is_model_major() {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 21, scale: 0.5 }).unwrap();
        let cx = context(&t);
        let workload = QaWorkload::new(QuestionDataset::Easy).with_sample_cap(Some(10));
        let runner = WorkloadRunner::default();
        let yes = FixedAnswerModel::always_yes();
        let idk = FixedAnswerModel::always_idk();
        let reports = runner
            .run_cross(&workload, &[&yes, &idk], &[cx, cx])
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

    #[test]
    fn builder_clamps() {
        let runner = WorkloadRunner::builder()
            .with_batch_size(0)
            .with_threads(0)
            .with_chunk_size(0)
            .build();
        assert_eq!(runner.batch_size(), 1);
        assert_eq!(runner.threads(), Some(1));
        assert_eq!(runner.chunk_size(), 1);
    }
}
