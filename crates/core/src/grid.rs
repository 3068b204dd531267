//! Parallel grid evaluation: the one evaluation path, and the one
//! execution policy every workload runs under.
//!
//! Every [`EvalReport`] in the workspace comes from
//! [`GridRunner::run_cells`] — [`GridRunner::run`] is `run_cells` on one
//! cell — and every question in the workspace goes through one loop,
//! `GridRunner::question_loop`: render, answer in batches, replay
//! through a [`ResilienceSession`], parse, score, and hand the result
//! to a sink. A grid work unit runs it with a fresh session and a
//! [`Metrics`] sink; a [`DetailedRun`](crate::detailed::DetailedRun)
//! transcript runs the same units with a sink that keeps each exchange;
//! [`GridRunner::ask`] runs it on one question. The case study, the
//! hybrid taxonomy, enrichment, the CLI and hier's descent all ask
//! through it.
//!
//! Tables 5–7 evaluate a (model × taxonomy) grid — hundreds of thousands
//! of independent queries. [`GridRunner`] splits every cell into
//! fixed-size question-range chunks and fans the `(cell, chunk)` work
//! units out over a scoped thread pool. Chunking is what keeps the pool
//! busy at the tail: with whole-cell scheduling the one NCBI-sized cell
//! serializes the end of the grid, while chunks of a few hundred
//! questions keep every worker fed until the last few units.
//!
//! The runner is also the execution policy every
//! [`Workload`](crate::workload::Workload) runs under, and every
//! fan-out in the library shares its one worker pool, `run_indexed`:
//! grid cells, hier instances and serve's batch prefetch.
//!
//! Everything is deterministic: models are `Send + Sync` and answer as a
//! pure function of (question, setting), and chunk [`Metrics`] are
//! additive counters merged in ascending index order — so the assembled
//! reports are byte-identical to a sequential run regardless of thread
//! count, chunk size, or scheduling order (proven by
//! `tests/perf_equivalence.rs`).

use crate::dataset::Dataset;
use crate::eval::{score, EvalConfig, EvalReport, LevelMetrics, DEFAULT_BATCH_SIZE};
use crate::metrics::{Metrics, Outcome};
use crate::model::{LanguageModel, ModelError, Query, Response};
use crate::parse::{parse_answer, ParsedAnswer};
use crate::prompts::{render_prefix, render_prompt_into, PromptSetting};
use crate::question::Question;
use crate::resilience::{ResiliencePolicy, ResilienceSession};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Default questions per work unit. Large enough that scheduling
/// overhead (one atomic fetch and one lock per unit) is noise, small
/// enough that even a single big cell splits into many units.
pub const DEFAULT_CHUNK_SIZE: usize = 256;

/// One asked question, from [`GridRunner::ask`]: the prompt sent, the
/// model's reply (or the error the session gave up on), and its parsed
/// and scored reading.
#[derive(Debug, Clone)]
pub struct Answer {
    /// The rendered prompt.
    pub prompt: String,
    /// The final delivery: the response, or the error the resilience
    /// session gave up on.
    pub response: Result<Response, ModelError>,
    /// The parsed reply; [`ParsedAnswer::Unparsed`] on error.
    pub parsed: ParsedAnswer,
    /// The scored outcome; [`Outcome::Failed`] on error.
    pub outcome: Outcome,
}

/// One grid cell: which model to run on which dataset.
#[derive(Debug, Clone, Copy)]
pub struct GridCell {
    /// Index into the runner's model list.
    pub model: usize,
    /// Index into the runner's dataset list.
    pub dataset: usize,
}

/// One schedulable unit: a question range of one level of one cell.
#[derive(Debug, Clone, Copy)]
struct WorkUnit {
    /// Index into the cell list.
    cell: usize,
    /// Index into the dataset's level slices.
    level: usize,
    /// Question range within the level (empty for an empty level).
    start: usize,
    end: usize,
}

/// The execution policy every workload runs under: prompt
/// configuration, resilience policy and `answer_batch` batch size, plus
/// the worker count and chunk size that fan the work out over threads.
#[derive(Debug, Clone, Copy)]
pub struct GridRunner {
    config: EvalConfig,
    resilience: ResiliencePolicy,
    batch_size: usize,
    threads: usize,
    chunk_size: usize,
}

/// Builds a [`GridRunner`]: the one place to set the evaluation
/// configuration, resilience policy, batch size, worker count and chunk
/// granularity — the workspace's clamping `with_*` idiom. Defaults:
/// `EvalConfig::default()`, [`ResiliencePolicy::default`],
/// [`DEFAULT_BATCH_SIZE`], the machine's available parallelism,
/// [`DEFAULT_CHUNK_SIZE`].
#[derive(Debug, Clone, Copy)]
pub struct GridRunnerBuilder {
    config: EvalConfig,
    resilience: ResiliencePolicy,
    batch_size: usize,
    threads: Option<usize>,
    chunk_size: Option<usize>,
}

impl Default for GridRunnerBuilder {
    fn default() -> Self {
        GridRunnerBuilder {
            config: EvalConfig::default(),
            resilience: ResiliencePolicy::default(),
            batch_size: DEFAULT_BATCH_SIZE,
            threads: None,
            chunk_size: None,
        }
    }
}

impl GridRunnerBuilder {
    /// Set the evaluation configuration (setting + template variant).
    pub fn with_config(mut self, config: EvalConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the worker count (clamped to ≥ 1). Unset = available
    /// parallelism.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Set the questions-per-work-unit granularity (clamped to ≥ 1).
    /// With a fixed fault plan, results are identical for every worker
    /// count; chunk size additionally scopes per-chunk resilience
    /// sessions, so it is part of a run's deterministic identity.
    pub fn with_chunk_size(mut self, chunk_size: usize) -> Self {
        self.chunk_size = Some(chunk_size.max(1));
        self
    }

    /// Set the `answer_batch` batch size used inside every chunk
    /// (clamped to >= 1). Report bytes are identical at every batch
    /// size; this only tunes how attempt-0 deliveries are grouped.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Set the resilience policy applied inside every chunk.
    pub fn with_resilience(mut self, resilience: ResiliencePolicy) -> Self {
        self.resilience = resilience;
        self
    }

    /// Finish: resolve defaults into a runner.
    pub fn build(self) -> GridRunner {
        let threads = self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        });
        GridRunner {
            config: self.config,
            resilience: self.resilience,
            batch_size: self.batch_size,
            threads,
            chunk_size: self.chunk_size.unwrap_or(DEFAULT_CHUNK_SIZE),
        }
    }
}

impl Default for GridRunner {
    fn default() -> Self {
        GridRunner::builder().build()
    }
}

impl GridRunner {
    /// Start building a runner.
    pub fn builder() -> GridRunnerBuilder {
        GridRunnerBuilder::default()
    }

    /// The evaluation configuration (setting + template variant).
    pub fn config(&self) -> EvalConfig {
        self.config
    }

    /// The resilience policy in force.
    pub fn resilience(&self) -> ResiliencePolicy {
        self.resilience
    }

    /// The `answer_batch` batch size (≥ 1).
    pub fn batch_size(&self) -> usize {
        self.batch_size
    }

    /// The worker count (≥ 1).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// The questions-per-work-unit granularity (≥ 1).
    pub fn chunk_size(&self) -> usize {
        self.chunk_size
    }

    /// Evaluate `model` on every question of `dataset`: [`run_cells`]
    /// on one cell.
    ///
    /// [`run_cells`]: GridRunner::run_cells
    pub fn run(&self, model: &dyn LanguageModel, dataset: &Dataset) -> EvalReport {
        self.run_cells(&[model], &[dataset], &[GridCell { model: 0, dataset: 0 }]).remove(0)
    }

    /// Ask a single question: the one path that turns a question into a
    /// parsed, scored answer outside a grid cell. It is the question
    /// loop on one question, through a fresh [`ResilienceSession`]
    /// under the runner's policy.
    pub fn ask(
        &self,
        model: &dyn LanguageModel,
        question: &Question,
        exemplars: &[Question],
    ) -> Answer {
        self.ask_in(&mut ResilienceSession::new(self.resilience), model, question, exemplars)
    }

    /// [`GridRunner::ask`] through a caller's session, for callers that
    /// share one session across a run of questions (hier: one per
    /// instance). A query the session gives up on parses as
    /// [`ParsedAnswer::Unparsed`] and scores as [`Outcome::Failed`].
    pub(crate) fn ask_in(
        &self,
        session: &mut ResilienceSession,
        model: &dyn LanguageModel,
        question: &Question,
        exemplars: &[Question],
    ) -> Answer {
        let mut answer = None;
        self.question_loop(
            session,
            model,
            std::slice::from_ref(question),
            exemplars,
            |query, response, parsed, outcome| {
                answer = Some(Answer { prompt: query.prompt.to_owned(), response, parsed, outcome });
            },
        );
        answer.expect("the loop answers its one question")
    }

    /// Evaluate the full cross product of `models` × `datasets`.
    ///
    /// Results are returned in deterministic row-major order
    /// (`models[0]` on every dataset, then `models[1]`, and so on),
    /// regardless of scheduling.
    pub fn run_cross(
        &self,
        models: &[&dyn LanguageModel],
        datasets: &[&Dataset],
    ) -> Vec<EvalReport> {
        let cells: Vec<GridCell> = (0..models.len())
            .flat_map(|m| (0..datasets.len()).map(move |d| GridCell { model: m, dataset: d }))
            .collect();
        self.run_cells(models, datasets, &cells)
    }

    /// Evaluate an explicit list of cells (deduplicated order preserved).
    ///
    /// A panic inside one cell's evaluation does not take down the whole
    /// grid or poison the result lock: the cell's panic is caught, every
    /// other cell still completes, and this method then panics with a
    /// message naming each failed cell by its index in `cells` and its
    /// `(model, dataset)` identity.
    pub fn run_cells(
        &self,
        models: &[&dyn LanguageModel],
        datasets: &[&Dataset],
        cells: &[GridCell],
    ) -> Vec<EvalReport> {
        let runs = self.run_units(models, datasets, cells, |metrics: &mut Metrics, _, _, _, outcome| {
            metrics.record(outcome)
        });
        // Metrics are additive counters, so summing unit metrics in unit
        // order gives bit-for-bit what a sequential pass records.
        cells
            .iter()
            .zip(runs)
            .map(|(cell, units)| {
                let dataset = datasets[cell.dataset];
                let mut by_level: Vec<LevelMetrics> = dataset
                    .levels
                    .iter()
                    .map(|s| LevelMetrics { child_level: s.child_level, metrics: Metrics::default() })
                    .collect();
                for (level, metrics) in units {
                    by_level[level].metrics += metrics;
                }
                let overall = by_level.iter().map(|level| level.metrics).sum();
                EvalReport {
                    model: models[cell.model].name().to_owned(),
                    taxonomy: dataset.taxonomy,
                    flavor: dataset.flavor,
                    setting: self.config.setting,
                    overall,
                    by_level,
                }
            })
            .collect()
    }

    /// The unit scheduling every run shares, reports and transcripts
    /// alike. Splits each cell into (level, question-range) work units,
    /// resets each cell's model once up front, runs every unit's
    /// question loop on the worker pool with a fresh `T` that `sink`
    /// folds each question into, and returns, per cell, each unit's
    /// level index and `T` in unit order — cell-major, level-major,
    /// ascending start: the sequential question order. Panics as
    /// [`GridRunner::run_cells`] documents.
    ///
    /// Every unit gets a fresh [`ResilienceSession`], so retry, backoff
    /// and breaker state depend only on the unit's question range, never
    /// on worker count or scheduling.
    pub(crate) fn run_units<T: Default + Send>(
        &self,
        models: &[&dyn LanguageModel],
        datasets: &[&Dataset],
        cells: &[GridCell],
        sink: impl Fn(&mut T, &Query<'_>, Result<Response, ModelError>, ParsedAnswer, Outcome) + Sync,
    ) -> Vec<Vec<(usize, T)>> {
        // An empty level still gets one (empty) unit, keeping the
        // per-level report structure uniform.
        let mut units: Vec<WorkUnit> = Vec::new();
        for (ci, cell) in cells.iter().enumerate() {
            for (li, slice) in datasets[cell.dataset].levels.iter().enumerate() {
                let n = slice.questions.len();
                let mut start = 0usize;
                loop {
                    let end = n.min(start.saturating_add(self.chunk_size));
                    units.push(WorkUnit { cell: ci, level: li, start, end });
                    start = end;
                    if start >= n {
                        break;
                    }
                }
            }
        }

        // Per-run model reset happens once per cell up front, before any
        // unit of that cell can run.
        for cell in cells {
            models[cell.model].reset();
        }

        let work = |i: usize| {
            let unit = units[i];
            let cell = cells[unit.cell];
            let slice = &datasets[cell.dataset].levels[unit.level];
            let mut folded = T::default();
            self.question_loop(
                &mut ResilienceSession::new(self.resilience),
                models[cell.model],
                &slice.questions[unit.start..unit.end],
                &slice.exemplars,
                |query, response, parsed, outcome| sink(&mut folded, query, response, parsed, outcome),
            );
            folded
        };
        // Failures are aggregated per *cell* (first failing unit's
        // reason speaks for the cell), naming the failing unit's level
        // and question-index range so a panic in one unit of a
        // 100k-question cell is findable. Units are laid out cell by
        // cell, so a cell's first failure is the first to name it.
        let report = |failed: &[(usize, String)]| {
            let mut firsts = failed.to_vec();
            firsts.dedup_by_key(|(i, _)| units[*i].cell);
            let failures: Vec<String> = firsts
                .iter()
                .map(|(i, reason)| {
                    let unit = units[*i];
                    let cell = cells[unit.cell];
                    let dataset = datasets[cell.dataset];
                    // The cell index maps a failure back to the caller's
                    // own cell list.
                    format!(
                        "cell {} (model `{}`, dataset `{:?}`) level {} questions {}..{}: {reason}",
                        unit.cell,
                        models[cell.model].name(),
                        dataset.taxonomy,
                        dataset.levels[unit.level].child_level,
                        unit.start,
                        unit.end,
                    )
                })
                .collect();
            format!("{} grid cell(s) panicked: {}", failures.len(), failures.join("; "))
        };

        let mut by_cell: Vec<Vec<(usize, T)>> = cells.iter().map(|_| Vec::new()).collect();
        for (unit, folded) in units.iter().zip(run_indexed(self.threads, units.len(), work, report)) {
            by_cell[unit.cell].push((unit.level, folded));
        }
        by_cell
    }

    /// The one question loop: every question in the workspace meets its
    /// model here. Renders the few-shot prefix once and each batch of
    /// questions into reused buffers, so the steady state allocates
    /// nothing per query.
    ///
    /// Questions are processed in batches of [`GridRunner::batch_size`]:
    /// each batch's attempt-0 deliveries are prefetched through
    /// [`LanguageModel::answer_batch`] (where models amortize prefix
    /// hashing, knowledge lookups and lock traffic), then replayed
    /// through `session` **in question order** via
    /// [`ResilienceSession::call_prefetched`] — so retries, backoff and
    /// breaker state evolve exactly as one-by-one calls would, and
    /// outcome bytes are independent of the batch size. Each question's
    /// query, final delivery, parsed reply and outcome then go to
    /// `sink`; a delivery the session gave up on parses as
    /// [`ParsedAnswer::Unparsed`] and scores as [`Outcome::Failed`].
    fn question_loop(
        &self,
        session: &mut ResilienceSession,
        model: &dyn LanguageModel,
        questions: &[Question],
        exemplars: &[Question],
        mut sink: impl FnMut(&Query<'_>, Result<Response, ModelError>, ParsedAnswer, Outcome),
    ) {
        let prefix =
            render_prefix(self.config.setting, self.config.variant, exemplars, PromptSetting::SHOTS);
        let mut bufs: Vec<String> = Vec::new();
        for chunk in questions.chunks(self.batch_size) {
            if bufs.len() < chunk.len() {
                bufs.resize_with(chunk.len(), String::new);
            }
            for (question, buf) in chunk.iter().zip(bufs.iter_mut()) {
                render_prompt_into(question, self.config.setting, self.config.variant, &prefix, buf);
            }
            let queries: Vec<Query<'_>> = chunk
                .iter()
                .zip(bufs.iter())
                .map(|(question, buf)| {
                    Query::new(buf, question, self.config.setting).with_prefix_len(prefix.len())
                })
                .collect();
            let firsts = model.answer_batch(&queries);
            assert_eq!(
                firsts.len(),
                queries.len(),
                "answer_batch must return exactly one result per query"
            );
            for (first, query) in firsts.into_iter().zip(&queries) {
                let response = session.call_prefetched(model, query, first);
                let (parsed, outcome) = match &response {
                    Ok(ok) => {
                        let parsed = parse_answer(query.question, &ok.text);
                        (parsed, score(query.question, parsed))
                    }
                    Err(_) => (ParsedAnswer::Unparsed, Outcome::Failed),
                };
                sink(query, response, parsed, outcome);
            }
        }
    }
}

/// The one claim-counter worker pool: runs `work(i)` for every index
/// in `0..n` on up to `threads` scoped workers and returns the results
/// in index order. A panic inside `work(i)` is caught *before* the
/// result lock is taken — so it can never poison the lock for the other
/// workers — and every other index still runs. Once all have finished,
/// the failed `(index, panic message)` pairs, in index order, go to
/// `report`, and the message it formats is raised as one panic: the
/// library's one re-raise of a worker panic.
pub(crate) fn run_indexed<T: Send>(
    threads: usize,
    n: usize,
    work: impl Fn(usize) -> T + Sync,
    report: impl FnOnce(&[(usize, String)]) -> String,
) -> Vec<T> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Result<T, String>>>> = Mutex::new((0..n).map(|_| None).collect());
    std::thread::scope(|scope| {
        for _ in 0..threads.min(n.max(1)) {
            scope.spawn(|| loop {
                // Relaxed suffices: each fetch_add hands out a distinct
                // index, and the scope join publishes every worker's
                // writes before the in-order merge, so claim order
                // cannot affect the merged bytes.
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| work(i)))
                    .map_err(|payload| panic_message(payload.as_ref()));
                results.lock().expect("no panics while holding the lock")[i] = Some(outcome);
            });
        }
    });
    let (mut done, mut failed) = (Vec::with_capacity(n), Vec::new());
    for (i, slot) in results.into_inner().expect("scope joined all workers").into_iter().enumerate() {
        match slot.expect("every index was claimed") {
            Ok(value) => done.push(value),
            Err(reason) => failed.push((i, reason)),
        }
    }
    if !failed.is_empty() {
        // lint:allow(P001, the one deliberate re-panic - worker panics are joined and surfaced once every index has run)
        panic!("{}", report(&failed));
    }
    done
}

/// Best-effort extraction of a panic payload's message.
pub(crate) fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_owned()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_owned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetBuilder, QuestionDataset};
    use crate::domain::TaxonomyKind;
    use crate::model::FixedAnswerModel;
    use taxoglimpse_json::ToJson;
    use taxoglimpse_synth::{generate, GenOptions};

    fn datasets() -> Vec<Dataset> {
        [TaxonomyKind::Ebay, TaxonomyKind::GeoNames]
            .into_iter()
            .map(|kind| {
                let t = generate(kind, GenOptions { seed: 11, scale: 1.0 }).unwrap();
                DatasetBuilder::new(&t, kind, 11)
                    .sample_cap(Some(40))
                    .build(QuestionDataset::Hard)
                    .unwrap()
            })
            .collect()
    }

    #[test]
    fn parallel_matches_sequential() {
        let ds = datasets();
        let dataset_refs: Vec<&Dataset> = ds.iter().collect();
        let yes = FixedAnswerModel::always_yes();
        let idk = FixedAnswerModel::always_idk();
        let models: Vec<&dyn LanguageModel> = vec![&yes, &idk];
        let json = |threads: usize| -> Vec<String> {
            GridRunner::builder()
                .with_threads(threads)
                .build()
                .run_cross(&models, &dataset_refs)
                .iter()
                .map(|r| taxoglimpse_json::to_string(&r.to_json()).unwrap())
                .collect()
        };
        let sequential = json(1);
        assert_eq!(sequential.len(), models.len() * dataset_refs.len());
        assert_eq!(json(4), sequential);
    }

    #[test]
    fn single_thread_still_works() {
        let ds = datasets();
        let dataset_refs: Vec<&Dataset> = ds.iter().collect();
        let yes = FixedAnswerModel::always_yes();
        let models: Vec<&dyn LanguageModel> = vec![&yes];
        let reports = GridRunner::builder().with_threads(1).build().run_cross(&models, &dataset_refs);
        assert_eq!(reports.len(), 2);
    }

    #[test]
    fn explicit_cells_preserve_order() {
        let ds = datasets();
        let dataset_refs: Vec<&Dataset> = ds.iter().collect();
        let yes = FixedAnswerModel::always_yes();
        let models: Vec<&dyn LanguageModel> = vec![&yes];
        let cells = vec![
            GridCell { model: 0, dataset: 1 },
            GridCell { model: 0, dataset: 0 },
        ];
        let reports = GridRunner::builder()
            .with_threads(8)
            .build()
            .run_cells(&models, &dataset_refs, &cells);
        assert_eq!(reports[0].taxonomy, TaxonomyKind::GeoNames);
        assert_eq!(reports[1].taxonomy, TaxonomyKind::Ebay);
    }

    #[test]
    fn builder_clamps() {
        let runner = GridRunner::builder()
            .with_batch_size(0)
            .with_threads(0)
            .with_chunk_size(0)
            .build();
        assert_eq!(runner.batch_size(), 1);
        assert_eq!(runner.threads(), 1);
        assert_eq!(runner.chunk_size(), 1);
    }

    #[test]
    fn empty_grid_is_fine() {
        let reports = GridRunner::builder().with_threads(4).build().run_cells(&[], &[], &[]);
        assert!(reports.is_empty());
    }

    struct PanickingModel;

    impl LanguageModel for PanickingModel {
        fn name(&self) -> &str {
            "panicker"
        }

        fn answer(
            &self,
            _query: &crate::model::Query<'_>,
        ) -> Result<crate::model::Response, crate::model::ModelError> {
            panic!("synthetic cell failure")
        }
    }

    #[test]
    fn panicking_cell_is_reported_by_identity() {
        let ds = datasets();
        let dataset_refs: Vec<&Dataset> = ds.iter().collect();
        let yes = FixedAnswerModel::always_yes();
        let bad = PanickingModel;
        let models: Vec<&dyn LanguageModel> = vec![&yes, &bad];

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            GridRunner::builder().with_threads(4).build().run_cross(&models, &dataset_refs)
        }));
        let message = panic_message(result.expect_err("grid should surface the failure").as_ref());
        assert!(message.contains("2 grid cell(s) panicked"), "{message}");
        assert!(message.contains("model `panicker`"), "{message}");
        assert!(message.contains("Ebay") && message.contains("GeoNames"), "{message}");
        assert!(message.contains("synthetic cell failure"), "{message}");
        assert!(!message.contains("always-yes"), "healthy cells must not be blamed: {message}");
    }

    /// Regression (PR 5): the panic report names the failing chunk's
    /// level and question-index range, not just the cell identity.
    #[test]
    fn panic_report_names_level_and_question_range() {
        let ds = datasets();
        let dataset_refs: Vec<&Dataset> = vec![&ds[0]];
        let bad = PanickingModel;
        let models: Vec<&dyn LanguageModel> = vec![&bad];

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            GridRunner::builder()
                .with_threads(1)
                .with_chunk_size(5)
                .build()
                .run_cross(&models, &dataset_refs)
        }));
        let message = panic_message(result.expect_err("grid should surface the failure").as_ref());
        let first_level = ds[0].levels[0].child_level;
        assert!(
            message.contains(&format!("level {first_level} questions 0..5")),
            "chunked failure must carry its question range: {message}"
        );
    }

    /// Regression: a failed cell is named by its index in the
    /// cell list, so a caller that lays its work out as cells can
    /// label each one by position.
    #[test]
    fn panic_report_names_shard_when_labelled() {
        let ds = datasets();
        let dataset_refs: Vec<&Dataset> = vec![&ds[0]];
        let yes = FixedAnswerModel::always_yes();
        let bad = PanickingModel;
        let models: Vec<&dyn LanguageModel> = vec![&yes, &bad];
        let mut cells = vec![GridCell { model: 0, dataset: 0 }; 5];
        cells.push(GridCell { model: 1, dataset: 0 });

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            GridRunner::builder().with_threads(2).build().run_cells(&models, &dataset_refs, &cells)
        }));
        let message = panic_message(result.expect_err("grid should surface the failure").as_ref());
        let first_level = ds[0].levels[0].child_level;
        assert!(message.contains("1 grid cell(s) panicked"), "{message}");
        assert!(
            message.contains(&format!(
                "cell 5 (model `panicker`, dataset `Ebay`) level {first_level} questions 0.."
            )),
            "failure must carry its cell index, model and level: {message}"
        );
    }

    /// Failing model calls degrade gracefully through the grid: the
    /// cell completes with `Failed` outcomes and availability < 100%,
    /// and healthy cells are untouched.
    #[test]
    fn failed_calls_flow_into_availability() {
        struct DownModel;
        impl LanguageModel for DownModel {
            fn name(&self) -> &str {
                "down"
            }
            fn answer(
                &self,
                _query: &crate::model::Query<'_>,
            ) -> Result<crate::model::Response, crate::model::ModelError> {
                Err(crate::model::ModelError::Unavailable)
            }
        }

        let ds = datasets();
        let dataset_refs: Vec<&Dataset> = vec![&ds[0]];
        let yes = FixedAnswerModel::always_yes();
        let down = DownModel;
        let models: Vec<&dyn LanguageModel> = vec![&yes, &down];
        let reports = GridRunner::builder()
            .with_threads(4)
            .build()
            .run_cross(&models, &dataset_refs);
        assert_eq!(reports[0].overall.availability(), 1.0);
        assert_eq!(reports[0].overall.failed, 0);
        assert_eq!(reports[1].overall.availability(), 0.0, "every call failed");
        assert_eq!(reports[1].overall.failed, reports[1].overall.total());
        assert_eq!(reports[1].overall.accuracy(), 0.0);
    }
}
