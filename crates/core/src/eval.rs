//! The evaluation harness (§4): run a model over a dataset, parse its
//! free-text answers, and aggregate accuracy / miss rate overall and per
//! level.

use crate::dataset::{Dataset, QuestionDataset};
use crate::domain::TaxonomyKind;
use crate::metrics::{Metrics, Outcome};
use crate::model::{LanguageModel, Query};
use crate::parse::{parse_answer, ParsedAnswer};
use crate::prompts::{render_prefix, render_prompt, render_prompt_into, PromptSetting};
use crate::question::{Question, QuestionBody};
use crate::resilience::{ResiliencePolicy, ResilienceSession};
use crate::templates::TemplateVariant;
use taxoglimpse_json::{FromJson, Json, JsonError, ToJson};

/// Evaluation configuration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EvalConfig {
    /// Prompting setting (zero-shot by default).
    pub setting: PromptSetting,
    /// Template paraphrase variant (canonical by default).
    pub variant: TemplateVariant,
}

impl EvalConfig {
    /// Override the prompting setting.
    pub fn with_setting(mut self, setting: PromptSetting) -> Self {
        self.setting = setting;
        self
    }
}

/// Metrics for one child level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LevelMetrics {
    /// Level of the probed children.
    pub child_level: usize,
    /// Aggregated outcomes at that level.
    pub metrics: Metrics,
}

/// Result of evaluating one model on one dataset.
#[derive(Debug, Clone)]
pub struct EvalReport {
    /// Model name.
    pub model: String,
    /// Probed taxonomy.
    pub taxonomy: TaxonomyKind,
    /// Dataset flavor.
    pub flavor: QuestionDataset,
    /// Prompting setting used.
    pub setting: PromptSetting,
    /// All-levels aggregate.
    pub overall: Metrics,
    /// Per-level breakdown, shallowest first (Figure 3 series).
    pub by_level: Vec<LevelMetrics>,
}

impl EvalReport {
    /// Accuracy series per level (for Figure 3 / Figure 6 plots).
    pub fn accuracy_by_level(&self) -> Vec<(usize, f64)> {
        self.by_level.iter().map(|l| (l.child_level, l.metrics.accuracy())).collect()
    }
}

impl ToJson for LevelMetrics {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("child_level", self.child_level.to_json()),
            ("metrics", self.metrics.to_json()),
        ])
    }
}

impl FromJson for LevelMetrics {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(LevelMetrics {
            child_level: json.field_as("child_level")?,
            metrics: json.field_as("metrics")?,
        })
    }
}

impl ToJson for EvalReport {
    fn to_json(&self) -> Json {
        Json::obj(vec![
            ("model", self.model.to_json()),
            ("taxonomy", self.taxonomy.to_json()),
            ("flavor", self.flavor.to_json()),
            ("setting", self.setting.to_json()),
            ("overall", self.overall.to_json()),
            ("by_level", self.by_level.to_json()),
        ])
    }
}

impl FromJson for EvalReport {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        Ok(EvalReport {
            model: json.field_as("model")?,
            taxonomy: json.field_as("taxonomy")?,
            flavor: json.field_as("flavor")?,
            setting: json.field_as("setting")?,
            overall: json.field_as("overall")?,
            by_level: json.field_as("by_level")?,
        })
    }
}

/// Score one parsed answer against the gold answer.
pub fn score(question: &Question, parsed: ParsedAnswer) -> Outcome {
    match (&question.body, parsed) {
        // A sibling round whose gold child is not among the shown
        // options is answered *correctly* by abstaining — before the
        // blanket IDontKnow-is-a-miss arm below.
        (QuestionBody::Sibling { correct: None, .. }, ParsedAnswer::IDontKnow) => Outcome::Correct,
        (_, ParsedAnswer::IDontKnow) => Outcome::Missed,
        (QuestionBody::TrueFalse { expected_yes, .. }, ParsedAnswer::Yes) => {
            if *expected_yes {
                Outcome::Correct
            } else {
                Outcome::Wrong
            }
        }
        (QuestionBody::TrueFalse { expected_yes, .. }, ParsedAnswer::No) => {
            if *expected_yes {
                Outcome::Wrong
            } else {
                Outcome::Correct
            }
        }
        (QuestionBody::Mcq { correct, .. }, ParsedAnswer::Option(i)) => {
            if i == *correct {
                Outcome::Correct
            } else {
                Outcome::Wrong
            }
        }
        // Sibling rounds show `options.len()` children plus an abstain
        // slot at the next letter; an index at or past the child count
        // is the abstain slot (a real model answering "D)" in a
        // three-child round chose "None of the above").
        (QuestionBody::Sibling { options, correct }, ParsedAnswer::Option(i)) => {
            let abstained = (i as usize) >= options.len();
            match correct {
                Some(c) if !abstained => {
                    if i == *c {
                        Outcome::Correct
                    } else {
                        Outcome::Wrong
                    }
                }
                Some(_) => Outcome::Missed,
                None => {
                    if abstained {
                        Outcome::Correct
                    } else {
                        Outcome::Wrong
                    }
                }
            }
        }
        // Unparseable answers and answer-shape mismatches are wrong
        // answers. Spelled out arm by arm (no `_` wildcard) so adding a
        // `ParsedAnswer` variant is a compile error here, not a silent
        // Wrong.
        (_, ParsedAnswer::Unparsed) => Outcome::Wrong,
        (QuestionBody::TrueFalse { .. }, ParsedAnswer::Option(_)) => Outcome::Wrong,
        (
            QuestionBody::Mcq { .. } | QuestionBody::Sibling { .. },
            ParsedAnswer::Yes | ParsedAnswer::No,
        ) => Outcome::Wrong,
    }
}

/// Default number of queries handed to [`LanguageModel::answer_batch`]
/// per call — large enough to amortize prefix hashing and lock traffic,
/// small enough that prompt buffers stay cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 32;

/// Runs models over datasets.
#[derive(Debug, Clone, Copy)]
pub struct Evaluator {
    config: EvalConfig,
    resilience: ResiliencePolicy,
    batch_size: usize,
}

impl Default for Evaluator {
    fn default() -> Self {
        Evaluator::builder().build()
    }
}

/// Builder for [`Evaluator`] — the workspace's clamping `with_*`
/// idiom: a cheap default, chainable overrides that clamp rather than
/// panic, and a `build()` that cannot fail.
#[derive(Debug, Clone, Copy)]
pub struct EvaluatorBuilder {
    config: EvalConfig,
    resilience: ResiliencePolicy,
    batch_size: usize,
}

impl Default for EvaluatorBuilder {
    fn default() -> Self {
        EvaluatorBuilder {
            config: EvalConfig::default(),
            resilience: ResiliencePolicy::default(),
            batch_size: DEFAULT_BATCH_SIZE,
        }
    }
}

impl EvaluatorBuilder {
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

    /// Override the `answer_batch` batch size (clamped to ≥ 1). Report
    /// bytes are identical at every batch size — batching only changes
    /// how attempt-0 deliveries are grouped, never their content.
    pub fn with_batch_size(mut self, batch_size: usize) -> Self {
        self.batch_size = batch_size.max(1);
        self
    }

    /// Finish the builder.
    pub fn build(self) -> Evaluator {
        Evaluator {
            config: self.config,
            resilience: self.resilience,
            batch_size: self.batch_size,
        }
    }
}

impl Evaluator {
    /// Start building an evaluator.
    pub fn builder() -> EvaluatorBuilder {
        EvaluatorBuilder::default()
    }

    /// The active configuration.
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

    /// Evaluate `model` on every question of `dataset`.
    pub fn run(&self, model: &dyn LanguageModel, dataset: &Dataset) -> EvalReport {
        model.reset();
        let mut overall = Metrics::default();
        let mut by_level = Vec::with_capacity(dataset.levels.len());
        let mut bufs = Vec::new();
        for slice in &dataset.levels {
            let level_metrics =
                self.eval_questions(model, &slice.questions, &slice.exemplars, &mut bufs);
            overall += level_metrics;
            by_level.push(LevelMetrics { child_level: slice.child_level, metrics: level_metrics });
        }
        EvalReport {
            model: model.name().to_owned(),
            taxonomy: dataset.taxonomy,
            flavor: dataset.flavor,
            setting: self.config.setting,
            overall,
            by_level,
        }
    }

    /// Evaluate `model` on a run of questions sharing one exemplar pool,
    /// without resetting the model first — the unit of work the grid
    /// scheduler hands out as `(cell, chunk)`. Metrics are additive, so
    /// summing chunk results in index order equals one sequential pass.
    pub fn run_questions(
        &self,
        model: &dyn LanguageModel,
        questions: &[Question],
        exemplars: &[Question],
    ) -> Metrics {
        self.eval_questions(model, questions, exemplars, &mut Vec::new())
    }

    /// The question loop behind [`Evaluator::run`] / `run_questions`:
    /// renders the few-shot prefix once for the whole run and each
    /// batch of target questions into the reused `bufs`, so the steady
    /// state allocates nothing per query.
    ///
    /// Questions are processed in batches of [`Evaluator::batch_size`]:
    /// each batch's attempt-0 deliveries are prefetched through
    /// [`LanguageModel::answer_batch`] (where models amortize prefix
    /// hashing, knowledge lookups and lock traffic), then replayed
    /// through the session **in question order** via
    /// [`ResilienceSession::call_prefetched`] — so retries, backoff and
    /// breaker state evolve exactly as in the sequential path and
    /// outcome bytes are independent of the batch size.
    ///
    /// Every run gets a *fresh* [`ResilienceSession`]: retry, backoff
    /// and breaker state are local to the question sequence, never
    /// shared across grid chunks — a chunk's outcome bytes therefore
    /// depend only on the chunk, not on worker count or scheduling.
    /// Queries the session gives up on score as [`Outcome::Failed`].
    fn eval_questions(
        &self,
        model: &dyn LanguageModel,
        questions: &[Question],
        exemplars: &[Question],
        bufs: &mut Vec<String>,
    ) -> Metrics {
        let prefix =
            render_prefix(self.config.setting, self.config.variant, exemplars, PromptSetting::SHOTS);
        let mut session = ResilienceSession::new(self.resilience);
        let mut metrics = Metrics::default();
        for chunk in questions.chunks(self.batch_size.max(1)) {
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
                let outcome = match session.call_prefetched(model, query, first) {
                    Ok(response) => {
                        score(query.question, parse_answer(query.question, &response.text))
                    }
                    Err(_) => Outcome::Failed,
                };
                metrics.record(outcome);
            }
        }
        metrics
    }

    /// Ask a single question and score the response (with a one-shot
    /// resilience session).
    pub fn ask(
        &self,
        model: &dyn LanguageModel,
        question: &Question,
        exemplars: &[Question],
    ) -> Outcome {
        let prompt = render_prompt(question, self.config.setting, self.config.variant, exemplars);
        let query = Query::new(&prompt, question, self.config.setting);
        let mut session = ResilienceSession::new(self.resilience);
        match session.call(model, &query) {
            Ok(response) => score(question, parse_answer(question, &response.text)),
            Err(_) => Outcome::Failed,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::DatasetBuilder;
    use crate::model::FixedAnswerModel;
    use taxoglimpse_synth::{generate, GenOptions};

    fn hard_dataset() -> Dataset {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 21, scale: 1.0 }).unwrap();
        DatasetBuilder::new(&t, TaxonomyKind::Ebay, 21)
            .sample_cap(Some(40))
            .build(QuestionDataset::Hard)
            .unwrap()
    }

    #[test]
    fn always_yes_gets_positive_rate_accuracy() {
        let d = hard_dataset();
        let report = Evaluator::default().run(&FixedAnswerModel::always_yes(), &d);
        let positives = d.questions().filter(|q| q.expected_yes() == Some(true)).count();
        let expected = positives as f64 / d.len() as f64;
        assert!((report.overall.accuracy() - expected).abs() < 1e-12);
        assert_eq!(report.overall.miss_rate(), 0.0);
        assert_eq!(report.overall.total(), d.len());
    }

    #[test]
    fn always_idk_has_full_miss_rate() {
        let d = hard_dataset();
        let report = Evaluator::default().run(&FixedAnswerModel::always_idk(), &d);
        assert_eq!(report.overall.accuracy(), 0.0);
        assert_eq!(report.overall.miss_rate(), 1.0);
    }

    #[test]
    fn per_level_metrics_sum_to_overall() {
        let d = hard_dataset();
        let report = Evaluator::default().run(&FixedAnswerModel::always_yes(), &d);
        let mut sum = Metrics::default();
        for l in &report.by_level {
            sum += l.metrics;
        }
        assert_eq!(sum, report.overall);
        assert_eq!(report.by_level.len(), d.levels.len());
    }

    #[test]
    fn score_matrix() {
        use crate::question::NegativeKind;
        let tf_pos = Question {
            id: 0,
            taxonomy: TaxonomyKind::Ebay,
            child: "a".into(),
            child_level: 1,
            parent_level: 0,
            true_parent: "p".into(),
            instance_typing: false,
            body: QuestionBody::TrueFalse { candidate: "p".into(), expected_yes: true, negative: None },
        };
        let tf_neg = Question {
            body: QuestionBody::TrueFalse {
                candidate: "u".into(),
                expected_yes: false,
                negative: Some(NegativeKind::Hard),
            },
            ..tf_pos.clone()
        };
        let mcq = Question {
            body: QuestionBody::Mcq {
                options: ["w".into(), "p".into(), "x".into(), "y".into()],
                correct: 1,
            },
            ..tf_pos.clone()
        };
        assert_eq!(score(&tf_pos, ParsedAnswer::Yes), Outcome::Correct);
        assert_eq!(score(&tf_pos, ParsedAnswer::No), Outcome::Wrong);
        assert_eq!(score(&tf_neg, ParsedAnswer::No), Outcome::Correct);
        assert_eq!(score(&tf_neg, ParsedAnswer::Yes), Outcome::Wrong);
        assert_eq!(score(&tf_pos, ParsedAnswer::IDontKnow), Outcome::Missed);
        assert_eq!(score(&mcq, ParsedAnswer::Option(1)), Outcome::Correct);
        assert_eq!(score(&mcq, ParsedAnswer::Option(0)), Outcome::Wrong);
        assert_eq!(score(&mcq, ParsedAnswer::IDontKnow), Outcome::Missed);
        assert_eq!(score(&mcq, ParsedAnswer::Unparsed), Outcome::Wrong);
        // Answer-shape mismatches are wrong.
        assert_eq!(score(&tf_pos, ParsedAnswer::Option(0)), Outcome::Wrong);
        assert_eq!(score(&mcq, ParsedAnswer::Yes), Outcome::Wrong);
    }

    #[test]
    fn score_sibling_rounds() {
        let base = Question {
            id: 0,
            taxonomy: TaxonomyKind::Ebay,
            child: "a".into(),
            child_level: 1,
            parent_level: 0,
            true_parent: "p".into(),
            instance_typing: false,
            body: QuestionBody::Sibling {
                options: vec!["w".into(), "p".into(), "x".into()],
                correct: Some(1),
            },
        };
        // Gold child shown: pick it, miss it, or abstain (the index at
        // or past the child count is the abstain slot).
        assert_eq!(score(&base, ParsedAnswer::Option(1)), Outcome::Correct);
        assert_eq!(score(&base, ParsedAnswer::Option(0)), Outcome::Wrong);
        assert_eq!(score(&base, ParsedAnswer::Option(3)), Outcome::Missed);
        assert_eq!(score(&base, ParsedAnswer::IDontKnow), Outcome::Missed);
        assert_eq!(score(&base, ParsedAnswer::Unparsed), Outcome::Wrong);
        assert_eq!(score(&base, ParsedAnswer::Yes), Outcome::Wrong);
        // Gold child not shown: abstaining is the correct answer.
        let miss = Question {
            body: QuestionBody::Sibling { options: vec!["w".into(), "x".into()], correct: None },
            ..base.clone()
        };
        assert_eq!(score(&miss, ParsedAnswer::IDontKnow), Outcome::Correct);
        assert_eq!(score(&miss, ParsedAnswer::Option(2)), Outcome::Correct);
        assert_eq!(score(&miss, ParsedAnswer::Option(0)), Outcome::Wrong);
        assert_eq!(score(&miss, ParsedAnswer::Unparsed), Outcome::Wrong);
    }
}
