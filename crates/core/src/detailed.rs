//! Detailed evaluation: per-question records, transcripts, and failure
//! analysis.
//!
//! The paper publishes its full experimental results; this module is the
//! machinery for that level of artifact. [`DetailedRun`] keeps one
//! record per question — the rendered prompt, the model's raw text, the
//! parsed answer and the outcome. A transcript is the runner's run:
//! [`DetailedRun::record`] goes through the same work units, resilience
//! sessions and question order as [`GridRunner::run`], so its outcomes
//! add up to that run's report level by level, faults and tripped
//! breakers included. It supports:
//!
//! * JSONL transcript export ([`DetailedRun::to_jsonl`]),
//! * failure breakdowns by question polarity and negative regime
//!   ([`DetailedRun::by_polarity`]), by level, and by surface
//!   similarity band ([`DetailedRun::by_similarity_band`]) — the
//!   error-analysis views behind the paper's §4 discussions.

use crate::dataset::Dataset;
use crate::grid::{GridCell, GridRunner};
use crate::metrics::{Metrics, Outcome};
use crate::model::LanguageModel;
use crate::parse::ParsedAnswer;
use crate::question::{NegativeKind, Question, QuestionBody};
use crate::text::similarity;
use taxoglimpse_json::JsonError;

/// One fully recorded question/answer exchange.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Question id within its dataset.
    pub question_id: u64,
    /// Child level of the question.
    pub child_level: usize,
    /// `None` for positives/MCQ, the regime for TF negatives.
    pub negative: Option<NegativeKind>,
    /// The rendered prompt sent to the model.
    pub prompt: String,
    /// The model's raw response text.
    pub response: String,
    /// The parsed answer.
    pub parsed: ParsedAnswer,
    /// The scored outcome.
    pub outcome: Outcome,
    /// Trigram similarity between the child and the shown candidate —
    /// the surface-evidence axis of the error analysis.
    pub similarity: f64,
}

taxoglimpse_json::struct_json!(Exchange {
    question_id, child_level, negative, prompt, response, parsed, outcome, similarity,
});

/// A complete recorded run of one model over one dataset.
#[derive(Debug, Clone)]
pub struct DetailedRun {
    /// Model name.
    pub model: String,
    /// All exchanges, in dataset order.
    pub exchanges: Vec<Exchange>,
}

impl DetailedRun {
    /// Run `model` over `dataset` under `runner`, recording every
    /// exchange. The runner's workers fill each work unit's exchanges;
    /// they are joined in unit order, which is dataset order.
    pub fn record(runner: &GridRunner, model: &dyn LanguageModel, dataset: &Dataset) -> Self {
        let units = runner.run_units(
            &[model],
            &[dataset],
            &[GridCell { model: 0, dataset: 0 }],
            |exchanges: &mut Vec<Exchange>, query, response, parsed, outcome| {
                let question = query.question;
                exchanges.push(Exchange {
                    question_id: question.id,
                    child_level: question.child_level,
                    negative: negative_of(question),
                    prompt: query.prompt.to_owned(),
                    // A query the session gives up on is recorded
                    // faithfully: the error display stands in for the
                    // (absent) response text.
                    response: match response {
                        Ok(ok) => ok.text.to_string(),
                        Err(error) => format!("[{error}]"),
                    },
                    parsed,
                    outcome,
                    similarity: similarity(&question.child, question.shown_candidate()),
                });
            },
        );
        let exchanges = units.into_iter().flatten().flat_map(|(_, exchanges)| exchanges).collect();
        DetailedRun { model: model.name().to_owned(), exchanges }
    }

    /// Aggregate metrics over all exchanges.
    pub fn overall(&self) -> Metrics {
        let mut m = Metrics::default();
        for e in &self.exchanges {
            m.record(e.outcome);
        }
        m
    }

    /// Metrics split by polarity: `(positives, easy negatives, hard
    /// negatives)` — the disaggregation the headline tables hide.
    pub fn by_polarity(&self) -> (Metrics, Metrics, Metrics) {
        let mut pos = Metrics::default();
        let mut easy = Metrics::default();
        let mut hard = Metrics::default();
        for e in &self.exchanges {
            match e.negative {
                None => pos.record(e.outcome),
                Some(NegativeKind::Easy) => easy.record(e.outcome),
                Some(NegativeKind::Hard) => hard.record(e.outcome),
            }
        }
        (pos, easy, hard)
    }

    /// Metrics bucketed by candidate-similarity band:
    /// `[0, 0.1), [0.1, 0.3), [0.3, 1]` → (low, mid, high).
    pub fn by_similarity_band(&self) -> (Metrics, Metrics, Metrics) {
        let mut low = Metrics::default();
        let mut mid = Metrics::default();
        let mut high = Metrics::default();
        for e in &self.exchanges {
            let bucket = if e.similarity < 0.1 {
                &mut low
            } else if e.similarity < 0.3 {
                &mut mid
            } else {
                &mut high
            };
            bucket.record(e.outcome);
        }
        (low, mid, high)
    }

    /// The exchanges the model got wrong (for qualitative inspection).
    pub fn failures(&self) -> impl Iterator<Item = &Exchange> {
        self.exchanges.iter().filter(|e| e.outcome == Outcome::Wrong)
    }

    /// Serialize as JSON Lines (one exchange per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for e in &self.exchanges {
            out.push_str(&taxoglimpse_json::to_string(e).expect("exchanges serialize"));
            out.push('\n');
        }
        out
    }

    /// Parse a JSONL transcript back.
    pub fn from_jsonl(model: impl Into<String>, jsonl: &str) -> Result<Self, JsonError> {
        let exchanges = jsonl
            .lines()
            .filter(|l| !l.trim().is_empty())
            .map(taxoglimpse_json::from_str)
            .collect::<Result<Vec<Exchange>, _>>()?;
        Ok(DetailedRun { model: model.into(), exchanges })
    }
}

fn negative_of(q: &Question) -> Option<NegativeKind> {
    match &q.body {
        QuestionBody::TrueFalse { negative, .. } => *negative,
        QuestionBody::Mcq { .. } | QuestionBody::Sibling { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{DatasetBuilder, QuestionDataset};
    use crate::domain::TaxonomyKind;
    use crate::model::FixedAnswerModel;
    use taxoglimpse_synth::{generate, GenOptions};

    fn dataset(flavor: QuestionDataset) -> Dataset {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 80, scale: 1.0 }).unwrap();
        DatasetBuilder::new(&t, TaxonomyKind::Ebay, 80)
            .sample_cap(Some(30))
            .build(flavor)
            .unwrap()
    }

    #[test]
    fn detailed_overall_matches_evaluator() {
        let d = dataset(QuestionDataset::Hard);
        let model = FixedAnswerModel::always_yes();
        let run = DetailedRun::record(&GridRunner::default(), &model, &d);
        let report = GridRunner::default().run(&model, &d);
        assert_eq!(run.overall(), report.overall);
        assert_eq!(run.exchanges.len(), d.len());
    }

    #[test]
    fn polarity_split_exposes_the_yes_bias() {
        let d = dataset(QuestionDataset::Hard);
        let run = DetailedRun::record(&GridRunner::default(), &FixedAnswerModel::always_yes(), &d);
        let (pos, easy, hard) = run.by_polarity();
        assert_eq!(pos.accuracy(), 1.0, "always-yes aces positives");
        assert_eq!(hard.accuracy(), 0.0, "and bombs negatives");
        assert_eq!(easy.total(), 0, "hard dataset has no easy negatives");
        assert_eq!(pos.total() + hard.total(), d.len());
    }

    #[test]
    fn similarity_bands_partition_everything() {
        let d = dataset(QuestionDataset::Easy);
        let run = DetailedRun::record(&GridRunner::default(), &FixedAnswerModel::always_idk(), &d);
        let (low, mid, high) = run.by_similarity_band();
        assert_eq!(low.total() + mid.total() + high.total(), d.len());
    }

    #[test]
    fn jsonl_round_trips() {
        let d = dataset(QuestionDataset::Mcq);
        let run = DetailedRun::record(&GridRunner::default(), &FixedAnswerModel::new("m", "B)"), &d);
        let jsonl = run.to_jsonl();
        assert_eq!(jsonl.lines().count(), run.exchanges.len());
        let back = DetailedRun::from_jsonl("m", &jsonl).unwrap();
        assert_eq!(back.exchanges.len(), run.exchanges.len());
        assert_eq!(back.overall(), run.overall());
        assert!(DetailedRun::from_jsonl("m", "not json\n").is_err());
    }

    #[test]
    fn failures_iterates_only_wrong_answers() {
        let d = dataset(QuestionDataset::Hard);
        let run = DetailedRun::record(&GridRunner::default(), &FixedAnswerModel::always_yes(), &d);
        let failures: Vec<_> = run.failures().collect();
        assert_eq!(failures.len(), run.overall().wrong);
        assert!(failures.iter().all(|e| e.outcome == Outcome::Wrong));
        // Every failure here is a hard negative answered Yes.
        assert!(failures.iter().all(|e| e.negative == Some(NegativeKind::Hard)));
    }

    #[test]
    fn transcripts_contain_prompts_and_responses() {
        let d = dataset(QuestionDataset::Hard);
        let run = DetailedRun::record(&GridRunner::default(), &FixedAnswerModel::always_yes(), &d);
        let e = &run.exchanges[0];
        assert!(e.prompt.contains("a type of"));
        assert_eq!(e.response, "Yes.");
        assert_eq!(e.parsed, ParsedAnswer::Yes);
    }
}
