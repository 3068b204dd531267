//! The evaluation vocabulary (§4): the prompt configuration, the
//! per-answer [`score`], and the overall / per-level [`EvalReport`]
//! every run produces. The loop that renders, answers, parses and
//! scores lives in [`crate::grid::GridRunner`], the one evaluation
//! path.

use crate::dataset::QuestionDataset;
use crate::domain::TaxonomyKind;
use crate::metrics::{Metrics, Outcome};
use crate::parse::ParsedAnswer;
use crate::prompts::PromptSetting;
use crate::question::{Question, QuestionBody};
use crate::templates::TemplateVariant;

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

taxoglimpse_json::struct_json!(LevelMetrics { child_level, metrics });

taxoglimpse_json::struct_json!(EvalReport { model, taxonomy, flavor, setting, overall, by_level });

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

/// Default number of queries handed to [`crate::model::LanguageModel::answer_batch`]
/// per call — large enough to amortize prefix hashing and lock traffic,
/// small enough that prompt buffers stay cache-resident.
pub const DEFAULT_BATCH_SIZE: usize = 32;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::{Dataset, DatasetBuilder};
    use crate::grid::GridRunner;
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
        let report = GridRunner::default().run(&FixedAnswerModel::always_yes(), &d);
        let positives = d.questions().filter(|q| q.expected_yes() == Some(true)).count();
        let expected = positives as f64 / d.len() as f64;
        assert!((report.overall.accuracy() - expected).abs() < 1e-12);
        assert_eq!(report.overall.miss_rate(), 0.0);
        assert_eq!(report.overall.total(), d.len());
    }

    #[test]
    fn always_idk_has_full_miss_rate() {
        let d = hard_dataset();
        let report = GridRunner::default().run(&FixedAnswerModel::always_idk(), &d);
        assert_eq!(report.overall.accuracy(), 0.0);
        assert_eq!(report.overall.miss_rate(), 1.0);
    }

    #[test]
    fn per_level_metrics_sum_to_overall() {
        let d = hard_dataset();
        let report = GridRunner::default().run(&FixedAnswerModel::always_yes(), &d);
        let sum: Metrics = report.by_level.iter().map(|l| l.metrics).sum();
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
            surface_memo: Default::default(),
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
            surface_memo: Default::default(),
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
