//! Non-LLM baselines.
//!
//! The paper frames LLMs against "traditional taxonomy learning
//! approaches". These baselines make that comparison concrete inside the
//! same harness — each implements [`LanguageModel`] so every dataset,
//! prompt and metric works unchanged:
//!
//! * [`RandomBaseline`] — coin-flip TF, uniform MCQ. Calibrates the
//!   floor (0.5 TF / 0.25 MCQ) that several real models hover near on
//!   specialized taxonomies.
//! * [`LexicalBaseline`] — Hearst-style surface matching: Yes iff the
//!   child's name embeds (or heavily overlaps) the candidate's.

use taxoglimpse_core::model::{LanguageModel, ModelError, Query, Response};
use taxoglimpse_core::question::{Question, QuestionBody};
use taxoglimpse_core::similarity::Surface;
use taxoglimpse_core::text::word_overlap;
use taxoglimpse_synth::rng::{hash_str, mix64};

/// Coin-flip / uniform-choice baseline (deterministic per question).
#[derive(Debug, Clone, Copy)]
pub struct RandomBaseline {
    seed: u64,
}

impl RandomBaseline {
    /// Create with a seed.
    pub fn new(seed: u64) -> Self {
        RandomBaseline { seed }
    }
}

impl LanguageModel for RandomBaseline {
    fn name(&self) -> &str {
        "random"
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        let h = mix64(hash_str(self.seed, &query.prompt));
        let text = match &query.question.body {
            QuestionBody::TrueFalse { .. } => {
                if h & 1 == 0 {
                    "Yes.".to_owned()
                } else {
                    "No.".to_owned()
                }
            }
            QuestionBody::Mcq { .. } => format!("{})", (b'A' + (h % 4) as u8) as char),
            // Uniform over the shown children plus the abstain slot.
            QuestionBody::Sibling { options, .. } => {
                format!("{})", (b'A' + (h % (options.len() as u64 + 1)) as u8) as char)
            }
        };
        Ok(Response::new(text))
    }
}

/// Hearst-style lexical matcher: substring containment or high word
/// overlap between child and candidate means Is-A.
#[derive(Debug, Clone, Copy)]
pub struct LexicalBaseline {
    /// Word-overlap fraction above which the relation is accepted.
    pub overlap_threshold: f64,
}

impl Default for LexicalBaseline {
    fn default() -> Self {
        LexicalBaseline { overlap_threshold: 0.5 }
    }
}

impl LexicalBaseline {
    /// Whether the candidate's whole name occurs in the child's (read
    /// from the question's surface record) or enough of its words do.
    fn matches(&self, question: &Question, candidate: &str) -> bool {
        if question.surface().contains(Surface::CANDIDATE) {
            return true;
        }
        word_overlap(&question.child, candidate) >= self.overlap_threshold
    }
}

impl LanguageModel for LexicalBaseline {
    fn name(&self) -> &str {
        "lexical"
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        let question = query.question;
        let text = match &question.body {
            QuestionBody::TrueFalse { candidate, .. } => {
                if self.matches(question, candidate) {
                    "Yes.".to_owned()
                } else {
                    "No.".to_owned()
                }
            }
            QuestionBody::Mcq { .. } | QuestionBody::Sibling { .. } => {
                best_option(question.shown_similarities())
            }
        };
        Ok(Response::new(text))
    }
}

/// The letter of the highest-scoring option (the last one on ties).
fn best_option(scores: impl Iterator<Item = f64>) -> String {
    let best = scores.enumerate().max_by(|a, b| a.1.total_cmp(&b.1)).map_or(0, |(i, _)| i as u8);
    format!("{})", (b'A' + best) as char)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_core::dataset::{DatasetBuilder, QuestionDataset};
    use taxoglimpse_core::domain::TaxonomyKind;
    use taxoglimpse_core::grid::GridRunner;
    use taxoglimpse_synth::{generate, GenOptions};

    fn dataset(kind: TaxonomyKind, scale: f64, flavor: QuestionDataset) -> taxoglimpse_core::dataset::Dataset {
        let t = generate(kind, GenOptions { seed: 20, scale }).unwrap();
        DatasetBuilder::new(&t, kind, 20).sample_cap(Some(120)).build(flavor).unwrap()
    }

    #[test]
    fn random_baseline_is_near_half_on_tf() {
        let d = dataset(TaxonomyKind::Ebay, 1.0, QuestionDataset::Hard);
        let report = GridRunner::default().run(&RandomBaseline::new(1), &d);
        assert!((report.overall.accuracy() - 0.5).abs() < 0.08, "{}", report.overall.accuracy());
        assert_eq!(report.overall.miss_rate(), 0.0);
    }

    #[test]
    fn random_baseline_is_near_quarter_on_mcq() {
        let d = dataset(TaxonomyKind::Google, 0.5, QuestionDataset::Mcq);
        let report = GridRunner::default().run(&RandomBaseline::new(2), &d);
        assert!((report.overall.accuracy() - 0.25).abs() < 0.08, "{}", report.overall.accuracy());
    }

    #[test]
    fn lexical_baseline_excels_on_overlapping_names() {
        let oae = dataset(TaxonomyKind::Oae, 0.3, QuestionDataset::Easy);
        let glotto = dataset(TaxonomyKind::Glottolog, 0.2, QuestionDataset::Easy);
        let lex = LexicalBaseline::default();
        let on_oae = GridRunner::default().run(&lex, &oae).overall.accuracy();
        let on_glotto = GridRunner::default().run(&lex, &glotto).overall.accuracy();
        assert!(on_oae > 0.8, "OAE children embed parents: {on_oae}");
        assert!(on_oae > on_glotto + 0.2, "oae {on_oae} vs glottolog {on_glotto}");
    }

    #[test]
    fn baselines_handle_mcq() {
        let d = dataset(TaxonomyKind::Ncbi, 0.003, QuestionDataset::Mcq);
        let report = GridRunner::default().run(&LexicalBaseline::default(), &d);
        assert!(report.overall.accuracy() > 0.25, "lexical should beat chance");
    }
}
