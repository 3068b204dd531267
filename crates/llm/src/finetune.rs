//! Domain-specific instruction tuning (Finding 3).
//!
//! LLMs4OL is Flan-T5-3B plus taxonomy instruction tuning, and is the
//! only method in the paper that *stably* improves accuracy. The zoo
//! ships LLMs4OL as its own calibrated model; this module additionally
//! provides a generic [`InstructionTuned`] wrapper so users can apply
//! the same treatment to any base model: it intercepts the base model's
//! wrong answers on the tuned taxonomies and corrects a configurable
//! fraction of them (equivalently, it boosts conditional accuracy and
//! eliminates abstention, which is what the LLMs4OL rows show: zero
//! miss rate and uplifted accuracy).

use taxoglimpse_core::domain::TaxonomyKind;
use taxoglimpse_core::model::{LanguageModel, ModelError, Query, Response};
use taxoglimpse_core::parse::{parse_answer, ParsedAnswer};
use taxoglimpse_core::prompts::render_gold;
use taxoglimpse_synth::rng::{hash_str, mix64};

/// A base model wrapped with domain-specific instruction tuning.
pub struct InstructionTuned<M> {
    base: M,
    name: String,
    /// Taxonomies covered by the tuning data (`None` = all ten, like our
    /// adapted LLMs4OL; the original covered general/geo/medical only).
    domains: Option<Vec<TaxonomyKind>>,
    /// Fraction of the base model's wrong/missed answers the tuning
    /// fixes, in `[0, 1]`.
    fix_rate: f64,
    seed: u64,
}

impl<M: LanguageModel> InstructionTuned<M> {
    /// Wrap `base`. `fix_rate` is the fraction of its errors (wrong
    /// answers *and* abstentions) corrected on the tuned taxonomies.
    pub fn new(base: M, fix_rate: f64, seed: u64) -> Self {
        let name = format!("{}+it", base.name());
        InstructionTuned { base, name, domains: None, fix_rate: fix_rate.clamp(0.0, 1.0), seed }
    }

    /// Restrict tuning to specific taxonomies (questions outside them
    /// pass through to the base model untouched).
    pub fn with_domains(mut self, domains: Vec<TaxonomyKind>) -> Self {
        self.domains = Some(domains);
        self
    }

    fn covers(&self, kind: TaxonomyKind) -> bool {
        match &self.domains {
            None => true,
            Some(d) => d.contains(&kind),
        }
    }

    /// The wrapped base model.
    pub fn base(&self) -> &M {
        &self.base
    }

    /// Apply the tuning treatment to one successful base delivery — the
    /// pure post-processing step shared by `answer` and `answer_batch`.
    fn tune(&self, query: &Query<'_>, base_answer: Response) -> Response {
        let question = query.question;
        if !self.covers(question.taxonomy) {
            return base_answer;
        }
        let parsed = parse_answer(question, &base_answer.text);
        let gold = question.gold();
        let is_correct = matches!(
            (parsed, gold),
            (ParsedAnswer::Yes, taxoglimpse_core::question::GoldAnswer::Yes)
                | (ParsedAnswer::No, taxoglimpse_core::question::GoldAnswer::No)
        ) || matches!((parsed, gold), (ParsedAnswer::Option(i), taxoglimpse_core::question::GoldAnswer::Option(j)) if i == j)
            || matches!(
                (parsed, gold),
                (ParsedAnswer::IDontKnow, taxoglimpse_core::question::GoldAnswer::Abstain)
            );
        if is_correct {
            return base_answer;
        }
        // Deterministically fix a `fix_rate` fraction of the errors.
        let h = mix64(hash_str(self.seed, &query.prompt));
        let u = (h >> 11) as f64 / (1u64 << 53) as f64;
        let corrected = if u < self.fix_rate {
            render_gold(gold)
        } else if parsed == ParsedAnswer::IDontKnow {
            // Instruction tuning always commits to a guess: replace the
            // abstention with the base model's "best guess" — the wrong
            // answer it would have given. (This is why LLMs4OL's miss
            // rates are all zero.)
            match gold {
                taxoglimpse_core::question::GoldAnswer::Yes => "No.".to_owned(),
                taxoglimpse_core::question::GoldAnswer::No => "Yes.".to_owned(),
                taxoglimpse_core::question::GoldAnswer::Option(j) => {
                    format!("{})", (b'A' + ((j + 1) % 4)) as char)
                }
                // When abstaining was right, the tuned model's forced
                // guess commits to the first shown option.
                taxoglimpse_core::question::GoldAnswer::Abstain => "A)".to_owned(),
            }
        } else {
            return base_answer;
        };
        Response::new(corrected)
    }
}

impl<M: LanguageModel> LanguageModel for InstructionTuned<M> {
    fn name(&self) -> &str {
        &self.name
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        Ok(self.tune(query, self.base.answer(query)?))
    }

    /// Batched answering: delegate the whole batch to the base model's
    /// batch path, then apply the (pure, per-query) tuning treatment to
    /// each successful delivery.
    fn answer_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Response, ModelError>> {
        let base_answers = self.base.answer_batch(queries);
        assert_eq!(
            base_answers.len(),
            queries.len(),
            "answer_batch must return exactly one result per query"
        );
        base_answers
            .into_iter()
            .zip(queries)
            .map(|(answer, query)| answer.map(|response| self.tune(query, response)))
            .collect()
    }

    fn reset(&self) {
        self.base.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::ModelId;
    use crate::simulate::SimulatedLlm;
    use taxoglimpse_core::dataset::{DatasetBuilder, QuestionDataset};
    use taxoglimpse_core::grid::GridRunner;
    use taxoglimpse_synth::{generate, GenOptions};

    fn glottolog_dataset() -> (taxoglimpse_taxonomy::Taxonomy, TaxonomyKind) {
        let t = generate(TaxonomyKind::Glottolog, GenOptions { seed: 9, scale: 0.05 }).unwrap();
        (t, TaxonomyKind::Glottolog)
    }

    #[test]
    fn tuning_improves_the_backbone() {
        let (t, k) = glottolog_dataset();
        let d = DatasetBuilder::new(&t, k, 9).sample_cap(Some(60)).build(QuestionDataset::Hard).unwrap();
        let base = SimulatedLlm::new(ModelId::FlanT5_3b);
        let base_report = GridRunner::default().run(&base, &d);
        let tuned = InstructionTuned::new(SimulatedLlm::new(ModelId::FlanT5_3b), 0.4, 1);
        let tuned_report = GridRunner::default().run(&tuned, &d);
        assert!(
            tuned_report.overall.accuracy() > base_report.overall.accuracy(),
            "tuned {} vs base {}",
            tuned_report.overall.accuracy(),
            base_report.overall.accuracy()
        );
        assert_eq!(tuned_report.overall.miss_rate(), 0.0);
    }

    #[test]
    fn tuning_eliminates_abstention() {
        let (t, k) = glottolog_dataset();
        let d = DatasetBuilder::new(&t, k, 10).sample_cap(Some(40)).build(QuestionDataset::Hard).unwrap();
        // Mistral abstains a lot on Glottolog (M = 0.818 in Table 5).
        let tuned = InstructionTuned::new(SimulatedLlm::new(ModelId::Mistral7b), 0.3, 2);
        let report = GridRunner::default().run(&tuned, &d);
        assert_eq!(report.overall.miss_rate(), 0.0);
    }

    #[test]
    fn domain_restriction_passes_other_taxonomies_through() {
        let (t, k) = glottolog_dataset();
        let d = DatasetBuilder::new(&t, k, 11).sample_cap(Some(40)).build(QuestionDataset::Hard).unwrap();
        let base_report = GridRunner::default().run(&SimulatedLlm::new(ModelId::FlanT5_3b), &d);
        // Tuned only on Shopping: Glottolog answers are untouched.
        let tuned = InstructionTuned::new(SimulatedLlm::new(ModelId::FlanT5_3b), 0.9, 3)
            .with_domains(vec![TaxonomyKind::Amazon]);
        let tuned_report = GridRunner::default().run(&tuned, &d);
        assert_eq!(tuned_report.overall, base_report.overall);
    }

    #[test]
    fn fix_rate_one_is_perfect_on_covered_domains() {
        let (t, k) = glottolog_dataset();
        let d = DatasetBuilder::new(&t, k, 12).sample_cap(Some(30)).build(QuestionDataset::Mcq).unwrap();
        let tuned = InstructionTuned::new(SimulatedLlm::new(ModelId::Llama2_7b), 1.0, 4);
        let report = GridRunner::default().run(&tuned, &d);
        assert_eq!(report.overall.accuracy(), 1.0);
    }

    #[test]
    fn name_reflects_tuning() {
        let tuned = InstructionTuned::new(SimulatedLlm::new(ModelId::FlanT5_3b), 0.5, 5);
        assert_eq!(tuned.name(), "Flan-T5-3B+it");
        assert_eq!(tuned.base().id(), ModelId::FlanT5_3b);
    }
}
