//! The simulated LLM: a [`LanguageModel`] whose answers follow the
//! knowledge model's probabilities, deterministically per question.

use crate::knowledge::{Decision, KnowledgeModel};
use crate::profile::ModelId;
use crate::respond::{render, Verdict};
use crate::similarity;
use std::sync::Mutex;
use taxoglimpse_core::model::{LanguageModel, ModelError, Query, Response};
use taxoglimpse_core::question::{Question, QuestionBody};
use taxoglimpse_core::text::token_count;
use taxoglimpse_synth::rng::{hash_str, mix64, StreamHasher};

/// Cumulative usage counters for one simulated model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UsageStats {
    /// Queries answered since the last reset.
    pub queries: u64,
    /// Prompt tokens consumed.
    pub prompt_tokens: u64,
    /// Completion tokens produced.
    pub completion_tokens: u64,
}

/// A simulated model from the eighteen-model zoo.
#[derive(Debug)]
pub struct SimulatedLlm {
    id: ModelId,
    knowledge: KnowledgeModel,
    seed: u64,
    usage: Mutex<UsageStats>,
}

impl SimulatedLlm {
    /// Create the simulated model with the default seed.
    pub fn new(id: ModelId) -> Self {
        Self::with_seed(id, 0x11AA)
    }

    /// Create with an explicit decision seed (varying the seed varies the
    /// per-question draws while keeping the calibrated aggregates).
    pub fn with_seed(id: ModelId, seed: u64) -> Self {
        SimulatedLlm {
            id,
            knowledge: KnowledgeModel::new(id),
            seed: mix64(seed ^ (id.row() as u64) << 40),
            usage: Mutex::new(UsageStats::default()),
        }
    }

    /// Which model this simulates.
    pub fn id(&self) -> ModelId {
        self.id
    }

    /// Ablated variant that ignores all surface-form (name) evidence —
    /// used by the `ablation` experiment to show the NCBI species→genus
    /// uplift disappears without it.
    pub fn without_surface_evidence(mut self) -> Self {
        self.knowledge = self.knowledge.without_surface_evidence();
        self
    }

    /// The decision probabilities this model assigns to a question (for
    /// analysis and tests).
    pub fn decide(&self, query: &Query<'_>) -> Decision {
        self.knowledge.decide(query.question, query.setting)
    }

    /// Usage counters since the last [`LanguageModel::reset`].
    pub fn usage(&self) -> UsageStats {
        *self.usage.lock().expect("usage lock not poisoned")
    }

    /// Hash of the question's stable identity under one prompt setting —
    /// the shared base every per-question draw stream mixes from.
    ///
    /// Streamed equivalent of hashing the old `"{tax}|{child}|{cand}|{id}"`
    /// key (see `StreamHasher`'s equivalence tests): same 64-bit value,
    /// no key `String` — and computed once per verdict instead of once
    /// per draw (a verdict makes two to seven draws).
    fn draw_base(&self, question: &Question, setting_tag: u64) -> u64 {
        let mut h = StreamHasher::new(self.seed ^ setting_tag);
        h.write_str(question.taxonomy.label());
        h.write_str("|");
        h.write_str(&question.child);
        h.write_str("|");
        h.write_str(question.shown_candidate());
        h.write_str("|");
        h.write_decimal(question.id);
        h.finish()
    }

    /// Uniform draw in [0,1) from a draw base and stream index.
    fn draw_from(base: u64, stream: u64) -> f64 {
        let h = mix64(base ^ stream.wrapping_mul(0x9E3779B97F4A7C15));
        (h >> 11) as f64 / (1u64 << 53) as f64
    }

    fn verdict(&self, query: &Query<'_>) -> Verdict {
        // Condition on what the model actually sees: the number of
        // answered exemplars in the prompt (few-shot saturation).
        let shots = query.prompt.matches("Example: ").count();
        self.verdict_with_shots(query, shots)
    }

    /// [`Self::verdict`] with the exemplar count already known — the
    /// batch path counts the shared prefix's exemplars once instead of
    /// rescanning the full prompt per query.
    fn verdict_with_shots(&self, query: &Query<'_>, shots: usize) -> Verdict {
        let question = query.question;
        let decision = self.knowledge.decide_with_shots(question, query.setting, shots);
        let setting_tag = query.setting as u64 + 1;
        let base = self.draw_base(question, setting_tag);

        if Self::draw_from(base, 0) < decision.miss_prob {
            return Verdict::IDontKnow;
        }
        let correct = Self::draw_from(base, 1) < decision.correct_prob;
        match &question.body {
            QuestionBody::TrueFalse { expected_yes, .. } => {
                if correct == *expected_yes {
                    Verdict::Yes
                } else {
                    Verdict::No
                }
            }
            QuestionBody::Mcq { options, correct: gold } => {
                if correct {
                    Verdict::Option(*gold)
                } else {
                    Self::closest_distractor(question, options, Some(*gold), base)
                }
            }
            QuestionBody::Sibling { options, correct: gold } => match gold {
                Some(gold) => {
                    if correct {
                        Verdict::Option(*gold)
                    } else if options.len() == 1 {
                        // Only the gold child is shown: the sole wrong
                        // move left is abstaining.
                        Verdict::IDontKnow
                    } else {
                        Self::closest_distractor(question, options, Some(*gold), base)
                    }
                }
                // Gold child not among the shown options: the correct
                // behaviour is the abstain slot; the failure mode is
                // committing to the most surface-similar shown child —
                // exactly the hallucinated-descent error the constrained
                // workload is built to measure.
                None => {
                    if correct {
                        Verdict::IDontKnow
                    } else {
                        Self::closest_distractor(question, options, None, base)
                    }
                }
            },
        }
    }

    /// Where wrong answers gravitate, like a confused human: the option
    /// most surface-similar to the question's child, skipping the
    /// `gold` index when there is one. A small per-option draw breaks
    /// near-ties.
    fn closest_distractor(
        question: &Question,
        options: &[String],
        gold: Option<u8>,
        base: u64,
    ) -> Verdict {
        similarity::with_cache(|cache| {
            let mut best = (0u8, f64::NEG_INFINITY);
            for (i, option) in options.iter().enumerate() {
                if Some(i as u8) == gold {
                    continue;
                }
                let sim = cache.similarity(&question.child, option)
                    + 0.05 * Self::draw_from(base, 2 + i as u64);
                if sim > best.1 {
                    best = (i as u8, sim);
                }
            }
            Verdict::Option(best.0)
        })
    }
}

/// Precomputed state of a batch's shared few-shot prefix: everything
/// `answer` derives from the prompt that splits cleanly at the
/// prefix/suffix boundary.
struct BatchPrefix {
    len: usize,
    shots: usize,
    prompt_tokens: u64,
    noise: StreamHasher,
}

impl SimulatedLlm {
    /// The batch's shared prefix, if every query declares the same
    /// `prefix_len`, the bytes verify against the first query, and the
    /// prefix ends in `'\n'` (as `render_prefix` output always does).
    ///
    /// The trailing newline is what makes per-query work splittable at
    /// the boundary with *exact* equality to the unsplit computation:
    /// `"Example: "` contains no `'\n'`, so no occurrence can span the
    /// boundary, and [`token_count`] derives tokens from whitespace-split
    /// words, so token counts are additive across a whitespace
    /// boundary. The noise hasher is a [`StreamHasher`], documented
    /// byte-for-byte equal to one-shot hashing however the input is
    /// split.
    fn batch_prefix<'p>(queries: &[Query<'p>]) -> Option<&'p str> {
        let first = queries.first()?;
        if first.prefix_len == 0 {
            return None;
        }
        let prefix = first.prompt.get(..first.prefix_len)?;
        if !prefix.ends_with('\n') {
            return None;
        }
        queries
            .iter()
            .all(|q| {
                q.prefix_len == prefix.len()
                    && q.prompt.len() >= prefix.len()
                    && q.prompt.as_bytes()[..prefix.len()] == *prefix.as_bytes()
            })
            .then_some(prefix)
    }
}

impl LanguageModel for SimulatedLlm {
    fn name(&self) -> &str {
        self.id.display_name()
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        let verdict = self.verdict(query);
        let noise = hash_str(self.seed ^ 0xF00D, &query.prompt);
        let text = render(self.id, query.question, verdict, query.setting, noise);
        let mut usage = self.usage.lock().expect("usage lock not poisoned");
        usage.queries += 1;
        usage.prompt_tokens += token_count(query.prompt) as u64;
        usage.completion_tokens += token_count(&text) as u64;
        Ok(Response::new(text))
    }

    /// Batched answering: answers are byte-identical to per-query
    /// [`Self::answer`] calls; only the per-query *work* changes. When
    /// the batch shares a verified few-shot prefix, the exemplar scan,
    /// the prompt-noise hash state and the prompt token count of the
    /// prefix are computed once and only suffixes are processed per
    /// query; usage counters are merged under a single lock either way.
    fn answer_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Response, ModelError>> {
        let prefix_state = Self::batch_prefix(queries).map(|prefix| {
            let mut noise = StreamHasher::new(self.seed ^ 0xF00D);
            noise.write_str(prefix);
            BatchPrefix {
                len: prefix.len(),
                shots: prefix.matches("Example: ").count(),
                prompt_tokens: token_count(prefix) as u64,
                noise,
            }
        });
        let mut local = UsageStats::default();
        let results: Vec<Result<Response, ModelError>> = queries
            .iter()
            .map(|query| {
                let (shots, noise, prompt_tokens) = match &prefix_state {
                    Some(p) => {
                        let suffix = &query.prompt[p.len..];
                        let mut h = p.noise.clone();
                        h.write_str(suffix);
                        (
                            p.shots + suffix.matches("Example: ").count(),
                            h.finish(),
                            p.prompt_tokens + token_count(suffix) as u64,
                        )
                    }
                    None => (
                        query.prompt.matches("Example: ").count(),
                        hash_str(self.seed ^ 0xF00D, query.prompt),
                        token_count(query.prompt) as u64,
                    ),
                };
                let verdict = self.verdict_with_shots(query, shots);
                let text = render(self.id, query.question, verdict, query.setting, noise);
                local.queries += 1;
                local.prompt_tokens += prompt_tokens;
                local.completion_tokens += token_count(&text) as u64;
                Ok(Response::new(text))
            })
            .collect();
        let mut usage = self.usage.lock().expect("usage lock not poisoned");
        usage.queries += local.queries;
        usage.prompt_tokens += local.prompt_tokens;
        usage.completion_tokens += local.completion_tokens;
        results
    }

    fn reset(&self) {
        *self.usage.lock().expect("usage lock not poisoned") = UsageStats::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_core::dataset::{DatasetBuilder, QuestionDataset};
    use taxoglimpse_core::domain::TaxonomyKind;
    use taxoglimpse_core::eval::{EvalConfig, Evaluator};
    use taxoglimpse_core::prompts::PromptSetting;
    use taxoglimpse_synth::{generate, GenOptions};

    #[test]
    fn answers_are_deterministic() {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 7, scale: 1.0 }).unwrap();
        let d = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 7)
            .sample_cap(Some(20))
            .build(QuestionDataset::Hard)
            .unwrap();
        let m = SimulatedLlm::new(ModelId::Gpt4);
        let e = Evaluator::default();
        let r1 = e.run(&m, &d);
        let r2 = e.run(&m, &d);
        assert_eq!(r1.overall, r2.overall);
    }

    #[test]
    fn gpt4_reproduces_its_ebay_hard_anchor() {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 11, scale: 1.0 }).unwrap();
        let d = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 11).build(QuestionDataset::Hard).unwrap();
        let m = SimulatedLlm::new(ModelId::Gpt4);
        let report = Evaluator::default().run(&m, &d);
        // Paper: A=0.921, M=0.003 on eBay hard.
        assert!((report.overall.accuracy() - 0.921).abs() < 0.06, "A={}", report.overall.accuracy());
        assert!(report.overall.miss_rate() < 0.03, "M={}", report.overall.miss_rate());
    }

    #[test]
    fn llama7b_misses_almost_everything_zero_shot() {
        let t = generate(TaxonomyKind::Amazon, GenOptions { seed: 5, scale: 0.05 }).unwrap();
        let d = DatasetBuilder::new(&t, TaxonomyKind::Amazon, 5)
            .sample_cap(Some(60))
            .build(QuestionDataset::Hard)
            .unwrap();
        let m = SimulatedLlm::new(ModelId::Llama2_7b);
        let report = Evaluator::default().run(&m, &d);
        assert!(report.overall.miss_rate() > 0.85, "M={}", report.overall.miss_rate());
        // Few-shot prompting rescues it (Finding 4 / Figure 4(c,d)).
        let few = Evaluator::builder().with_config(EvalConfig { setting: PromptSetting::FewShot, ..Default::default() }).build().run(&m, &d);
        assert!(few.overall.miss_rate() < 0.3, "few-shot M={}", few.overall.miss_rate());
        assert!(few.overall.accuracy() > report.overall.accuracy());
    }

    #[test]
    fn usage_accounting() {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 2, scale: 0.5 }).unwrap();
        let d = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 2)
            .sample_cap(Some(10))
            .build(QuestionDataset::Mcq)
            .unwrap();
        let m = SimulatedLlm::new(ModelId::Mixtral8x7b);
        Evaluator::default().run(&m, &d);
        let usage = m.usage();
        assert_eq!(usage.queries as usize, d.len());
        assert!(usage.prompt_tokens > usage.queries * 5);
        assert!(usage.completion_tokens >= usage.queries);
        m.reset();
        assert_eq!(m.usage(), UsageStats::default());
    }

    #[test]
    fn batch_answers_and_usage_match_single_calls() {
        use taxoglimpse_core::model::Query;
        use taxoglimpse_core::prompts::{render_prefix, render_prompt_into};
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 9, scale: 0.3 }).unwrap();
        let d = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 9)
            .sample_cap(Some(30))
            .build(QuestionDataset::Hard)
            .unwrap();
        let batched = SimulatedLlm::new(ModelId::Gpt4);
        let sequential = SimulatedLlm::new(ModelId::Gpt4);
        for setting in [PromptSetting::ZeroShot, PromptSetting::FewShot] {
            for slice in &d.levels {
                let prefix = render_prefix(
                    setting,
                    Default::default(),
                    &slice.exemplars,
                    PromptSetting::SHOTS,
                );
                let prompts: Vec<String> = slice
                    .questions
                    .iter()
                    .map(|q| {
                        let mut s = String::new();
                        render_prompt_into(q, setting, Default::default(), &prefix, &mut s);
                        s
                    })
                    .collect();
                let queries: Vec<Query<'_>> = prompts
                    .iter()
                    .zip(&slice.questions)
                    .map(|(p, q)| Query::new(p, q, setting).with_prefix_len(prefix.len()))
                    .collect();
                let batch = batched.answer_batch(&queries);
                let singles: Vec<_> = queries.iter().map(|q| sequential.answer(q)).collect();
                assert_eq!(batch, singles, "{setting:?}: batched path diverged");
            }
        }
        assert_eq!(batched.usage(), sequential.usage(), "usage accounting diverged");
    }

    #[test]
    fn different_seeds_change_individual_answers_not_aggregates() {
        let t = generate(TaxonomyKind::Google, GenOptions { seed: 3, scale: 0.3 }).unwrap();
        let d = DatasetBuilder::new(&t, TaxonomyKind::Google, 3).build(QuestionDataset::Easy).unwrap();
        let a = Evaluator::default().run(&SimulatedLlm::with_seed(ModelId::Gpt35, 1), &d);
        let b = Evaluator::default().run(&SimulatedLlm::with_seed(ModelId::Gpt35, 2), &d);
        // Aggregates stay close to each other (both calibrated)…
        assert!((a.overall.accuracy() - b.overall.accuracy()).abs() < 0.08);
        // …but the seeds genuinely differ somewhere.
        assert_ne!(a.overall, b.overall);
    }
}
