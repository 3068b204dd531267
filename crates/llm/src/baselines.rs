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
//! * [`NgramVectorBaseline`] — a small character-n-gram vector-space
//!   model with an inverted index: names are embedded into hashed
//!   n-gram space; Is-A is accepted when cosine similarity clears a
//!   threshold, MCQ picks the nearest option. This is the "statistical
//!   IR" baseline a pre-LLM system would actually use.

use taxoglimpse_core::model::{LanguageModel, ModelError, Query, Response};
use taxoglimpse_core::question::{Question, QuestionBody};
use taxoglimpse_core::similarity::Surface;
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
        let (cl, al) = (question.child.to_ascii_lowercase(), candidate.to_ascii_lowercase());
        let cw: Vec<&str> = cl.split(' ').collect();
        let aw: Vec<&str> = al.split(' ').collect();
        if aw.is_empty() {
            return false;
        }
        let shared = aw.iter().filter(|w| cw.contains(w)).count();
        shared as f64 / aw.len() as f64 >= self.overlap_threshold
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

/// Dimensionality of the hashed n-gram space.
const NGRAM_DIMS: usize = 512;

/// A character-n-gram vector-space model: names are embedded as hashed
/// 2–4-gram count vectors; Is-A is cosine similarity above a threshold.
#[derive(Debug, Clone, Copy)]
pub struct NgramVectorBaseline {
    /// Cosine similarity above which a TF relation is accepted.
    pub threshold: f64,
}

impl Default for NgramVectorBaseline {
    fn default() -> Self {
        NgramVectorBaseline { threshold: 0.35 }
    }
}

impl NgramVectorBaseline {
    /// Embed a name into hashed n-gram space (L2-normalized).
    pub fn embed(name: &str) -> [f32; NGRAM_DIMS] {
        let mut v = [0f32; NGRAM_DIMS];
        let lower: Vec<u8> = name.bytes().map(|b| b.to_ascii_lowercase()).collect();
        for n in 2..=4usize {
            if lower.len() < n {
                continue;
            }
            for gram in lower.windows(n) {
                let mut h = 0xcbf29ce484222325u64; // FNV-1a
                for &b in gram {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100000001b3);
                }
                v[(h % NGRAM_DIMS as u64) as usize] += 1.0;
            }
        }
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            for x in &mut v {
                *x /= norm;
            }
        }
        v
    }

    /// Cosine similarity of two embedded names.
    pub fn cosine(a: &str, b: &str) -> f64 {
        let (va, vb) = (Self::embed(a), Self::embed(b));
        va.iter().zip(&vb).map(|(x, y)| f64::from(x * y)).sum()
    }
}

impl LanguageModel for NgramVectorBaseline {
    fn name(&self) -> &str {
        "ngram-vsm"
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        let text = match &query.question.body {
            QuestionBody::TrueFalse { candidate, .. } => {
                if Self::cosine(&query.question.child, candidate) >= self.threshold {
                    "Yes.".to_owned()
                } else {
                    "No.".to_owned()
                }
            }
            QuestionBody::Mcq { .. } | QuestionBody::Sibling { .. } => {
                let child = &query.question.child;
                best_option(query.question.shown_names().iter().map(|o| Self::cosine(child, o)))
            }
        };
        Ok(Response::new(text))
    }
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
    fn ngram_embedding_properties() {
        let v = NgramVectorBaseline::embed("Verbascum");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
        assert!((NgramVectorBaseline::cosine("abc", "abc") - 1.0).abs() < 1e-6);
        assert!(NgramVectorBaseline::cosine("Verbascum chaixii", "Verbascum") > 0.5);
        assert!(NgramVectorBaseline::cosine("Verbascum chaixii", "Panthera") < 0.2);
        // Empty / tiny strings embed to zero vectors (cosine 0).
        assert_eq!(NgramVectorBaseline::cosine("a", "a"), 0.0);
    }

    #[test]
    fn vsm_beats_random_on_species_level() {
        // The VSM exploits the genus⊂species surface form; random cannot.
        let t = generate(TaxonomyKind::Ncbi, GenOptions { seed: 21, scale: 0.003 }).unwrap();
        let slice = DatasetBuilder::new(&t, TaxonomyKind::Ncbi, 21)
            .sample_cap(Some(150))
            .build_level(QuestionDataset::Hard, t.num_levels() - 1);
        let runner = GridRunner::default();
        let mut vsm_metrics = taxoglimpse_core::metrics::Metrics::default();
        let mut rnd_metrics = taxoglimpse_core::metrics::Metrics::default();
        let vsm = NgramVectorBaseline::default();
        let rnd = RandomBaseline::new(3);
        for q in &slice.questions {
            vsm_metrics.record(runner.ask(&vsm, q, &[]).outcome);
            rnd_metrics.record(runner.ask(&rnd, q, &[]).outcome);
        }
        assert!(
            vsm_metrics.accuracy() > rnd_metrics.accuracy() + 0.2,
            "vsm {} vs random {}",
            vsm_metrics.accuracy(),
            rnd_metrics.accuracy()
        );
    }

    #[test]
    fn baselines_handle_mcq() {
        let d = dataset(TaxonomyKind::Ncbi, 0.003, QuestionDataset::Mcq);
        for model in [&LexicalBaseline::default() as &dyn LanguageModel, &NgramVectorBaseline::default()] {
            let report = GridRunner::default().run(model, &d);
            assert!(report.overall.accuracy() > 0.25, "{} should beat chance", model.name());
        }
    }
}
