//! The §5.3 case study: replacing the deep levels of the Amazon Product
//! Category with an LLM.
//!
//! The paper removes every level-4-or-deeper node (25,777 of 43,814 —
//! a 59% construction/maintenance saving), keeps root..level-3 for
//! display, and routes a query for a removed concept (e.g. "Pencil")
//! through its kept ancestor ("Stationery"): the LLM is asked to return,
//! from the full list of stationery products, those that are pencils.
//! The paper measures precision 0.713 and recall 0.792 with Llama-2-70B.
//!
//! Here the same pipeline runs against any [`LanguageModel`]: for each
//! sampled removed concept we pool its own products with its siblings'
//! products and ask the model, product by product, "Are `<product>`
//! products a type of `<concept>` products?" — a product is returned iff
//! the model answers Yes.

use crate::domain::TaxonomyKind;
use crate::metrics::Outcome;
use crate::model::{LanguageModel, ModelError, Query};
use crate::parse::{parse_tf, ParsedAnswer};
use crate::prompts::PromptSetting;
use crate::question::{NegativeKind, Question, QuestionBody};
use crate::sampling::cochran_sample_size;
use crate::templates::{render_question, TemplateVariant};
use taxoglimpse_synth::instances::InstanceGenerator;
use taxoglimpse_synth::rng::{fork, SliceRandom};
use taxoglimpse_taxonomy::Taxonomy;

/// Case-study configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CaseStudyConfig {
    /// Nodes at this level or deeper are replaced by the LLM (the paper
    /// uses 4 for Amazon: root=0 … level-3 kept).
    pub cutoff_level: usize,
    /// Synthetic products generated under each replaced leaf concept.
    pub products_per_concept: usize,
    /// Optional cap on sampled concepts (the paper samples at 95%/5%).
    pub sample_cap: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CaseStudyConfig {
    fn default() -> Self {
        CaseStudyConfig { cutoff_level: 4, products_per_concept: 12, sample_cap: None, seed: 0xCA5E }
    }
}

/// Case-study outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct CaseStudyResult {
    /// Nodes kept (levels `0..cutoff`).
    pub kept_nodes: usize,
    /// Nodes removed (levels `cutoff..`).
    pub removed_nodes: usize,
    /// `removed / total` — the construction/maintenance saving the paper
    /// reports as 59% for Amazon at cutoff 4.
    pub cost_saving: f64,
    /// Micro-averaged precision of the returned product lists.
    pub precision: f64,
    /// Micro-averaged recall.
    pub recall: f64,
    /// Number of removed concepts evaluated.
    pub concepts_evaluated: usize,
    /// Total product-level classifications issued to the model.
    pub classifications: usize,
}

/// Runs the hybrid taxonomy-replacement pipeline.
#[derive(Debug)]
pub struct CaseStudy<'t> {
    taxonomy: &'t Taxonomy,
    kind: TaxonomyKind,
    config: CaseStudyConfig,
}

impl<'t> CaseStudy<'t> {
    /// Create a case study over a (shopping) taxonomy.
    pub fn new(taxonomy: &'t Taxonomy, kind: TaxonomyKind, config: CaseStudyConfig) -> Self {
        CaseStudy { taxonomy, kind, config }
    }

    /// Execute against `model`.
    pub fn run(&self, model: &dyn LanguageModel) -> CaseStudyResult {
        let t = self.taxonomy;
        let cutoff = self.config.cutoff_level;
        let kept_nodes: usize = (0..cutoff.min(t.num_levels()))
            .map(|l| t.nodes_at_level(l).len())
            .sum();
        let removed_nodes = t.len() - kept_nodes;
        let cost_saving = if t.is_empty() { 0.0 } else { removed_nodes as f64 / t.len() as f64 };

        // Candidate concepts: removed (level >= cutoff) nodes that have
        // at least one sibling (otherwise there is no retrieval task) and
        // are leaves (products hang under leaf concepts).
        let mut candidates: Vec<_> = t
            .ids()
            .filter(|&id| t.level(id) >= cutoff && t.is_leaf(id) && !t.siblings(id).is_empty())
            .collect();
        let mut rng = fork(self.config.seed, "casestudy", 0);
        candidates.shuffle(&mut rng);
        let mut n = cochran_sample_size(candidates.len());
        if let Some(cap) = self.config.sample_cap {
            n = n.min(cap);
        }
        candidates.truncate(n);

        let instgen = InstanceGenerator::new(self.kind, self.config.seed)
            // lint:allow(P001, documented precondition of run - callers select an instance-bearing kind)
            .unwrap_or_else(|| panic!("case study requires an instance-bearing taxonomy, got {}", self.kind));

        let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
        let mut classifications = 0usize;
        for &concept in &candidates {
            let own = instgen.instances_for(t, &[concept], self.config.products_per_concept);
            let siblings = t.siblings(concept);
            let sibling_products = instgen.instances_for(t, &siblings, self.config.products_per_concept);

            for inst in &own {
                classifications += 1;
                match self.classify(model, &inst.name, concept) {
                    Outcome::Correct => tp += 1, // returned, truly under concept
                    // Withheld, abstained, or never answered (failed
                    // delivery): the product is not retrieved either way.
                    Outcome::Missed | Outcome::Wrong | Outcome::Failed => fn_ += 1,
                }
            }
            for inst in &sibling_products {
                classifications += 1;
                // A sibling product returned as a match is a false
                // positive; classify() scores "No" as Correct here.
                if self.classify_negative(model, &inst.name, concept) == Outcome::Wrong {
                    fp += 1;
                }
            }
        }

        let precision = safe_div(tp, tp + fp);
        let recall = safe_div(tp, tp + fn_);
        CaseStudyResult {
            kept_nodes,
            removed_nodes,
            cost_saving,
            precision,
            recall,
            concepts_evaluated: candidates.len(),
            classifications,
        }
    }

    fn make_question(&self, product: &str, concept: taxoglimpse_taxonomy::NodeId, positive: bool) -> Question {
        let t = self.taxonomy;
        Question {
            id: 0,
            taxonomy: self.kind,
            child: product.to_owned(),
            child_level: t.level(concept) + 1,
            parent_level: t.level(concept),
            true_parent: t.name(concept).to_owned(),
            instance_typing: true,
            body: QuestionBody::TrueFalse {
                candidate: t.name(concept).to_owned(),
                expected_yes: positive,
                negative: (!positive).then_some(NegativeKind::Hard),
            },
        }
    }

    fn ask(
        &self,
        model: &dyn LanguageModel,
        question: &Question,
    ) -> Result<ParsedAnswer, ModelError> {
        let prompt = render_question(question, TemplateVariant::Canonical);
        let query = Query::new(&prompt, question, PromptSetting::ZeroShot);
        Ok(parse_tf(&model.answer(&query)?.text))
    }

    /// Classify a product that truly belongs to `concept`.
    fn classify(&self, model: &dyn LanguageModel, product: &str, concept: taxoglimpse_taxonomy::NodeId) -> Outcome {
        let q = self.make_question(product, concept, true);
        match self.ask(model, &q) {
            Ok(ParsedAnswer::Yes) => Outcome::Correct,
            Ok(ParsedAnswer::IDontKnow) => Outcome::Missed,
            Ok(ParsedAnswer::No | ParsedAnswer::Option(_) | ParsedAnswer::Unparsed) => Outcome::Wrong,
            Err(
                ModelError::Timeout
                | ModelError::RateLimited { .. }
                | ModelError::Truncated { .. }
                | ModelError::Unavailable
                | ModelError::Malformed,
            ) => Outcome::Failed,
        }
    }

    /// Classify a sibling product (ground truth: not under `concept`).
    /// For this call the question is a *hard negative*: the candidate
    /// concept is a sibling of the product's true category.
    fn classify_negative(&self, model: &dyn LanguageModel, product: &str, concept: taxoglimpse_taxonomy::NodeId) -> Outcome {
        let q = self.make_question(product, concept, false);
        match self.ask(model, &q) {
            Ok(ParsedAnswer::No) => Outcome::Correct,
            Ok(ParsedAnswer::IDontKnow) => Outcome::Missed,
            Ok(ParsedAnswer::Yes | ParsedAnswer::Option(_) | ParsedAnswer::Unparsed) => Outcome::Wrong,
            Err(
                ModelError::Timeout
                | ModelError::RateLimited { .. }
                | ModelError::Truncated { .. }
                | ModelError::Unavailable
                | ModelError::Malformed,
            ) => Outcome::Failed,
        }
    }
}

fn safe_div(n: usize, d: usize) -> f64 {
    if d == 0 {
        0.0
    } else {
        n as f64 / d as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FixedAnswerModel;
    use taxoglimpse_synth::{generate, GenOptions};

    fn amazon_small() -> Taxonomy {
        generate(TaxonomyKind::Amazon, GenOptions { seed: 17, scale: 0.05 }).unwrap()
    }

    #[test]
    fn cost_saving_matches_paper_at_full_scale_shape() {
        // At scale 1.0 the Amazon shape is 41-507-3910-13579-25777, so
        // removing level 4 saves 25777/43814 = 58.8%.
        let t = generate(TaxonomyKind::Amazon, GenOptions { seed: 1, scale: 1.0 }).unwrap();
        let cs = CaseStudy::new(&t, TaxonomyKind::Amazon, CaseStudyConfig {
            sample_cap: Some(0),
            ..CaseStudyConfig::default()
        });
        let r = cs.run(&FixedAnswerModel::always_yes());
        assert_eq!(r.removed_nodes, 25777);
        assert_eq!(r.kept_nodes, 43814 - 25777);
        assert!((r.cost_saving - 0.588).abs() < 0.005, "saving {}", r.cost_saving);
    }

    #[test]
    fn always_yes_has_perfect_recall_terrible_precision() {
        let t = amazon_small();
        let cs = CaseStudy::new(&t, TaxonomyKind::Amazon, CaseStudyConfig {
            cutoff_level: 3,
            products_per_concept: 5,
            sample_cap: Some(10),
            seed: 2,
        });
        let r = cs.run(&FixedAnswerModel::always_yes());
        assert!(r.concepts_evaluated > 0);
        assert!((r.recall - 1.0).abs() < 1e-12);
        assert!(r.precision < 0.9, "precision {}", r.precision);
        assert!(r.classifications > 0);
    }

    #[test]
    fn always_idk_returns_nothing() {
        let t = amazon_small();
        let cs = CaseStudy::new(&t, TaxonomyKind::Amazon, CaseStudyConfig {
            cutoff_level: 3,
            products_per_concept: 4,
            sample_cap: Some(8),
            seed: 3,
        });
        let r = cs.run(&FixedAnswerModel::always_idk());
        assert_eq!(r.recall, 0.0);
        assert_eq!(r.precision, 0.0);
    }

    #[test]
    #[should_panic(expected = "case study requires an instance-bearing taxonomy")]
    fn instance_free_taxonomy_panics_with_the_precondition() {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 5, scale: 0.1 }).unwrap();
        CaseStudy::new(&t, TaxonomyKind::Ebay, CaseStudyConfig::default())
            .run(&FixedAnswerModel::always_yes());
    }

    #[test]
    fn deterministic_given_seed() {
        let t = amazon_small();
        let mk = || {
            CaseStudy::new(&t, TaxonomyKind::Amazon, CaseStudyConfig {
                cutoff_level: 3,
                products_per_concept: 4,
                sample_cap: Some(8),
                seed: 4,
            })
            .run(&FixedAnswerModel::always_yes())
        };
        assert_eq!(mk(), mk());
    }
}
