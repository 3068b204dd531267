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
//! the model answers Yes. Every probe is a [`Question::probe`] asked
//! through one [`GridRunner`] per run, so it renders, retries, parses and
//! scores exactly as a Tables 5–7 question does; a query the session
//! gives up on returns nothing.

use crate::domain::TaxonomyKind;
use crate::grid::GridRunner;
use crate::metrics::{ratio, Outcome};
use crate::model::LanguageModel;
use crate::question::{NegativeKind, Question};
use crate::sampling::cochran_sample;
use taxoglimpse_synth::instances::InstanceGenerator;
use taxoglimpse_synth::rng::fork;
use taxoglimpse_taxonomy::{NodeId, Taxonomy};

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
        cochran_sample(&mut candidates, &mut rng, self.config.sample_cap);

        let instgen = InstanceGenerator::new(self.kind, self.config.seed)
            // lint:allow(P001, documented precondition of run - callers select an instance-bearing kind)
            .unwrap_or_else(|| panic!("case study requires an instance-bearing taxonomy, got {}", self.kind));

        let (mut tp, mut fp, mut fn_) = (0usize, 0usize, 0usize);
        let mut classifications = 0usize;
        let runner = GridRunner::default();
        // "Are <product> products a type of <concept> products?" — an
        // instance-typing probe; for a sibling product the candidate is
        // its category's sibling, a hard negative.
        let ask = |product: &str, concept: NodeId, negative: Option<NegativeKind>| {
            let question = Question {
                instance_typing: true,
                ..Question::probe(self.kind, product, t.name(concept), t.level(concept), negative)
            };
            runner.ask(model, &question, &[]).outcome
        };
        for &concept in &candidates {
            let own = instgen.instances_for(t, &[concept], self.config.products_per_concept);
            let siblings = t.siblings(concept);
            let sibling_products = instgen.instances_for(t, &siblings, self.config.products_per_concept);

            for inst in &own {
                classifications += 1;
                match ask(&inst.name, concept, None) {
                    Outcome::Correct => tp += 1, // returned, truly under concept
                    // Withheld, abstained, or a query the session gave
                    // up on: the product is not retrieved either way.
                    Outcome::Missed | Outcome::Wrong | Outcome::Failed => fn_ += 1,
                }
            }
            for inst in &sibling_products {
                classifications += 1;
                // A sibling product returned as a match (a Yes to the
                // negative probe) is a false positive.
                if ask(&inst.name, concept, Some(NegativeKind::Hard)) == Outcome::Wrong {
                    fp += 1;
                }
            }
        }

        let precision = ratio(tp, tp + fp);
        let recall = ratio(tp, tp + fn_);
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
