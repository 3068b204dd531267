//! Taxonomy enrichment: attaching new entities with a model.
//!
//! The paper's future-work discussion (§5.1–5.2) is about using LLMs to
//! do ontology-learning work — constructing and maintaining the lower
//! levels of taxonomies. This module implements the core operation:
//! given a new entity name, find its parent concept. The
//! [`Enricher`] shortlists candidate parents by surface similarity and
//! lets the model confirm via the standard Is-A templates, so any
//! [`LanguageModel`] (simulated LLM, lexical baseline, your own) slots
//! in. Each confirmation is a [`Question::probe`] asked through the
//! enricher's [`GridRunner`]; a query the session gives up on reads as
//! not confirmed.
//!
//! [`evaluate_reattachment`] measures attachment quality the standard
//! way: remove sampled leaves, re-attach them, and score top-1 parent
//! accuracy plus mean reciprocal rank of the true parent in the
//! shortlist.

use crate::domain::TaxonomyKind;
use crate::grid::GridRunner;
use crate::model::LanguageModel;
use crate::parse::ParsedAnswer;
use crate::question::Question;
use crate::sampling::cochran_sample;
use crate::text::word_overlap;
use taxoglimpse_synth::rng::fork;
use taxoglimpse_taxonomy::{NodeId, Taxonomy};

/// A proposed attachment for one entity.
#[derive(Debug, Clone, PartialEq)]
pub struct Placement {
    /// The entity being attached.
    pub entity: String,
    /// Chosen parent node.
    pub parent: NodeId,
    /// Whether the model confirmed the choice (vs. lexical fallback).
    pub model_confirmed: bool,
    /// Shortlist rank (0 = lexically closest) of the chosen parent.
    pub rank: usize,
}

/// Attaches new entities under the concepts of an existing taxonomy.
pub struct Enricher<'t> {
    taxonomy: &'t Taxonomy,
    kind: TaxonomyKind,
    /// Parent candidates are drawn from this level (usually the deepest
    /// internal level — new entities arrive as leaves).
    parent_level: usize,
    /// How many shortlisted candidates the model is asked about.
    shortlist: usize,
    /// Asks every confirmation probe (default policy).
    runner: GridRunner,
}

impl<'t> Enricher<'t> {
    /// Create an enricher attaching entities under `parent_level`
    /// concepts.
    pub fn new(taxonomy: &'t Taxonomy, kind: TaxonomyKind, parent_level: usize) -> Self {
        Enricher { taxonomy, kind, parent_level, shortlist: 4, runner: GridRunner::default() }
    }

    /// Rank all parent candidates for `entity` by surface similarity,
    /// best first.
    pub fn shortlist_for(&self, entity: &str) -> Vec<NodeId> {
        let mut scored: Vec<(NodeId, f64)> = self
            .taxonomy
            .nodes_at_level(self.parent_level)
            .iter()
            .map(|&n| (n, surface_score(entity, self.taxonomy.name(n))))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        scored.into_iter().map(|(n, _)| n).collect()
    }

    /// Attach `entity`: probe the model over the lexical shortlist and
    /// take the first confirmed candidate, falling back to the lexical
    /// best when the model rejects everything.
    pub fn attach(&self, entity: &str, model: &dyn LanguageModel) -> Option<Placement> {
        let ranked = self.shortlist_for(entity);
        let first = *ranked.first()?;
        for (rank, &candidate) in ranked.iter().take(self.shortlist).enumerate() {
            if self.confirm(entity, candidate, model) {
                return Some(Placement {
                    entity: entity.to_owned(),
                    parent: candidate,
                    model_confirmed: true,
                    rank,
                });
            }
        }
        Some(Placement { entity: entity.to_owned(), parent: first, model_confirmed: false, rank: 0 })
    }

    /// Whether the model confirms `entity` as a type of `candidate`. A
    /// query the session gives up on reads as not-confirmed:
    /// reattachment then falls back to the lexical shortlist, never to
    /// a guess.
    fn confirm(&self, entity: &str, candidate: NodeId, model: &dyn LanguageModel) -> bool {
        let question =
            Question::probe(self.kind, entity, self.taxonomy.name(candidate), self.parent_level, None);
        self.runner.ask(model, &question, &[]).parsed == ParsedAnswer::Yes
    }
}

/// Result of the leaf-reattachment evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReattachmentReport {
    /// Leaves evaluated.
    pub evaluated: usize,
    /// Fraction whose chosen parent was the true parent.
    pub top1_accuracy: f64,
    /// Mean reciprocal rank of the true parent in the lexical shortlist
    /// (model-independent; measures the shortlist quality).
    pub shortlist_mrr: f64,
    /// Fraction of placements the model actively confirmed.
    pub confirmed_rate: f64,
}

/// Remove a Cochran-sized sample of leaves (capped at `cap`) and
/// re-attach them with `model`, scoring parent recovery.
pub fn evaluate_reattachment(
    taxonomy: &Taxonomy,
    kind: TaxonomyKind,
    model: &dyn LanguageModel,
    seed: u64,
    cap: Option<usize>,
) -> ReattachmentReport {
    let deepest = taxonomy.num_levels().saturating_sub(1);
    let mut leaves: Vec<NodeId> = taxonomy
        .nodes_at_level(deepest)
        .iter()
        .copied()
        .filter(|&l| taxonomy.parent(l).is_some())
        .collect();
    cochran_sample(&mut leaves, &mut fork(seed, "reattach", kind as u64), cap);

    let parent_level = deepest.saturating_sub(1);
    let enricher = Enricher::new(taxonomy, kind, parent_level);
    let (mut top1, mut mrr_sum, mut confirmed) = (0usize, 0.0f64, 0usize);
    for &leaf in &leaves {
        let true_parent = taxonomy.parent(leaf).expect("roots were filtered");
        let entity = taxonomy.name(leaf);
        let ranked = enricher.shortlist_for(entity);
        if let Some(pos) = ranked.iter().position(|&c| c == true_parent) {
            mrr_sum += 1.0 / (pos + 1) as f64;
        }
        if let Some(placement) = enricher.attach(entity, model) {
            if placement.parent == true_parent {
                top1 += 1;
            }
            if placement.model_confirmed {
                confirmed += 1;
            }
        }
    }
    let denom = leaves.len().max(1) as f64;
    ReattachmentReport {
        evaluated: leaves.len(),
        top1_accuracy: top1 as f64 / denom,
        shortlist_mrr: mrr_sum / denom,
        confirmed_rate: confirmed as f64 / denom,
    }
}

/// Surface score combining whole-name containment and word overlap.
fn surface_score(entity: &str, concept: &str) -> f64 {
    let el = entity.to_ascii_lowercase();
    let cl = concept.to_ascii_lowercase();
    let containment = if cl.len() >= 4 && el.contains(&cl) { 1.0 } else { 0.0 };
    let overlap = word_overlap(&el, &cl);
    // Character-bigram Jaccard as a tiebreaker.
    let bigrams = |s: &str| -> Vec<(u8, u8)> {
        let b: Vec<u8> = s.bytes().collect();
        let mut grams: Vec<(u8, u8)> = b.windows(2).map(|w| (w[0], w[1])).collect();
        grams.sort_unstable();
        grams.dedup();
        grams
    };
    let (ga, gb) = (bigrams(&el), bigrams(&cl));
    let inter = ga.iter().filter(|g| gb.contains(g)).count();
    let union = ga.len() + gb.len() - inter;
    let jaccard = if union == 0 { 0.0 } else { inter as f64 / union as f64 };
    containment * 2.0 + overlap + jaccard * 0.5
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FixedAnswerModel, ModelError, Query, Response};
    use crate::question::QuestionBody;
    use taxoglimpse_synth::{generate, GenOptions};

    /// Oracle that confirms exactly the true parent (it compares the
    /// candidate against the entity's real parent name, which we smuggle
    /// in through a closure-free comparison: a species contains its
    /// genus, so string containment is the oracle for NCBI).
    struct ContainmentOracle;

    impl LanguageModel for ContainmentOracle {
        fn name(&self) -> &str {
            "containment-oracle"
        }

        fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
            let QuestionBody::TrueFalse { candidate, .. } = &query.question.body else {
                return Ok(Response::new("I don't know."));
            };
            let yes = query.question.child.to_ascii_lowercase().contains(&candidate.to_ascii_lowercase());
            Ok(Response::new(if yes { "Yes." } else { "No." }))
        }
    }

    #[test]
    fn ncbi_species_reattach_with_containment_oracle() {
        let t = generate(TaxonomyKind::Ncbi, GenOptions { seed: 30, scale: 0.002 }).unwrap();
        let report = evaluate_reattachment(&t, TaxonomyKind::Ncbi, &ContainmentOracle, 30, Some(60));
        assert!(report.evaluated > 0);
        // Species embed the genus: the shortlist + oracle recover almost
        // every parent.
        assert!(report.top1_accuracy > 0.9, "top1 {}", report.top1_accuracy);
        assert!(report.shortlist_mrr > 0.9, "mrr {}", report.shortlist_mrr);
        assert!(report.confirmed_rate > 0.9);
    }

    #[test]
    fn abstaining_model_falls_back_to_lexical_best() {
        let t = generate(TaxonomyKind::Oae, GenOptions { seed: 31, scale: 0.1 }).unwrap();
        let report = evaluate_reattachment(&t, TaxonomyKind::Oae, &FixedAnswerModel::always_idk(), 31, Some(40));
        assert_eq!(report.confirmed_rate, 0.0);
        // OAE children embed parent phrases, so even the pure lexical
        // fallback recovers many parents.
        assert!(report.top1_accuracy > 0.5, "top1 {}", report.top1_accuracy);
    }

    #[test]
    fn always_yes_takes_the_lexical_top_candidate() {
        let t = generate(TaxonomyKind::Amazon, GenOptions { seed: 32, scale: 0.05 }).unwrap();
        let enricher = Enricher::new(&t, TaxonomyKind::Amazon, t.num_levels() - 2);
        let leaf = t.nodes_at_level(t.num_levels() - 1)[0];
        let placement = enricher.attach(t.name(leaf), &FixedAnswerModel::always_yes()).unwrap();
        assert!(placement.model_confirmed);
        assert_eq!(placement.rank, 0, "always-yes confirms the first candidate");
        assert_eq!(placement.parent, enricher.shortlist_for(t.name(leaf))[0]);
    }

    #[test]
    fn shortlist_ranks_true_parent_high_for_overlapping_names() {
        let t = generate(TaxonomyKind::Oae, GenOptions { seed: 33, scale: 0.1 }).unwrap();
        let deepest = t.num_levels() - 1;
        let enricher = Enricher::new(&t, TaxonomyKind::Oae, deepest - 1);
        let mut hits = 0;
        let leaves = t.nodes_at_level(deepest);
        for &leaf in leaves.iter().take(30) {
            let ranked = enricher.shortlist_for(t.name(leaf));
            let true_parent = t.parent(leaf).unwrap();
            if ranked.iter().take(4).any(|&c| c == true_parent) {
                hits += 1;
            }
        }
        assert!(hits >= 20, "true parent in top-4 for only {hits}/30 leaves");
    }

    #[test]
    fn surface_score_ordering() {
        assert!(surface_score("Verbascum chaixii", "Verbascum") > surface_score("Verbascum chaixii", "Silene"));
        assert!(
            surface_score("acute cardiac lesion AE", "cardiac lesion AE")
                > surface_score("acute cardiac lesion AE", "renal failure AE")
        );
    }

    #[test]
    fn empty_parent_level_yields_none() {
        let mut b = taxoglimpse_taxonomy::TaxonomyBuilder::new("t");
        b.add_root("only");
        let t = b.build().unwrap();
        let enricher = Enricher::new(&t, TaxonomyKind::Ebay, 5);
        assert!(enricher.attach("anything", &FixedAnswerModel::always_yes()).is_none());
    }
}
