//! The LLM-tree-structure-combined taxonomy the paper proposes (§5.1):
//! entities near the roots stay in an explicit, exact tree; entities
//! below a cutoff live implicitly in a language model.
//!
//! [`HybridTaxonomy`] answers Is-A queries by routing: if both concepts
//! resolve in the explicit tree the answer is structural (exact); as
//! soon as one side is unknown, the query goes to the attached model,
//! as a [`Question::probe`] asked through the taxonomy's [`GridRunner`]
//! (the grid's render, retry, parse and score path); a query the
//! session gives up on reads as [`IsA::Unknown`].
//! [`HybridTaxonomy::reliability`] measures the per-level accuracy of
//! the combined system against a full reference taxonomy, and
//! [`recommended_cutoff`] picks the deepest replacement that still meets
//! an accuracy target — turning the paper's qualitative advice ("common
//! domains can move into the LLM, specialized ones should stay trees")
//! into a measurable decision procedure.

use crate::dataset::{Dataset, DatasetBuilder, QuestionDataset};
use crate::domain::TaxonomyKind;
use crate::grid::GridRunner;
use crate::model::LanguageModel;
use crate::parse::ParsedAnswer;
use crate::question::Question;
use taxoglimpse_taxonomy::{NameIndex, NodeId, Taxonomy};

/// Outcome of a hybrid Is-A query.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsA {
    /// The relation holds.
    Yes,
    /// The relation does not hold.
    No,
    /// The model abstained (tree queries never do).
    Unknown,
}

/// Which component answered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnsweredBy {
    /// Resolved structurally in the explicit tree.
    Tree,
    /// Resolved by the language model.
    Model,
}

/// A combined explicit-tree + LLM taxonomy.
pub struct HybridTaxonomy {
    kind: TaxonomyKind,
    explicit: Taxonomy,
    index: NameIndex,
    cutoff: usize,
    original_len: usize,
    /// Asks every model-side question (default policy).
    runner: GridRunner,
}

impl HybridTaxonomy {
    /// Build from a full taxonomy by keeping levels `0..cutoff` explicit
    /// and delegating everything deeper to the model at query time.
    pub fn build(full: &Taxonomy, kind: TaxonomyKind, cutoff: usize) -> Self {
        let explicit = full.truncate_below(cutoff).taxonomy;
        let index = explicit.name_index();
        HybridTaxonomy {
            kind,
            explicit,
            index,
            cutoff,
            original_len: full.len(),
            runner: GridRunner::default(),
        }
    }

    /// The explicit (kept) tree.
    pub fn explicit(&self) -> &Taxonomy {
        &self.explicit
    }

    /// The replacement cutoff level.
    pub fn cutoff(&self) -> usize {
        self.cutoff
    }

    /// Fraction of the original taxonomy no longer maintained by hand —
    /// the paper's cost-saving figure (59% for Amazon at cutoff 4).
    pub fn cost_saving(&self) -> f64 {
        if self.original_len == 0 {
            0.0
        } else {
            (self.original_len - self.explicit.len()) as f64 / self.original_len as f64
        }
    }

    /// Answer "is `child` a type of `ancestor`?".
    ///
    /// Uses the tree when both names resolve uniquely in the explicit
    /// part, the model otherwise.
    pub fn is_a(&self, child: &str, ancestor: &str, model: &dyn LanguageModel) -> (IsA, AnsweredBy) {
        if let (Some(c), Some(a)) = (self.index.lookup_unique(child), self.index.lookup_unique(ancestor)) {
            let holds = self.explicit.is_ancestor(a, c);
            return (if holds { IsA::Yes } else { IsA::No }, AnsweredBy::Tree);
        }
        self.is_a_via_model(child, ancestor, model)
    }

    /// Route an arbitrary (possibly removed) concept name to its most
    /// plausible kept category: a unique exact name match wins outright;
    /// otherwise rank kept nodes at the deepest explicit level by word
    /// overlap with the concept, probe the top four with Yes/No
    /// questions, and take the first Yes, or else the best match.
    pub fn route(&self, concept: &str, model: &dyn LanguageModel) -> Option<NodeId> {
        // Exact hit first.
        if let Some(node) = self.index.lookup_unique(concept) {
            return Some(node);
        }
        let deepest = self.explicit.num_levels().checked_sub(1)?;
        let candidates = self.explicit.nodes_at_level(deepest);
        let mut scored: Vec<(NodeId, f64)> = candidates
            .iter()
            .map(|&n| (n, name_overlap(concept, self.explicit.name(n))))
            .collect();
        scored.sort_by(|a, b| b.1.total_cmp(&a.1));
        // Probe the model over the shortlist; first Yes wins, otherwise
        // fall back to the best lexical match.
        for &(node, _) in scored.iter().take(4) {
            let (verdict, _) = self.is_a_via_model(concept, self.explicit.name(node), model);
            if verdict == IsA::Yes {
                return Some(node);
            }
        }
        scored.first().map(|&(n, _)| n)
    }

    fn is_a_via_model(&self, child: &str, ancestor: &str, model: &dyn LanguageModel) -> (IsA, AnsweredBy) {
        // The model side only kicks in for below-cutoff entities, so the
        // effective depth is the cutoff boundary. The expected answer is
        // unknown at query time and irrelevant to the model.
        let question = Question::probe(self.kind, child, ancestor, self.cutoff.max(1) - 1, None);
        // A query the session gives up on reads as Unknown — the same
        // epistemic state as an abstention for the router.
        let verdict = match self.runner.ask(model, &question, &[]).parsed {
            ParsedAnswer::Yes => IsA::Yes,
            ParsedAnswer::No => IsA::No,
            ParsedAnswer::IDontKnow | ParsedAnswer::Option(_) | ParsedAnswer::Unparsed => IsA::Unknown,
        };
        (verdict, AnsweredBy::Model)
    }

    /// Measure the hybrid's per-level Is-A reliability against the full
    /// reference taxonomy: levels kept explicit score 1.0 by
    /// construction; replaced levels score the model's measured accuracy
    /// on that level's hard questions.
    pub fn reliability(
        &self,
        full: &Taxonomy,
        model: &dyn LanguageModel,
        seed: u64,
        cap: Option<usize>,
    ) -> Vec<(usize, f64)> {
        let builder = DatasetBuilder::new(full, self.kind, seed).sample_cap(cap);
        (1..full.num_levels())
            .map(|child_level| {
                let accuracy = if child_level < self.cutoff {
                    1.0
                } else {
                    level_accuracy(&self.runner, &builder, self.kind, model, child_level)
                };
                (child_level, accuracy)
            })
            .collect()
    }
}

/// Pick the deepest cutoff whose replaced levels all meet
/// `target_accuracy` for `model`, or `None` if even replacing only the
/// leaf level falls short. Cutoff `num_levels` means "replace nothing".
pub fn recommended_cutoff(
    full: &Taxonomy,
    kind: TaxonomyKind,
    model: &dyn LanguageModel,
    target_accuracy: f64,
    seed: u64,
    cap: Option<usize>,
) -> Option<usize> {
    let builder = DatasetBuilder::new(full, kind, seed).sample_cap(cap);
    let runner = GridRunner::default();
    // Per-level model accuracy, measured once.
    let level_acc: Vec<f64> = (1..full.num_levels())
        .map(|child_level| level_accuracy(&runner, &builder, kind, model, child_level))
        .collect();
    // The deepest cutoff c such that every level >= c meets the target.
    let mut cutoff = None;
    for c in (1..full.num_levels()).rev() {
        let ok = level_acc[c - 1..].iter().all(|&a| a >= target_accuracy);
        if ok {
            cutoff = Some(c);
        } else {
            break;
        }
    }
    cutoff
}

/// The model's accuracy on one level's hard questions: a one-level
/// dataset through [`GridRunner::run`].
fn level_accuracy(
    runner: &GridRunner,
    builder: &DatasetBuilder<'_>,
    kind: TaxonomyKind,
    model: &dyn LanguageModel,
    child_level: usize,
) -> f64 {
    let flavor = QuestionDataset::Hard;
    let levels = vec![builder.build_level(flavor, child_level)];
    runner.run(model, &Dataset { taxonomy: kind, flavor, levels }).overall.accuracy()
}

/// Word-level overlap score used for routing shortlists: how many of
/// `a`'s space-split words occur among `b`'s (ASCII case-insensitive),
/// over the larger word count. Unlike [`crate::text::word_overlap`],
/// which divides by one name's count, this is symmetric (unless a word
/// repeats: each occurrence in `a` counts), so a one-word name does not
/// score 1.0 against every longer name that contains it.
fn name_overlap(a: &str, b: &str) -> f64 {
    let (mut words, mut shared) = (0usize, 0usize);
    for word in a.split(' ') {
        words += 1;
        shared += usize::from(b.split(' ').any(|w| w.eq_ignore_ascii_case(word)));
    }
    shared as f64 / words.max(b.split(' ').count()) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FixedAnswerModel, ModelError, Query, Response};
    use taxoglimpse_synth::{generate, GenOptions};

    fn amazon() -> Taxonomy {
        generate(TaxonomyKind::Amazon, GenOptions { seed: 6, scale: 0.05 }).unwrap()
    }

    #[test]
    fn tree_queries_are_structural_and_exact() {
        let full = amazon();
        let hybrid = HybridTaxonomy::build(&full, TaxonomyKind::Amazon, 3);
        // Pick a kept chain: root -> level1 with unique names.
        let idx = hybrid.explicit().name_index();
        let kept = hybrid.explicit();
        let (child, parent) = kept
            .nodes_at_level(2)
            .iter()
            .find_map(|&c| {
                let p = kept.parent(c)?;
                (idx.lookup_unique(kept.name(c)).is_some()
                    && idx.lookup_unique(kept.name(p)).is_some())
                .then(|| (kept.name(c).to_owned(), kept.name(p).to_owned()))
            })
            .expect("some unique kept pair exists");
        // Even an always-wrong model cannot corrupt tree answers.
        let liar = FixedAnswerModel::new("liar", "No.");
        let (verdict, by) = hybrid.is_a(&child, &parent, &liar);
        assert_eq!(verdict, IsA::Yes);
        assert_eq!(by, AnsweredBy::Tree);
        let (verdict, by) = hybrid.is_a(&parent, &child, &liar);
        assert_eq!(verdict, IsA::No, "reversed relation");
        assert_eq!(by, AnsweredBy::Tree);
    }

    #[test]
    fn removed_entities_fall_through_to_the_model() {
        let full = amazon();
        let hybrid = HybridTaxonomy::build(&full, TaxonomyKind::Amazon, 2);
        let removed = full.nodes_at_level(3)[0];
        let ancestor = full.root_of(removed);
        let yes_man = FixedAnswerModel::always_yes();
        let (verdict, by) =
            hybrid.is_a(full.name(removed), full.name(ancestor), &yes_man);
        assert_eq!(by, AnsweredBy::Model);
        assert_eq!(verdict, IsA::Yes);
        let idk = FixedAnswerModel::always_idk();
        let (verdict, _) = hybrid.is_a(full.name(removed), full.name(ancestor), &idk);
        assert_eq!(verdict, IsA::Unknown);
    }

    #[test]
    fn cost_saving_matches_truncation() {
        let full = amazon();
        let hybrid = HybridTaxonomy::build(&full, TaxonomyKind::Amazon, 3);
        let expected = (full.len() - hybrid.explicit().len()) as f64 / full.len() as f64;
        assert!((hybrid.cost_saving() - expected).abs() < 1e-12);
        assert!(hybrid.cost_saving() > 0.3);
    }

    #[test]
    fn routing_prefers_exact_then_lexical() {
        let full = amazon();
        let hybrid = HybridTaxonomy::build(&full, TaxonomyKind::Amazon, 3);
        let kept = hybrid.explicit();
        // Exact name routes to itself.
        let some_kept = kept.nodes_at_level(2)[0];
        if let Some(unique) = kept.name_index().lookup_unique(kept.name(some_kept)) {
            let routed = hybrid.route(kept.name(some_kept), &FixedAnswerModel::new("no", "No."));
            assert_eq!(routed, Some(unique));
        }
        // A removed concept still routes somewhere.
        let removed = full.nodes_at_level(3)[0];
        let routed = hybrid.route(full.name(removed), &FixedAnswerModel::always_yes());
        assert!(routed.is_some());
        assert_eq!(kept.level(routed.unwrap()), kept.num_levels() - 1);
    }

    #[test]
    fn reliability_is_exact_above_cutoff() {
        let full = amazon();
        let hybrid = HybridTaxonomy::build(&full, TaxonomyKind::Amazon, 3);
        let reliability = hybrid.reliability(&full, &FixedAnswerModel::always_idk(), 1, Some(10));
        assert_eq!(reliability.len(), full.num_levels() - 1);
        for &(level, acc) in &reliability {
            if level < 3 {
                assert_eq!(acc, 1.0, "kept level {level}");
            } else {
                assert_eq!(acc, 0.0, "abstaining model on replaced level {level}");
            }
        }
    }

    #[test]
    fn recommended_cutoff_honours_the_target() {
        let full = amazon();
        // A perfect oracle justifies replacing everything from level 1.
        let oracle = OracleModel;
        let cutoff = recommended_cutoff(&full, TaxonomyKind::Amazon, &oracle, 0.95, 1, Some(10));
        assert_eq!(cutoff, Some(1));
        // An abstaining model justifies nothing.
        let idk = FixedAnswerModel::always_idk();
        let none = recommended_cutoff(&full, TaxonomyKind::Amazon, &idk, 0.5, 1, Some(10));
        assert_eq!(none, None);
    }

    /// A model that always answers correctly (reads the gold label).
    struct OracleModel;

    impl LanguageModel for OracleModel {
        fn name(&self) -> &str {
            "oracle"
        }

        fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
            Ok(Response::new(match query.question.gold() {
                crate::question::GoldAnswer::Yes => "Yes.".to_owned(),
                crate::question::GoldAnswer::No => "No.".to_owned(),
                crate::question::GoldAnswer::Option(i) => format!("{})", (b'A' + i) as char),
                crate::question::GoldAnswer::Abstain => "None of the above.".to_owned(),
            }))
        }
    }

    #[test]
    fn name_overlap_scores() {
        assert_eq!(name_overlap("wireless speakers", "wireless speakers"), 1.0);
        assert!(name_overlap("wireless speakers", "compact speakers") > 0.0);
        assert_eq!(name_overlap("pencil", "garden hose"), 0.0);
        // Case-insensitive in ASCII, over the larger word count.
        assert_eq!(name_overlap("Wireless SPEAKERS", "wireless speakers"), 1.0);
        assert_eq!(name_overlap("Smart Home", "smart home DEVICES"), 2.0 / 3.0);
        assert_eq!(name_overlap("smart home DEVICES", "Smart Home"), 2.0 / 3.0);
        // A repeated word in `a` counts once per occurrence.
        assert_eq!(name_overlap("tape tape", "tape"), 1.0);
        assert_eq!(name_overlap("tape", "tape tape"), 0.5);
        assert_eq!(name_overlap("tape tape", "Tape measure"), 1.0);
        // `split(' ')` always yields a word, so empty names share theirs.
        assert_eq!(name_overlap("", ""), 1.0);
        assert_eq!(name_overlap("", "hose"), 0.0);
    }
}
