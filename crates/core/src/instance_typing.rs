//! Instance typing (§4.5): can the model type an *instance* (a product,
//! a species, a language, a disease, an adverse event) against each
//! ancestor level of its leaf concept?
//!
//! For an instance `i` under entity `e_k` at level `k`, the paper keeps
//! the pairs `(i → e_k), (i → e_k.p), …, (i → e_k.r)`, labelled with the
//! target entity's level, and generates hard (sibling-of-target) and
//! easy (random same-level) negatives exactly like §2.2.
//!
//! The produced [`Dataset`] reuses the standard machinery, with one
//! convention change: each [`crate::dataset::LevelSlice`]'s
//! `child_level` holds the **target ancestor level** (the Figure-6
//! x-axis), not the instance's own level. Only Easy and Hard flavors
//! exist (the paper does not run MCQ instance typing), and only
//! zero-shot prompting is reported, so the slices carry no exemplars.

use crate::dataset::{Dataset, LevelSlice, QuestionDataset};
use crate::domain::TaxonomyKind;
use crate::question::{NegativeKind, Question, QuestionBody};
use crate::sampling::cochran_sample;
use std::fmt;
use taxoglimpse_synth::instances::InstanceGenerator;
use taxoglimpse_synth::rng::{fork, SliceRandom};
use taxoglimpse_taxonomy::{NodeId, Taxonomy};

/// Errors from instance-typing dataset construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum InstanceTypingError {
    /// This taxonomy is excluded from instance typing (eBay, Schema.org,
    /// ACM-CCS, GeoNames).
    Unsupported(TaxonomyKind),
    /// Instance typing has no MCQ flavor in the paper.
    McqNotDefined,
}

impl fmt::Display for InstanceTypingError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InstanceTypingError::Unsupported(k) => {
                write!(f, "{k} has no valid instances (paper §4.5 skips it)")
            }
            InstanceTypingError::McqNotDefined => {
                write!(f, "instance typing uses True/False questions only")
            }
        }
    }
}

impl std::error::Error for InstanceTypingError {}

/// Build the Easy or Hard instance-typing dataset — the construction
/// path behind [`crate::dataset::DatasetBuilder::instance_typing`].
pub(crate) fn build_dataset(
    t: &Taxonomy,
    kind: TaxonomyKind,
    seed: u64,
    sample_cap: Option<usize>,
    flavor: QuestionDataset,
) -> Result<Dataset, InstanceTypingError> {
    if !kind.has_instances() {
        return Err(InstanceTypingError::Unsupported(kind));
    }
    let negative_kind = match flavor {
        QuestionDataset::Easy => NegativeKind::Easy,
        QuestionDataset::Hard => NegativeKind::Hard,
        QuestionDataset::Mcq => return Err(InstanceTypingError::McqNotDefined),
    };
    let generator =
        InstanceGenerator::new(kind, seed).expect("has_instances was checked above");

    // Sample leaf concepts with the §2.2 confidence/margin.
    let mut leaves = t.leaves();
    let mut rng = fork(seed ^ (kind as u64) << 16, "instance-typing", 0);
    cochran_sample(&mut leaves, &mut rng, sample_cap);

    let instances = generator.instances_for(t, &leaves, 1);

    // Group questions by target ancestor level.
    let mut slices: Vec<Vec<Question>> = vec![Vec::new(); t.num_levels()];
    let mut next_id = 1u64 << 48;
    for instance in &instances {
        // For synthesized instances (products) the leaf concept itself
        // is the first target; for leaf-as-instance taxonomies the
        // instance *is* the leaf, so targets start at its parent.
        let anchor: NodeId = if generator.synthesizes() {
            instance.leaf
        } else {
            match t.parent(instance.leaf) {
                Some(p) => p,
                None => continue,
            }
        };
        let instance_level = t.level(anchor) + 1;
        for target in std::iter::once(anchor).chain(t.ancestors(anchor)) {
            let target_level = t.level(target);
            // Positive.
            slices[target_level].push(Question {
                id: post_inc(&mut next_id),
                taxonomy: kind,
                child: instance.name.clone(),
                child_level: instance_level,
                parent_level: target_level,
                true_parent: t.name(target).to_owned(),
                instance_typing: true,
                body: QuestionBody::TrueFalse {
                    candidate: t.name(target).to_owned(),
                    expected_yes: true,
                    negative: None,
                },
                surface_memo: Default::default(),
            });
            // Negative.
            let negative = match negative_kind {
                NegativeKind::Hard => {
                    let sibs = t.siblings(target);
                    sibs.choose(&mut rng).copied()
                }
                NegativeKind::Easy => {
                    let pool = t.nodes_at_level(target_level);
                    pool.choose(&mut rng).copied().filter(|&c| c != target)
                }
            };
            if let Some(neg) = negative {
                slices[target_level].push(Question {
                    id: post_inc(&mut next_id),
                    taxonomy: kind,
                    child: instance.name.clone(),
                    child_level: instance_level,
                    parent_level: target_level,
                    true_parent: t.name(target).to_owned(),
                    instance_typing: true,
                    body: QuestionBody::TrueFalse {
                        candidate: t.name(neg).to_owned(),
                        expected_yes: false,
                        negative: Some(negative_kind),
                    },
                    surface_memo: Default::default(),
                });
            }
        }
    }

    let levels = slices
        .into_iter()
        .enumerate()
        .filter(|(_, qs)| !qs.is_empty())
        .map(|(level, questions)| LevelSlice { child_level: level, questions, exemplars: Vec::new() })
        .collect();
    Ok(Dataset { taxonomy: kind, flavor, levels })
}

fn post_inc(v: &mut u64) -> u64 {
    let out = *v;
    *v += 1;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_synth::{generate, GenOptions};

    #[test]
    fn excluded_taxonomies_are_rejected() {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 1, scale: 0.2 }).unwrap();
        let err = build_dataset(&t, TaxonomyKind::Ebay, 1, None, QuestionDataset::Hard).unwrap_err();
        assert_eq!(err, InstanceTypingError::Unsupported(TaxonomyKind::Ebay));
    }

    #[test]
    fn mcq_flavor_is_rejected() {
        let t = generate(TaxonomyKind::Google, GenOptions { seed: 1, scale: 0.05 }).unwrap();
        let err = build_dataset(&t, TaxonomyKind::Google, 1, None, QuestionDataset::Mcq).unwrap_err();
        assert_eq!(err, InstanceTypingError::McqNotDefined);
    }

    #[test]
    fn product_instances_are_typed_at_every_ancestor_level() {
        let t = generate(TaxonomyKind::Google, GenOptions { seed: 2, scale: 0.05 }).unwrap();
        let d = build_dataset(&t, TaxonomyKind::Google, 2, Some(30), QuestionDataset::Hard).unwrap();
        assert!(!d.is_empty());
        // Every question is instance typing and every slice level is a
        // valid taxonomy level.
        for slice in &d.levels {
            assert!(slice.child_level < t.num_levels());
            for q in &slice.questions {
                assert!(q.instance_typing);
                assert_eq!(q.parent_level, slice.child_level);
            }
        }
        // Root-level slice must exist (everything chains to a root).
        assert!(d.levels.iter().any(|s| s.child_level == 0));
    }

    #[test]
    fn leaf_as_instance_taxonomies_skip_the_leaf_level() {
        let t = generate(TaxonomyKind::Glottolog, GenOptions { seed: 3, scale: 0.02 }).unwrap();
        let d =
            build_dataset(&t, TaxonomyKind::Glottolog, 3, Some(30), QuestionDataset::Hard).unwrap();
        // The instance IS the leaf, so no slice targets the deepest level.
        let deepest = t.num_levels() - 1;
        assert!(d.levels.iter().all(|s| s.child_level < deepest));
    }

    #[test]
    fn positives_and_negatives_are_balanced() {
        let t = generate(TaxonomyKind::Icd10Cm, GenOptions { seed: 4, scale: 0.1 }).unwrap();
        let d = build_dataset(&t, TaxonomyKind::Icd10Cm, 4, Some(50), QuestionDataset::Easy).unwrap();
        let pos = d.questions().filter(|q| q.expected_yes() == Some(true)).count();
        let neg = d.len() - pos;
        assert!(pos > 0 && neg > 0);
        assert!(neg <= pos);
        assert!(neg as f64 / pos as f64 > 0.8, "{neg}/{pos}");
    }

    #[test]
    fn deterministic() {
        let t = generate(TaxonomyKind::Oae, GenOptions { seed: 5, scale: 0.05 }).unwrap();
        let mk = || build_dataset(&t, TaxonomyKind::Oae, 5, Some(20), QuestionDataset::Hard).unwrap();
        assert_eq!(
            taxoglimpse_json::to_string(&mk()).unwrap(),
            taxoglimpse_json::to_string(&mk()).unwrap()
        );
    }
}
