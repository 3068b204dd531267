//! Dataset assembly (§2.2): the Easy, Hard and MCQ datasets, per level.
//!
//! * **Easy** = positives + negative-easy (2 questions per sampled
//!   child).
//! * **Hard** = positives + negative-hard (2 per child, minus children
//!   without uncles).
//! * **MCQ** = one 4-option question per sampled child.
//!
//! Per-level sample sizes follow Cochran at 95% confidence / 5% margin
//! ([`crate::sampling`]), which reproduces the paper's Table 4. A handful
//! of extra children are sampled per level as few-shot exemplars,
//! disjoint from the evaluation questions.

use crate::domain::TaxonomyKind;
use crate::instance_typing::InstanceTypingError;
use crate::qgen::QuestionGenerator;
use crate::question::Question;
use crate::sampling::cochran_sample_size;
use std::fmt;
use taxoglimpse_taxonomy::{NodeId, Taxonomy};

/// Number of exemplar questions reserved per level for few-shot
/// prompting (the paper uses five-shot).
pub const EXEMPLARS_PER_LEVEL: usize = 5;

/// The three dataset flavors of §2.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum QuestionDataset {
    /// positives + random negatives.
    Easy,
    /// positives + uncle negatives.
    Hard,
    /// multiple choice.
    Mcq,
}

impl QuestionDataset {
    /// All three flavors.
    pub const ALL: [QuestionDataset; 3] =
        [QuestionDataset::Easy, QuestionDataset::Hard, QuestionDataset::Mcq];
}

impl fmt::Display for QuestionDataset {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            QuestionDataset::Easy => "easy",
            QuestionDataset::Hard => "hard",
            QuestionDataset::Mcq => "mcq",
        })
    }
}

/// All questions probing children of one level, plus that level's
/// few-shot exemplars.
#[derive(Debug, Clone)]
pub struct LevelSlice {
    /// Level of the child entities (1 = "level 1 → root" questions).
    pub child_level: usize,
    /// The evaluation questions.
    pub questions: Vec<Question>,
    /// Held-out exemplar questions (with gold answers derivable via
    /// [`Question::gold`]) for few-shot prompting.
    pub exemplars: Vec<Question>,
}

/// A complete dataset for one taxonomy and flavor.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// The probed taxonomy.
    pub taxonomy: TaxonomyKind,
    /// Easy / Hard / MCQ.
    pub flavor: QuestionDataset,
    /// Per-level slices, shallowest first (child level 1 upward).
    pub levels: Vec<LevelSlice>,
}

impl Dataset {
    /// Total number of evaluation questions.
    pub fn len(&self) -> usize {
        self.levels.iter().map(|l| l.questions.len()).sum()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Iterate over all evaluation questions, shallowest level first.
    pub fn questions(&self) -> impl Iterator<Item = &Question> {
        self.levels.iter().flat_map(|l| l.questions.iter())
    }

    /// Per-level question counts — one row of the paper's Table 4.
    pub fn level_counts(&self) -> Vec<(usize, usize)> {
        self.levels.iter().map(|l| (l.child_level, l.questions.len())).collect()
    }
}

taxoglimpse_json::unit_enum_json!(QuestionDataset { Easy, Hard, Mcq });

taxoglimpse_json::struct_json!(LevelSlice { child_level, questions, exemplars });

taxoglimpse_json::struct_json!(Dataset { taxonomy, flavor, levels });

/// Errors from dataset construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DatasetError {
    /// The taxonomy has fewer than two levels, so no child level exists.
    TooShallow,
}

impl fmt::Display for DatasetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DatasetError::TooShallow => write!(f, "taxonomy has no non-root level to probe"),
        }
    }
}

impl std::error::Error for DatasetError {}

/// Builds datasets over one taxonomy.
#[derive(Debug)]
pub struct DatasetBuilder<'t> {
    generator: QuestionGenerator<'t>,
    taxonomy: &'t Taxonomy,
    kind: TaxonomyKind,
    seed: u64,
    sample_cap: Option<usize>,
}

impl<'t> DatasetBuilder<'t> {
    /// Create a builder over `taxonomy` (as generated for `kind`) with a
    /// sampling seed.
    pub fn new(taxonomy: &'t Taxonomy, kind: TaxonomyKind, seed: u64) -> Self {
        DatasetBuilder {
            generator: QuestionGenerator::new(taxonomy, kind, seed),
            taxonomy,
            kind,
            seed,
            sample_cap: None,
        }
    }

    /// Cap the per-level sample size below the Cochran size (useful for
    /// quick runs and tests). `None` restores the paper's sizes.
    pub fn sample_cap(mut self, cap: Option<usize>) -> Self {
        self.sample_cap = cap;
        self
    }

    fn level_sample_size(&self, child_level: usize) -> usize {
        let population = self.taxonomy.nodes_at_level(child_level).len();
        let s = cochran_sample_size(population);
        match self.sample_cap {
            Some(cap) => s.min(cap),
            None => s,
        }
    }

    /// Build the dataset of the given flavor covering every child level
    /// (1 through the deepest).
    pub fn build(&self, flavor: QuestionDataset) -> Result<Dataset, DatasetError> {
        if self.taxonomy.num_levels() < 2 {
            return Err(DatasetError::TooShallow);
        }
        let levels: Vec<LevelSlice> =
            (1..self.taxonomy.num_levels()).map(|l| self.build_level(flavor, l)).collect();
        // Every model and prompt setting reads the same surface record,
        // so it is computed here, once per question, with one set of
        // buffers for the whole dataset.
        let mut scratch = Default::default();
        for q in levels.iter().flat_map(|l| &l.questions) {
            q.fill_surface(&mut scratch);
        }
        Ok(Dataset { taxonomy: self.kind, flavor, levels })
    }

    /// Build the Easy or Hard instance-typing dataset (§4.5) from the
    /// same taxonomy, kind and seed; here the sample cap bounds the
    /// number of sampled leaf concepts. See [`crate::instance_typing`].
    pub fn instance_typing(&self, flavor: QuestionDataset) -> Result<Dataset, InstanceTypingError> {
        crate::instance_typing::build_dataset(
            self.taxonomy,
            self.kind,
            self.seed,
            self.sample_cap,
            flavor,
        )
    }

    /// Build one level slice.
    pub fn build_level(&self, flavor: QuestionDataset, child_level: usize) -> LevelSlice {
        let s = self.level_sample_size(child_level);
        let sampled = self.generator.sample_children(child_level, s + EXEMPLARS_PER_LEVEL * 4);
        let (eval_children, exemplar_pool) = sampled.split_at(s.min(sampled.len()));

        // Exemplars must be held out from the eval set *by name*: node
        // ids are disjoint by construction, but names at a level need
        // not be unique, and a same-named exemplar would leak the answer
        // into the few-shot prompt. Over-sample and skip collisions.
        let eval_names: std::collections::BTreeSet<&str> =
            eval_children.iter().map(|&c| self.taxonomy.name(c)).collect();
        let exemplar_children: Vec<NodeId> = exemplar_pool
            .iter()
            .copied()
            .filter(|&c| !eval_names.contains(self.taxonomy.name(c)))
            .take(EXEMPLARS_PER_LEVEL)
            .collect();

        let mut rng = self.generator.negatives_rng(child_level);
        let mut questions = Vec::with_capacity(eval_children.len() * 2);
        let mut next_id = (child_level as u64) << 32;
        let mut id = || {
            next_id += 1;
            next_id
        };

        match flavor {
            QuestionDataset::Easy => {
                for &c in eval_children {
                    questions.push(self.generator.positive(c, id()));
                    if let Some(q) = self.generator.negative_easy(c, id(), &mut rng) {
                        questions.push(q);
                    }
                }
            }
            QuestionDataset::Hard => {
                for &c in eval_children {
                    questions.push(self.generator.positive(c, id()));
                    if let Some(q) = self.generator.negative_hard(c, id(), &mut rng) {
                        questions.push(q);
                    }
                }
            }
            QuestionDataset::Mcq => {
                for &c in eval_children {
                    if let Some(q) = self.generator.mcq(c, id(), &mut rng) {
                        questions.push(q);
                    }
                }
            }
        }

        // Exemplars mirror the flavor: TF exemplars alternate Yes/No with
        // equal probability (§4.4), MCQ exemplars are plain MCQs.
        let mut exemplars = Vec::with_capacity(exemplar_children.len());
        for (i, &c) in exemplar_children.iter().enumerate() {
            let q = match flavor {
                QuestionDataset::Mcq => self.generator.mcq(c, id(), &mut rng),
                QuestionDataset::Easy => {
                    if i % 2 == 0 {
                        Some(self.generator.positive(c, id()))
                    } else {
                        self.generator.negative_easy(c, id(), &mut rng)
                    }
                }
                QuestionDataset::Hard => {
                    if i % 2 == 0 {
                        Some(self.generator.positive(c, id()))
                    } else {
                        self.generator.negative_hard(c, id(), &mut rng)
                    }
                }
            };
            exemplars.extend(q);
        }

        LevelSlice { child_level, questions, exemplars }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::QuestionKind;
    use taxoglimpse_synth::{generate, GenOptions};

    fn ebay() -> Taxonomy {
        generate(TaxonomyKind::Ebay, GenOptions { seed: 13, scale: 1.0 }).unwrap()
    }

    /// Reproduce the eBay column of Table 4: easy 176/430, hard 176/430,
    /// MCQ 88/215 (level 1, level 2). Our Cochran rounding differs from
    /// the paper's Qualtrics rounding by a couple of samples at level 1.
    #[test]
    fn ebay_dataset_sizes_match_table_4() {
        let t = ebay();
        let b = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 1);
        let easy = b.build(QuestionDataset::Easy).unwrap();
        let counts = easy.level_counts();
        assert_eq!(counts.len(), 2);
        assert!(counts[0].1.abs_diff(176) <= 6, "level1 easy {}", counts[0].1);
        assert!(counts[1].1.abs_diff(430) <= 6, "level2 easy {}", counts[1].1);

        let mcq = b.build(QuestionDataset::Mcq).unwrap();
        let mc = mcq.level_counts();
        assert!(mc[0].1.abs_diff(88) <= 3, "level1 mcq {}", mc[0].1);
        assert!(mc[1].1.abs_diff(215) <= 3, "level2 mcq {}", mc[1].1);
    }

    #[test]
    fn hard_never_larger_than_easy() {
        let t = ebay();
        let b = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 2);
        let easy = b.build(QuestionDataset::Easy).unwrap();
        let hard = b.build(QuestionDataset::Hard).unwrap();
        assert!(hard.len() <= easy.len());
        // And both are balanced-ish between positives and negatives.
        let pos = hard.questions().filter(|q| q.expected_yes() == Some(true)).count();
        let neg = hard.len() - pos;
        assert!(pos >= neg, "positives {pos} vs negatives {neg}");
        assert!(neg as f64 / pos as f64 > 0.9);
    }

    #[test]
    fn mcq_dataset_contains_only_mcqs() {
        let t = ebay();
        let b = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 3);
        let mcq = b.build(QuestionDataset::Mcq).unwrap();
        assert!(mcq.questions().all(|q| q.kind() == QuestionKind::Mcq));
        assert!(!mcq.is_empty());
    }

    #[test]
    fn exemplars_are_disjoint_from_eval_questions() {
        let t = ebay();
        let b = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 4);
        let d = b.build(QuestionDataset::Hard).unwrap();
        for slice in &d.levels {
            assert!(!slice.exemplars.is_empty());
            let eval_children: Vec<&str> =
                slice.questions.iter().map(|q| q.child.as_str()).collect();
            for e in &slice.exemplars {
                assert!(
                    !eval_children.contains(&e.child.as_str()),
                    "exemplar child {:?} leaked into the eval set",
                    e.child
                );
            }
        }
    }

    #[test]
    fn sample_cap_shrinks_levels() {
        let t = ebay();
        let b = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 5).sample_cap(Some(10));
        let d = b.build(QuestionDataset::Easy).unwrap();
        for (_, n) in d.level_counts() {
            assert!(n <= 20);
        }
    }

    #[test]
    fn determinism() {
        let t = ebay();
        let b = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 6);
        let a = b.build(QuestionDataset::Hard).unwrap();
        let b2 = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 6).build(QuestionDataset::Hard).unwrap();
        let ja = taxoglimpse_json::to_string(&a).unwrap();
        let jb = taxoglimpse_json::to_string(&b2).unwrap();
        assert_eq!(ja, jb);
    }

    #[test]
    fn too_shallow_is_an_error() {
        let mut b = taxoglimpse_taxonomy::TaxonomyBuilder::new("flat");
        b.add_root("only");
        let t = b.build().unwrap();
        let err = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 1)
            .build(QuestionDataset::Easy)
            .unwrap_err();
        assert_eq!(err, DatasetError::TooShallow);
    }

    #[test]
    fn question_ids_are_unique() {
        let t = ebay();
        let d = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 7).build(QuestionDataset::Easy).unwrap();
        let mut ids: Vec<u64> = d.questions().map(|q| q.id).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), before);
    }

    #[test]
    fn instance_typing_rejects_unsupported_kind() {
        let err = DatasetBuilder::new(&ebay(), TaxonomyKind::Ebay, 1)
            .instance_typing(QuestionDataset::Hard)
            .unwrap_err();
        assert_eq!(err, InstanceTypingError::Unsupported(TaxonomyKind::Ebay));
    }
}
