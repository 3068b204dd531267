//! Question generation (§2.2).
//!
//! For each sampled child entity `e_n` at level `n`:
//!
//! * **positive** — its true parent `e_n.p`;
//! * **negative-easy** — a random level-`n-1` entity other than `e_n.p`;
//! * **negative-hard** — a random *uncle* (sibling of `e_n.p`);
//! * **MCQ** — `e_n.p` plus three distinct uncles as distractors.
//!
//! Children without any uncle are skipped for hard negatives (this is why
//! the paper's hard datasets are occasionally a few questions smaller
//! than the easy ones, e.g. Google 2134 vs 2150). When fewer than three
//! uncles exist for MCQ, distractors are topped up from the rest of the
//! parent level.

use crate::domain::TaxonomyKind;
use crate::question::{NegativeKind, Question, QuestionBody};
use taxoglimpse_synth::rng::{fork, SliceRandom, SynthRng};
use taxoglimpse_taxonomy::{NodeId, Taxonomy};

/// Generates questions for one taxonomy.
#[derive(Debug)]
pub struct QuestionGenerator<'t> {
    taxonomy: &'t Taxonomy,
    kind: TaxonomyKind,
    seed: u64,
}

impl<'t> QuestionGenerator<'t> {
    /// Create a generator over `taxonomy`.
    pub fn new(taxonomy: &'t Taxonomy, kind: TaxonomyKind, seed: u64) -> Self {
        QuestionGenerator { taxonomy, kind, seed }
    }

    /// The underlying taxonomy.
    pub fn taxonomy(&self) -> &'t Taxonomy {
        self.taxonomy
    }

    /// Sample `count` distinct child entities at `child_level`
    /// (deterministic for a fixed seed).
    pub fn sample_children(&self, child_level: usize, count: usize) -> Vec<NodeId> {
        let pool = self.taxonomy.nodes_at_level(child_level);
        let mut rng = self.level_rng(child_level, "sample");
        let mut ids: Vec<NodeId> = pool.to_vec();
        ids.shuffle(&mut rng);
        ids.truncate(count.min(ids.len()));
        ids
    }

    fn level_rng(&self, child_level: usize, tag: &str) -> SynthRng {
        fork(self.seed ^ (self.kind as u64) << 32, tag, child_level as u64)
    }

    /// Positive question for `child`.
    pub fn positive(&self, child: NodeId, id: u64) -> Question {
        let t = self.taxonomy;
        let parent = t.parent(child).expect("positive questions need a non-root child");
        self.tf_question(id, child, t.name(parent).to_owned(), true, None)
    }

    /// Negative-easy question: candidate drawn uniformly from the parent
    /// level minus the true parent. Returns `None` if the parent level
    /// has no other node.
    pub fn negative_easy(&self, child: NodeId, id: u64, rng: &mut SynthRng) -> Option<Question> {
        let t = self.taxonomy;
        let parent = t.parent(child)?;
        let pool = t.nodes_at_level(t.level(parent));
        if pool.len() < 2 {
            return None;
        }
        // Sibling names are unique but global names need not be: a
        // candidate whose *name* equals the true parent's would make the
        // negative unanswerable, so filter by name, with a bounded retry.
        let candidate = (0..64).find_map(|_| {
            let &c = pool.choose(rng).expect("nonempty pool");
            (c != parent && t.name(c) != t.name(parent)).then_some(c)
        })?;
        Some(self.tf_question(id, child, t.name(candidate).to_owned(), false, Some(NegativeKind::Easy)))
    }

    /// Negative-hard question: candidate drawn from the uncles. Returns
    /// `None` if the child has no uncles.
    pub fn negative_hard(&self, child: NodeId, id: u64, rng: &mut SynthRng) -> Option<Question> {
        let t = self.taxonomy;
        let parent = t.parent(child)?;
        let uncles: Vec<NodeId> = t
            .uncles(child)
            .into_iter()
            .filter(|&u| t.name(u) != t.name(parent))
            .collect();
        let &candidate = uncles.choose(rng)?;
        Some(self.tf_question(id, child, t.name(candidate).to_owned(), false, Some(NegativeKind::Hard)))
    }

    /// MCQ: true parent plus three distractors (uncles first, topped up
    /// from the parent level). Returns `None` if fewer than three
    /// distinct distractors exist.
    pub fn mcq(&self, child: NodeId, id: u64, rng: &mut SynthRng) -> Option<Question> {
        let t = self.taxonomy;
        let parent = t.parent(child)?;
        // Distractor option texts must be pairwise distinct and distinct
        // from the correct option, so track *names*, not just ids.
        let mut names: Vec<&str> = vec![t.name(parent)];
        let push_distinct = |pool: Vec<NodeId>, names: &mut Vec<&'t str>, want: usize| {
            for n in pool {
                if names.len() > want {
                    break;
                }
                let name = t.name(n);
                if !names.contains(&name) {
                    names.push(name);
                }
            }
        };
        let mut uncles = t.uncles(child);
        uncles.shuffle(rng);
        push_distinct(uncles, &mut names, 3);
        if names.len() < 4 {
            let mut pool: Vec<NodeId> = t
                .nodes_at_level(t.level(parent))
                .iter()
                .copied()
                .filter(|&n| n != parent)
                .collect();
            pool.shuffle(rng);
            push_distinct(pool, &mut names, 3);
        }
        if names.len() < 4 {
            // Last resort for tiny parent levels (Schema.org has only 3
            // roots): borrow distractors from other levels, excluding the
            // child's own ancestors.
            let ancestors = t.ancestors(child);
            let mut pool: Vec<NodeId> = t
                .ids()
                .filter(|&n| n != parent && n != child && !ancestors.contains(&n))
                .collect();
            pool.shuffle(rng);
            push_distinct(pool, &mut names, 3);
        }
        if names.len() < 4 {
            return None;
        }

        let mut options: Vec<String> = names.into_iter().map(str::to_owned).collect();
        options.shuffle(rng);
        let correct = options
            .iter()
            .position(|o| o == t.name(parent))
            .expect("parent name is in the option set") as u8;
        let options: [String; 4] = options.try_into().expect("exactly four options");

        Some(Question {
            id,
            taxonomy: self.kind,
            child: t.name(child).to_owned(),
            child_level: t.level(child),
            parent_level: t.level(parent),
            true_parent: t.name(parent).to_owned(),
            instance_typing: false,
            body: QuestionBody::Mcq { options, correct },
            surface_memo: Default::default(),
        })
    }

    fn tf_question(
        &self,
        id: u64,
        child: NodeId,
        candidate: String,
        expected_yes: bool,
        negative: Option<NegativeKind>,
    ) -> Question {
        let t = self.taxonomy;
        let parent = t.parent(child).expect("tf questions need a non-root child");
        Question {
            id,
            taxonomy: self.kind,
            child: t.name(child).to_owned(),
            child_level: t.level(child),
            parent_level: t.level(parent),
            true_parent: t.name(parent).to_owned(),
            instance_typing: false,
            body: QuestionBody::TrueFalse { candidate, expected_yes, negative },
            surface_memo: Default::default(),
        }
    }

    /// Fresh RNG stream for negatives at a level (exposed so the dataset
    /// builder controls determinism).
    pub fn negatives_rng(&self, child_level: usize) -> SynthRng {
        self.level_rng(child_level, "negatives")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_synth::{generate, GenOptions};

    fn fixture() -> (Taxonomy, TaxonomyKind) {
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 3, scale: 1.0 }).unwrap();
        (t, TaxonomyKind::Ebay)
    }

    #[test]
    fn sampling_is_deterministic_and_distinct() {
        let (t, k) = fixture();
        let g = QuestionGenerator::new(&t, k, 99);
        let a = g.sample_children(2, 50);
        let b = g.sample_children(2, 50);
        assert_eq!(a, b);
        let mut dedup = a.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), a.len(), "sampled children must be distinct");
        for &c in &a {
            assert_eq!(t.level(c), 2);
        }
    }

    #[test]
    fn positive_questions_are_true() {
        let (t, k) = fixture();
        let g = QuestionGenerator::new(&t, k, 1);
        let child = g.sample_children(1, 1)[0];
        let q = g.positive(child, 7);
        assert_eq!(q.id, 7);
        assert_eq!(q.expected_yes(), Some(true));
        assert_eq!(q.child, t.name(child));
        assert_eq!(q.true_parent, t.name(t.parent(child).unwrap()));
        assert_eq!(q.shown_candidate(), q.true_parent);
        assert_eq!(q.child_level, 1);
        assert_eq!(q.parent_level, 0);
    }

    #[test]
    fn negative_easy_never_picks_the_parent() {
        let (t, k) = fixture();
        let g = QuestionGenerator::new(&t, k, 5);
        let mut rng = g.negatives_rng(2);
        for &child in &g.sample_children(2, 100) {
            let q = g.negative_easy(child, 0, &mut rng).unwrap();
            assert_eq!(q.expected_yes(), Some(false));
            assert_ne!(q.shown_candidate(), q.true_parent);
        }
    }

    #[test]
    fn negative_hard_picks_uncles() {
        let (t, k) = fixture();
        let g = QuestionGenerator::new(&t, k, 5);
        let mut rng = g.negatives_rng(2);
        for &child in &g.sample_children(2, 100) {
            if let Some(q) = g.negative_hard(child, 0, &mut rng) {
                // The candidate must be a sibling of the true parent.
                let parent = t.parent(child).unwrap();
                let uncle_names: Vec<&str> =
                    t.uncles(child).iter().map(|&u| t.name(u)).collect();
                assert!(
                    uncle_names.contains(&q.shown_candidate()),
                    "candidate {:?} is not an uncle of {:?}",
                    q.shown_candidate(),
                    t.name(parent),
                );
            }
        }
    }

    #[test]
    fn mcq_has_exactly_one_correct_option() {
        let (t, k) = fixture();
        let g = QuestionGenerator::new(&t, k, 5);
        let mut rng = g.negatives_rng(1);
        for &child in &g.sample_children(1, 60) {
            let q = g.mcq(child, 0, &mut rng).unwrap();
            let QuestionBody::Mcq { options, correct } = &q.body else { panic!() };
            assert_eq!(options[*correct as usize], q.true_parent);
            let mut sorted = options.to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 4, "options must be distinct: {options:?}");
        }
    }

    #[test]
    fn mcq_on_tiny_parent_pool_is_none() {
        // A taxonomy with a two-node parent level cannot field 4 options.
        let mut b = taxoglimpse_taxonomy::TaxonomyBuilder::new("tiny");
        let r1 = b.add_root("r1");
        let _r2 = b.add_root("r2");
        let c = b.add_child(r1, "c");
        let t = b.build().unwrap();
        let g = QuestionGenerator::new(&t, TaxonomyKind::Ebay, 1);
        let mut rng = g.negatives_rng(1);
        assert!(g.mcq(c, 0, &mut rng).is_none());
    }
}
