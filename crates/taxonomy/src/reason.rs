//! Structural reasoning: subsumption checks — the "knowledge reasoning"
//! primitives the paper's introduction lists among taxonomy use cases.

use crate::arena::Taxonomy;
use crate::node::NodeId;

impl Taxonomy {
    /// Subsumption: does concept `general` subsume `specific` (i.e. is
    /// `general` the same node or an ancestor)?
    pub fn subsumes(&self, general: NodeId, specific: NodeId) -> bool {
        general == specific || self.is_ancestor(general, specific)
    }

    /// The most specific concept among `candidates` that subsumes
    /// `node`, if any — e.g. mapping a product to the deepest applicable
    /// category from a candidate set.
    pub fn most_specific_subsumer(&self, node: NodeId, candidates: &[NodeId]) -> Option<NodeId> {
        candidates
            .iter()
            .copied()
            .filter(|&c| self.subsumes(c, node))
            .max_by_key(|&c| self.level(c))
    }
}

#[cfg(test)]
mod tests {
    use crate::TaxonomyBuilder;

    fn sample() -> (crate::Taxonomy, Vec<crate::NodeId>) {
        // r ── a ── b ── c
        //  \        └── d
        //   \─ e
        // r2 ─ f
        let mut b = TaxonomyBuilder::new("t");
        let r = b.add_root("r");
        let a = b.add_child(r, "a");
        let bb = b.add_child(a, "b");
        let c = b.add_child(bb, "c");
        let d = b.add_child(bb, "d");
        let e = b.add_child(r, "e");
        let r2 = b.add_root("r2");
        let f = b.add_child(r2, "f");
        (b.build().unwrap(), vec![r, a, bb, c, d, e, r2, f])
    }

    #[test]
    fn subsumption() {
        let (t, ids) = sample();
        let [r, a, bb, c, ..] = ids[..] else { unreachable!() };
        assert!(t.subsumes(r, c));
        assert!(t.subsumes(a, c));
        assert!(t.subsumes(c, c));
        assert!(!t.subsumes(c, a));
        assert!(!t.subsumes(bb, a));
    }

    #[test]
    fn most_specific_subsumer_picks_deepest() {
        let (t, ids) = sample();
        let [r, a, bb, c, _d, e, ..] = ids[..] else { unreachable!() };
        assert_eq!(t.most_specific_subsumer(c, &[r, a, bb]), Some(bb));
        assert_eq!(t.most_specific_subsumer(c, &[r, e]), Some(r));
        assert_eq!(t.most_specific_subsumer(e, &[a, bb]), None);
    }
}
