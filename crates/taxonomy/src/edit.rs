//! Structure-editing operations.
//!
//! A [`Taxonomy`] is immutable; edits produce a new taxonomy (ids are
//! *not* stable across edits — the returned [`EditOutcome`] carries the
//! old-to-new id mapping). Truncation backs the paper's §5.3 case study,
//! where the Amazon Product Category's level-4-and-below nodes are
//! removed and replaced by an LLM.

use crate::arena::Taxonomy;
use crate::builder::TaxonomyBuilder;
use crate::node::NodeId;

/// Result of an edit: the new taxonomy plus an id remapping.
#[derive(Debug, Clone)]
pub struct EditOutcome {
    /// The edited taxonomy.
    pub taxonomy: Taxonomy,
    /// `remap[old.index()]` is the node's id in the new taxonomy, or
    /// `None` if the node was removed.
    pub remap: Vec<Option<NodeId>>,
}

impl EditOutcome {
    /// Translate an old id into the new taxonomy, if it survived.
    pub fn map(&self, old: NodeId) -> Option<NodeId> {
        self.remap[old.index()]
    }
}

impl Taxonomy {
    fn rebuild_keeping(&self, keep: impl Fn(NodeId) -> bool) -> EditOutcome {
        let mut b = TaxonomyBuilder::with_capacity(self.label(), self.len(), 16);
        let mut remap: Vec<Option<NodeId>> = vec![None; self.len()];
        // Level-order over the per-level index guarantees parents are
        // mapped before their children.
        for level in 0..self.num_levels() {
            for &id in self.nodes_at_level(level) {
                if !keep(id) {
                    continue;
                }
                let new_id = match self.parent(id) {
                    None => b.add_root(self.name(id)),
                    Some(p) => match remap[p.index()] {
                        Some(np) => b.add_child(np, self.name(id)),
                        // Parent was removed: orphaned descendants are
                        // dropped too (the keep predicate should already
                        // be ancestor-closed for intentional keeps).
                        None => continue,
                    },
                };
                remap[id.index()] = Some(new_id);
            }
        }
        EditOutcome {
            taxonomy: b.build().expect("rebuilt taxonomy cannot exceed original depth"),
            remap,
        }
    }

    /// Remove every node at `cutoff_level` or deeper, keeping levels
    /// `0..cutoff_level`. This is the §5.3 operation: truncating Amazon at
    /// level 4 keeps root..level-3 and deletes the 25,777 level-4+ nodes.
    pub fn truncate_below(&self, cutoff_level: usize) -> EditOutcome {
        self.rebuild_keeping(|id| self.level(id) < cutoff_level)
    }
}

#[cfg(test)]
mod tests {
    use crate::{validate, TaxonomyBuilder};

    fn sample() -> (crate::Taxonomy, Vec<crate::NodeId>) {
        let mut b = TaxonomyBuilder::new("t");
        let r = b.add_root("r");
        let a = b.add_child(r, "a");
        let b1 = b.add_child(a, "b1");
        let c = b.add_child(b1, "c");
        let d = b.add_child(r, "d");
        (b.build().unwrap(), vec![r, a, b1, c, d])
    }

    #[test]
    fn truncate_below_removes_deep_levels() {
        let (t, ids) = sample();
        let out = t.truncate_below(2);
        validate(&out.taxonomy).unwrap();
        assert_eq!(out.taxonomy.len(), 3); // r, a, d
        assert_eq!(out.taxonomy.num_levels(), 2);
        assert!(out.map(ids[0]).is_some());
        assert!(out.map(ids[2]).is_none());
        assert!(out.map(ids[3]).is_none());
        // Names preserved through the remap.
        let new_a = out.map(ids[1]).unwrap();
        assert_eq!(out.taxonomy.name(new_a), "a");
    }

    #[test]
    fn truncate_below_zero_empties() {
        let (t, _) = sample();
        let out = t.truncate_below(0);
        assert!(out.taxonomy.is_empty());
    }
}
