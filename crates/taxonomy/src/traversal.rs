//! Forest traversal iterators.

use crate::arena::Taxonomy;
use crate::node::NodeId;

/// Depth-first (pre-order) traversal of the subtree rooted at a node.
pub struct Descendants<'t> {
    taxonomy: &'t Taxonomy,
    stack: Vec<NodeId>,
}

impl<'t> Iterator for Descendants<'t> {
    type Item = NodeId;

    fn next(&mut self) -> Option<NodeId> {
        let cur = self.stack.pop()?;
        // Push children reversed so iteration visits them left-to-right.
        for &c in self.taxonomy.children(cur).iter().rev() {
            self.stack.push(c);
        }
        Some(cur)
    }
}

impl Taxonomy {
    /// Pre-order iterator over `id` and all of its descendants.
    pub fn descendants(&self, id: NodeId) -> Descendants<'_> {
        Descendants { taxonomy: self, stack: vec![id] }
    }

    /// The leaves of the subtree rooted at `id`.
    pub fn leaves_under(&self, id: NodeId) -> Vec<NodeId> {
        self.descendants(id).filter(|&d| self.is_leaf(d)).collect()
    }
}

#[cfg(test)]
mod tests {
    use crate::TaxonomyBuilder;

    #[test]
    fn descendants_preorder() {
        let mut b = TaxonomyBuilder::new("t");
        let r = b.add_root("r");
        let a = b.add_child(r, "a");
        let b1 = b.add_child(a, "b1");
        let b2 = b.add_child(a, "b2");
        let c = b.add_child(r, "c");
        let t = b.build().unwrap();
        let order: Vec<_> = t.descendants(r).collect();
        assert_eq!(order, vec![r, a, b1, b2, c]);
    }

    #[test]
    fn leaves_under() {
        let mut b = TaxonomyBuilder::new("t");
        let r = b.add_root("r");
        let a = b.add_child(r, "a");
        let l1 = b.add_child(a, "l1");
        let l2 = b.add_child(r, "l2");
        let t = b.build().unwrap();
        assert_eq!(t.leaves_under(r), vec![l1, l2]);
        assert_eq!(t.leaves_under(l1), vec![l1]);
    }

    #[test]
    fn traversal_counts_match_len() {
        let mut b = TaxonomyBuilder::new("t");
        let mut parents = vec![b.add_root("r")];
        for i in 0..50 {
            let p = parents[i % parents.len()];
            parents.push(b.add_child(p, &format!("n{i}")));
        }
        let t = b.build().unwrap();
        assert_eq!(t.descendants(t.roots()[0]).count(), t.len());
    }
}
