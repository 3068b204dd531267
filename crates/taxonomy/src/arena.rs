//! The arena-backed taxonomy structure.
//!
//! Storage is struct-of-arrays with a CSR (compressed sparse row) child
//! list and a single shared name buffer, so a full-fidelity NCBI-shaped
//! forest (2.19M nodes) fits comfortably in memory with one allocation
//! per column instead of one per node.

use crate::node::NodeId;

/// Sentinel parent index meaning "this node is a root".
pub(crate) const NO_PARENT: u32 = u32::MAX;

/// An immutable Is-A forest.
///
/// Built via [`crate::TaxonomyBuilder`]; see the crate docs for an example.
#[derive(Debug, Clone)]
pub struct Taxonomy {
    pub(crate) label: String,
    /// Concatenated node names.
    pub(crate) name_buf: String,
    /// Byte spans into `name_buf`, one per node.
    pub(crate) name_spans: Vec<(u32, u32)>,
    /// Parent index per node (`NO_PARENT` for roots).
    pub(crate) parent: Vec<u32>,
    /// Level per node (roots are 0).
    pub(crate) level: Vec<u8>,
    /// CSR offsets into `child_list`; `children of i` =
    /// `child_list[child_off[i]..child_off[i + 1]]`.
    pub(crate) child_off: Vec<u32>,
    pub(crate) child_list: Vec<NodeId>,
    /// Root nodes in insertion order.
    pub(crate) roots: Vec<NodeId>,
    /// Node ids grouped by level: `by_level[l]` lists every level-`l` node.
    pub(crate) by_level: Vec<Vec<NodeId>>,
}

impl Taxonomy {
    /// Human-readable label for this taxonomy (e.g. `"amazon"`).
    #[inline]
    pub fn label(&self) -> &str {
        &self.label
    }

    /// Total number of nodes in the forest.
    #[inline]
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Iterate over every node id in insertion order.
    #[inline]
    pub fn ids(&self) -> impl ExactSizeIterator<Item = NodeId> + '_ {
        (0..self.parent.len() as u32).map(NodeId)
    }

    /// The display name of `id`.
    #[inline]
    pub fn name(&self, id: NodeId) -> &str {
        let (start, end) = self.name_spans[id.index()];
        &self.name_buf[start as usize..end as usize]
    }

    /// The parent of `id`, or `None` for a root.
    #[inline]
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        let p = self.parent[id.index()];
        (p != NO_PARENT).then_some(NodeId(p))
    }

    /// The children of `id` (empty slice for leaves).
    #[inline]
    pub fn children(&self, id: NodeId) -> &[NodeId] {
        let i = id.index();
        &self.child_list[self.child_off[i] as usize..self.child_off[i + 1] as usize]
    }

    /// The level of `id`; roots are level 0.
    #[inline]
    pub fn level(&self, id: NodeId) -> usize {
        self.level[id.index()] as usize
    }

    /// Whether `id` has no children.
    #[inline]
    pub fn is_leaf(&self, id: NodeId) -> bool {
        self.children(id).is_empty()
    }

    /// Root nodes (tree tops) in insertion order.
    #[inline]
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// Number of distinct levels present (depth of the deepest node + 1).
    #[inline]
    pub fn num_levels(&self) -> usize {
        self.by_level.len()
    }

    /// All nodes at `level`, or an empty slice if the level does not exist.
    #[inline]
    pub fn nodes_at_level(&self, level: usize) -> &[NodeId] {
        self.by_level.get(level).map_or(&[], Vec::as_slice)
    }

    /// Ancestors of `id` from its parent up to (and including) its root.
    pub fn ancestors(&self, id: NodeId) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.level(id));
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            out.push(p);
            cur = p;
        }
        out
    }

    /// The root of the tree containing `id`.
    pub fn root_of(&self, id: NodeId) -> NodeId {
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            cur = p;
        }
        cur
    }

    /// The chain `[root, ..., id]` from the root down to `id`.
    pub fn chain_from_root(&self, id: NodeId) -> Vec<NodeId> {
        let mut chain = self.ancestors(id);
        chain.reverse();
        chain.push(id);
        chain
    }

    /// Siblings of `id`: other children of the same parent.
    ///
    /// For a root node the siblings are the *other roots*, matching the
    /// paper's negative sampling at level 1 (where the candidate parent
    /// pool is the root set).
    pub fn siblings(&self, id: NodeId) -> Vec<NodeId> {
        let pool: &[NodeId] = match self.parent(id) {
            Some(p) => self.children(p),
            None => &self.roots,
        };
        pool.iter().copied().filter(|&s| s != id).collect()
    }

    /// Uncles of `id`: siblings of its parent. These are the paper's hard
    /// negatives — entities similar to the true parent.
    ///
    /// Returns an empty vector for roots (no parent to take siblings of).
    pub fn uncles(&self, id: NodeId) -> Vec<NodeId> {
        match self.parent(id) {
            Some(p) => self.siblings(p),
            None => Vec::new(),
        }
    }

    /// All leaf node ids.
    pub fn leaves(&self) -> Vec<NodeId> {
        self.ids().filter(|&id| self.is_leaf(id)).collect()
    }

    /// Whether `anc` is a strict ancestor of `id`.
    pub fn is_ancestor(&self, anc: NodeId, id: NodeId) -> bool {
        let target = self.level(anc);
        if target >= self.level(id) {
            return false;
        }
        let mut cur = id;
        while let Some(p) = self.parent(cur) {
            if p == anc {
                return true;
            }
            if self.level(p) <= target {
                return false;
            }
            cur = p;
        }
        false
    }

    /// Total bytes of name data stored (diagnostic).
    pub fn name_bytes(&self) -> usize {
        self.name_buf.len()
    }
}

#[cfg(test)]
mod tests {
    use crate::TaxonomyBuilder;

    fn sample() -> (crate::Taxonomy, Vec<crate::NodeId>) {
        // r0          r1
        // ├── a       └── d
        // │   ├── b
        // │   └── c
        // └── e
        let mut b = TaxonomyBuilder::new("t");
        let r0 = b.add_root("r0");
        let r1 = b.add_root("r1");
        let a = b.add_child(r0, "a");
        let bb = b.add_child(a, "b");
        let c = b.add_child(a, "c");
        let d = b.add_child(r1, "d");
        let e = b.add_child(r0, "e");
        (b.build().unwrap(), vec![r0, r1, a, bb, c, d, e])
    }

    #[test]
    fn basic_shape() {
        let (t, ids) = sample();
        let [r0, r1, a, b, c, d, e] = ids[..] else { unreachable!() };
        assert_eq!(t.len(), 7);
        assert_eq!(t.roots(), &[r0, r1]);
        assert_eq!(t.num_levels(), 3);
        assert_eq!(t.children(r0), &[a, e]);
        assert_eq!(t.children(a), &[b, c]);
        assert_eq!(t.children(d), &[]);
        assert_eq!(t.level(b), 2);
        assert_eq!(t.parent(e), Some(r0));
        assert_eq!(t.parent(r1), None);
    }

    #[test]
    fn names_round_trip() {
        let (t, ids) = sample();
        assert_eq!(t.name(ids[0]), "r0");
        assert_eq!(t.name(ids[4]), "c");
        assert_eq!(t.name(ids[6]), "e");
    }

    #[test]
    fn ancestors_and_chain() {
        let (t, ids) = sample();
        let [r0, _, a, b, ..] = ids[..] else { unreachable!() };
        assert_eq!(t.ancestors(b), vec![a, r0]);
        assert_eq!(t.chain_from_root(b), vec![r0, a, b]);
        assert_eq!(t.ancestors(r0), vec![]);
        assert_eq!(t.root_of(b), r0);
        assert_eq!(t.root_of(r0), r0);
    }

    #[test]
    fn siblings_and_uncles() {
        let (t, ids) = sample();
        let [r0, r1, a, b, c, _, e] = ids[..] else { unreachable!() };
        assert_eq!(t.siblings(b), vec![c]);
        assert_eq!(t.siblings(a), vec![e]);
        // Roots' siblings are the other roots.
        assert_eq!(t.siblings(r0), vec![r1]);
        // Uncles of b = siblings of a = [e].
        assert_eq!(t.uncles(b), vec![e]);
        // Uncles of a (a level-1 node) = siblings of r0 = other roots.
        assert_eq!(t.uncles(a), vec![r1]);
        assert_eq!(t.uncles(r0), vec![]);
    }

    #[test]
    fn level_index_is_complete() {
        let (t, _) = sample();
        let total: usize = (0..t.num_levels()).map(|l| t.nodes_at_level(l).len()).sum();
        assert_eq!(total, t.len());
        assert_eq!(t.nodes_at_level(0).len(), 2);
        assert_eq!(t.nodes_at_level(1).len(), 3);
        assert_eq!(t.nodes_at_level(2).len(), 2);
        assert!(t.nodes_at_level(99).is_empty());
    }

    #[test]
    fn leaves_and_subtree_size() {
        let (t, ids) = sample();
        let [_, _, _, b, c, d, e] = ids[..] else { unreachable!() };
        let mut leaves = t.leaves();
        leaves.sort();
        let mut expect = vec![b, c, d, e];
        expect.sort();
        assert_eq!(leaves, expect);
    }

    #[test]
    fn is_ancestor() {
        let (t, ids) = sample();
        let [r0, r1, a, b, ..] = ids[..] else { unreachable!() };
        assert!(t.is_ancestor(r0, b));
        assert!(t.is_ancestor(a, b));
        assert!(!t.is_ancestor(b, a));
        assert!(!t.is_ancestor(r1, b));
        assert!(!t.is_ancestor(b, b));
    }

    #[test]
    fn empty_taxonomy() {
        let t = TaxonomyBuilder::new("empty").build().unwrap();
        assert!(t.is_empty());
        assert_eq!(t.num_levels(), 0);
        assert!(t.roots().is_empty());
    }
}
