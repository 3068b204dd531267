//! Incremental construction of [`Taxonomy`] values.

use crate::arena::{Taxonomy, NO_PARENT};
use crate::node::NodeId;
use std::fmt;

/// Errors surfaced while building a taxonomy.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BuildError {
    /// The arena index space (u32) is exhausted.
    TooManyNodes,
    /// A node would sit deeper than [`TaxonomyBuilder::MAX_LEVELS`] levels.
    TooDeep {
        /// Name of the offending node.
        name: String,
    },
    /// `from_edges` was given a parent index that does not exist.
    DanglingParent {
        /// Index of the child with the bad reference.
        child: usize,
        /// The nonexistent parent index it referenced.
        parent: usize,
    },
    /// `from_edges` was given edges that form a cycle.
    Cycle {
        /// A node on the cycle.
        node: usize,
    },
    /// `from_edges` was given `names` and `parents` of different lengths.
    LengthMismatch {
        /// Length of `names`.
        names: usize,
        /// Length of `parents`.
        parents: usize,
    },
}

impl fmt::Display for BuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BuildError::TooManyNodes => write!(f, "taxonomy exceeds u32::MAX nodes"),
            BuildError::TooDeep { name } => {
                write!(f, "node {name:?} exceeds the maximum supported depth")
            }
            BuildError::DanglingParent { child, parent } => {
                write!(f, "node {child} references nonexistent parent {parent}")
            }
            BuildError::Cycle { node } => write!(f, "parent edges form a cycle through node {node}"),
            BuildError::LengthMismatch { names, parents } => {
                write!(f, "{names} names but {parents} parents")
            }
        }
    }
}

impl std::error::Error for BuildError {}

/// Builds a [`Taxonomy`] one node at a time.
///
/// Because children can only be attached to already-created nodes, cycles
/// are impossible by construction; [`TaxonomyBuilder::from_edges`] accepts
/// arbitrary parent arrays (e.g. from deserialization) and performs full
/// cycle detection instead.
#[derive(Debug, Clone)]
pub struct TaxonomyBuilder {
    label: String,
    name_buf: String,
    name_spans: Vec<(u32, u32)>,
    parent: Vec<u32>,
    level: Vec<u8>,
    deep_error: Option<BuildError>,
}

impl TaxonomyBuilder {
    /// Deepest supported taxonomy (NCBI, the deepest in the paper, has 7).
    pub const MAX_LEVELS: usize = 64;

    /// Start building a taxonomy with the given label.
    pub fn new(label: impl Into<String>) -> Self {
        TaxonomyBuilder {
            label: label.into(),
            name_buf: String::new(),
            name_spans: Vec::new(),
            parent: Vec::new(),
            level: Vec::new(),
            deep_error: None,
        }
    }

    /// Pre-allocate space for `n` nodes with about `avg_name` bytes of
    /// name each. Purely an optimization for large synthetic forests.
    pub fn with_capacity(label: impl Into<String>, n: usize, avg_name: usize) -> Self {
        let mut b = Self::new(label);
        b.name_buf.reserve(n * avg_name);
        b.name_spans.reserve(n);
        b.parent.reserve(n);
        b.level.reserve(n);
        b
    }

    /// Number of nodes added so far.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether no nodes have been added yet.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Name of a node already added to this builder. Useful for
    /// generators that derive child names from the parent's.
    pub fn name_of(&self, id: NodeId) -> &str {
        let (start, end) = self.name_spans[id.index()];
        &self.name_buf[start as usize..end as usize]
    }

    fn push_name(&mut self, name: &str) {
        let start = self.name_buf.len() as u32;
        self.name_buf.push_str(name);
        self.name_spans.push((start, self.name_buf.len() as u32));
    }

    /// Add a new tree root. Panics if the u32 index space overflows.
    pub fn add_root(&mut self, name: &str) -> NodeId {
        let id = NodeId(u32::try_from(self.parent.len()).expect("taxonomy exceeds u32::MAX nodes"));
        self.push_name(name);
        self.parent.push(NO_PARENT);
        self.level.push(0);
        id
    }

    /// Reserve room for `nodes` more nodes carrying `name_bytes` more
    /// bytes of name data in total. One call per production batch keeps
    /// the arena columns at a single `reserve` each instead of paying
    /// amortized-growth copies mid-splice.
    pub fn reserve(&mut self, nodes: usize, name_bytes: usize) {
        self.name_buf.reserve(name_bytes);
        self.name_spans.reserve(nodes);
        self.parent.reserve(nodes);
        self.level.reserve(nodes);
    }

    /// Append every name yielded by `names` as a child of `parent`, in
    /// iterator order. Returns the id range of the new children (ids are
    /// assigned consecutively). Combined with [`TaxonomyBuilder::reserve`]
    /// this is the bulk path the chunked generator splices batches
    /// through: one capacity check per batch, then straight appends.
    ///
    /// Panics if `parent` was not issued by this builder or the u32 index
    /// space overflows, exactly like [`TaxonomyBuilder::add_child`].
    pub fn extend_children<'a>(
        &mut self,
        parent: NodeId,
        names: impl Iterator<Item = &'a str>,
    ) -> std::ops::Range<u32> {
        let start = u32::try_from(self.parent.len()).expect("taxonomy exceeds u32::MAX nodes");
        let plevel = self.level[parent.index()] as usize;
        let mut added = 0u32;
        for name in names {
            if plevel + 1 >= Self::MAX_LEVELS && self.deep_error.is_none() {
                self.deep_error = Some(BuildError::TooDeep { name: name.to_owned() });
            }
            self.push_name(name);
            self.parent.push(parent.raw());
            self.level.push((plevel + 1).min(u8::MAX as usize) as u8);
            added += 1;
        }
        let end = start + added;
        assert!(
            (end as usize) == self.parent.len(),
            "extend_children id range must match arena length"
        );
        start..end
    }

    /// Splice one whole production run: for the `i`-th parent in the
    /// contiguous id range `parents` (all at the same level), attach
    /// `counts[i]` children whose names are the next `counts[i]` entries
    /// of `spans` (byte ranges into `names`), in order. This is the bulk
    /// path level-at-a-time generators use: the name block lands with a
    /// single `push_str`, spans are rebased in one pass, the level
    /// column is filled with a single resize, and the parent column is
    /// filled run-by-run — no per-name calls.
    ///
    /// Returns the id range of the new children. Panics if any parent id
    /// is out of range, if the parents do not all share one level, if
    /// `spans`/`counts` disagree, or if the u32 index space overflows —
    /// the same contract as calling
    /// [`TaxonomyBuilder::extend_children`] once per parent.
    pub fn extend_level(
        &mut self,
        parents: std::ops::Range<u32>,
        counts: &[u32],
        names: &str,
        spans: &[(u32, u32)],
    ) -> std::ops::Range<u32> {
        assert_eq!(parents.len(), counts.len(), "one child count per parent");
        assert!(parents.end as usize <= self.parent.len(), "parent ids out of range");
        let total: u64 = counts.iter().map(|&c| u64::from(c)).sum();
        assert_eq!(total as usize, spans.len(), "span count must match the child total");
        let start = u32::try_from(self.parent.len()).expect("taxonomy exceeds u32::MAX nodes");
        let end = u32::try_from(self.parent.len() as u64 + total)
            .expect("taxonomy exceeds u32::MAX nodes");

        let base = self.name_buf.len() as u32;
        self.name_buf.push_str(names);
        self.name_spans.extend(spans.iter().map(|&(s, e)| (base + s, base + e)));

        if total > 0 {
            let plevel = self.level[parents.start as usize] as usize;
            assert!(
                parents.clone().all(|p| self.level[p as usize] as usize == plevel),
                "extend_level parents must share one level"
            );
            if plevel + 1 >= Self::MAX_LEVELS && self.deep_error.is_none() {
                let (s, e) = spans[0];
                self.deep_error =
                    Some(BuildError::TooDeep { name: names[s as usize..e as usize].to_owned() });
            }
            self.level.resize(end as usize, (plevel + 1).min(u8::MAX as usize) as u8);
        }
        for (p, &c) in parents.zip(counts) {
            self.parent.resize(self.parent.len() + c as usize, p);
        }
        debug_assert_eq!(self.parent.len(), end as usize);
        start..end
    }

    /// Add a child under `parent`. Panics if `parent` was not issued by
    /// this builder.
    pub fn add_child(&mut self, parent: NodeId, name: &str) -> NodeId {
        let plevel = self.level[parent.index()] as usize;
        if plevel + 1 >= Self::MAX_LEVELS && self.deep_error.is_none() {
            self.deep_error = Some(BuildError::TooDeep { name: name.to_owned() });
        }
        let id = NodeId(u32::try_from(self.parent.len()).expect("taxonomy exceeds u32::MAX nodes"));
        self.push_name(name);
        self.parent.push(parent.raw());
        self.level.push((plevel + 1).min(u8::MAX as usize) as u8);
        id
    }

    /// Finish, producing the immutable taxonomy.
    pub fn build(self) -> Result<Taxonomy, BuildError> {
        if let Some(e) = self.deep_error {
            return Err(e);
        }
        Ok(assemble(self.label, self.name_buf, self.name_spans, self.parent, self.level))
    }

    /// Build a taxonomy from parallel `names` / `parents` arrays, where
    /// `parents[i]` is the index of node `i`'s parent or `None` for roots.
    ///
    /// Unlike the incremental API this accepts forward references and
    /// therefore performs explicit dangling-parent and cycle detection.
    pub fn from_edges(
        label: impl Into<String>,
        names: &[String],
        parents: &[Option<usize>],
    ) -> Result<Taxonomy, BuildError> {
        if names.len() != parents.len() {
            return Err(BuildError::LengthMismatch { names: names.len(), parents: parents.len() });
        }
        let n = names.len();
        if n > u32::MAX as usize {
            return Err(BuildError::TooManyNodes);
        }
        for (child, p) in parents.iter().enumerate() {
            if let Some(p) = *p {
                if p >= n {
                    return Err(BuildError::DanglingParent { child, parent: p });
                }
            }
        }

        // Compute levels by chasing parents, memoized (0 = unknown,
        // otherwise level + 1). Cycle detection uses an epoch stamp per
        // walk so the whole pass is O(n).
        let mut level_memo = vec![0u32; n];
        let mut visit_epoch = vec![0u32; n];
        let mut path = Vec::new();
        for start in 0..n {
            if level_memo[start] != 0 {
                continue;
            }
            let epoch = start as u32 + 1;
            path.clear();
            let mut cur = start;
            // Walk up until a memoized node or a root; `base` is the memo
            // value (level + 1) of the first node *below* which we assign.
            let mut base = loop {
                if level_memo[cur] != 0 {
                    break level_memo[cur];
                }
                if visit_epoch[cur] == epoch {
                    return Err(BuildError::Cycle { node: cur });
                }
                visit_epoch[cur] = epoch;
                path.push(cur);
                match parents[cur] {
                    Some(p) => cur = p,
                    None => {
                        // `cur` (== last path element) is a root: memoize
                        // it now and let the walk-back start above it.
                        let root = path.pop().expect("root was just pushed");
                        level_memo[root] = 1;
                        break 1;
                    }
                }
            };
            // Assign levels top-down along the collected path.
            for &node in path.iter().rev() {
                base += 1;
                level_memo[node] = base;
            }
        }

        let max_level = level_memo.iter().map(|&l| l - 1).max().unwrap_or(0) as usize;
        if n > 0 && max_level >= Self::MAX_LEVELS {
            return Err(BuildError::TooDeep {
                name: names
                    .iter()
                    .zip(&level_memo)
                    .find(|(_, &l)| (l - 1) as usize >= Self::MAX_LEVELS)
                    .map(|(nm, _)| nm.clone())
                    .unwrap_or_default(),
            });
        }

        let mut b = TaxonomyBuilder::with_capacity(label, n, 16);
        // Insert in level order so parents always precede children; keep a
        // mapping old index -> new NodeId.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_by_key(|&i| (level_memo[i], i));
        let mut remap = vec![NodeId(0); n];
        for &i in &order {
            remap[i] = match parents[i] {
                None => b.add_root(&names[i]),
                Some(p) => b.add_child(remap[p], &names[i]),
            };
        }
        b.build()
    }
}

/// Derive the columns an arena carries besides its names, parents and
/// levels: the CSR child lists, the roots and the per-level index. The
/// builder and the binary decoder both end here. `level` must be
/// consistent with `parent` (roots at 0, each child one below its
/// parent), which the builder guarantees by construction and the
/// decoder checks first.
///
/// Level-at-a-time input — non-root parents and levels both
/// non-decreasing in id order, as the generators produce — fills the
/// child list and each level as one run of ids. Anything else
/// (interleaved `add_root`/`add_child` calls, drift, edits) takes the
/// general scatter.
pub(crate) fn assemble(
    label: String,
    name_buf: String,
    name_spans: Vec<(u32, u32)>,
    parent: Vec<u32>,
    level: Vec<u8>,
) -> Taxonomy {
    let n = parent.len();
    // One fused pass: child counts (at `child_off[p + 1]`, prefix-summed
    // below), roots, depth, and the two sortedness properties.
    let mut child_off = vec![0u32; n + 1];
    let mut roots = Vec::new();
    let mut parents_sorted = true;
    let mut prev_parent = 0u32;
    let mut levels_sorted = true;
    let mut prev_level = 0u8;
    let mut depth = 0usize;
    for (i, (&p, &l)) in parent.iter().zip(&level).enumerate() {
        if p == NO_PARENT {
            roots.push(NodeId(i as u32));
        } else {
            parents_sorted &= p >= prev_parent;
            prev_parent = p;
            child_off[p as usize + 1] += 1;
        }
        levels_sorted &= l >= prev_level;
        prev_level = l;
        depth = depth.max(l as usize + 1);
    }
    for i in 0..n {
        child_off[i + 1] += child_off[i];
    }

    let child_list: Vec<NodeId> = if parents_sorted {
        // Children grouped by parent are the non-root ids in id order.
        let mut list = Vec::with_capacity(n - roots.len());
        list.extend((0..n as u32).filter(|&i| parent[i as usize] != NO_PARENT).map(NodeId));
        list
    } else {
        let mut cursor = child_off.clone();
        let mut list = vec![NodeId(0); n - roots.len()];
        for (i, &p) in parent.iter().enumerate() {
            if p != NO_PARENT {
                list[cursor[p as usize] as usize] = NodeId(i as u32);
                cursor[p as usize] += 1;
            }
        }
        list
    };

    let by_level: Vec<Vec<NodeId>> = if levels_sorted {
        // Each level is one contiguous id range.
        (0..depth)
            .map(|l| {
                let start = level.partition_point(|&x| (x as usize) < l);
                let end = level.partition_point(|&x| (x as usize) <= l);
                (start as u32..end as u32).map(NodeId).collect()
            })
            .collect()
    } else {
        // Exact-sized: count first so the per-level vectors never
        // reallocate while 2M+ ids stream in.
        let mut counts = vec![0usize; depth];
        for &l in &level {
            counts[l as usize] += 1;
        }
        let mut by_level: Vec<Vec<NodeId>> = counts.into_iter().map(Vec::with_capacity).collect();
        for (i, &l) in level.iter().enumerate() {
            by_level[l as usize].push(NodeId(i as u32));
        }
        by_level
    };

    Taxonomy {
        label,
        name_buf,
        name_spans,
        parent,
        level,
        child_off,
        child_list,
        roots,
        by_level,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_edges_matches_incremental() {
        let names: Vec<String> = ["b", "root", "a"].iter().map(|s| s.to_string()).collect();
        // b's parent is a, a's parent is root; given out of order.
        let parents = vec![Some(2), None, Some(1)];
        let t = TaxonomyBuilder::from_edges("t", &names, &parents).unwrap();
        assert_eq!(t.len(), 3);
        assert_eq!(t.num_levels(), 3);
        let root = t.roots()[0];
        assert_eq!(t.name(root), "root");
        let a = t.children(root)[0];
        assert_eq!(t.name(a), "a");
        let b = t.children(a)[0];
        assert_eq!(t.name(b), "b");
    }

    #[test]
    fn from_edges_detects_cycles() {
        let names: Vec<String> = ["x", "y"].iter().map(|s| s.to_string()).collect();
        let parents = vec![Some(1), Some(0)];
        let err = TaxonomyBuilder::from_edges("t", &names, &parents).unwrap_err();
        assert!(matches!(err, BuildError::Cycle { .. }));
    }

    #[test]
    fn from_edges_detects_self_loop() {
        let names = vec!["x".to_string()];
        let parents = vec![Some(0)];
        let err = TaxonomyBuilder::from_edges("t", &names, &parents).unwrap_err();
        assert!(matches!(err, BuildError::Cycle { node: 0 }));
    }

    #[test]
    fn from_edges_detects_dangling_parent() {
        let names = vec!["x".to_string()];
        let parents = vec![Some(5)];
        let err = TaxonomyBuilder::from_edges("t", &names, &parents).unwrap_err();
        assert_eq!(err, BuildError::DanglingParent { child: 0, parent: 5 });
    }

    #[test]
    fn from_edges_empty() {
        let t = TaxonomyBuilder::from_edges("t", &[], &[]).unwrap();
        assert!(t.is_empty());
    }

    #[test]
    fn from_edges_multi_tree() {
        let names: Vec<String> = ["r1", "r2", "c1", "c2"].iter().map(|s| s.to_string()).collect();
        let parents = vec![None, None, Some(0), Some(1)];
        let t = TaxonomyBuilder::from_edges("t", &names, &parents).unwrap();
        assert_eq!(t.roots().len(), 2);
        assert_eq!(t.nodes_at_level(1).len(), 2);
    }

    #[test]
    fn builder_capacity_path() {
        let mut b = TaxonomyBuilder::with_capacity("big", 100, 8);
        let r = b.add_root("r");
        for i in 0..99 {
            b.add_child(r, &format!("c{i}"));
        }
        assert_eq!(b.len(), 100);
        let t = b.build().unwrap();
        assert_eq!(t.children(r).len(), 99);
    }
}
