//! Whole-forest statistics — the columns of the paper's Table 1.

use crate::arena::Taxonomy;
use std::fmt;

/// Summary statistics for a taxonomy, mirroring Table 1 of the paper:
/// number of entities, number of levels, number of trees, and the number
/// of nodes in each level.
#[derive(Debug, Clone, PartialEq)]
pub struct TaxonomyStats {
    /// Taxonomy label.
    pub label: String,
    /// Total entity count (`# of entities`).
    pub num_entities: usize,
    /// Depth (`# of levels`).
    pub num_levels: usize,
    /// Number of tree roots (`# of trees`).
    pub num_trees: usize,
    /// Node count per level starting at the root level
    /// (`# of nodes and classes in each level`).
    pub nodes_per_level: Vec<usize>,
    /// Number of leaf nodes (not in Table 1, useful for instance typing).
    pub num_leaves: usize,
    /// Maximum branching factor observed.
    pub max_children: usize,
    /// Mean branching factor over internal (non-leaf) nodes.
    pub mean_children_of_internal: f64,
}

impl TaxonomyStats {
    /// Compute statistics for `t`.
    pub fn compute(t: &Taxonomy) -> Self {
        let num_levels = t.num_levels();
        let nodes_per_level = (0..num_levels).map(|l| t.nodes_at_level(l).len()).collect();
        let mut num_leaves = 0usize;
        let mut max_children = 0usize;
        let mut internal = 0usize;
        let mut internal_children = 0usize;
        for id in t.ids() {
            let c = t.children(id).len();
            if c == 0 {
                num_leaves += 1;
            } else {
                internal += 1;
                internal_children += c;
                max_children = max_children.max(c);
            }
        }
        TaxonomyStats {
            label: t.label().to_owned(),
            num_entities: t.len(),
            num_levels,
            num_trees: t.roots().len(),
            nodes_per_level,
            num_leaves,
            max_children,
            mean_children_of_internal: if internal == 0 {
                0.0
            } else {
                internal_children as f64 / internal as f64
            },
        }
    }

    /// The `a-b-c` shape string used by Table 1 (e.g. `13-110-472`).
    pub fn shape_string(&self) -> String {
        self.nodes_per_level
            .iter()
            .map(usize::to_string)
            .collect::<Vec<_>>()
            .join("-")
    }
}

impl fmt::Display for TaxonomyStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: {} entities, {} levels, {} trees, shape {}",
            self.label,
            self.num_entities,
            self.num_levels,
            self.num_trees,
            self.shape_string()
        )
    }
}

taxoglimpse_json::struct_json!(TaxonomyStats {
    label, num_entities, num_levels, num_trees, nodes_per_level, num_leaves, max_children,
    mean_children_of_internal,
});

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaxonomyBuilder;

    #[test]
    fn stats_on_small_forest() {
        let mut b = TaxonomyBuilder::new("t");
        let r1 = b.add_root("r1");
        let _r2 = b.add_root("r2");
        let a = b.add_child(r1, "a");
        b.add_child(r1, "b");
        b.add_child(a, "c");
        let t = b.build().unwrap();
        let s = TaxonomyStats::compute(&t);
        assert_eq!(s.num_entities, 5);
        assert_eq!(s.num_levels, 3);
        assert_eq!(s.num_trees, 2);
        assert_eq!(s.nodes_per_level, vec![2, 2, 1]);
        assert_eq!(s.num_leaves, 3);
        assert_eq!(s.max_children, 2);
        assert!((s.mean_children_of_internal - 1.5).abs() < 1e-12);
        assert_eq!(s.shape_string(), "2-2-1");
    }

    #[test]
    fn stats_on_empty() {
        let t = TaxonomyBuilder::new("e").build().unwrap();
        let s = TaxonomyStats::compute(&t);
        assert_eq!(s.num_entities, 0);
        assert_eq!(s.num_levels, 0);
        assert_eq!(s.shape_string(), "");
        assert_eq!(s.mean_children_of_internal, 0.0);
    }

    #[test]
    fn display_is_informative() {
        let mut b = TaxonomyBuilder::new("demo");
        let r = b.add_root("r");
        b.add_child(r, "a");
        let t = b.build().unwrap();
        let rendered = TaxonomyStats::compute(&t).to_string();
        assert!(rendered.contains("demo"));
        assert!(rendered.contains("shape 1-1"));
    }

    #[test]
    fn json_round_trip() {
        let mut b = TaxonomyBuilder::new("t");
        let r = b.add_root("r");
        b.add_child(r, "a");
        let s = TaxonomyStats::compute(&b.build().unwrap());
        let json = taxoglimpse_json::to_string(&s).unwrap();
        let back: TaxonomyStats = taxoglimpse_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
