//! Name lookup indexes.
//!
//! Taxonomies are queried by name constantly (entity search, hybrid
//! routing, instance attachment), so this module provides a prebuilt
//! index for exact, case-insensitive lookup. Names are not globally
//! unique in real taxonomies (e.g. "Accessories" under many Amazon
//! departments), so lookups return every match.

use crate::arena::Taxonomy;
use crate::node::NodeId;

/// A prebuilt name index over one taxonomy.
///
/// Invalidation: the index borrows nothing but is only meaningful for
/// the taxonomy it was built from; rebuilding after edits is the
/// caller's job (edits produce new taxonomies anyway).
#[derive(Debug, Clone)]
pub struct NameIndex {
    /// `(lowercased name, id)` sorted by name then id.
    entries: Vec<(String, NodeId)>,
}

impl NameIndex {
    /// Build the index (O(n log n)).
    pub fn build(taxonomy: &Taxonomy) -> Self {
        let mut entries: Vec<(String, NodeId)> = taxonomy
            .ids()
            .map(|id| (taxonomy.name(id).to_ascii_lowercase(), id))
            .collect();
        entries.sort();
        NameIndex { entries }
    }

    /// Number of indexed nodes.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// All nodes whose name equals `name` (case-insensitive).
    pub fn lookup(&self, name: &str) -> Vec<NodeId> {
        let key = name.to_ascii_lowercase();
        let start = self.entries.partition_point(|(n, _)| n.as_str() < key.as_str());
        self.entries[start..]
            .iter()
            .take_while(|(n, _)| *n == key)
            .map(|&(_, id)| id)
            .collect()
    }

    /// The unique node named `name`, if exactly one exists.
    pub fn lookup_unique(&self, name: &str) -> Option<NodeId> {
        let matches = self.lookup(name);
        match matches.as_slice() {
            [only] => Some(*only),
            _ => None,
        }
    }

}

impl Taxonomy {
    /// Build a [`NameIndex`] for this taxonomy.
    pub fn name_index(&self) -> NameIndex {
        NameIndex::build(self)
    }

}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::TaxonomyBuilder;

    fn sample() -> Taxonomy {
        let mut b = TaxonomyBuilder::new("t");
        let r = b.add_root("Electronics");
        let audio = b.add_child(r, "Audio");
        b.add_child(audio, "Speakers");
        b.add_child(audio, "Headphones");
        let video = b.add_child(r, "Video");
        b.add_child(video, "Speakers"); // duplicate name, different parent
        b.build().unwrap()
    }

    #[test]
    fn exact_lookup_finds_all_matches() {
        let t = sample();
        let idx = t.name_index();
        assert_eq!(idx.len(), 6);
        let speakers = idx.lookup("Speakers");
        assert_eq!(speakers.len(), 2);
        for id in speakers {
            assert_eq!(t.name(id), "Speakers");
        }
        assert_eq!(idx.lookup("speakers").len(), 2, "case-insensitive");
        assert!(idx.lookup("Projectors").is_empty());
    }

    #[test]
    fn unique_lookup() {
        let t = sample();
        let idx = t.name_index();
        assert!(idx.lookup_unique("Audio").is_some());
        assert!(idx.lookup_unique("Speakers").is_none(), "ambiguous");
        assert!(idx.lookup_unique("Nothing").is_none());
    }

    #[test]
    fn empty_taxonomy_index() {
        let t = TaxonomyBuilder::new("e").build().unwrap();
        let idx = t.name_index();
        assert!(idx.is_empty());
        assert!(idx.lookup("x").is_empty());
    }
}
