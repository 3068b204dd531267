//! Node identifiers.

use std::fmt;
use taxoglimpse_json::{FromJson, Json, JsonError, ToJson};

/// Index of a node inside a [`crate::Taxonomy`] arena.
///
/// A `NodeId` is only meaningful relative to the taxonomy that issued it.
/// Using an id from one taxonomy against another is a logic error; the
/// accessors will panic on out-of-range ids rather than silently return
/// wrong data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) u32);

// Hand-written, not `struct_json!`: a tuple struct that serializes as a bare number.
impl ToJson for NodeId {
    /// Transparent: a `NodeId` serializes as its bare raw index.
    fn to_json(&self) -> Json {
        Json::U64(u64::from(self.0))
    }
}

impl FromJson for NodeId {
    fn from_json(json: &Json) -> Result<Self, JsonError> {
        u32::from_json(json).map(NodeId)
    }
}

impl NodeId {
    /// Construct a `NodeId` from a raw index.
    ///
    /// Intended for deserialization and test fixtures; ordinary code gets
    /// ids from the builder or taxonomy queries.
    #[inline]
    pub fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// The raw arena index.
    #[inline]
    pub fn raw(self) -> u32 {
        self.0
    }

    /// The raw index widened to `usize` for slice indexing.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn raw_round_trip() {
        let id = NodeId::from_raw(42);
        assert_eq!(id.raw(), 42);
        assert_eq!(id.index(), 42);
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(NodeId::from_raw(7).to_string(), "n7");
    }

    #[test]
    fn ordering_follows_raw_index() {
        assert!(NodeId::from_raw(1) < NodeId::from_raw(2));
    }

    #[test]
    fn json_is_transparent() {
        let id = NodeId::from_raw(9);
        let json = taxoglimpse_json::to_string(&id).unwrap();
        assert_eq!(json, "9");
        let back: NodeId = taxoglimpse_json::from_str(&json).unwrap();
        assert_eq!(back, id);
    }
}
