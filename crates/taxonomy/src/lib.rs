//! # taxoglimpse-taxonomy
//!
//! Arena-backed taxonomy (Is-A forest) substrate for the TaxoGlimpse
//! benchmark reproduction.
//!
//! A [`Taxonomy`] is a forest of rooted trees where each node carries a
//! display name and a level (roots are level 0, children of a level-`k`
//! node are level `k + 1`). The structure supports the exact queries the
//! benchmark's question-design methodology needs:
//!
//! * O(1) parent lookup ([`Taxonomy::parent`]),
//! * ancestor chains up to the root ([`Taxonomy::ancestors`]),
//! * siblings and **uncles** — siblings of the parent, the paper's hard
//!   negatives ([`Taxonomy::siblings`], [`Taxonomy::uncles`]),
//! * per-level node indexes ([`Taxonomy::nodes_at_level`]),
//! * whole-forest statistics matching the paper's Table 1
//!   ([`stats::TaxonomyStats`]).
//!
//! Construction goes through [`TaxonomyBuilder`], which enforces the
//! structural invariants (no cycles, consistent levels); [`validate()`]
//! re-checks them on any instance.
//!
//! ```
//! use taxoglimpse_taxonomy::TaxonomyBuilder;
//!
//! let mut b = TaxonomyBuilder::new("demo");
//! let root = b.add_root("Electronics");
//! let audio = b.add_child(root, "Audio");
//! let hp = b.add_child(audio, "Headphones");
//! let tax = b.build().unwrap();
//!
//! assert_eq!(tax.level(hp), 2);
//! assert_eq!(tax.parent(hp), Some(audio));
//! assert_eq!(tax.ancestors(hp), vec![audio, root]);
//! ```

#![warn(missing_docs)]

pub mod arena;
pub mod binary;
pub mod builder;
pub mod diff;
pub mod edit;
pub mod index;
pub mod io;
pub mod node;
pub mod snapshot;
pub mod stats;
pub mod traversal;
pub mod validate;

pub use arena::Taxonomy;
pub use builder::{BuildError, TaxonomyBuilder};
pub use index::NameIndex;
pub use node::NodeId;
pub use snapshot::SnapshotStore;
pub use stats::TaxonomyStats;
pub use validate::{validate, ValidationError};
