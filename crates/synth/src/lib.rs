//! # taxoglimpse-synth
//!
//! Synthetic data substrate for the TaxoGlimpse reproduction.
//!
//! The paper evaluates on ten real, crawled taxonomies (Google, Amazon and
//! eBay product categories, Schema.org, ACM-CCS, GeoNames, Glottolog,
//! ICD-10-CM, OAE, NCBI). Those cannot be fetched in this offline build,
//! so this crate generates deterministic synthetic stand-ins that
//! reproduce every structural property the benchmark's analysis relies
//! on:
//!
//! * the exact per-level node counts, level counts and tree counts of the
//!   paper's Table 1 ([`profiles`]),
//! * each domain's name *morphology* — Latin binomials whose species name
//!   embeds the genus name (NCBI), `"<X> AE"` suffix overlap between
//!   parent and child (OAE), ICD chapter codes, CamelCase Schema types,
//!   compound product noun phrases, language-family suffixes
//!   ([`morphology`], [`names`]),
//! * instances under leaf concepts for the instance-typing study
//!   ([`instances`]),
//! * the popularity ordering of Figure 2 ([`popularity`]).
//!
//! Everything is seeded: the same `(kind, GenOptions)` always produces an
//! identical taxonomy, byte for byte.
//!
//! ```
//! use taxoglimpse_synth::{generate, GenOptions, TaxonomyKind};
//!
//! let tax = generate(TaxonomyKind::Ebay, GenOptions::default()).unwrap();
//! // eBay's Table-1 shape is 13-110-472 over 13 trees.
//! assert_eq!(tax.roots().len(), 13);
//! assert_eq!(tax.len(), 595);
//! ```

#![warn(missing_docs)]

pub mod drift;
pub mod generator;
pub mod instances;
pub mod kind;
pub mod morphology;
pub mod names;
pub mod popularity;
pub mod profiles;
pub mod rng;
pub mod shape;

pub use generator::{generate, GenError, GenOptions, SEQ_STREAM_VERSION};
pub use instances::InstanceGenerator;
pub use kind::TaxonomyKind;
pub use popularity::PopularityModel;
pub use profiles::TaxonomyProfile;
