//! Whole-taxonomy generation.
//!
//! [`generate`] consumes one sequential name stream in node order over an
//! allocation-free production engine. Its byte output is pinned by digest
//! tests and must never change: it is the substrate under every pinned
//! report digest in the workspace.

use crate::kind::TaxonomyKind;
use crate::names::Namer;
use crate::profiles::TaxonomyProfile;
use crate::rng::{fork, SynthRng};
use crate::shape::assign_children;
use std::fmt;
use taxoglimpse_taxonomy::{NodeId, Taxonomy, TaxonomyBuilder};

/// Options controlling generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenOptions {
    /// Master seed; every derived stream is forked from it.
    pub seed: u64,
    /// Scale factor in `(0, 1]` applied to the per-level node counts.
    /// `1.0` reproduces Table 1 exactly; tests use small scales.
    pub scale: f64,
}

impl Default for GenOptions {
    fn default() -> Self {
        GenOptions { seed: DEFAULT_SEED, scale: 1.0 }
    }
}

/// Seed used by [`GenOptions::default`]; chosen arbitrarily and fixed so
/// the default generation is reproducible across releases.
pub const DEFAULT_SEED: u64 = 0x7a_6c_1a_9e_5e_ed_00_01;

/// Stream version of [`generate`]. Snapshot cache keys embed it
/// (alongside the binary codec version) so a stream change invalidates
/// cached taxonomies. A future stream change must bump it to 3, not 2:
/// 2 named the removed chunk-indexed parallel stream.
pub const SEQ_STREAM_VERSION: u32 = 1;

/// Generation failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GenError {
    /// Scale outside `(0, 1]`.
    BadScale,
}

impl fmt::Display for GenError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GenError::BadScale => write!(f, "scale must be in (0, 1]"),
        }
    }
}

impl std::error::Error for GenError {}

/// Generate the synthetic stand-in for `kind`.
///
/// Deterministic: identical `(kind, options)` produce byte-identical
/// taxonomies.
pub fn generate(kind: TaxonomyKind, options: GenOptions) -> Result<Taxonomy, GenError> {
    generate_profile(&TaxonomyProfile::of(kind), options)
}

/// One name probed and accepted into a sibling scope. The buffer holds
/// winner names back to back; `spans` lists them in birth order, and
/// `table` is an epoch-stamped open-addressing set of `(name hash, span
/// index)` used for membership probes — the same membership semantics
/// as the old per-parent `BTreeSet<String>`, with zero per-candidate
/// allocation and O(1) probes. A slot belongs to the current scope only
/// if its epoch stamp matches, so "clearing" between the millions of
/// per-parent scopes is a counter bump, not a table wipe. Name bytes
/// are compared only on hash equality, which matters because sibling
/// names often share long prefixes (every NCBI species under one genus
/// starts with the genus name). Neither the hash nor the probe order
/// can influence output bytes: the table answers only the exact
/// membership question, and duplicates are confirmed byte-wise.
#[derive(Default)]
struct SiblingProber {
    buf: Vec<u8>,
    spans: Vec<(u32, u32)>,
    /// `(hash, span index, epoch)` slots; length is a power of two.
    table: Vec<(u64, u32, u32)>,
    /// Stamp identifying the current scope's live slots.
    epoch: u32,
    /// Index into `spans` where the current scope begins.
    scope_start: usize,
    /// Small scopes skip hashing and byte-compare against the scope's
    /// accepted spans directly. Membership decisions are identical to
    /// the table path (both end in an exact byte comparison), so the
    /// mode never influences output bytes — only probe cost.
    linear: bool,
}

/// Families at or below this size use the linear probe path. Most real
/// taxonomy levels have small fan-out, and a handful of byte compares
/// (which nearly always fail on the first byte between random names)
/// beats hashing every candidate.
const LINEAR_SCOPE_MAX: usize = 12;

/// Seed for sibling-membership hashing; any fixed value works (the hash
/// never influences output bytes, only table placement).
const SIBLING_HASH_SEED: u64 = 0x51B_11A6;

/// Membership hash over whole 8-byte words — the probe set is consulted
/// once per candidate name, so this runs on every generated node.
#[inline]
fn sib_hash(bytes: &[u8]) -> u64 {
    const M: u64 = 0x2545_F491_4F6C_DD1D;
    let mut h = SIBLING_HASH_SEED ^ (bytes.len() as u64).wrapping_mul(M);
    let mut chunks = bytes.chunks_exact(8);
    for c in chunks.by_ref() {
        let w = u64::from_le_bytes(c.try_into().expect("chunks_exact yields 8 bytes"));
        h = (h ^ w).wrapping_mul(M);
        h ^= h >> 29;
    }
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut w = [0u8; 8];
        w[..rem.len()].copy_from_slice(rem);
        h = (h ^ u64::from_le_bytes(w)).wrapping_mul(M);
        h ^= h >> 29;
    }
    h ^ (h >> 32)
}

impl SiblingProber {
    fn clear(&mut self) {
        self.buf.clear();
        self.spans.clear();
    }

    fn names(&self) -> impl Iterator<Item = &str> {
        self.spans.iter().map(|&(s, e)| {
            std::str::from_utf8(&self.buf[s as usize..e as usize])
                .expect("generated names are valid UTF-8")
        })
    }

    /// Open a fresh uniqueness scope that will accept `expected` names.
    /// Must be called before any [`SiblingProber::accept`]; sizes the
    /// table to at most 50% load so probe chains stay short.
    fn begin_scope(&mut self, expected: usize) {
        self.scope_start = self.spans.len();
        self.linear = expected <= LINEAR_SCOPE_MAX;
        if self.linear {
            return;
        }
        let need = (expected.max(4) * 2).next_power_of_two();
        if self.table.len() < need || self.epoch == u32::MAX {
            let size = need.max(self.table.len());
            self.table.clear();
            self.table.resize(size, (0, 0, 0));
            self.epoch = 1;
        } else {
            self.epoch += 1;
        }
    }

    /// If the candidate occupying `buf[start..]` is new in the current
    /// scope, keep it and return true; otherwise truncate it away.
    fn accept(&mut self, start: usize) -> bool {
        let bytes = self.buf.as_slice();
        let cand = &bytes[start..];
        if self.linear {
            for &(s, e) in &self.spans[self.scope_start..] {
                if &bytes[s as usize..e as usize] == cand {
                    self.buf.truncate(start);
                    return false;
                }
            }
            self.spans.push((start as u32, self.buf.len() as u32));
            return true;
        }
        let hash = sib_hash(cand);
        let mask = self.table.len() - 1;
        let mut i = (hash as usize) & mask;
        loop {
            let (h, si, ep) = self.table[i];
            if ep != self.epoch {
                // First free slot: the candidate is new to this scope.
                self.table[i] = (hash, self.spans.len() as u32, self.epoch);
                self.spans.push((start as u32, self.buf.len() as u32));
                return true;
            }
            if h == hash {
                let (s, e) = self.spans[si as usize];
                if &bytes[s as usize..e as usize] == cand {
                    self.buf.truncate(start);
                    return false;
                }
            }
            i = (i + 1) & mask;
        }
    }

    /// Append a sibling-unique name produced by `make` (which appends a
    /// candidate to the buffer; `attempt` counts retries). Byte-for-byte
    /// the semantics of the original `unique_name`: up to 16 fresh draws
    /// (decorated with an ordinal from attempt 4 on), then a certain
    /// numeric-suffix fallback scanned upward from the sibling count.
    fn unique_into(&mut self, mut make: impl FnMut(&mut Vec<u8>, usize)) {
        for attempt in 0..16 {
            let start = self.buf.len();
            make(&mut self.buf, attempt);
            if self.accept(start) {
                return;
            }
        }
        // Certain fallback: a numeric suffix scanned upward from the
        // sibling count is guaranteed to terminate. Cold path, so the
        // per-iteration format allocation is irrelevant.
        let start = self.buf.len();
        make(&mut self.buf, 0);
        let base_end = self.buf.len();
        let mut k = self.spans.len();
        loop {
            self.buf.truncate(base_end);
            self.buf.extend_from_slice(format!(" #{k}").as_bytes());
            if self.accept(start) {
                return;
            }
            k += 1;
        }
    }
}

/// Attempts 0–3 are the base name unchanged (fresh draws); afterwards
/// append a disambiguating ordinal so termination is certain. The
/// ordinal is `attempt - 2`, which is at most 13 — two decimal digits.
fn decorate_into(buf: &mut Vec<u8>, attempt: usize) {
    if attempt >= 4 {
        let v = attempt - 2;
        buf.push(b' ');
        if v >= 10 {
            buf.push(b'0' + (v / 10) as u8);
        }
        buf.push(b'0' + (v % 10) as u8);
    }
}

/// Produce the children of one contiguous run of parents (ids
/// `first_parent..first_parent + per_parent.len()`) into `prober`
/// (names) and `counts` (children per parent, aligned with the run),
/// drawing every name from `rng`. [`generate_profile`] calls it once per
/// level with the continuous sequential stream. Parent names are read
/// straight out of the builder's arena — production only needs
/// `&TaxonomyBuilder`, so no per-level copy of the frontier's names is
/// made.
#[allow(clippy::too_many_arguments)]
fn produce_run(
    namer: &Namer,
    rng: &mut SynthRng,
    level: usize,
    b: &TaxonomyBuilder,
    first_parent: u32,
    per_parent: &[usize],
    prober: &mut SiblingProber,
    scratch: &mut Vec<u8>,
    counts: &mut Vec<u32>,
) {
    counts.clear();
    prober.clear();
    for (slot, &n_children) in per_parent.iter().enumerate() {
        counts.push(n_children as u32);
        if n_children == 0 {
            continue;
        }
        let parent = b.name_of(NodeId::from_raw(first_parent + slot as u32));
        // Per-parent sibling scope: the probe set covers only this
        // parent's accepted names (which stay in the buffer for the
        // splice); opening the next scope retires it in O(1).
        prober.begin_scope(n_children);
        for sib in 0..n_children {
            prober.unique_into(|buf, attempt| {
                namer.child_into(buf, scratch, rng, level, parent, sib);
                decorate_into(buf, attempt);
            });
        }
    }
}

/// Produce `count` root names into `prober` under one shared uniqueness
/// scope (root names are globally unique across the forest).
fn produce_roots(
    namer: &Namer,
    rng: &mut SynthRng,
    count: usize,
    prober: &mut SiblingProber,
    scratch: &mut Vec<u8>,
) {
    prober.clear();
    prober.begin_scope(count);
    for i in 0..count {
        prober.unique_into(|buf, attempt| {
            namer.root_into(buf, scratch, rng, i);
            decorate_into(buf, attempt);
        });
    }
}

/// Generate from an explicit profile (exposed for custom shapes).
pub fn generate_profile(profile: &TaxonomyProfile, options: GenOptions) -> Result<Taxonomy, GenError> {
    if !(options.scale > 0.0 && options.scale <= 1.0) {
        return Err(GenError::BadScale);
    }
    let levels = profile.scaled_levels(options.scale);
    let total: usize = levels.iter().sum();
    let namer = Namer::new(profile.regime);
    let label = profile.kind.label();
    let mut b = TaxonomyBuilder::with_capacity(label, total, 24);

    let mut name_rng = fork(options.seed, label, 0);
    let mut shape_rng = fork(options.seed, label, 1);

    let mut prober = SiblingProber::default();
    let mut scratch = Vec::new();
    let mut counts: Vec<u32> = Vec::new();

    // Roots.
    produce_roots(&namer, &mut name_rng, levels[0], &mut prober, &mut scratch);
    for name in prober.names() {
        b.add_root(name);
    }
    // Every level occupies a contiguous id range, so the frontier is
    // just a range — no per-level id vector is materialized.
    let mut frontier = 0..u32::try_from(b.len()).expect("root count fits u32");

    // Deeper levels: one continuous run per level over the whole
    // frontier, drawing from the single sequential name stream.
    for (level, &count) in levels.iter().enumerate().skip(1) {
        let per_parent = assign_children(&mut shape_rng, frontier.len(), count);
        produce_run(
            &namer,
            &mut name_rng,
            level,
            &b,
            frontier.start,
            &per_parent,
            &mut prober,
            &mut scratch,
            &mut counts,
        );
        frontier = splice_run(&mut b, frontier, &prober, &counts);
    }

    Ok(b.build().expect("profile depths are far below the builder limit"))
}

/// Append a produced run's names under their parents (a contiguous id
/// range) via the bulk builder API, returning the new children's id
/// range. The prober's buffer already holds every child name back to
/// back in final order, so the whole run lands as one name-block copy
/// plus column fills ([`TaxonomyBuilder::extend_level`]) — no per-name
/// appends.
fn splice_run(
    b: &mut TaxonomyBuilder,
    parents: std::ops::Range<u32>,
    prober: &SiblingProber,
    counts: &[u32],
) -> std::ops::Range<u32> {
    // One UTF-8 validation per run (fast ASCII path) instead of one per
    // fragment: production appends raw bytes, the splice re-checks.
    let names = std::str::from_utf8(&prober.buf).expect("generated names are valid UTF-8");
    b.extend_level(parents, counts, names, &prober.spans)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_taxonomy::{validate, TaxonomyStats};

    fn opts(scale: f64) -> GenOptions {
        GenOptions { seed: 42, scale }
    }

    #[test]
    fn ebay_matches_table_1_exactly() {
        let t = generate(TaxonomyKind::Ebay, opts(1.0)).unwrap();
        validate(&t).unwrap();
        let s = TaxonomyStats::compute(&t);
        assert_eq!(s.num_entities, 595);
        assert_eq!(s.num_trees, 13);
        assert_eq!(s.nodes_per_level, vec![13, 110, 472]);
    }

    #[test]
    fn google_matches_table_1_exactly() {
        let t = generate(TaxonomyKind::Google, opts(1.0)).unwrap();
        validate(&t).unwrap();
        let s = TaxonomyStats::compute(&t);
        assert_eq!(s.nodes_per_level, vec![21, 192, 1349, 2203, 1830]);
    }

    #[test]
    fn all_kinds_generate_at_small_scale() {
        for kind in TaxonomyKind::ALL {
            let t = generate(kind, opts(0.01)).unwrap();
            validate(&t).unwrap();
            assert!(!t.is_empty(), "{kind}");
            assert_eq!(
                t.num_levels(),
                TaxonomyProfile::of(kind).num_levels(),
                "{kind} should keep its depth even when scaled"
            );
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate(TaxonomyKind::Glottolog, opts(0.05)).unwrap();
        let b = generate(TaxonomyKind::Glottolog, opts(0.05)).unwrap();
        assert_eq!(a.to_tsv(), b.to_tsv());
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(TaxonomyKind::Ebay, GenOptions { seed: 1, scale: 1.0 }).unwrap();
        let b = generate(TaxonomyKind::Ebay, GenOptions { seed: 2, scale: 1.0 }).unwrap();
        assert_ne!(a.to_tsv(), b.to_tsv());
    }

    #[test]
    fn sibling_names_are_unique() {
        let t = generate(TaxonomyKind::Oae, opts(0.2)).unwrap();
        for id in t.ids() {
            let kids = t.children(id);
            let mut names: Vec<&str> = kids.iter().map(|&k| t.name(k)).collect();
            names.sort_unstable();
            let before = names.len();
            names.dedup();
            assert_eq!(names.len(), before, "duplicate sibling names under {}", t.name(id));
        }
    }

    #[test]
    fn most_nodes_have_uncles() {
        // Hard-negative sampling needs uncles; the shape algorithm should
        // make them near-universal.
        let t = generate(TaxonomyKind::Amazon, opts(0.1)).unwrap();
        let mut with = 0usize;
        let mut total = 0usize;
        for level in 1..t.num_levels() {
            for &id in t.nodes_at_level(level) {
                total += 1;
                if !t.uncles(id).is_empty() {
                    with += 1;
                }
            }
        }
        assert!(with as f64 / total as f64 > 0.95, "{with}/{total} nodes have uncles");
    }

    #[test]
    fn ncbi_species_level_names_embed_genus() {
        let t = generate(TaxonomyKind::Ncbi, opts(0.002)).unwrap();
        let species_level = t.num_levels() - 1;
        let mut embeds = 0usize;
        let nodes = t.nodes_at_level(species_level);
        for &id in nodes {
            let parent = t.parent(id).unwrap();
            if t.name(id).starts_with(t.name(parent)) {
                embeds += 1;
            }
        }
        assert!(
            embeds as f64 / nodes.len() as f64 > 0.9,
            "{embeds}/{} species embed the genus",
            nodes.len()
        );
    }

    #[test]
    fn bad_scale_is_rejected() {
        assert_eq!(generate(TaxonomyKind::Ebay, opts(0.0)).unwrap_err(), GenError::BadScale);
        assert_eq!(generate(TaxonomyKind::Ebay, opts(1.5)).unwrap_err(), GenError::BadScale);
    }
}

