//! Compact binary serialization.
//!
//! The JSON/TSV formats are human-friendly but bulky: the full NCBI
//! forest (2.19M nodes) is ~90 MB of JSON. This length-prefixed binary
//! codec stores the same flat representation in roughly `names + 9
//! bytes/node`, encodes/decodes in one pass, and validates structure on
//! load.
//!
//! Version 2 layout (all integers little-endian):
//!
//! ```text
//! magic      : b"TAXG"
//! version    : u16 (currently 2)
//! label      : u32 length + utf-8 bytes
//! n          : u64 node count
//! parents    : n × u32            (u32::MAX = root)
//! name_bytes : u64 total bytes of name data
//! offsets    : (n + 1) × u32      (name i = name_buf[offsets[i]..offsets[i+1]])
//! name_buf   : name_bytes of utf-8 (one contiguous block)
//! ```
//!
//! Storing the name arena as one contiguous block with an offset table
//! lets the loader slurp all names with a single allocation and a single
//! UTF-8 validation pass — no per-name `String` — which is what makes
//! snapshot-load an order of magnitude faster than regeneration for the
//! NCBI-scale forest.
//!
//! When every parent index precedes its child (true for anything this
//! crate's writer emits, since the builder can only attach children to
//! existing nodes), the v2 loader reconstructs levels, the CSR child
//! list, and the per-level index directly from the columns without the
//! `from_edges` re-insertion pass, preserving node order exactly. Files
//! with forward parent references fall back to the validating
//! `from_edges` path (full dangling/cycle detection).
//!
//! Version 2 is the only version written or read; any other version
//! fails as [`BinaryError::BadVersion`].

use crate::arena::{Taxonomy, NO_PARENT};
use crate::builder::{BuildError, TaxonomyBuilder};
use crate::node::NodeId;
use std::fmt;

pub(crate) const MAGIC: &[u8; 4] = b"TAXG";
const VERSION_V2: u16 = 2;

/// Current write-side codec version. Snapshot cache keys embed this so a
/// codec change invalidates cached files instead of misreading them.
pub const CODEC_VERSION: u16 = VERSION_V2;

/// Binary decode errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BinaryError {
    /// Missing or wrong magic bytes.
    BadMagic,
    /// Unsupported format version.
    BadVersion(u16),
    /// The buffer ended before the declared content.
    Truncated,
    /// A name was not valid UTF-8.
    BadUtf8,
    /// The v2 offset table is inconsistent (non-monotonic, out of range,
    /// or splitting a UTF-8 sequence).
    BadOffsets,
    /// Bytes follow the name block.
    TrailingBytes,
    /// Structure failed validation after decode.
    Build(BuildError),
}

impl fmt::Display for BinaryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinaryError::BadMagic => write!(f, "not a TAXG binary taxonomy"),
            BinaryError::BadVersion(v) => write!(f, "unsupported TAXG version {v}"),
            BinaryError::Truncated => write!(f, "buffer ends before declared content"),
            BinaryError::BadUtf8 => write!(f, "name is not valid UTF-8"),
            BinaryError::BadOffsets => write!(f, "name offset table is inconsistent"),
            BinaryError::TrailingBytes => write!(f, "bytes follow the name block"),
            BinaryError::Build(e) => write!(f, "structure error: {e}"),
        }
    }
}

impl std::error::Error for BinaryError {}

impl Taxonomy {
    /// Encode into the TAXG binary format (current version).
    pub fn to_binary(&self) -> Vec<u8> {
        let n = self.len();
        let mut buf = Vec::with_capacity(
            4 + 2 + 4 + self.label().len() + 8 + n * 4 + 8 + (n + 1) * 4 + self.name_bytes(),
        );
        buf.extend_from_slice(MAGIC);
        buf.extend_from_slice(&VERSION_V2.to_le_bytes());
        buf.extend_from_slice(&(self.label().len() as u32).to_le_bytes());
        buf.extend_from_slice(self.label().as_bytes());
        buf.extend_from_slice(&(n as u64).to_le_bytes());
        for &p in &self.parent {
            buf.extend_from_slice(&p.to_le_bytes());
        }
        buf.extend_from_slice(&(self.name_buf.len() as u64).to_le_bytes());
        // Spans are contiguous by construction (each name starts where
        // the previous one ends), so n + 1 offsets describe all of them.
        buf.extend_from_slice(&0u32.to_le_bytes());
        for &(_, end) in &self.name_spans {
            buf.extend_from_slice(&end.to_le_bytes());
        }
        buf.extend_from_slice(self.name_buf.as_bytes());
        buf
    }

    /// Decode from the TAXG binary format (with full structural
    /// validation).
    pub fn from_binary(bytes: &[u8]) -> Result<Self, BinaryError> {
        let mut buf = bytes;
        if buf.len() < 4 || &buf[..4] != MAGIC {
            return Err(BinaryError::BadMagic);
        }
        buf = &buf[4..];
        let version = get_u16(&mut buf)?;
        if version != VERSION_V2 {
            return Err(BinaryError::BadVersion(version));
        }
        let decoded = decode_v2(buf, None, None)?;
        Ok(materialize_names(decoded, |range| {
            String::from_utf8(buf[range].to_vec())
                .expect("decode_v2 validated the name block as UTF-8")
        }))
    }
}

/// Decode a v2 payload whose name block was read into its own buffer:
/// `head` is the payload from magic through the offset table, `names`
/// the name block, which becomes the taxonomy's name arena without a
/// copy. Snapshot loading stages its file reads this way so an
/// NCBI-scale name arena (~38 MB) is never moved after leaving the
/// kernel.
///
/// `names_ascii`, when `Some`, must equal `names.is_ascii()` — the
/// loader computes it over each slice while the bytes are still cache
/// warm, sparing the decoder a cold rescan. A wrong `Some(true)` would
/// skip UTF-8 validation, so only pass a value actually derived from
/// `names`' bytes.
pub(crate) fn from_binary_split(
    head: &[u8],
    names: Vec<u8>,
    names_ascii: Option<bool>,
) -> Result<Taxonomy, BinaryError> {
    if head.len() < 6 || &head[..4] != MAGIC {
        return Err(BinaryError::BadMagic);
    }
    let version = u16::from_le_bytes([head[4], head[5]]);
    if version != VERSION_V2 {
        return Err(BinaryError::BadVersion(version));
    }
    let decoded = decode_v2(&head[6..], Some(&names), names_ascii)?;
    Ok(materialize_names(decoded, move |range| {
        debug_assert_eq!(range, 0..names.len());
        debug_assert!(std::str::from_utf8(&names).is_ok());
        // SAFETY: decode_v2 validated the full name block as UTF-8.
        unsafe { String::from_utf8_unchecked(names) }
    }))
}

/// A decoded v2 taxonomy whose name arena has not been materialized yet:
/// `name_range` locates the validated UTF-8 name block — relative to
/// the bytes after magic+version for an inline decode, or within the
/// separate block for a split decode — and is `None` when the fallback
/// path already produced a complete taxonomy.
struct DecodedV2 {
    taxonomy: Taxonomy,
    name_range: Option<std::ops::Range<usize>>,
}

fn materialize_names(
    decoded: DecodedV2,
    make: impl FnOnce(std::ops::Range<usize>) -> String,
) -> Taxonomy {
    let DecodedV2 { mut taxonomy, name_range } = decoded;
    if let Some(range) = name_range {
        taxonomy.name_buf = make(range);
    }
    taxonomy
}

/// The v2 decoder: `rest` holds everything after magic+version, and
/// the name block either follows the offset table inside `rest`
/// (`split_names: None`) or was staged into its own buffer
/// (`Some(block)`), whose length must match the declared count.
/// `ascii_hint` is the caller's precomputed `is_ascii()` of the split
/// name block, if it has one (see [`from_binary_split`]).
fn decode_v2(
    rest: &[u8],
    split_names: Option<&[u8]>,
    ascii_hint: Option<bool>,
) -> Result<DecodedV2, BinaryError> {
    let mut cursor = rest;
    let buf = &mut cursor;
    let label = get_string(buf)?;
    let n = get_u64(buf)? as usize;
    if n > u32::MAX as usize {
        return Err(BinaryError::Build(BuildError::TooManyNodes));
    }
    // `take` checks that the bytes behind the count are present before
    // anything `n`-sized is allocated: an adversarial count fails here as
    // `Truncated` instead of requesting a huge allocation. A byte length
    // that overflows `usize` (possible where it is 32 bits) is one too.
    let parent_bytes = take(buf, n.checked_mul(4).ok_or(BinaryError::Truncated)?)?;
    let parent: Vec<u32> = parent_bytes
        .chunks_exact(4)
        .map(|chunk| u32::from_le_bytes(chunk.try_into().expect("chunks_exact yields 4 bytes")))
        .collect();

    let name_bytes = get_u64(buf)? as usize;
    let offsets_len = n.checked_add(1).and_then(|entries| entries.checked_mul(4));
    let offset_bytes = take(buf, offsets_len.ok_or(BinaryError::Truncated)?)?;
    // The name block must actually be present before we use it.
    let (name_start, name_block) = match split_names {
        None => {
            if buf.len() < name_bytes {
                return Err(BinaryError::Truncated);
            }
            let start = rest.len() - buf.len();
            (start, take(buf, name_bytes)?)
        }
        Some(block) => {
            if block.len() != name_bytes {
                return Err(BinaryError::Truncated);
            }
            (0, block)
        }
    };
    if !buf.is_empty() {
        return Err(BinaryError::TrailingBytes);
    }
    // ASCII blocks (the common case for generated taxonomies) are
    // trivially valid UTF-8 and make every offset a char boundary, so
    // one SIMD-friendly `is_ascii` scan replaces both the full UTF-8
    // validation and the per-span boundary checks below.
    let ascii = match (split_names, ascii_hint) {
        (Some(_), Some(hint)) => {
            debug_assert_eq!(hint, name_block.is_ascii(), "caller-supplied ASCII hint must match");
            hint
        }
        _ => name_block.is_ascii(),
    };
    let name_str = if ascii {
        // SAFETY: ASCII is a strict subset of UTF-8.
        unsafe { std::str::from_utf8_unchecked(name_block) }
    } else {
        std::str::from_utf8(name_block).map_err(|_| BinaryError::BadUtf8)?
    };

    // Offsets: first = 0, last = name_bytes, monotonic (which together
    // bound every span by name_bytes), each on a char boundary. The
    // monotonicity flag is folded instead of branch-per-span so the
    // span-building loop stays vectorizable.
    let off_at = |i: usize| {
        u32::from_le_bytes(
            offset_bytes[i * 4..i * 4 + 4].try_into().expect("offset table holds n + 1 entries"),
        )
    };
    if off_at(0) != 0 || off_at(n) as usize != name_bytes {
        return Err(BinaryError::BadOffsets);
    }
    let mut name_spans: Vec<(u32, u32)> = Vec::with_capacity(n);
    let mut monotonic = true;
    let mut prev = 0u32;
    name_spans.extend(offset_bytes[4..].chunks_exact(4).map(|chunk| {
        let end = u32::from_le_bytes(chunk.try_into().expect("chunks_exact yields 4 bytes"));
        monotonic &= prev <= end;
        let span = (prev, end);
        prev = end;
        span
    }));
    if !monotonic {
        return Err(BinaryError::BadOffsets);
    }
    if !ascii {
        for &(start, end) in &name_spans {
            if !name_str.is_char_boundary(start as usize)
                || !name_str.is_char_boundary(end as usize)
            {
                return Err(BinaryError::BadOffsets);
            }
        }
    }

    // One fused forward pass over the parent column: rejects
    // out-of-range parents, detects forward references (which drop to
    // the validating from_edges fallback), derives levels and child
    // counts (parents always precede children on this path), and tracks
    // two writer-shape properties that unlock the fast constructions
    // below — non-root parents globally non-decreasing (scatter-free
    // CSR) and a non-decreasing level column (range-fill per-level
    // index). Both hold for anything this crate's builder emits, where
    // every level is one contiguous id range.
    let mut ordered = true;
    let mut parents_sorted = true;
    let mut prev_parent = 0u32;
    let mut level = Vec::with_capacity(n);
    let mut roots = Vec::new();
    let mut child_count = vec![0u32; n];
    let mut depth = 0usize;
    let mut levels_sorted = true;
    let mut prev_level = 0u8;
    for (i, &p) in parent.iter().enumerate() {
        let l = if p == NO_PARENT {
            roots.push(NodeId(i as u32));
            0u8
        } else {
            if p as usize >= n {
                return Err(BinaryError::Build(BuildError::DanglingParent {
                    child: i,
                    parent: p as usize,
                }));
            }
            if p as usize >= i {
                ordered = false;
                break;
            }
            parents_sorted &= p >= prev_parent;
            prev_parent = p;
            let l = level[p as usize] as usize + 1;
            if l >= TaxonomyBuilder::MAX_LEVELS {
                let (s, e) = name_spans[i];
                return Err(BinaryError::Build(BuildError::TooDeep {
                    name: name_str[s as usize..e as usize].to_owned(),
                }));
            }
            child_count[p as usize] += 1;
            depth = depth.max(l);
            l as u8
        };
        levels_sorted &= l >= prev_level;
        prev_level = l;
        level.push(l);
    }
    if !ordered {
        // Forward reference: re-insert through the builder, which
        // performs full dangling/cycle detection on the whole edge set.
        let names: Vec<String> =
            name_spans.iter().map(|&(s, e)| name_str[s as usize..e as usize].to_owned()).collect();
        let parents: Vec<Option<usize>> =
            parent.iter().map(|&p| (p != NO_PARENT).then_some(p as usize)).collect();
        let taxonomy =
            TaxonomyBuilder::from_edges(label, &names, &parents).map_err(BinaryError::Build)?;
        return Ok(DecodedV2 { taxonomy, name_range: None });
    }

    // CSR child lists: prefix-sum the counts, then place children. When
    // parents are non-decreasing, children grouped by parent are exactly
    // the non-root ids in id order — a sequential fill instead of the
    // cursor-clone + scatter of the general case.
    let mut child_off = Vec::with_capacity(n + 1);
    let mut acc = 0u32;
    child_off.push(0);
    for &c in &child_count {
        acc += c;
        child_off.push(acc);
    }
    let child_list: Vec<NodeId> = if parents_sorted {
        let mut list = Vec::with_capacity(acc as usize);
        list.extend(
            parent
                .iter()
                .enumerate()
                .filter(|&(_, &p)| p != NO_PARENT)
                .map(|(i, _)| NodeId(i as u32)),
        );
        list
    } else {
        let mut cursor = child_off.clone();
        let mut list = vec![NodeId(0); acc as usize];
        for (i, &p) in parent.iter().enumerate() {
            if p != NO_PARENT {
                let slot = cursor[p as usize];
                list[slot as usize] = NodeId(i as u32);
                cursor[p as usize] += 1;
            }
        }
        list
    };

    let levels_present = if n == 0 { 0 } else { depth + 1 };
    let by_level: Vec<Vec<NodeId>> = if levels_sorted {
        // Non-decreasing level column: each level is one contiguous id
        // range, located by walking the column once.
        let mut by_level = Vec::with_capacity(levels_present);
        let mut start = 0usize;
        for l in 0..levels_present {
            let mut end = start;
            while end < n && level[end] as usize == l {
                end += 1;
            }
            by_level.push((start..end).map(|i| NodeId(i as u32)).collect());
            start = end;
        }
        by_level
    } else {
        let mut counts = vec![0usize; levels_present];
        for &l in &level {
            counts[l as usize] += 1;
        }
        let mut by_level: Vec<Vec<NodeId>> =
            counts.into_iter().map(Vec::with_capacity).collect();
        for (i, &l) in level.iter().enumerate() {
            by_level[l as usize].push(NodeId(i as u32));
        }
        by_level
    };

    let taxonomy = Taxonomy {
        label,
        name_buf: String::new(),
        name_spans,
        parent,
        level,
        child_off,
        child_list,
        roots,
        by_level,
    };
    Ok(DecodedV2 { taxonomy, name_range: Some(name_start..name_start + name_bytes) })
}

/// Split `n` bytes off the front of the cursor, or fail as truncated.
fn take<'a>(buf: &mut &'a [u8], n: usize) -> Result<&'a [u8], BinaryError> {
    if buf.len() < n {
        return Err(BinaryError::Truncated);
    }
    let (head, tail) = buf.split_at(n);
    *buf = tail;
    Ok(head)
}

fn get_u16(buf: &mut &[u8]) -> Result<u16, BinaryError> {
    take(buf, 2).map(|b| u16::from_le_bytes(b.try_into().expect("take() yielded exactly 2 bytes")))
}

fn get_u32(buf: &mut &[u8]) -> Result<u32, BinaryError> {
    take(buf, 4).map(|b| u32::from_le_bytes(b.try_into().expect("take() yielded exactly 4 bytes")))
}

fn get_u64(buf: &mut &[u8]) -> Result<u64, BinaryError> {
    take(buf, 8).map(|b| u64::from_le_bytes(b.try_into().expect("take() yielded exactly 8 bytes")))
}

fn get_string(buf: &mut &[u8]) -> Result<String, BinaryError> {
    let len = get_u32(buf)? as usize;
    let bytes = take(buf, len)?;
    std::str::from_utf8(bytes).map(str::to_owned).map_err(|_| BinaryError::BadUtf8)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{validate, TaxonomyBuilder};

    fn sample() -> Taxonomy {
        let mut b = TaxonomyBuilder::new("bin-fixture");
        let r = b.add_root("Root α"); // non-ASCII on purpose
        let a = b.add_child(r, "Child A");
        b.add_child(a, "Grand");
        b.add_child(r, "Child B");
        b.build().unwrap()
    }

    #[test]
    fn round_trip() {
        let t = sample();
        let bytes = t.to_binary();
        let back = Taxonomy::from_binary(&bytes).unwrap();
        validate(&back).unwrap();
        assert_eq!(back.label(), "bin-fixture");
        assert_eq!(back.len(), t.len());
        // The v2 fast path preserves node order exactly.
        for (a, b) in t.ids().zip(back.ids()) {
            assert_eq!(t.name(a), back.name(b));
            assert_eq!(t.level(a), back.level(b));
            assert_eq!(t.parent(a), back.parent(b));
            assert_eq!(t.children(a), back.children(b));
        }
        assert_eq!(t.roots(), back.roots());
        // A second encode→decode is a fixed point byte-for-byte.
        let twice = Taxonomy::from_binary(&back.to_binary()).unwrap();
        assert_eq!(twice.to_binary(), back.to_binary());
    }

    #[test]
    fn binary_is_smaller_than_json() {
        // The binary codec's per-node cost is a fixed 8 bytes (parent +
        // offset/length) where JSON pays quotes, commas, and the parent
        // index in decimal — so binary only wins once parent indices are
        // wide, i.e. at realistic node counts. Shape the fixture like a
        // scaled forest (wide levels referencing the previous level)
        // instead of a toy sample.
        let mut b = TaxonomyBuilder::with_capacity("size-fixture", 120_000, 8);
        const W: usize = 30_000;
        let mut prev: Vec<crate::NodeId> =
            (0..W).map(|i| b.add_root(&format!("Node {i}"))).collect();
        for _ in 0..3 {
            prev = prev.iter().map(|&p| b.add_child(p, "Child")).collect();
        }
        let t = b.build().unwrap();
        assert!(t.to_binary().len() < t.to_json().len());
    }

    #[test]
    fn rejects_garbage() {
        assert_eq!(Taxonomy::from_binary(b"nope").unwrap_err(), BinaryError::BadMagic);
        assert_eq!(Taxonomy::from_binary(b"").unwrap_err(), BinaryError::BadMagic);
    }

    #[test]
    fn rejects_wrong_version() {
        let t = sample();
        let mut bytes = t.to_binary().to_vec();
        bytes[4] = 99;
        assert_eq!(Taxonomy::from_binary(&bytes).unwrap_err(), BinaryError::BadVersion(99));
    }

    #[test]
    fn rejects_truncation_everywhere() {
        let t = sample();
        let bytes = t.to_binary();
        // Chop the buffer at every possible point past the magic; all
        // must fail cleanly (never panic), except the full length.
        for cut in 4..bytes.len() {
            let err = Taxonomy::from_binary(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(
                    err,
                    BinaryError::Truncated
                        | BinaryError::BadVersion(_)
                        | BinaryError::BadUtf8
                        | BinaryError::BadOffsets
                ),
                "cut at {cut}: {err:?}"
            );
        }
        assert!(Taxonomy::from_binary(&bytes).is_ok());
    }

    #[test]
    fn rejects_corrupted_parent_links() {
        let t = sample();
        let mut bytes = t.to_binary().to_vec();
        // Parent array starts after magic(4) + version(2) + label(4+11) +
        // count(8) = 29; point node 0's parent at a bogus index.
        let parent_off = 4 + 2 + 4 + t.label().len() + 8;
        bytes[parent_off..parent_off + 4].copy_from_slice(&1_000_000u32.to_le_bytes());
        assert!(matches!(
            Taxonomy::from_binary(&bytes).unwrap_err(),
            BinaryError::Build(BuildError::DanglingParent { .. })
        ));
    }

    #[test]
    fn forward_parent_reference_falls_back_to_validation() {
        let t = sample();
        let mut bytes = t.to_binary().to_vec();
        // Point node 1's parent at node 3 (a forward reference). The v2
        // fast path cannot resolve it; the from_edges fallback can — but
        // here it forms no valid order change, it's simply accepted and
        // re-levelled (3 is a child of 0, so 1 sits below it).
        let parent_off = 4 + 2 + 4 + t.label().len() + 8;
        bytes[parent_off + 4..parent_off + 8].copy_from_slice(&3u32.to_le_bytes());
        let back = Taxonomy::from_binary(&bytes).unwrap();
        validate(&back).unwrap();
        assert_eq!(back.len(), t.len());
        // And a forward reference that *also* forms a cycle is rejected.
        let mut cyc = t.to_binary().to_vec();
        cyc[parent_off..parent_off + 4].copy_from_slice(&1u32.to_le_bytes());
        cyc[parent_off + 4..parent_off + 8].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Taxonomy::from_binary(&cyc).unwrap_err(),
            BinaryError::Build(BuildError::Cycle { .. })
        ));
    }

    #[test]
    fn adversarial_length_prefix_fails_before_allocating() {
        // A tiny buffer declaring a huge node count is `Truncated`. This
        // checks only the error; that nothing count-sized is allocated
        // first is checked by `tests/bounded_alloc.rs`.
        let mut bytes = Vec::new();
        bytes.extend_from_slice(MAGIC);
        bytes.extend_from_slice(&VERSION_V2.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes()); // empty label
        bytes.extend_from_slice(&4_000_000_000u64.to_le_bytes()); // absurd n
        assert_eq!(Taxonomy::from_binary(&bytes).unwrap_err(), BinaryError::Truncated);

        // And a v2 name-block length far beyond the buffer: parents and
        // offsets are present, but name_bytes lies.
        let t = sample();
        let mut big = t.to_binary();
        let name_bytes_off = 4 + 2 + 4 + t.label().len() + 8 + t.len() * 4;
        big[name_bytes_off..name_bytes_off + 8].copy_from_slice(&(1u64 << 50).to_le_bytes());
        assert_eq!(Taxonomy::from_binary(&big).unwrap_err(), BinaryError::Truncated);
    }

    #[test]
    fn trailing_bytes_are_rejected() {
        let mut bytes = sample().to_binary();
        bytes.push(0);
        assert_eq!(Taxonomy::from_binary(&bytes).unwrap_err(), BinaryError::TrailingBytes);
    }

    #[test]
    fn rejects_bad_offset_table() {
        let t = sample();
        let bytes = t.to_binary();
        let offsets_off = 4 + 2 + 4 + t.label().len() + 8 + t.len() * 4 + 8;
        // Non-monotonic offsets.
        let mut bad = bytes.clone();
        bad[offsets_off + 4..offsets_off + 8].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(Taxonomy::from_binary(&bad).unwrap_err(), BinaryError::BadOffsets);
        // First offset must be 0.
        let mut bad = bytes.clone();
        bad[offsets_off..offsets_off + 4].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(Taxonomy::from_binary(&bad).unwrap_err(), BinaryError::BadOffsets);
        // Splitting the 2-byte "α" in "Root α" (span 0..7, α at 5..7).
        let mut bad = bytes;
        bad[offsets_off + 4..offsets_off + 8].copy_from_slice(&6u32.to_le_bytes());
        assert_eq!(Taxonomy::from_binary(&bad).unwrap_err(), BinaryError::BadOffsets);
    }

    #[test]
    fn empty_taxonomy_round_trips() {
        let t = TaxonomyBuilder::new("empty").build().unwrap();
        let back = Taxonomy::from_binary(&t.to_binary()).unwrap();
        assert!(back.is_empty());
        assert_eq!(back.label(), "empty");
    }
}
