//! Compact binary serialization.
//!
//! The JSON/TSV formats are human-friendly but bulky: the full NCBI
//! forest (2.19M nodes) is ~90 MB of JSON. This length-prefixed binary
//! codec stores the same flat representation in roughly `names + 9
//! bytes/node`, encodes/decodes in one pass, and validates structure on
//! load. This module is the only code that knows the layout: the
//! snapshot store frames an encoding and hands the payload's reader to
//! the same decoder [`Taxonomy::from_binary`] runs.
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
//! lets the loader read all names into one buffer, validate them in one
//! pass and adopt that buffer as the taxonomy's name arena — no
//! per-name `String` and no second copy — which is what makes
//! snapshot-load an order of magnitude faster than regeneration for the
//! NCBI-scale forest.
//!
//! When every parent index precedes its child (true for anything this
//! crate's writer emits, since the builder can only attach children to
//! existing nodes), the decoder derives levels from the parent column
//! and hands the columns to the builder's assembler, preserving node
//! order exactly. Files with forward parent references fall back to the
//! validating `from_edges` path (full dangling/cycle detection).
//!
//! Version 2 is the only version written or read; any other version
//! fails as [`BinaryError::BadVersion`].

use crate::arena::{Taxonomy, NO_PARENT};
use crate::builder::{assemble, BuildError, TaxonomyBuilder};
use std::fmt;
use std::io::Read;

const MAGIC: &[u8; 4] = b"TAXG";
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
        decode(bytes, bytes.len() as u64, |_| {})
    }
}

/// The TAXG decoder: reads a payload of exactly `len` bytes from `src`.
///
/// Reads are staged — header fields, then the parent and offset tables
/// in one read, then the name block in cache-sized slices — and each is
/// checked against the bytes left before anything is allocated for it,
/// so an adversarial count fails as `Truncated` instead of requesting a
/// huge allocation. Every staged read is passed to `observe` as it
/// lands, while it is still cache warm; the snapshot store streams its
/// checksum this way. The name block is proven ASCII slice by slice in
/// the same pass and its buffer becomes the name arena without a copy.
pub(crate) fn decode(
    src: impl Read,
    len: u64,
    observe: impl FnMut(&[u8]),
) -> Result<Taxonomy, BinaryError> {
    let mut input = Staged { src, left: len, observe };
    if input.array().map_err(|_| BinaryError::BadMagic)? != *MAGIC {
        return Err(BinaryError::BadMagic);
    }
    let version = u16::from_le_bytes(input.array()?);
    if version != VERSION_V2 {
        return Err(BinaryError::BadVersion(version));
    }
    let label_len = u32::from_le_bytes(input.array()?);
    let mut label = Vec::new();
    input.read(&mut label, label_len.into())?;
    let label = String::from_utf8(label).map_err(|_| BinaryError::BadUtf8)?;
    let n = u64::from_le_bytes(input.array()?);
    if n > u32::MAX as u64 {
        return Err(BinaryError::Build(BuildError::TooManyNodes));
    }
    let n = n as usize;

    // Parents (4n), the name-block length (8) and offsets (4(n + 1)).
    let mut tables = Vec::new();
    input.read(&mut tables, 8 * n as u64 + 12)?;
    let (parent_bytes, rest) = tables.split_at(4 * n);
    let (name_len, offset_bytes) = rest.split_at(8);
    let parent: Vec<u32> = parent_bytes.chunks_exact(4).map(le_u32).collect();
    let name_bytes = u64::from_le_bytes(name_len.try_into().expect("split_at(8) yields 8 bytes"));
    if name_bytes != input.left {
        let short = name_bytes > input.left;
        return Err(if short { BinaryError::Truncated } else { BinaryError::TrailingBytes });
    }
    let mut names = Vec::with_capacity(name_bytes as usize + 1);
    // ASCII blocks (the common case for generated taxonomies) are
    // trivially valid UTF-8 and make every offset a char boundary, so
    // one SIMD-friendly `is_ascii` scan per slice replaces both the full
    // UTF-8 validation and the per-span boundary checks below.
    let mut ascii = true;
    while input.left > 0 {
        let start = names.len();
        input.read(&mut names, input.left.min(8 << 20))?;
        ascii &= names[start..].is_ascii();
    }
    let name_buf = if ascii {
        debug_assert!(std::str::from_utf8(&names).is_ok());
        // SAFETY: ASCII is a strict subset of UTF-8.
        unsafe { String::from_utf8_unchecked(names) }
    } else {
        String::from_utf8(names).map_err(|_| BinaryError::BadUtf8)?
    };

    // Offsets: first = 0, last = name_bytes, monotonic (which together
    // bound every span by name_bytes), each on a char boundary. The
    // monotonicity flag is folded instead of branch-per-span so the
    // span-building loop stays vectorizable.
    let off_at = |i: usize| le_u32(&offset_bytes[i * 4..i * 4 + 4]);
    if off_at(0) != 0 || off_at(n) as u64 != name_bytes {
        return Err(BinaryError::BadOffsets);
    }
    let mut name_spans: Vec<(u32, u32)> = Vec::with_capacity(n);
    let mut monotonic = true;
    let mut prev = 0u32;
    name_spans.extend(offset_bytes[4..].chunks_exact(4).map(|chunk| {
        let end = le_u32(chunk);
        monotonic &= prev <= end;
        let span = (prev, end);
        prev = end;
        span
    }));
    drop(tables);
    if !monotonic {
        return Err(BinaryError::BadOffsets);
    }
    let name = |i: usize| &name_buf[name_spans[i].0 as usize..name_spans[i].1 as usize];
    if !ascii
        && name_spans.iter().any(|&(s, e)| {
            !name_buf.is_char_boundary(s as usize) || !name_buf.is_char_boundary(e as usize)
        })
    {
        return Err(BinaryError::BadOffsets);
    }

    // One forward pass over the parent column rejects out-of-range
    // parents and derives levels; a forward reference (a parent at or
    // after its child) drops to the validating `from_edges` fallback.
    let mut level = Vec::with_capacity(n);
    for (i, &p) in parent.iter().enumerate() {
        if p == NO_PARENT {
            level.push(0);
            continue;
        }
        if p as usize >= n {
            let err = BuildError::DanglingParent { child: i, parent: p as usize };
            return Err(BinaryError::Build(err));
        }
        if p as usize >= i {
            // Re-insert through the builder, which performs full
            // dangling/cycle detection on the whole edge set.
            let names: Vec<String> = (0..n).map(|i| name(i).to_owned()).collect();
            let parents: Vec<Option<usize>> =
                parent.iter().map(|&p| (p != NO_PARENT).then_some(p as usize)).collect();
            return TaxonomyBuilder::from_edges(label, &names, &parents).map_err(BinaryError::Build);
        }
        let l = level[p as usize] as usize + 1;
        if l >= TaxonomyBuilder::MAX_LEVELS {
            let err = BuildError::TooDeep { name: name(i).to_owned() };
            return Err(BinaryError::Build(err));
        }
        level.push(l as u8);
    }
    Ok(assemble(label, name_buf, name_spans, parent, level))
}

/// A reader with `left` bytes still to come, each staged read of which
/// `observe` sees.
struct Staged<R, F> {
    src: R,
    left: u64,
    observe: F,
}

impl<R: Read, F: FnMut(&[u8])> Staged<R, F> {
    /// Append exactly `len` more bytes to `out`, or fail as truncated
    /// before reserving anything the input cannot back. The reserve
    /// ahead of `read_to_end` lets it read straight into spare capacity.
    fn read(&mut self, out: &mut Vec<u8>, len: u64) -> Result<(), BinaryError> {
        if len > self.left {
            return Err(BinaryError::Truncated);
        }
        let start = out.len();
        out.reserve(usize::try_from(len).map_err(|_| BinaryError::Truncated)? + 1);
        let got = self.src.by_ref().take(len).read_to_end(out);
        if got.ok() != Some(len as usize) {
            return Err(BinaryError::Truncated);
        }
        self.left -= len;
        (self.observe)(&out[start..]);
        Ok(())
    }

    /// The next `N` bytes as an array.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], BinaryError> {
        let mut bytes = Vec::with_capacity(N + 1);
        self.read(&mut bytes, N as u64)?;
        Ok(bytes.try_into().expect("read() appended exactly N bytes"))
    }
}

fn le_u32(bytes: &[u8]) -> u32 {
    u32::from_le_bytes(bytes.try_into().expect("a u32 field is 4 bytes"))
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
