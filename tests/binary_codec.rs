//! Exhaustive tests of the TAXG binary codec against malformed input
//! and across every synthetic taxonomy kind.
//!
//! This lives at the workspace root (not in `taxoglimpse-taxonomy`)
//! because the cross-kind round-trip needs the synth generators, which
//! depend on the taxonomy crate.

use taxoglimpse::prelude::*;
use taxoglimpse::taxonomy::binary::BinaryError;
use taxoglimpse::taxonomy::snapshot::SnapshotStore;
use taxoglimpse::taxonomy::{validate, TaxonomyBuilder};

fn sample() -> Taxonomy {
    let mut b = TaxonomyBuilder::new("codec-fixture");
    let r = b.add_root("Root");
    let a = b.add_child(r, "Child A");
    b.add_child(a, "Grand");
    b.add_child(r, "Child B");
    b.build().unwrap()
}

/// Byte offsets of every section boundary in the sample's v2 encoding:
/// after magic, version, label length, label bytes, node count, each
/// parent word, the name-block length, each offset entry, and each name
/// inside the contiguous name block.
fn section_boundaries(t: &Taxonomy) -> Vec<usize> {
    let mut offsets = Vec::new();
    let mut pos = 4; // magic
    offsets.push(pos);
    pos += 2; // version
    offsets.push(pos);
    pos += 4; // label length
    offsets.push(pos);
    pos += t.label().len();
    offsets.push(pos);
    pos += 8; // node count
    offsets.push(pos);
    for _ in t.ids() {
        pos += 4; // parent word
        offsets.push(pos);
    }
    pos += 8; // name-block byte count
    offsets.push(pos);
    for _ in 0..=t.len() {
        pos += 4; // offset-table entry
        offsets.push(pos);
    }
    for id in t.ids() {
        pos += t.name(id).len(); // name bytes within the block
        offsets.push(pos);
    }
    offsets
}

#[test]
fn truncation_at_every_section_boundary_fails_cleanly() {
    let t = sample();
    let bytes = t.to_binary();
    let boundaries = section_boundaries(&t);
    assert_eq!(*boundaries.last().unwrap(), bytes.len(), "boundary math covers the buffer");
    for &cut in &boundaries[..boundaries.len() - 1] {
        let err = Taxonomy::from_binary(&bytes[..cut]).unwrap_err();
        assert_eq!(err, BinaryError::Truncated, "cut at section boundary {cut}");
    }
    assert!(Taxonomy::from_binary(&bytes).is_ok());
}

#[test]
fn truncation_at_every_byte_never_panics() {
    let bytes = sample().to_binary();
    for cut in 0..bytes.len() {
        assert!(Taxonomy::from_binary(&bytes[..cut]).is_err(), "cut at {cut}");
    }
}

#[test]
fn bad_magic_is_rejected() {
    assert_eq!(Taxonomy::from_binary(b"").unwrap_err(), BinaryError::BadMagic);
    assert_eq!(Taxonomy::from_binary(b"TAX").unwrap_err(), BinaryError::BadMagic);
    assert_eq!(Taxonomy::from_binary(b"GXAT\x01\x00").unwrap_err(), BinaryError::BadMagic);
    let mut bytes = sample().to_binary();
    bytes[0] = b'X';
    assert_eq!(Taxonomy::from_binary(&bytes).unwrap_err(), BinaryError::BadMagic);
}

#[test]
fn unsupported_version_is_rejected() {
    // v2 is the one supported format; anything else, including the
    // retired v1, must be rejected with the version echoed back.
    let mut bytes = sample().to_binary();
    for version in [0u16, 1, 3] {
        bytes[4..6].copy_from_slice(&version.to_le_bytes());
        assert_eq!(Taxonomy::from_binary(&bytes).unwrap_err(), BinaryError::BadVersion(version));
    }
}

#[test]
fn zero_length_label_and_names_round_trip() {
    let mut b = TaxonomyBuilder::new("");
    let r = b.add_root("");
    b.add_child(r, "named");
    b.add_child(r, "");
    let t = b.build().unwrap();
    let back = Taxonomy::from_binary(&t.to_binary()).unwrap();
    assert_eq!(back.label(), "");
    assert_eq!(back.len(), 3);
    let mut names: Vec<&str> = back.ids().map(|id| back.name(id)).collect();
    names.sort();
    assert_eq!(names, ["", "", "named"]);
}

#[test]
fn every_taxonomy_kind_round_trips() {
    for kind in TaxonomyKind::ALL {
        // Small scale keeps even NCBI (2.19M nodes at 1.0) fast.
        let t = generate(kind, GenOptions { seed: 13, scale: 0.02 }).unwrap();
        let bytes = t.to_binary();
        let back = Taxonomy::from_binary(&bytes).unwrap();
        validate(&back).unwrap();
        assert_eq!(back.len(), t.len(), "{kind:?}");
        assert_eq!(back.label(), t.label(), "{kind:?}");
        // Decode→encode is a byte-level fixed point.
        assert_eq!(Taxonomy::from_binary(&back.to_binary()).unwrap().to_binary(), back.to_binary());
    }
}

#[test]
fn owned_decode_handles_non_ascii_names() {
    // Non-ASCII names take the slower UTF-8 validation + char-boundary
    // path; the decoder reading them from a snapshot file, which adopts
    // the name block it read as the arena, must still handle them.
    let mut b = TaxonomyBuilder::new("unicode");
    let r = b.add_root("Racine α");
    b.add_child(r, "Enfant β");
    b.add_child(r, "été");
    let t = b.build().unwrap();
    let dir = std::env::temp_dir().join(format!("taxoglimpse-codec-unicode-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = SnapshotStore::new(&dir);
    store.save("unicode", &t).unwrap();
    let back = store.load("unicode").expect("fresh snapshot must hit");
    let _ = std::fs::remove_dir_all(&dir);
    validate(&back).unwrap();
    assert_eq!(back.to_binary(), t.to_binary());
    let names: Vec<&str> = back.ids().map(|id| back.name(id)).collect();
    assert_eq!(names, ["Racine α", "Enfant β", "été"]);
}
