//! Hostile input never makes a decoder allocate beyond a linear bound.
//!
//! The binary installs a counting `#[global_allocator]` over `System`
//! and feeds the mutants of `tests/proptests.rs` (the same generators,
//! from `tests/common`) to every byte-parsing entry point: TAXG payloads
//! to `Taxonomy::from_binary` and, inside a valid snapshot frame (right
//! length and checksum), to `SnapshotStore::load`; JSON and TSV text to
//! `json::from_str_value`, `Taxonomy::from_json` and `Taxonomy::from_tsv`;
//! and JSON, TSV and transcript text to `DetailedRun::from_jsonl`. For
//! each decode the peak of live heap bytes above the level at its start
//! must stay within `C · len + K`, where `len` is the input's length in
//! bytes. A length prefix trusted before the bytes behind it are checked
//! (`Vec::with_capacity(n)` for an adversarial `n`) breaks that bound by
//! orders of magnitude. The answer parsers `parse_tf`, `parse_mcq` and
//! `parse_answer` must allocate nothing at all on any of the texts.
//!
//! It holds a single `#[test]`, so no other test allocates while a peak
//! is being measured.

mod common;

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use common::{
    cases, mutate_binary, mutate_text, random_unicode_taxonomy, snapshot_file, text_mutant,
    transcript_fixture,
};
use taxoglimpse::core::detailed::DetailedRun;
use taxoglimpse::core::parse::{parse_answer, parse_mcq, parse_tf};
use taxoglimpse::core::question::Question;
use taxoglimpse::json::from_str_value;
use taxoglimpse::synth::rng::Rng;
use taxoglimpse::taxonomy::{SnapshotStore, Taxonomy};

/// Heap bytes per input byte. Each decoder builds structures linear in
/// its input: the JSON value tree, the TSV or JSON name and parent
/// lists, and the taxonomy's columns and name arena. Over these mutants
/// the measured peak stays under 17·len + 153 bytes, the largest being
/// `Taxonomy::from_json`, which holds the value tree and the decoded
/// taxonomy at once; `C` doubles that slope. An allocation sized by an
/// unchecked count ignores `len` and exceeds any such bound.
const C: usize = 32;

/// Fixed slack for the label, error messages and empty-collection
/// headers, which do not grow with the input: 4 KiB against the 153
/// bytes measured.
const K: usize = 4 << 10;

/// Largest single request the allocator serves. No decode of these
/// small mutants comes close; a larger request is an unbounded
/// allocation, and refusing it aborts the binary with "memory
/// allocation of N bytes failed" instead of asking the host for
/// gigabytes.
const MAX_REQUEST: usize = 64 << 20;

const SEED: u64 = 0xa110_c8ed;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    /// Run `alloc` for a request of `size` bytes, refusing it above
    /// [`MAX_REQUEST`], and count the block if it was granted.
    fn counted(size: usize, alloc: impl FnOnce() -> *mut u8) -> *mut u8 {
        if size > MAX_REQUEST {
            return std::ptr::null_mut();
        }
        let ptr = alloc();
        if !ptr.is_null() {
            // Relaxed: a single test thread allocates; these are counters.
            let live = LIVE.fetch_add(size, Ordering::Relaxed) + size;
            PEAK.fetch_max(live, Ordering::Relaxed);
        }
        ptr
    }
}

// SAFETY: every method forwards to `System` with the caller's layout
// unchanged and only updates counters around it, or returns null, which
// `GlobalAlloc` allows for any request.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::counted(layout.size(), || System.alloc(layout))
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::counted(layout.size(), || System.alloc_zeroed(layout))
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as both blocks live at once, which is what a realloc
        // that cannot grow in place costs.
        let new = Self::counted(new_size, || System.realloc(ptr, layout, new_size));
        if !new.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        new
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Peak heap bytes `decode` holds above the level at its start, its
/// result included.
fn peak_of<T>(decode: impl FnOnce() -> T) -> usize {
    let base = LIVE.load(Ordering::Relaxed);
    PEAK.store(base, Ordering::Relaxed);
    let out = decode();
    let peak = PEAK.load(Ordering::Relaxed) - base;
    drop(out);
    peak
}

fn assert_bounded(what: &str, len: usize, peak: usize) {
    assert!(
        peak <= C * len + K,
        "{what} on {len} hostile bytes peaked at {peak} heap bytes (bound {C}·len + {K} = {})",
        C * len + K
    );
}

/// The answer parsers allocate nothing on `text`, for every question
/// kind `parse_answer` dispatches on.
fn assert_parsers_allocate_nothing(text: &str, questions: &[Question]) {
    let parsers = [
        ("parse_tf", peak_of(|| parse_tf(text))),
        ("parse_mcq", peak_of(|| parse_mcq(text))),
    ];
    let answers = questions.iter().map(|q| ("parse_answer", peak_of(|| parse_answer(q, text))));
    for (what, peak) in parsers.into_iter().chain(answers) {
        assert_eq!(peak, 0, "{what} on {} hostile bytes allocated {peak} heap bytes", text.len());
    }
}

#[test]
fn hostile_input_allocates_at_most_linearly() {
    let (transcript, questions) = transcript_fixture();
    let dir = std::env::temp_dir().join(format!("taxoglimpse-bounded-alloc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let store = SnapshotStore::new(&dir);
    let path = store.path_for("mutant");
    cases(SEED, 2_000, "bounded_alloc", |rng, _| {
        let t = random_unicode_taxonomy(rng);

        let bytes = mutate_binary(rng, &t);
        let peak = peak_of(|| Taxonomy::from_binary(&bytes));
        assert_bounded("Taxonomy::from_binary", bytes.len(), peak);
        std::fs::write(&path, snapshot_file(&bytes)).unwrap();
        let peak = peak_of(|| store.load("mutant"));
        assert_bounded("SnapshotStore::load", bytes.len(), peak);

        let text = if rng.gen_bool(0.5) { t.to_json() } else { t.to_tsv() };
        let (bytes, _) =
            mutate_text(rng, text.into_bytes(), |rng| format!("node-{}", rng.gen_index(t.len())));
        let text = String::from_utf8_lossy(&bytes);
        let len = text.len();
        assert_bounded("json::from_str_value", len, peak_of(|| from_str_value(&text)));
        assert_bounded("Taxonomy::from_json", len, peak_of(|| Taxonomy::from_json(&text)));
        assert_bounded("Taxonomy::from_tsv", len, peak_of(|| Taxonomy::from_tsv(&text)));
        assert_parsers_allocate_nothing(&text, &questions);
    });
    // The mutants of `tests/proptests.rs`'s text property, transcripts
    // included.
    cases(SEED, 2_000, "bounded_alloc_text", |rng, _| {
        let (text, _) = text_mutant(rng, &transcript);
        let peak = peak_of(|| DetailedRun::from_jsonl("mutant", &text));
        assert_bounded("DetailedRun::from_jsonl", text.len(), peak);
        assert_parsers_allocate_nothing(&text, &questions);
    });
    let _ = std::fs::remove_dir_all(&dir);
}
