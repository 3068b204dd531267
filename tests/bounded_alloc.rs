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
//! The same allocator pins what a warm cache hit costs: a one-query
//! `answer` through `FaultInjector<CachedModel<SimulatedLlm>>` that the
//! cache serves makes exactly one allocation, the result vector. The hit
//! shares the stored reply, and nothing is sized by the reply or the
//! prompt.
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
use taxoglimpse::core::cache::CachedModel;
use taxoglimpse::core::dataset::{DatasetBuilder, QuestionDataset};
use taxoglimpse::core::detailed::DetailedRun;
use taxoglimpse::core::domain::TaxonomyKind;
use taxoglimpse::core::model::{LanguageModel, ModelError, Query, Response};
use taxoglimpse::core::parse::{parse_answer, parse_mcq, parse_tf};
use taxoglimpse::core::prompts::{render_prompt, PromptSetting};
use taxoglimpse::core::question::Question;
use taxoglimpse::json::from_str_value;
use taxoglimpse::llm::faults::{FaultInjector, FaultPlan};
use taxoglimpse::llm::profile::ModelId;
use taxoglimpse::llm::simulate::SimulatedLlm;
use taxoglimpse::synth::rng::Rng;
use taxoglimpse::synth::{generate, GenOptions};
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
static BLOCKS: AtomicUsize = AtomicUsize::new(0);

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
            BLOCKS.fetch_add(1, Ordering::Relaxed);
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

/// Blocks `run` allocates (a grown block counts again) and the peak
/// heap bytes it holds above the level at its start.
fn blocks_and_peak_of<T>(run: impl FnOnce() -> T) -> (usize, usize) {
    let before = BLOCKS.load(Ordering::Relaxed);
    let peak = peak_of(run);
    (BLOCKS.load(Ordering::Relaxed) - before, peak)
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

/// A warm hit allocates one block, the `answer_batch` vector that
/// `answer` pops its result from, so the peak is exactly that vector.
/// Questions whose first delivery the plan faults are skipped: the
/// cache never stores them.
fn assert_warm_hits_allocate_only_their_result() {
    let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 3, scale: 0.2 }).unwrap();
    let dataset = DatasetBuilder::new(&t, TaxonomyKind::Ebay, 3)
        .sample_cap(Some(20))
        .build(QuestionDataset::Hard)
        .unwrap();
    let tower =
        FaultInjector::new(CachedModel::new(SimulatedLlm::new(ModelId::Gpt4)), FaultPlan::uniform(5, 0.2));
    let result_bytes = std::mem::size_of::<Result<Response, ModelError>>();
    let exemplars: Vec<Question> = dataset.questions().take(3).cloned().collect();
    let mut warm = 0;
    for question in dataset.questions() {
        let prompt = render_prompt(question, PromptSetting::FewShot, Default::default(), &exemplars);
        let query = Query::new(&prompt, question, PromptSetting::FewShot);
        if tower.answer(&query).is_err() {
            continue;
        }
        let (blocks, peak) = blocks_and_peak_of(|| tower.answer(&query));
        assert_eq!(
            (blocks, peak),
            (1, result_bytes),
            "a warm hit on question {} ({}-byte prompt) allocated {blocks} blocks, peaking at {peak} bytes",
            question.id,
            prompt.len()
        );
        warm += 1;
    }
    assert!(warm >= 20, "only {warm} questions were served warm");
}

#[test]
fn hostile_input_allocates_at_most_linearly() {
    assert_warm_hits_allocate_only_their_result();
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
