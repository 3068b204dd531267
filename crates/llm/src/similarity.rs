//! Interned surface-form evidence: the allocation-free fast path behind
//! [`taxoglimpse_core::text::similarity`] and friends.
//!
//! The knowledge model consults surface evidence up to five times per
//! question — child↔candidate trigram similarity, whole-name
//! containment, head-noun matches — and a Tables 5–7 grid asks hundreds
//! of thousands of questions over a vocabulary of at most a few
//! thousand distinct names per dataset. Recomputing a name's lowercase
//! form and sorted trigram set on every call (an allocation, a byte
//! pass, a sort) is the single hottest allocation site in the whole
//! query path. [`SimilarityCache`] computes both once per unique name
//! and serves every subsequent query from borrowed slices.
//!
//! Results are *definitionally* identical to the direct functions: the
//! cache memoizes the very [`Trigrams`] values `core::text` computes
//! (`tests` plus `tests/perf_equivalence.rs` fuzz the equivalence), so
//! determinism — the repo's core invariant — is untouched.
//!
//! The cache is thread-local (see [`with_cache`]): grid workers never
//! contend on a lock, and a `KnowledgeModel` stays `Copy`. Memory is
//! bounded by [`MAX_ENTRIES`]; overflowing vocabularies (no real
//! taxonomy comes close) drop the cache and rebuild.

use std::cell::RefCell;
// lint:allow(D001, interner is lookup-only: entries are keyed by exact name and never iterated, so hash order cannot reach any output)
use std::collections::HashMap;
use std::rc::Rc;
use taxoglimpse_core::text::Trigrams;

/// Hard cap on interned names per thread before the cache resets.
pub const MAX_ENTRIES: usize = 1 << 20;

/// Per-thread interner from name to its [`Trigrams`].
#[derive(Debug, Default)]
pub struct SimilarityCache {
    // lint:allow(D001, hot-path interner: O(1) probes beat BTreeMap here and the map is never iterated)
    map: RefCell<HashMap<Box<str>, Rc<Trigrams>>>,
}

impl SimilarityCache {
    /// An empty cache.
    pub fn new() -> SimilarityCache {
        SimilarityCache::default()
    }

    /// Number of interned names.
    pub fn len(&self) -> usize {
        self.map.borrow().len()
    }

    /// Whether no name has been interned yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Intern `s`, computing its derived forms on first sight.
    pub fn entry(&self, s: &str) -> Rc<Trigrams> {
        if let Some(e) = self.map.borrow().get(s) {
            return Rc::clone(e);
        }
        let entry = Rc::new(Trigrams::new(s));
        let mut map = self.map.borrow_mut();
        if map.len() >= MAX_ENTRIES {
            map.clear();
        }
        map.insert(Box::from(s), Rc::clone(&entry));
        entry
    }

    /// [`taxoglimpse_core::text::similarity`], served from the interned
    /// sets.
    pub fn similarity(&self, a: &str, b: &str) -> f64 {
        let ea = self.entry(a);
        let eb = self.entry(b);
        if Rc::ptr_eq(&ea, &eb) {
            return 1.0;
        }
        ea.jaccard(&eb)
    }

    /// Whole-name containment as the knowledge model defines it:
    /// `concept` is at least four bytes and its lowercase form appears
    /// in `name`'s lowercase form.
    pub fn contains_name(&self, name: &str, concept: &str) -> bool {
        concept.len() >= 4 && self.entry(name).lower().contains(self.entry(concept).lower())
    }

    /// Head-noun match as the knowledge model defines it: the last
    /// space-separated word of `concept`, singular-ized by stripping a
    /// trailing lowercase `s`, appears (length ≥ 3) in `name`,
    /// case-insensitively.
    pub fn head_matches(&self, name: &str, concept: &str) -> bool {
        let head_start = concept.rfind(' ').map(|i| i + 1).unwrap_or(0);
        let head = &concept[head_start..];
        // Strip the suffix on the *original* spelling — a trailing
        // uppercase `S` is deliberately not stripped by the reference
        // implementation — then reuse the cached lowercase bytes, which
        // align byte-for-byte with the original (ASCII lowering
        // preserves length).
        let head = head.strip_suffix('s').unwrap_or(head);
        if head.len() < 3 {
            return false;
        }
        let concept_entry = self.entry(concept);
        let head_lower = &concept_entry.lower()[head_start..head_start + head.len()];
        self.entry(name).lower().contains(head_lower)
    }
}

thread_local! {
    static THREAD_CACHE: SimilarityCache = SimilarityCache::new();
}

/// Run `f` against this thread's interner. Grid workers each get their
/// own cache, so the hot path never takes a lock; within one worker a
/// dataset's vocabulary is interned once and reused for every model,
/// level, and prompt setting it evaluates.
pub fn with_cache<R>(f: impl FnOnce(&SimilarityCache) -> R) -> R {
    THREAD_CACHE.with(f)
}

#[cfg(test)]
mod tests {
    use super::*;
    use taxoglimpse_core::text::similarity;

    /// Reference copies of the knowledge model's private helpers, so a
    /// drift in either place fails loudly here.
    fn direct_contains(name: &str, concept: &str) -> bool {
        concept.len() >= 4 && name.to_ascii_lowercase().contains(&concept.to_ascii_lowercase())
    }

    fn direct_head_matches(name: &str, concept: &str) -> bool {
        let head = concept.split(' ').next_back().unwrap_or(concept);
        let head = head.strip_suffix('s').unwrap_or(head);
        if head.len() < 3 {
            return false;
        }
        name.to_ascii_lowercase().contains(&head.to_ascii_lowercase())
    }

    const CORPUS: [&str; 14] = [
        "",
        "a",
        "ab",
        "abc",
        "ABC",
        "Verbascum chaixii",
        "Verbascum",
        "Wireless Speakers",
        "Audio",
        "CARS",
        "cars",
        "Pencils",
        "acute cardiac lesion AE",
        "naïve café names",
    ];

    #[test]
    fn similarity_matches_direct_on_corpus() {
        let cache = SimilarityCache::new();
        for a in CORPUS {
            for b in CORPUS {
                assert_eq!(
                    cache.similarity(a, b),
                    similarity(a, b),
                    "similarity({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn containment_and_heads_match_direct_on_corpus() {
        let cache = SimilarityCache::new();
        for a in CORPUS {
            for b in CORPUS {
                assert_eq!(cache.contains_name(a, b), direct_contains(a, b), "contains({a:?}, {b:?})");
                assert_eq!(
                    cache.head_matches(a, b),
                    direct_head_matches(a, b),
                    "head_matches({a:?}, {b:?})"
                );
            }
        }
    }

    #[test]
    fn names_are_interned_once() {
        let cache = SimilarityCache::new();
        cache.similarity("Verbascum chaixii", "Verbascum");
        cache.similarity("Verbascum chaixii", "Silene");
        assert_eq!(cache.len(), 3);
        let a = cache.entry("Verbascum");
        let b = cache.entry("Verbascum");
        assert!(Rc::ptr_eq(&a, &b));
    }

    #[test]
    fn uppercase_trailing_s_is_not_stripped() {
        // The reference strips only a lowercase `s`; "CARS" keeps it
        // and must therefore not head-match "three car garage".
        let cache = SimilarityCache::new();
        assert!(!cache.head_matches("three car garage", "CARS"));
        assert!(cache.head_matches("three cars here", "CARS"));
        assert!(cache.head_matches("Compact Pencil X137", "Pencils"));
    }

    #[test]
    fn thread_cache_is_reused() {
        with_cache(|c| {
            c.similarity("alpha beta", "beta gamma");
        });
        let before = with_cache(SimilarityCache::len);
        let cached = with_cache(|c| c.similarity("alpha beta", "beta gamma"));
        assert_eq!(cached, similarity("alpha beta", "beta gamma"));
        assert_eq!(with_cache(SimilarityCache::len), before);
    }
}
