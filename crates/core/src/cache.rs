//! Deterministic memoized response cache (§6 cost model).
//!
//! The paper's scalability study shows cost-per-query is the limiting
//! factor in using an LLM *as* a taxonomy, and real traffic is heavily
//! repeated — so successful answers are worth memoizing. This module is
//! the exact-memoization layer: a [`ResponseCache`] keyed on
//! **(snapshot version, model, question identity, prompt setting,
//! prompt text, retry ordinal)** and a [`CachedModel`] middleware that
//! consults it before delegating to the wrapped model.
//!
//! Correctness rules, in order of importance:
//!
//! 1. **Only successful deliveries are cached.** Errors come from the
//!    fault layer and must keep re-rolling per attempt; memoizing them
//!    would freeze a transient fault into a permanent one.
//! 2. **Hits return the stored [`Response`] verbatim** — text *and*
//!    `latency_s`. The resilience layer advances its virtual clock by
//!    response latency, and breaker/backoff behavior under faults
//!    depends on that clock, so serving a hit with zero latency would
//!    make cache-on runs observably different from cache-off runs.
//! 3. **Every hit is verified against the full key materials** (model
//!    name, structured question, setting, attempt, prompt bytes,
//!    snapshot version) before being served: a 64-bit key collision
//!    can redirect a lookup to the wrong bucket but can never produce
//!    a wrong answer.
//! 4. **Invalidation is edit-driven.** Callers stamp the cache with
//!    [`ResponseCache::set_version`] (typically the taxonomy's
//!    `content_digest()`); a version change clears every entry, so
//!    answers observed against an edited snapshot can never leak into
//!    runs over the old one or vice versa.
//!
//! Composition with the PR 5 fault/resilience stack: the cache sits
//! *under* the fault injector (`FaultInjector<CachedModel<M>>`), so
//! fault streams — keyed on question identity and attempt — decide
//! first, and the cache memoizes only what a faultless delivery would
//! have produced. Cached runs therefore replay the exact same fault
//! sequence as uncached ones.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use taxoglimpse_synth::rng::{hash_str, mix64, StreamHasher};

use crate::model::{shared_prefix, LanguageModel, ModelError, Query, Response};
use crate::question::Question;

/// Shard count for the entry map (power of two; the low key bits pick
/// the shard). 64 shards keep lock contention negligible at the grid's
/// worker counts while staying cheap to clear.
const SHARDS: usize = 64;

/// Seed for the metadata half of the key stream.
const KEY_SEED: u64 = 0xCAC4_E05E_ED00_0001;

/// Seed for the prompt-text half of the key stream (kept separate so a
/// batch sharing a few-shot prefix can hash the prefix once and clone
/// the hasher state per query).
const PROMPT_SEED: u64 = 0xCAC4_E05E_ED00_0002;

/// One memoized delivery with everything needed to verify a hit.
#[derive(Debug, Clone)]
struct CacheEntry {
    version: u64,
    model: Box<str>,
    question: Question,
    prompt: Box<str>,
    attempt: u32,
    response: Response,
}

/// Monotonic counters describing cache traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the wrapped model.
    pub misses: u64,
    /// Successful deliveries stored.
    pub insertions: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (0.0 when none happened).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// Counters are additive, so per-shard snapshots aggregate into a
/// fleet-wide view (one snapshot per shard cache, summed).
impl std::ops::AddAssign for CacheStats {
    fn add_assign(&mut self, rhs: CacheStats) {
        self.hits += rhs.hits;
        self.misses += rhs.misses;
        self.insertions += rhs.insertions;
    }
}

impl std::iter::Sum for CacheStats {
    fn sum<I: Iterator<Item = CacheStats>>(iter: I) -> CacheStats {
        let mut total = CacheStats::default();
        for stats in iter {
            total += stats;
        }
        total
    }
}

/// A sharded exact-memoization store for model responses. See the
/// module docs for the key derivation and invalidation rules.
pub struct ResponseCache {
    /// Snapshot version the cache is valid for (e.g. the taxonomy's
    /// `content_digest()`); mixed into every key and checked on hits.
    version: AtomicU64,
    shards: Vec<Mutex<BTreeMap<u64, Vec<CacheEntry>>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCache")
            .field("version", &self.version())
            .field("entries", &self.len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl Default for ResponseCache {
    fn default() -> Self {
        Self::new()
    }
}

impl ResponseCache {
    /// An empty cache at snapshot version 0.
    pub fn new() -> Self {
        ResponseCache {
            version: AtomicU64::new(0),
            shards: (0..SHARDS).map(|_| Mutex::new(BTreeMap::new())).collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    /// An empty cache stamped for `version`.
    pub fn with_version(version: u64) -> Self {
        let cache = Self::new();
        // Relaxed: construction happens-before any sharing of the value.
        cache.version.store(version, Ordering::Relaxed);
        cache
    }

    /// The snapshot version entries are valid for.
    pub fn version(&self) -> u64 {
        // Relaxed: the version is a standalone stamp; entry validity is
        // re-verified under the shard lock on every hit.
        self.version.load(Ordering::Relaxed)
    }

    /// Stamp the cache for a (possibly new) snapshot version. A version
    /// change drops every entry — this is the edit-driven invalidation
    /// hook: pass the taxonomy's `content_digest()` after any edit and
    /// stale answers are unreachable (they also fail per-hit version
    /// verification, belt and braces).
    pub fn set_version(&self, version: u64) {
        // Relaxed swap: callers stamp versions between runs, not while
        // racing lookups; per-hit verification covers any interleaving.
        let old = self.version.swap(version, Ordering::Relaxed);
        if old != version {
            self.clear();
        }
    }

    /// Drop every entry (counters are kept).
    pub fn clear(&self) {
        for shard in &self.shards {
            shard.lock().expect("cache shard lock not poisoned").clear();
        }
    }

    /// Number of memoized deliveries currently stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.lock()
                    .expect("cache shard lock not poisoned")
                    .values()
                    .map(Vec::len)
                    .sum::<usize>()
            })
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Traffic counters so far.
    pub fn stats(&self) -> CacheStats {
        // Relaxed throughout: independent monotonic counters; readers
        // want totals, not a consistent snapshot across the three.
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed), // Relaxed: monotonic counter
            misses: self.misses.load(Ordering::Relaxed), // Relaxed: monotonic counter
            insertions: self.insertions.load(Ordering::Relaxed), // Relaxed: monotonic counter
        }
    }

    /// Hash of the metadata key half for `query` against `model_name`,
    /// at the current version. Kept separate from the prompt hash so
    /// batch lookups can amortize both halves.
    fn meta_hasher(&self, model_name: &str) -> StreamHasher {
        let mut h = StreamHasher::new(KEY_SEED ^ self.version());
        h.write_str(model_name);
        h
    }

    fn finish_key(meta: &StreamHasher, query: &Query<'_>, prompt_hash: u64) -> u64 {
        let mut h = meta.clone();
        h.write_decimal(query.setting as u64);
        h.write_decimal(u64::from(query.attempt));
        h.write_decimal(query.question.taxonomy as u64);
        h.write_decimal(query.question.id);
        mix64(h.finish() ^ prompt_hash)
    }

    /// Full key for a standalone lookup.
    fn key(&self, model_name: &str, query: &Query<'_>) -> u64 {
        Self::finish_key(&self.meta_hasher(model_name), query, hash_str(PROMPT_SEED, query.prompt))
    }

    fn shard(&self, key: u64) -> &Mutex<BTreeMap<u64, Vec<CacheEntry>>> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Serve a verified hit, or record a miss. The stored response is
    /// returned verbatim (text, latency, attempts) — see module rule 2.
    fn lookup(&self, key: u64, model_name: &str, query: &Query<'_>) -> Option<Response> {
        let version = self.version();
        let shard = self.shard(key).lock().expect("cache shard lock not poisoned");
        let found = shard.get(&key).and_then(|entries| {
            entries
                .iter()
                .find(|e| e.verifies(version, model_name, query))
                .map(|e| e.response.clone())
        });
        drop(shard);
        if found.is_some() {
            // Relaxed: monotonic counter, no ordering needed.
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            // Relaxed: monotonic counter, no ordering needed.
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Store a successful delivery under `key`.
    fn insert(&self, key: u64, model_name: &str, query: &Query<'_>, response: &Response) {
        let version = self.version();
        let entry = CacheEntry {
            version,
            model: model_name.into(),
            question: query.question.clone(),
            prompt: query.prompt.into(),
            attempt: query.attempt,
            response: response.clone(),
        };
        let mut shard = self.shard(key).lock().expect("cache shard lock not poisoned");
        let entries = shard.entry(key).or_default();
        // Two racing misses may both compute the (identical) answer;
        // keep one copy.
        if entries.iter().any(|e| e.verifies(version, model_name, query)) {
            return;
        }
        entries.push(entry);
        // Relaxed: monotonic counter, no ordering needed.
        self.insertions.fetch_add(1, Ordering::Relaxed);
    }
}

impl CacheEntry {
    /// Whether this entry is exactly the delivery `query` asks for.
    fn verifies(&self, version: u64, model_name: &str, query: &Query<'_>) -> bool {
        self.version == version
            && self.attempt == query.attempt
            && self.question.id == query.question.id
            && self.question.taxonomy == query.question.taxonomy
            && &*self.model == model_name
            && &*self.prompt == query.prompt
            && &self.question == query.question
    }
}

/// Memoizing middleware: consult the cache, fall through to the base
/// model on a miss, store successful deliveries.
///
/// Contract on the wrapped model: its answers must be a pure function
/// of the query (the repo-wide determinism contract, which every
/// in-tree model honors) — the cache survives [`LanguageModel::reset`]
/// precisely because re-asking cannot change the answer. Wrap the
/// fault injector *around* this type, never inside it, so errors are
/// re-rolled per attempt and only faultless answer content is
/// memoized.
pub struct CachedModel<M> {
    base: M,
    cache: Arc<ResponseCache>,
}

impl<M: LanguageModel> CachedModel<M> {
    /// Wrap `base` with a fresh private cache (version 0).
    pub fn new(base: M) -> Self {
        Self::with_cache(base, Arc::new(ResponseCache::new()))
    }

    /// Wrap `base` with a shared cache (e.g. one stamped with a
    /// taxonomy `content_digest()` and reused across repeated runs).
    pub fn with_cache(base: M, cache: Arc<ResponseCache>) -> Self {
        CachedModel { base, cache }
    }

    /// The wrapped model.
    pub fn base(&self) -> &M {
        &self.base
    }

    /// The cache backing this wrapper.
    pub fn cache(&self) -> &Arc<ResponseCache> {
        &self.cache
    }
}

impl<M: LanguageModel> LanguageModel for CachedModel<M> {
    /// The base model's name: memoization is invisible in reports.
    fn name(&self) -> &str {
        self.base.name()
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        let key = self.cache.key(self.base.name(), query);
        if let Some(hit) = self.cache.lookup(key, self.base.name(), query) {
            return Ok(hit);
        }
        let result = self.base.answer(query);
        if let Ok(response) = &result {
            self.cache.insert(key, self.base.name(), query, response);
        }
        result
    }

    fn answer_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Response, ModelError>> {
        let name = self.base.name();
        let meta = self.cache.meta_hasher(name);
        // Hash the shared few-shot prefix once; per query, clone the
        // hasher state and stream only the suffix (StreamHasher is
        // documented byte-for-byte equal to one-shot hashing).
        let prefix_state = shared_prefix(queries).map(|prefix| {
            let mut h = StreamHasher::new(PROMPT_SEED);
            h.write_str(prefix);
            (prefix.len(), h)
        });
        let mut results: Vec<Option<Result<Response, ModelError>>> =
            Vec::with_capacity(queries.len());
        let mut miss_indices: Vec<usize> = Vec::new();
        let mut miss_keys: Vec<u64> = Vec::new();
        for (i, query) in queries.iter().enumerate() {
            let prompt_hash = match &prefix_state {
                Some((len, h)) => {
                    let mut h = h.clone();
                    h.write_str(&query.prompt[*len..]);
                    h.finish()
                }
                None => hash_str(PROMPT_SEED, query.prompt),
            };
            let key = ResponseCache::finish_key(&meta, query, prompt_hash);
            if let Some(hit) = self.cache.lookup(key, name, query) {
                results.push(Some(Ok(hit)));
            } else {
                results.push(None);
                miss_indices.push(i);
                miss_keys.push(key);
            }
        }
        if !miss_indices.is_empty() {
            let miss_queries: Vec<Query<'_>> =
                miss_indices.iter().map(|&i| queries[i]).collect();
            let answers = self.base.answer_batch(&miss_queries);
            assert_eq!(
                answers.len(),
                miss_queries.len(),
                "answer_batch must return exactly one result per query"
            );
            for ((&i, &key), answer) in
                miss_indices.iter().zip(&miss_keys).zip(answers)
            {
                if let Ok(response) = &answer {
                    self.cache.insert(key, name, &queries[i], response);
                }
                results[i] = Some(answer);
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every batch slot was filled by a hit or a miss delivery"))
            .collect()
    }

    /// Forwarded to the base model; cache entries survive (see the type
    /// docs for why that is sound).
    fn reset(&self) {
        self.base.reset();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::domain::TaxonomyKind;
    use crate::prompts::PromptSetting;
    use crate::question::tf_question as question;
    use std::sync::atomic::AtomicU32;

    /// Counts deliveries; answers with the prompt echoed back, so every
    /// distinct prompt has a distinct answer.
    struct CountingEcho {
        calls: AtomicU32,
    }

    impl CountingEcho {
        fn new() -> Self {
            CountingEcho { calls: AtomicU32::new(0) }
        }

        fn calls(&self) -> u32 {
            // Relaxed: test-only counter.
            self.calls.load(Ordering::Relaxed)
        }
    }

    impl LanguageModel for CountingEcho {
        fn name(&self) -> &str {
            "counting-echo"
        }

        fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
            // Relaxed: test-only counter.
            self.calls.fetch_add(1, Ordering::Relaxed);
            Ok(Response::new(format!("echo: {}", query.prompt)).with_latency(0.25))
        }
    }

    /// Always fails, counting deliveries.
    struct AlwaysFails {
        calls: AtomicU32,
    }

    impl LanguageModel for AlwaysFails {
        fn name(&self) -> &str {
            "always-fails"
        }

        fn answer(&self, _query: &Query<'_>) -> Result<Response, ModelError> {
            // Relaxed: test-only counter.
            self.calls.fetch_add(1, Ordering::Relaxed);
            Err(ModelError::Unavailable)
        }
    }

    #[test]
    fn hits_serve_stored_response_verbatim() {
        let model = CachedModel::new(CountingEcho::new());
        let q = question(7);
        let query = Query::new("is a a b?", &q, PromptSetting::ZeroShot);
        let first = model.answer(&query).expect("echo model never fails");
        let second = model.answer(&query).expect("echo model never fails");
        assert_eq!(first, second);
        assert_eq!(second.latency_s, 0.25, "hit must preserve stored latency");
        assert_eq!(model.base().calls(), 1, "second call must be served from cache");
        let stats = model.cache().stats();
        assert_eq!((stats.hits, stats.misses, stats.insertions), (1, 1, 1));
        assert!((stats.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cache_stats_aggregate_across_shards() {
        let a = CacheStats { hits: 3, misses: 1, insertions: 1 };
        let b = CacheStats { hits: 1, misses: 3, insertions: 2 };
        let mut via_add_assign = a;
        via_add_assign += b;
        let via_sum: CacheStats = [a, b].into_iter().sum();
        assert_eq!(via_add_assign, via_sum);
        assert_eq!(via_sum, CacheStats { hits: 4, misses: 4, insertions: 3 });
        assert!((via_sum.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn key_distinguishes_question_setting_attempt_and_prompt() {
        let model = CachedModel::new(CountingEcho::new());
        let qa = question(1);
        let qb = question(2);
        let variants = [
            Query::new("p", &qa, PromptSetting::ZeroShot),
            Query::new("p", &qb, PromptSetting::ZeroShot),
            Query::new("p", &qa, PromptSetting::FewShot),
            Query::new("p", &qa, PromptSetting::ZeroShot).with_attempt(1),
            Query::new("p2", &qa, PromptSetting::ZeroShot),
        ];
        for query in &variants {
            model.answer(query).expect("echo model never fails");
        }
        assert_eq!(model.base().calls(), variants.len() as u32);
        assert_eq!(model.cache().len(), variants.len());
        // Re-asking each is now a hit.
        for query in &variants {
            model.answer(query).expect("echo model never fails");
        }
        assert_eq!(model.base().calls(), variants.len() as u32);
    }

    #[test]
    fn errors_are_never_cached() {
        let model = CachedModel::new(AlwaysFails { calls: AtomicU32::new(0) });
        let q = question(3);
        let query = Query::new("p", &q, PromptSetting::ZeroShot);
        for _ in 0..3 {
            assert_eq!(model.answer(&query), Err(ModelError::Unavailable));
        }
        // Relaxed: test-only counter.
        assert_eq!(model.base().calls.load(Ordering::Relaxed), 3);
        assert!(model.cache().is_empty());
        assert_eq!(model.cache().stats().insertions, 0);
    }

    #[test]
    fn version_change_invalidates_but_same_version_keeps() {
        let cache = Arc::new(ResponseCache::with_version(0xAAAA));
        let model = CachedModel::with_cache(CountingEcho::new(), Arc::clone(&cache));
        let q = question(4);
        let query = Query::new("p", &q, PromptSetting::ZeroShot);
        model.answer(&query).expect("echo model never fails");
        assert_eq!(cache.len(), 1);
        cache.set_version(0xAAAA);
        assert_eq!(cache.len(), 1, "same-version stamp must keep entries");
        cache.set_version(0xBBBB);
        assert!(cache.is_empty(), "version change must clear entries");
        model.answer(&query).expect("echo model never fails");
        assert_eq!(model.base().calls(), 2, "post-invalidation call must re-deliver");
    }

    #[test]
    fn taxonomy_edit_changes_digest_and_invalidates() {
        use taxoglimpse_synth::{generate, GenOptions};
        let t = generate(TaxonomyKind::Ebay, GenOptions { seed: 11, scale: 0.05 })
            .expect("ebay generation succeeds at this scale");
        let edited = t.truncate_below(2).taxonomy;
        assert_ne!(t.content_digest(), edited.content_digest());

        let cache = Arc::new(ResponseCache::with_version(t.content_digest()));
        let model = CachedModel::with_cache(CountingEcho::new(), Arc::clone(&cache));
        let q = question(5);
        let query = Query::new("p", &q, PromptSetting::ZeroShot);
        model.answer(&query).expect("echo model never fails");
        cache.set_version(edited.content_digest());
        assert!(cache.is_empty(), "edited snapshot must invalidate the cache");
    }

    #[test]
    fn batch_matches_single_calls_with_and_without_prefix_hint() {
        let q0 = question(10);
        let q1 = question(11);
        let q2 = question(12);
        let prefix = "Example: one Yes\n";
        let prompts: Vec<String> =
            ["is a?", "is b?", "is c?"].iter().map(|s| format!("{prefix}{s}")).collect();
        let questions = [&q0, &q1, &q2];
        let hinted: Vec<Query<'_>> = prompts
            .iter()
            .zip(questions)
            .map(|(p, q)| Query::new(p, q, PromptSetting::FewShot).with_prefix_len(prefix.len()))
            .collect();
        let bare: Vec<Query<'_>> = prompts
            .iter()
            .zip(questions)
            .map(|(p, q)| Query::new(p, q, PromptSetting::FewShot))
            .collect();

        let reference = CachedModel::new(CountingEcho::new());
        let expected: Vec<_> = bare.iter().map(|q| reference.answer(q)).collect();

        let batched = CachedModel::new(CountingEcho::new());
        assert_eq!(batched.answer_batch(&hinted), expected, "hinted batch diverged");
        assert_eq!(batched.base().calls(), 3);
        // Second pass: all hits, regardless of hint presence.
        assert_eq!(batched.answer_batch(&bare), expected, "unhinted batch diverged");
        assert_eq!(batched.base().calls(), 3, "second pass must be fully cached");
        assert_eq!(batched.cache().stats().hits, 3);
    }

    #[test]
    fn reset_keeps_cache_entries() {
        let model = CachedModel::new(CountingEcho::new());
        let q = question(6);
        let query = Query::new("p", &q, PromptSetting::ZeroShot);
        model.answer(&query).expect("echo model never fails");
        model.reset();
        model.answer(&query).expect("echo model never fails");
        assert_eq!(model.base().calls(), 1, "reset must not drop memoized answers");
    }
}
