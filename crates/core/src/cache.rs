//! Deterministic memoized response cache (§6 cost model).
//!
//! The paper's scalability study shows cost-per-query is the limiting
//! factor in using an LLM *as* a taxonomy, and real traffic is heavily
//! repeated — so successful answers are worth memoizing. This module is
//! the exact-memoization layer: a [`ResponseCache`] keyed on
//! **(model, question identity, prompt setting, prompt text, retry
//! ordinal)** and a [`CachedModel`] middleware that consults it before
//! delegating to the wrapped model.
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
//!    name, structured question, setting, attempt, prompt bytes) before
//!    being served: a 64-bit key collision can redirect a lookup to the
//!    wrong bucket but can never produce a wrong answer.
//! 4. **No invalidation is needed.** Answers are pure functions of the
//!    query, and rule 3 matches every material of it. After a taxonomy
//!    edit, a query either differs in some material (a miss) or is the
//!    same delivery with the same answer (a correct hit), so one cache
//!    can serve runs over any number of snapshots.
//!
//! Storage is flat. Each of the 64 shards holds fixed-size slots, one
//! byte arena with every entry's model name, prompt and question
//! encoding back to back, and an open-addressed table of slot ids. A
//! slot keeps the reply's shared text, so a hit clones one reference
//! count: it takes the shard lock, probes, verifies the materials byte
//! for byte in place, and allocates and copies nothing. The 64-bit key
//! mixes the prompt's length, not a hash of its bytes: rule 3 compares
//! those bytes anyway, so hashing them too would read every prompt
//! twice. The traffic counters live in the shards, under the lock each
//! lookup already takes.
//!
//! Composition with the PR 5 fault/resilience stack: the cache sits
//! *under* the fault injector (`FaultInjector<CachedModel<M>>`), so
//! fault streams — keyed on question identity and attempt — decide
//! first, and the cache memoizes only what a faultless delivery would
//! have produced. Cached runs therefore replay the exact same fault
//! sequence as uncached ones.

use std::sync::{Arc, Mutex};

use taxoglimpse_synth::rng::{hash_str, mix64};

use crate::model::{LanguageModel, ModelError, Query, Response};
use crate::prompts::PromptSetting;
use crate::question::{NegativeKind, Question, QuestionBody};

/// Shard count (power of two; the low key bits pick the shard). 64
/// shards keep lock contention negligible at the grid's worker counts
/// while staying cheap to sum over.
const SHARDS: usize = 64;

/// Key bits spent on the shard choice; the probe table hashes the rest.
const SHARD_BITS: u32 = SHARDS.trailing_zeros();

/// An empty probe-table cell.
const EMPTY: u32 = u32::MAX;

/// Probe-table size of a shard's first insertion. The table doubles
/// whenever it would pass half full, so linear probes stay short.
const MIN_CELLS: usize = 16;

/// Seed of the model-name hash the key starts from.
const KEY_SEED: u64 = 0xCAC4_E05E_ED00_0001;

/// The materials of one delivery, borrowed: everything a hit must match.
#[derive(Debug, Clone, Copy)]
struct Probe<'a> {
    key: u64,
    model: &'a str,
    setting: PromptSetting,
    attempt: u32,
    prompt: &'a str,
    question: &'a Question,
}

impl<'a> Probe<'a> {
    fn new(key: u64, model: &'a str, query: &Query<'a>) -> Self {
        Probe {
            key,
            model,
            setting: query.setting,
            attempt: query.attempt,
            prompt: query.prompt,
            question: query.question,
        }
    }
}

/// One memoized delivery as a fixed-size record: the reply's shared
/// text and metadata, and where its model name, prompt and question
/// encoding sit back to back in the shard arena from `offset`.
struct Slot {
    key: u64,
    offset: usize,
    text: Arc<str>,
    latency_s: f64,
    model_len: u32,
    prompt_len: u32,
    question_len: u32,
    attempt: u32,
    attempts: u32,
    setting: PromptSetting,
}

impl Slot {
    /// The entry's model name, prompt and question encoding in `arena`.
    fn parts<'b>(&self, arena: &'b [u8]) -> [&'b [u8]; 3] {
        let mut at = self.offset;
        [self.model_len, self.prompt_len, self.question_len].map(|len| {
            let part = &arena[at..at + len as usize];
            at += len as usize;
            part
        })
    }

    /// Whether this entry is exactly the delivery `probe` asks for.
    fn verifies(&self, arena: &[u8], probe: &Probe<'_>) -> bool {
        if self.key != probe.key {
            return false;
        }
        let [model, prompt, question] = self.parts(arena);
        self.setting == probe.setting
            && self.attempt == probe.attempt
            && model == probe.model.as_bytes()
            && prompt == probe.prompt.as_bytes()
            && encodes(probe.question, question)
    }
}

/// One lock's worth of the cache: fixed-size slots, one byte arena for
/// their materials, an open-addressed table of slot ids, and the
/// traffic counters of the lookups that landed here.
#[derive(Default)]
struct Shard {
    slots: Vec<Slot>,
    arena: Vec<u8>,
    /// Slot ids by key, linear probing from the key bits above
    /// [`SHARD_BITS`]; a power of two long, at most half full, and
    /// empty until the first insertion.
    index: Vec<u32>,
    stats: CacheStats,
}

impl Shard {
    /// `Ok(slot id)` of the entry that verifies against `probe`, or
    /// `Err(cell)`: the empty cell that ends its probe sequence. Needs a
    /// nonempty index.
    fn locate(&self, probe: &Probe<'_>) -> Result<usize, usize> {
        let mask = self.index.len() - 1;
        let mut cell = (probe.key >> SHARD_BITS) as usize & mask;
        loop {
            let id = self.index[cell];
            if id == EMPTY {
                return Err(cell);
            }
            if self.slots[id as usize].verifies(&self.arena, probe) {
                return Ok(id as usize);
            }
            cell = (cell + 1) & mask;
        }
    }

    /// Serve a verified hit, or count a miss. The stored response is
    /// returned verbatim (text, latency, attempts); see module rule 2.
    fn find(&mut self, probe: &Probe<'_>) -> Option<Response> {
        let found = if self.index.is_empty() { None } else { self.locate(probe).ok() };
        let Some(id) = found else {
            self.stats.misses += 1;
            return None;
        };
        self.stats.hits += 1;
        let slot = &self.slots[id];
        Some(Response { text: Arc::clone(&slot.text), latency_s: slot.latency_s, attempts: slot.attempts })
    }

    /// Store a successful delivery. Two racing misses may both compute
    /// the (identical) answer; the second insertion is dropped and
    /// counted as a duplicate. A material longer than `u32::MAX` bytes
    /// is never stored.
    fn insert(&mut self, probe: &Probe<'_>, response: &Response) {
        let [Ok(model_len), Ok(prompt_len)] =
            [probe.model, probe.prompt].map(|part| u32::try_from(part.len()))
        else {
            return;
        };
        let id = match u32::try_from(self.slots.len()) {
            Ok(id) if id != EMPTY => id,
            _ => return,
        };
        if 2 * (self.slots.len() + 1) > self.index.len() {
            self.grow();
        }
        let Err(cell) = self.locate(probe) else {
            self.stats.duplicates += 1;
            return;
        };
        let offset = self.arena.len();
        self.arena.extend_from_slice(probe.model.as_bytes());
        self.arena.extend_from_slice(probe.prompt.as_bytes());
        let question_start = self.arena.len();
        encode_question(probe.question, &mut self.arena);
        let Ok(question_len) = u32::try_from(self.arena.len() - question_start) else {
            self.arena.truncate(offset);
            return;
        };
        self.index[cell] = id;
        self.slots.push(Slot {
            key: probe.key,
            offset,
            text: Arc::clone(&response.text),
            latency_s: response.latency_s,
            model_len,
            prompt_len,
            question_len,
            attempt: probe.attempt,
            attempts: response.attempts,
            setting: probe.setting,
        });
        self.stats.insertions += 1;
    }

    /// Double the probe table (or allocate the first one) and re-place
    /// every slot id.
    fn grow(&mut self) {
        let cells = (2 * self.index.len()).max(MIN_CELLS);
        let mask = cells - 1;
        let mut index = vec![EMPTY; cells];
        for (id, slot) in self.slots.iter().enumerate() {
            let mut cell = (slot.key >> SHARD_BITS) as usize & mask;
            while index[cell] != EMPTY {
                cell = (cell + 1) & mask;
            }
            // Ids fit: `insert` never pushes a slot past `EMPTY - 1`.
            index[cell] = id as u32;
        }
        self.index = index;
    }
}

/// Where [`encode_question`] writes its bytes: appended to a buffer on
/// insertion ([`Vec<u8>`]), or compared in place against a stored
/// encoding on lookup ([`Matcher`]). One encoder serves both, so the
/// encoding a hit is checked against is the one that was stored.
trait Sink {
    fn put(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    fn put(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// Checks an encoding against stored bytes as it is written: `rest` is
/// what remains to match, and `None` once a byte differed.
struct Matcher<'a> {
    rest: Option<&'a [u8]>,
}

impl Sink for Matcher<'_> {
    fn put(&mut self, bytes: &[u8]) {
        self.rest = self.rest.and_then(|rest| rest.strip_prefix(bytes));
    }
}

/// Whether `stored` is exactly `question`'s encoding, compared without
/// writing the encoding anywhere.
fn encodes(question: &Question, stored: &[u8]) -> bool {
    let mut matcher = Matcher { rest: Some(stored) };
    encode_question(question, &mut matcher);
    matcher.rest.is_some_and(<[u8]>::is_empty)
}

/// Write an injective encoding of `question` to `out`: fixed-width
/// integers, length-prefixed strings and a tag per body variant, so two
/// questions encode to the same bytes exactly when they compare equal.
/// The patterns name every field: a field added to [`Question`] or
/// [`QuestionBody`] fails to compile here until it is encoded.
fn encode_question(question: &Question, out: &mut impl Sink) {
    let Question {
        id,
        taxonomy,
        child,
        child_level,
        parent_level,
        true_parent,
        instance_typing,
        body,
        // Derived from the names above, and every memo compares equal.
        surface_memo: _,
    } = question;
    out.put(&id.to_le_bytes());
    out.put(&[*taxonomy as u8]);
    put_str(out, child);
    put_len(out, *child_level);
    put_len(out, *parent_level);
    put_str(out, true_parent);
    out.put(&[u8::from(*instance_typing)]);
    match body {
        QuestionBody::TrueFalse { candidate, expected_yes, negative } => {
            out.put(&[0]);
            put_str(out, candidate);
            let negative = match negative {
                None => 0,
                Some(NegativeKind::Easy) => 1,
                Some(NegativeKind::Hard) => 2,
            };
            out.put(&[u8::from(*expected_yes), negative]);
        }
        QuestionBody::Mcq { options, correct } => {
            out.put(&[1]);
            for option in options {
                put_str(out, option);
            }
            out.put(&[*correct]);
        }
        QuestionBody::Sibling { options, correct } => {
            out.put(&[2]);
            put_len(out, options.len());
            for option in options {
                put_str(out, option);
            }
            match correct {
                None => out.put(&[0]),
                Some(index) => out.put(&[1, *index]),
            }
        }
    }
}

fn put_len(out: &mut impl Sink, n: usize) {
    out.put(&(n as u64).to_le_bytes());
}

fn put_str(out: &mut impl Sink, s: &str) {
    put_len(out, s.len());
    out.put(s.as_bytes());
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
    /// Deliveries dropped at insertion because a racing miss stored the
    /// same delivery first.
    pub duplicates: u64,
}

impl CacheStats {
    /// The fraction of lookups a one-worker run serves from the cache:
    /// `(hits + duplicates) / (hits + misses)`, 0.0 when none happened.
    /// A miss that races another worker's miss on the same delivery
    /// shows up as a duplicate at insertion, so the rate does not
    /// depend on scheduling.
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            (self.hits + self.duplicates) as f64 / total as f64
        }
    }
}

// Counters are additive: `ResponseCache::stats` sums its shards,
// and callers sum the snapshots of several caches (one per serving
// lane, say) into one view.
crate::counters!(CacheStats { hits, misses, insertions, duplicates });

/// A sharded exact-memoization store for model responses. See the
/// module docs for the key derivation and correctness rules.
pub struct ResponseCache {
    shards: Vec<Mutex<Shard>>,
}

impl std::fmt::Debug for ResponseCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResponseCache")
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
    /// An empty cache.
    pub fn new() -> Self {
        ResponseCache { shards: (0..SHARDS).map(|_| Mutex::new(Shard::default())).collect() }
    }

    /// Number of memoized deliveries currently stored.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard lock not poisoned").slots.len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Traffic counters so far, summed over the shards.
    pub fn stats(&self) -> CacheStats {
        self.shards.iter().map(|s| s.lock().expect("cache shard lock not poisoned").stats).sum()
    }

    /// Hash of the model half of the key, computed once per batch.
    fn model_key(model_name: &str) -> u64 {
        hash_str(KEY_SEED, model_name)
    }

    /// Mix the query's setting, attempt, taxonomy and question id
    /// (packed into two words) and its prompt length into `model_key`.
    fn key(model_key: u64, query: &Query<'_>) -> u64 {
        let small = (query.setting as u64)
            | (u64::from(query.attempt) << 8)
            | ((query.question.taxonomy as u64) << 40);
        mix64(mix64(mix64(model_key ^ small) ^ query.question.id) ^ query.prompt.len() as u64)
    }

    fn shard(&self, key: u64) -> &Mutex<Shard> {
        &self.shards[(key as usize) & (SHARDS - 1)]
    }

    /// Serve a verified hit, or count a miss.
    fn lookup(&self, probe: &Probe<'_>) -> Option<Response> {
        let mut shard = self.shard(probe.key).lock().expect("cache shard lock not poisoned");
        let found = shard.find(probe);
        drop(shard);
        found
    }

    /// Store a successful delivery.
    fn insert(&self, probe: &Probe<'_>, response: &Response) {
        let mut shard = self.shard(probe.key).lock().expect("cache shard lock not poisoned");
        shard.insert(probe, response);
        drop(shard);
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
    /// Wrap `base` with a fresh private cache.
    pub fn new(base: M) -> Self {
        Self::with_cache(base, Arc::new(ResponseCache::new()))
    }

    /// Wrap `base` with a shared cache (e.g. one reused across repeated
    /// runs or serving lanes).
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
        self.answer_batch(std::slice::from_ref(query))
            .pop()
            .expect("answer_batch returns one result per query")
    }

    /// Hits go straight into the returned vector. The misses go to the
    /// base model as one sub-batch, or as the caller's own slice when
    /// every query missed, and its successful deliveries are stored.
    fn answer_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Response, ModelError>> {
        let name = self.base.name();
        let model_key = ResponseCache::model_key(name);
        let mut results = Vec::with_capacity(queries.len());
        let mut misses: Vec<(usize, u64)> = Vec::new();
        for (i, query) in queries.iter().enumerate() {
            let key = ResponseCache::key(model_key, query);
            match self.cache.lookup(&Probe::new(key, name, query)) {
                Some(hit) => results.push(Ok(hit)),
                None => {
                    // A placeholder, overwritten by the miss's delivery.
                    results.push(Err(ModelError::Unavailable));
                    misses.push((i, key));
                }
            }
        }
        if misses.is_empty() {
            return results;
        }
        let all_missed = misses.len() == queries.len();
        let answers = if all_missed {
            self.base.answer_batch(queries)
        } else {
            let miss_queries: Vec<Query<'_>> = misses.iter().map(|&(i, _)| queries[i]).collect();
            self.base.answer_batch(&miss_queries)
        };
        assert_eq!(answers.len(), misses.len(), "answer_batch must return exactly one result per query");
        for (&(i, key), answer) in misses.iter().zip(&answers) {
            if let Ok(response) = answer {
                self.cache.insert(&Probe::new(key, name, &queries[i]), response);
            }
        }
        if all_missed {
            return answers;
        }
        for ((i, _), answer) in misses.into_iter().zip(answers) {
            results[i] = answer;
        }
        results
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
    use crate::question::tf_question as question;
    use std::sync::atomic::{AtomicU32, Ordering};

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
        let a = CacheStats { hits: 3, misses: 1, insertions: 1, duplicates: 0 };
        let b = CacheStats { hits: 1, misses: 3, insertions: 2, duplicates: 1 };
        let mut via_add_assign = a;
        via_add_assign += b;
        let via_sum: CacheStats = [a, b].into_iter().sum();
        assert_eq!(via_add_assign, via_sum);
        assert_eq!(via_sum, CacheStats { hits: 4, misses: 4, insertions: 3, duplicates: 1 });
        assert!((via_sum.hit_rate() - 0.625).abs() < 1e-12);
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

    /// A question per body variant, then each with exactly one field
    /// changed (every `Question` field and every body field), plus a
    /// pair whose names only differ in where `child` ends.
    fn question_variants() -> Vec<Question> {
        let base = |body| Question {
            id: 9,
            taxonomy: TaxonomyKind::Ebay,
            child: "ab".to_owned(),
            child_level: 2,
            parent_level: 1,
            true_parent: "cd".to_owned(),
            instance_typing: false,
            body,
            surface_memo: Default::default(),
        };
        let options = || ["w", "x", "y", "z"].map(str::to_owned);
        let bodies = [
            QuestionBody::TrueFalse { candidate: "cd".to_owned(), expected_yes: true, negative: None },
            QuestionBody::Mcq { options: options(), correct: 0 },
            QuestionBody::Sibling { options: vec!["w".to_owned(), "x".to_owned()], correct: None },
        ];
        let mut out = Vec::new();
        for body in bodies {
            let q = base(body.clone());
            let edit = |change: &dyn Fn(&mut Question)| {
                let mut v = q.clone();
                change(&mut v);
                v
            };
            out.push(q.clone());
            out.push(edit(&|v| v.id += 1));
            out.push(edit(&|v| v.taxonomy = TaxonomyKind::Amazon));
            out.push(edit(&|v| v.child.push('!')));
            out.push(edit(&|v| v.child_level += 1));
            out.push(edit(&|v| v.parent_level += 1));
            out.push(edit(&|v| v.true_parent.push('!')));
            out.push(edit(&|v| v.instance_typing = true));
            out.push(edit(&|v| (v.child, v.true_parent) = ("a".to_owned(), "bcd".to_owned())));
            let bodies: Vec<QuestionBody> = match body {
                QuestionBody::TrueFalse { candidate, expected_yes, negative } => vec![
                    QuestionBody::TrueFalse { candidate: "ce".to_owned(), expected_yes, negative },
                    QuestionBody::TrueFalse { candidate: candidate.clone(), expected_yes: false, negative },
                    QuestionBody::TrueFalse {
                        candidate: candidate.clone(),
                        expected_yes,
                        negative: Some(NegativeKind::Easy),
                    },
                    QuestionBody::TrueFalse { candidate, expected_yes, negative: Some(NegativeKind::Hard) },
                ],
                QuestionBody::Mcq { options, correct } => (0..4)
                    .map(|i| {
                        let mut options = options.clone();
                        options[i].push('!');
                        QuestionBody::Mcq { options, correct }
                    })
                    .chain([QuestionBody::Mcq { options: options.clone(), correct: 1 }])
                    .collect(),
                QuestionBody::Sibling { options, correct } => vec![
                    QuestionBody::Sibling { options: vec!["w".to_owned(), "xx".to_owned()], correct },
                    QuestionBody::Sibling { options: vec!["wx".to_owned()], correct },
                    QuestionBody::Sibling { options: options.clone(), correct: Some(0) },
                    QuestionBody::Sibling { options, correct: Some(1) },
                ],
            };
            out.extend(bodies.into_iter().map(|body| Question { body, ..q.clone() }));
        }
        out
    }

    /// Two questions encode alike exactly when they compare equal, and
    /// the matcher accepts exactly the stored encoding of an equal
    /// question.
    #[test]
    fn question_encoding_is_injective() {
        let questions = question_variants();
        let encoded: Vec<Vec<u8>> = questions
            .iter()
            .map(|q| {
                let mut out = Vec::new();
                encode_question(q, &mut out);
                out
            })
            .collect();
        for (a, ea) in questions.iter().zip(&encoded) {
            for (b, eb) in questions.iter().zip(&encoded) {
                assert_eq!(a == b, ea == eb, "{a:?} vs {b:?}");
                assert_eq!(a == b, encodes(a, eb), "matcher: {a:?} vs {b:?}");
            }
            // A stored encoding that is a strict prefix or extension of
            // the question's never matches.
            assert!(!encodes(a, &ea[..ea.len() - 1]), "{a:?} matched its prefix");
            assert!(!encodes(a, &[ea.as_slice(), &[0]].concat()), "{a:?} matched its extension");
        }
    }

    /// Every delivery shares one key, so they all share one probe
    /// chain: only the material checks, the question's through the
    /// matcher, tell them apart.
    #[test]
    fn colliding_keys_never_serve_another_delivery() {
        const KEY: u64 = 0x5EED;
        let questions = question_variants();
        let base = Probe {
            key: KEY,
            model: "m",
            setting: PromptSetting::ZeroShot,
            attempt: 0,
            prompt: "Is ab a type of cd?",
            question: &questions[0],
        };
        let mut probes = vec![
            base,
            Probe { model: "n", ..base },
            Probe { setting: PromptSetting::FewShot, ..base },
            Probe { setting: PromptSetting::ChainOfThought, ..base },
            Probe { attempt: 1, ..base },
            Probe { prompt: "Is ab a type of ce?", ..base },
        ];
        probes.extend(questions[1..].iter().map(|question| Probe { question, ..base }));

        let mut shard = Shard::default();
        let response = |i: usize| Response::new(format!("r{i}")).with_latency(i as f64);
        for (i, probe) in probes.iter().enumerate() {
            shard.insert(probe, &response(i));
        }
        assert_eq!(shard.slots.len(), probes.len(), "a distinct delivery was taken for a duplicate");
        for (i, probe) in probes.iter().enumerate() {
            assert_eq!(shard.find(probe), Some(response(i)), "delivery {i}: {probe:?}");
        }
        // Re-inserting stores nothing but counts a duplicate, and an
        // absent delivery misses.
        shard.insert(&base, &response(0));
        assert_eq!(shard.slots.len(), probes.len());
        assert_eq!(shard.find(&Probe { attempt: 2, ..base }), None);
        let n = probes.len() as u64;
        assert_eq!(shard.stats, CacheStats { hits: n, misses: 1, insertions: n, duplicates: 1 });
    }

    /// The key mixes the prompt's length, not its bytes: prompts of one
    /// length for the same question, setting and attempt share a key,
    /// and verification alone keeps their replies apart.
    #[test]
    fn equal_length_prompts_are_distinct_entries() {
        let model = CachedModel::new(CountingEcho::new());
        let q = question(4);
        let prompts = ["is a a b?", "is a a c?", "is c a b?"];
        let queries = prompts.map(|p| Query::new(p, &q, PromptSetting::ZeroShot));
        let model_key = ResponseCache::model_key(model.name());
        assert!(queries.iter().all(|query| ResponseCache::key(model_key, query)
            == ResponseCache::key(model_key, &queries[0])));
        for _ in 0..2 {
            for (query, prompt) in queries.iter().zip(prompts) {
                let reply = model.answer(query).expect("echo model never fails");
                assert_eq!(&*reply.text, format!("echo: {prompt}"));
            }
        }
        assert_eq!(model.base().calls(), 3, "the second round is served from the cache");
        assert_eq!(model.cache().len(), 3);
        assert_eq!(model.cache().stats().hits, 3);
    }

    /// A hit shares the stored reply's text instead of copying it.
    #[test]
    fn hits_share_the_stored_text() {
        let model = CachedModel::new(CountingEcho::new());
        let q = question(5);
        let query = Query::new("is a a b?", &q, PromptSetting::ZeroShot);
        let delivered = model.answer(&query).expect("echo model never fails");
        for _ in 0..2 {
            let hit = model.answer(&query).expect("echo model never fails");
            assert!(Arc::ptr_eq(&hit.text, &delivered.text), "a hit copied its reply");
        }
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
