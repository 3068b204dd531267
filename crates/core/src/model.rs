//! The model interface the harness evaluates against.
//!
//! Calling a model is *fallible*: real serving stacks time out, rate
//! limit, truncate and fall over (the paper ran eighteen models behind
//! Azure/OpenAI APIs and a local GPU farm, where all four happen).
//! [`LanguageModel::answer`] therefore returns
//! `Result<Response, ModelError>`; the retry/breaker machinery lives in
//! [`crate::resilience`], and exhausted queries surface as
//! [`crate::metrics::Outcome::Failed`] instead of silent wrong answers.

use crate::prompts::PromptSetting;
use crate::question::Question;
use std::fmt;
use std::sync::Arc;

/// Everything a model receives for one benchmark query.
///
/// A remote API model would look only at [`Query::prompt`]; simulated
/// models additionally inspect the structured question (the stand-in for
/// what a real LLM absorbed from its training data about these
/// entities).
#[derive(Debug, Clone, Copy)]
pub struct Query<'q> {
    /// The fully rendered prompt text (templates + prompting setting).
    /// Borrowed so the runner can render into one reusable buffer
    /// per worker instead of allocating a `String` per query.
    pub prompt: &'q str,
    /// The structured question behind the prompt.
    pub question: &'q Question,
    /// The prompting setting in force.
    pub setting: PromptSetting,
    /// Zero-based retry ordinal: 0 on the first delivery, 1 on the
    /// first retry, and so on. Fault streams mix this in so a retried
    /// query re-rolls its fate instead of failing identically forever;
    /// answer content must NOT depend on it (determinism contract).
    pub attempt: u32,
    /// Byte length of the shared few-shot prefix at the start of
    /// `prompt` (0 when there is none). Purely an amortization *hint*
    /// for [`LanguageModel::answer_batch`]: queries in a batch that
    /// carry the same nonzero `prefix_len` and byte-identical prefix
    /// bytes let a model hash/tokenize the prefix once. Models must
    /// produce identical answers whether or not they honor the hint.
    pub prefix_len: usize,
}

impl<'q> Query<'q> {
    /// A first-delivery query (attempt 0).
    pub fn new(prompt: &'q str, question: &'q Question, setting: PromptSetting) -> Self {
        Query { prompt, question, setting, attempt: 0, prefix_len: 0 }
    }

    /// The same query re-delivered as retry ordinal `attempt`.
    pub fn with_attempt(mut self, attempt: u32) -> Self {
        self.attempt = attempt;
        self
    }

    /// Declare that the first `prefix_len` bytes of the prompt are a
    /// shared rendered prefix (see [`Query::prefix_len`]).
    pub fn with_prefix_len(mut self, prefix_len: usize) -> Self {
        debug_assert!(prefix_len <= self.prompt.len());
        self.prefix_len = prefix_len;
        self
    }
}

/// The batch's shared few-shot prefix: `Some` when every query declares
/// the same nonzero [`Query::prefix_len`] and the prefix bytes match the
/// first query's byte for byte, so a wrong hint can never corrupt what a
/// model derives from it.
pub fn shared_prefix<'p>(queries: &[Query<'p>]) -> Option<&'p str> {
    let first = queries.first()?;
    if first.prefix_len == 0 {
        return None;
    }
    let prefix = first.prompt.get(..first.prefix_len)?;
    queries
        .iter()
        .all(|q| {
            q.prefix_len == prefix.len()
                && q.prompt.len() >= prefix.len()
                && q.prompt.as_bytes()[..prefix.len()] == *prefix.as_bytes()
        })
        .then_some(prefix)
}

/// Why a model call failed. The five classes cover what the paper's
/// serving reality produces: slow answers, throttled answers, cut-off
/// answers, no answers, and garbage answers.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// The request exceeded its deadline.
    Timeout,
    /// The serving side throttled the request; honor `retry_after_s`
    /// (simulated seconds) before retrying.
    RateLimited {
        /// Server-suggested wait before the next attempt, in simulated
        /// seconds.
        retry_after_s: f64,
    },
    /// The completion was cut off mid-answer; `partial` holds whatever
    /// arrived before the cut.
    Truncated {
        /// The prefix of the answer that made it through.
        partial: String,
    },
    /// The serving side is down or refusing connections.
    Unavailable,
    /// The response arrived but was structurally unusable (wrong
    /// encoding, empty body, protocol violation). Retrying cannot help:
    /// the same request deterministically produces the same garbage.
    Malformed,
}

impl ModelError {
    /// Whether a retry can plausibly succeed. [`ModelError::Malformed`]
    /// is the one permanent class; everything else is transient.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, ModelError::Malformed)
    }

    /// Stable lowercase label for tables and logs.
    pub fn label(&self) -> &'static str {
        match self {
            ModelError::Timeout => "timeout",
            ModelError::RateLimited { .. } => "rate-limited",
            ModelError::Truncated { .. } => "truncated",
            ModelError::Unavailable => "unavailable",
            ModelError::Malformed => "malformed",
        }
    }
}

impl fmt::Display for ModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelError::Timeout => write!(f, "request timed out"),
            ModelError::RateLimited { retry_after_s } => {
                write!(f, "rate limited (retry after {retry_after_s:.2}s)")
            }
            ModelError::Truncated { partial } => {
                write!(f, "response truncated after {} bytes", partial.len())
            }
            ModelError::Unavailable => write!(f, "service unavailable"),
            ModelError::Malformed => write!(f, "malformed response"),
        }
    }
}

impl std::error::Error for ModelError {}

/// A successful model completion: the text plus serving metadata.
///
/// Only `text` feeds scoring; `latency_s` accumulates on the simulated
/// clock and `attempts` records how many deliveries the resilience
/// layer needed. Neither is serialized into reports, so metadata can
/// never perturb the byte-identical digest contract.
///
/// The text is shared, not owned: cloning a response (as a cache hit
/// does) bumps a reference count instead of copying the reply, and
/// `&response.text` still reads as a `&str`.
#[derive(Debug, Clone, PartialEq)]
pub struct Response {
    /// The free natural-language answer text.
    pub text: Arc<str>,
    /// Simulated seconds this (successful) delivery took.
    pub latency_s: f64,
    /// Total deliveries including retries (≥ 1); 1 means first try.
    pub attempts: u32,
}

impl Response {
    /// A first-try response with zero latency — what in-process models
    /// (baselines, oracles, fixtures) return.
    pub fn new(text: impl Into<Arc<str>>) -> Self {
        Response { text: text.into(), latency_s: 0.0, attempts: 1 }
    }

    /// Attach a simulated per-delivery latency.
    pub fn with_latency(mut self, latency_s: f64) -> Self {
        self.latency_s = latency_s;
        self
    }
}

/// A language model under evaluation.
///
/// Implementations return *free natural-language text*; the harness
/// parses it with [`crate::parse`]. This mirrors the paper's setup where
/// models answer "Yes", "No", "I don't know" or an option letter in
/// whatever phrasing they like.
pub trait LanguageModel: Send + Sync {
    /// Model name as printed in result tables (e.g. "GPT-4").
    fn name(&self) -> &str;

    /// Answer one query with free text, or report why the call failed.
    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError>;

    /// Answer a batch of queries, one result per query, in order.
    ///
    /// The default implementation is a plain loop over [`Self::answer`],
    /// so every model keeps working unchanged. Implementations may
    /// override it to amortize per-call work (knowledge lookups,
    /// few-shot prefix hashing, tokenizer passes, lock acquisition)
    /// across the batch — but each element of the returned vector MUST
    /// be exactly what `answer` would have returned for that query
    /// alone. Batching is an execution detail; it must never be
    /// observable in the results.
    fn answer_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Response, ModelError>> {
        queries.iter().map(|query| self.answer(query)).collect()
    }

    /// Reset any per-run state (default: no-op). Called by the runner
    /// before each dataset run.
    fn reset(&self) {}
}

/// Blanket implementation so `Box<dyn LanguageModel>` works wherever a
/// `&dyn LanguageModel` is expected.
impl<M: LanguageModel + ?Sized> LanguageModel for Box<M> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        (**self).answer(query)
    }

    fn answer_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Response, ModelError>> {
        (**self).answer_batch(queries)
    }

    fn reset(&self) {
        (**self).reset()
    }
}

/// Blanket implementation so `&M` works wherever a `LanguageModel` is
/// expected — e.g. handing the same model stack to several evaluation
/// calls without cloning.
impl<M: LanguageModel + ?Sized> LanguageModel for &M {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        (**self).answer(query)
    }

    fn answer_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Response, ModelError>> {
        (**self).answer_batch(queries)
    }

    fn reset(&self) {
        (**self).reset()
    }
}

/// Blanket implementation so `Arc<M>` (how the zoo hands out models)
/// works wherever a `LanguageModel` is expected — e.g. inside
/// [`crate::cache::CachedModel`] without re-wrapping.
impl<M: LanguageModel + ?Sized> LanguageModel for Arc<M> {
    fn name(&self) -> &str {
        (**self).name()
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        (**self).answer(query)
    }

    fn answer_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Response, ModelError>> {
        (**self).answer_batch(queries)
    }

    fn reset(&self) {
        (**self).reset()
    }
}

/// A trivial model that always answers a fixed string. Useful as a
/// baseline ("always yes"), for parser tests, and in examples.
#[derive(Debug, Clone)]
pub struct FixedAnswerModel {
    name: String,
    answer: Arc<str>,
}

impl FixedAnswerModel {
    /// A model that answers `answer` to everything.
    pub fn new(name: impl Into<String>, answer: impl Into<Arc<str>>) -> Self {
        FixedAnswerModel { name: name.into(), answer: answer.into() }
    }

    /// The classic always-Yes baseline.
    pub fn always_yes() -> Self {
        Self::new("always-yes", "Yes.")
    }

    /// A maximally conservative model.
    pub fn always_idk() -> Self {
        Self::new("always-idk", "I don't know.")
    }
}

impl LanguageModel for FixedAnswerModel {
    fn name(&self) -> &str {
        &self.name
    }

    fn answer(&self, _query: &Query<'_>) -> Result<Response, ModelError> {
        Ok(Response::new(Arc::clone(&self.answer)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::question::tf_question;

    #[test]
    fn fixed_model_answers_fixed() {
        let m = FixedAnswerModel::always_yes();
        let q = tf_question(0);
        let query = Query::new("p", &q, PromptSetting::ZeroShot);
        assert_eq!(&*m.answer(&query).expect("fixed model never fails").text, "Yes.");
        assert_eq!(m.name(), "always-yes");
        m.reset();
    }

    #[test]
    fn boxed_models_delegate() {
        let m: Box<dyn LanguageModel> = Box::new(FixedAnswerModel::always_idk());
        assert_eq!(m.name(), "always-idk");
    }

    #[test]
    fn query_attempt_defaults_to_zero_and_rebinds() {
        let q = tf_question(0);
        let query = Query::new("p", &q, PromptSetting::ZeroShot);
        assert_eq!(query.attempt, 0);
        assert_eq!(query.with_attempt(3).attempt, 3);
    }

    #[test]
    fn query_prefix_len_defaults_to_zero_and_rebinds() {
        let q = tf_question(0);
        let query = Query::new("pp", &q, PromptSetting::FewShot);
        assert_eq!(query.prefix_len, 0);
        assert_eq!(query.with_prefix_len(1).prefix_len, 1);
    }

    #[test]
    fn default_answer_batch_loops_in_order() {
        let m = FixedAnswerModel::always_yes();
        let q = tf_question(0);
        let prompts = ["p0", "p1", "p2"];
        let queries: Vec<Query<'_>> =
            prompts.iter().map(|p| Query::new(p, &q, PromptSetting::ZeroShot)).collect();
        let batch = m.answer_batch(&queries);
        assert_eq!(batch.len(), 3);
        for (result, query) in batch.iter().zip(&queries) {
            assert_eq!(result, &m.answer(query));
        }
        // The blanket impls forward answer_batch too.
        let boxed: Box<dyn LanguageModel> = Box::new(FixedAnswerModel::always_idk());
        assert_eq!(boxed.answer_batch(&queries).len(), 3);
        let arced = Arc::new(FixedAnswerModel::always_idk());
        assert_eq!(arced.answer_batch(&queries).len(), 3);
        assert_eq!(arced.name(), "always-idk");
        arced.reset();
        assert!(arced.answer(&queries[0]).is_ok());
    }

    #[test]
    fn error_retryability_and_labels() {
        assert!(ModelError::Timeout.is_retryable());
        assert!(ModelError::RateLimited { retry_after_s: 1.0 }.is_retryable());
        assert!(ModelError::Truncated { partial: "Ye".into() }.is_retryable());
        assert!(ModelError::Unavailable.is_retryable());
        assert!(!ModelError::Malformed.is_retryable());
        assert_eq!(ModelError::Timeout.label(), "timeout");
        assert_eq!(ModelError::Malformed.to_string(), "malformed response");
        assert!(ModelError::Truncated { partial: "abc".into() }.to_string().contains("3 bytes"));
    }

    #[test]
    fn response_builder_carries_metadata() {
        let r = Response::new("Yes.").with_latency(0.8);
        assert_eq!(&*r.text, "Yes.");
        assert_eq!(r.latency_s, 0.8);
        assert_eq!(r.attempts, 1);
    }
}
