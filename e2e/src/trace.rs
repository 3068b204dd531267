//! In-memory spans recorded from outside the program, around the public
//! calls into each layer.
//!
//! A span is `(id, parent, name, start_ns, end_ns, count)`; its id is
//! its index. [`Probe`] wraps any [`LanguageModel`] and records one span
//! per `answer`/`answer_batch` call, so a tower of probes
//! (`faults` → `cache` → `llm`) splits model time by wrapper. Calls the
//! bench makes once per query (resilience replay, parse, score) are
//! folded into one span per batch whose duration is their summed time;
//! such a span stays open while its calls run, so model calls made
//! inside them (retries) nest under it.
//!
//! Traced passes run on one thread, so the children of a span never
//! overlap: a span's self time is its duration minus the summed
//! durations of its direct children, which is exactly the part of it
//! they cover.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;
use taxoglimpse_core::model::{LanguageModel, ModelError, Query, Response};

/// Parent id of a root span.
pub const ROOT: u32 = u32::MAX;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Index of the enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Layer boundary the span was recorded at.
    pub name: &'static str,
    /// Start, in nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// End, in nanoseconds since the tracer was created.
    pub end_ns: u64,
    /// Work items the span covers (queries, instances, ...).
    pub count: u64,
}

impl Span {
    fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Spans {
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Spans {
    fn open(&mut self, name: &'static str, start_ns: u64) -> u32 {
        let id = u32::try_from(self.spans.len()).expect("fewer than 4G spans per pass");
        let parent = self.open.last().copied().unwrap_or(ROOT);
        self.spans.push(Span {
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            count: 0,
        });
        self.open.push(id);
        id
    }

    fn close(&mut self, id: u32, end_ns: u64, count: u64) {
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        span.count = count;
    }
}

/// Span recorder shared by the probes of one traced pass.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    state: Mutex<Spans>,
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(Spans::default()),
        }
    }

    /// Nanoseconds since the tracer was created.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Spans> {
        self.state
            .lock()
            .expect("tracer lock is never held across a panic")
    }

    /// Open a span under the innermost open one.
    pub fn begin(&self, name: &'static str) -> u32 {
        let start_ns = self.now_ns();
        self.lock().open(name, start_ns)
    }

    /// Close the innermost open span, which must be `id`.
    pub fn end(&self, id: u32, count: u64) {
        let end_ns = self.now_ns();
        self.lock().close(id, end_ns, count);
    }

    /// Close a span opened with [`Tracer::begin`] as a folded one: its
    /// duration becomes the summed `busy_ns` of the per-item calls that
    /// ran while it was innermost.
    pub fn close_folded(&self, id: u32, busy_ns: u64, count: u64) {
        let mut s = self.lock();
        let end_ns = s.spans[id as usize].start_ns + busy_ns;
        s.close(id, end_ns, count);
    }

    /// Record a closed folded span of `busy_ns` under the innermost open
    /// span, for per-item calls that make no nested calls.
    pub fn folded(&self, name: &'static str, start_ns: u64, busy_ns: u64, count: u64) {
        let mut s = self.lock();
        let id = s.open(name, start_ns);
        s.close(id, start_ns + busy_ns, count);
    }

    /// Every span recorded so far, in open order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Per-name totals over a span list.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Summed self time, in nanoseconds.
    pub self_ns: u64,
    /// Summed duration, in nanoseconds (nested spans of one name count
    /// once each).
    pub total_ns: u64,
    /// Number of spans.
    pub spans: u64,
    /// Summed `count`.
    pub count: u64,
}

impl Totals {
    /// Self time in seconds.
    pub fn self_s(&self) -> f64 {
        self.self_ns as f64 * 1e-9
    }
}

/// Self time of every span: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut covered = vec![0u64; spans.len()];
    for span in spans {
        if span.parent != ROOT {
            covered[span.parent as usize] += span.duration_ns();
        }
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| s.duration_ns().saturating_sub(c))
        .collect()
}

/// Totals by span name.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, Totals> {
    let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(span.name).or_default();
        t.self_ns += self_ns;
        t.total_ns += span.duration_ns();
        t.spans += 1;
        t.count += span.count;
    }
    out
}

/// Write spans as JSON lines: `{"id","parent","name","start_ns","end_ns","count"}`.
pub fn write_jsonl(spans: &[Span], out: &mut impl std::io::Write) -> std::io::Result<()> {
    for (id, s) in spans.iter().enumerate() {
        let parent = if s.parent == ROOT {
            "null".to_owned()
        } else {
            s.parent.to_string()
        };
        writeln!(
            out,
            "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"count\":{}}}",
            s.name, s.start_ns, s.end_ns, s.count
        )?;
    }
    Ok(())
}

/// A model wrapper that records a span around every call into `inner`.
pub struct Probe<'t, M> {
    inner: M,
    name: &'static str,
    tracer: &'t Tracer,
}

impl<'t, M: LanguageModel> Probe<'t, M> {
    /// Record calls into `inner` as spans named `name`.
    pub fn new(inner: M, name: &'static str, tracer: &'t Tracer) -> Self {
        Probe {
            inner,
            name,
            tracer,
        }
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: LanguageModel> LanguageModel for Probe<'_, M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn answer(&self, query: &Query<'_>) -> Result<Response, ModelError> {
        let id = self.tracer.begin(self.name);
        let result = self.inner.answer(query);
        self.tracer.end(id, 1);
        result
    }

    fn answer_batch(&self, queries: &[Query<'_>]) -> Vec<Result<Response, ModelError>> {
        let id = self.tracer.begin(self.name);
        let results = self.inner.answer_batch(queries);
        self.tracer.end(id, queries.len() as u64);
        results
    }

    fn reset(&self) {
        self.inner.reset()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            parent,
            name,
            start_ns,
            end_ns,
            count: 1,
        }
    }

    #[test]
    fn nested_spans_subtract_only_direct_children() {
        // pass [0,100) > batch [10,90) > llm [20,50) > inner [25,35)
        let spans = [
            span(ROOT, "pass", 0, 100),
            span(0, "batch", 10, 90),
            span(1, "llm", 20, 50),
            span(2, "inner", 25, 35),
        ];
        assert_eq!(self_times(&spans), vec![20, 50, 20, 10]);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["llm"].self_ns, 20);
        assert_eq!(totals["llm"].total_ns, 30);
    }

    #[test]
    fn sibling_spans_add_up() {
        // batch [0,100) with prompts [0,10), llm [10,60), parse [60,75)
        let spans = [
            span(ROOT, "batch", 0, 100),
            span(0, "prompts", 0, 10),
            span(0, "llm", 10, 60),
            span(0, "parse", 60, 75),
            span(ROOT, "batch", 100, 130),
            span(4, "llm", 100, 120),
        ];
        let totals = totals_by_name(&spans);
        assert_eq!(totals["batch"].self_ns, 25 + 10);
        assert_eq!(totals["batch"].spans, 2);
        assert_eq!(totals["llm"].self_ns, 70);
        assert_eq!(totals["llm"].count, 2);
    }

    #[test]
    fn folded_spans_own_their_nested_calls() {
        let tracer = Tracer::new();
        let batch = tracer.begin("batch");
        let folded = tracer.begin("resilience");
        let retry = tracer.begin("llm");
        tracer.end(retry, 1);
        let retry_ns =
            tracer.spans()[retry as usize].end_ns - tracer.spans()[retry as usize].start_ns;
        tracer.close_folded(folded, retry_ns + 1_000, 32);
        tracer.folded("parse", tracer.now_ns(), 500, 32);
        tracer.end(batch, 32);
        let spans = tracer.spans();
        assert_eq!(spans[folded as usize].parent, batch);
        assert_eq!(spans[retry as usize].parent, folded);
        assert_eq!(spans[3].parent, batch);
        let totals = totals_by_name(&spans);
        assert_eq!(totals["resilience"].self_ns, 1_000);
        assert_eq!(totals["parse"].self_ns, 500);
        assert_eq!(totals["resilience"].count, 32);
    }
}
