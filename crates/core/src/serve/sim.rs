//! Virtual-clock event scheduler for the serving loop.
//!
//! Serving is simulated as a discrete-event system: every state change
//! (a tenant's next arrival, a batch deadline expiring, a dispatched
//! batch completing) is an [`Event`] at a virtual timestamp. There is
//! no wall clock anywhere — virtual time advances only by popping the
//! next event — so the whole simulation is a pure function of its
//! seeds and D002-clean by construction.
//!
//! Determinism hinges on the pop order being total. [`EventKey`]
//! orders events by **time, then tenant, then sequence number**:
//!
//! * time: non-negative `f64` stored as raw bits — for non-negative
//!   IEEE-754 doubles the bit pattern orders exactly like the value,
//!   so ordering never rounds through a comparison epsilon;
//! * tenant: at equal timestamps, tenant arrivals (small ids) process
//!   before system events ([`SYSTEM_TENANT`] = `u32::MAX`), so a
//!   request arriving exactly at a batch deadline joins the batch;
//! * sequence: a monotonically increasing schedule counter, unique per
//!   event, breaking any remaining tie in schedule order.
//!
//! The scheduler also owns the run's [`TraceDigest`]: a chained
//! `mix64` fold over every arrival, shed, dispatch, and completion.
//! Two runs with byte-identical traces produce the same digest; the
//! worker-count invariance tests and the pinned serve digests compare
//! nothing else.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use taxoglimpse_synth::rng::mix64;

/// Tenant id reserved for scheduler-internal events (batch deadlines
/// and completions). Real tenants use small ids, so at equal times
/// arrivals always pop first.
pub const SYSTEM_TENANT: u32 = u32::MAX;

/// Total order over scheduled events: time, then tenant, then
/// schedule sequence.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Virtual timestamp as raw IEEE-754 bits (non-negative, so bit
    /// order equals numeric order).
    pub time_bits: u64,
    /// Originating tenant, or [`SYSTEM_TENANT`].
    pub tenant: u32,
    /// Unique, monotonically increasing schedule counter.
    pub seq: u64,
}

impl EventKey {
    /// The virtual timestamp in seconds.
    pub fn time_s(&self) -> f64 {
        f64::from_bits(self.time_bits)
    }
}

/// What happens when a scheduled timestamp is reached.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Event {
    /// A tenant's next request arrives (payload is drawn from the
    /// tenant's stream at processing time).
    Arrival {
        /// The arriving tenant.
        tenant: u32,
    },
    /// A batching deadline for a model lane expired. Stale deadlines
    /// (scheduled before a dispatch that already drained the lane) are
    /// recognized by an epoch mismatch and ignored.
    BatchDeadline {
        /// Lane (model index) the deadline belongs to.
        lane: u32,
        /// The lane's dispatch epoch when the deadline was scheduled.
        epoch: u64,
    },
    /// A dispatched batch finished serving on a model lane.
    BatchDone {
        /// Lane (model index) whose in-flight batch completed.
        lane: u32,
    },
}

/// The event queue: a min-heap over [`EventKey`], popping the globally
/// next event. Keys are unique (the sequence counter is), so pop order
/// is total and identical across runs.
#[derive(Debug, Default)]
pub struct EventQueue {
    heap: BinaryHeap<Reverse<(EventKey, Event)>>,
    next_seq: u64,
}

impl EventQueue {
    /// An empty queue.
    pub fn new() -> Self {
        EventQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    /// Schedule `event` at virtual time `time_s` on behalf of `tenant`
    /// (use [`SYSTEM_TENANT`] for scheduler-internal events).
    pub fn schedule(&mut self, time_s: f64, tenant: u32, event: Event) {
        debug_assert!(time_s >= 0.0 && time_s.is_finite());
        let key = EventKey { time_bits: time_s.to_bits(), tenant, seq: self.next_seq };
        self.next_seq += 1;
        self.heap.push(Reverse((key, event)));
    }

    /// Pop the next event in (time, tenant, seq) order.
    pub fn pop(&mut self) -> Option<(EventKey, Event)> {
        self.heap.pop().map(|Reverse(entry)| entry)
    }

    /// Number of events still scheduled.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

/// Chained `mix64` fold over the serving trace.
///
/// Each record folds a small tag plus its payload words into the
/// running digest, so the digest commits to the exact sequence of
/// arrivals, sheds, dispatches, and completions — order included.
/// Cheap on purpose: a few integer multiplies per event, no string
/// formatting, because the serving loop's wall-clock throughput is
/// itself a benchmark headline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceDigest {
    state: u64,
    events: u64,
}

impl Default for TraceDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl TraceDigest {
    /// A fresh digest over the empty trace.
    pub fn new() -> Self {
        TraceDigest { state: 0x7A05_E4E5_D16E_5700, events: 0 }
    }

    fn fold(&mut self, word: u64) {
        self.state = mix64(self.state ^ word);
    }

    /// Record one trace entry: a tag plus its payload words.
    pub fn record(&mut self, tag: u64, words: &[u64]) {
        self.events += 1;
        self.fold(tag);
        for &word in words {
            self.fold(word);
        }
    }

    /// The digest over everything recorded so far.
    pub fn digest(&self) -> u64 {
        self.state
    }

    /// Number of trace entries recorded.
    pub fn events(&self) -> u64 {
        self.events
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pop_order_is_time_then_tenant_then_seq() {
        let mut q = EventQueue::new();
        q.schedule(2.0, 0, Event::Arrival { tenant: 0 });
        q.schedule(1.0, 5, Event::Arrival { tenant: 5 });
        q.schedule(1.0, SYSTEM_TENANT, Event::BatchDone { lane: 0 });
        q.schedule(1.0, 5, Event::BatchDeadline { lane: 1, epoch: 0 });
        q.schedule(1.0, 2, Event::Arrival { tenant: 2 });

        assert_eq!(q.len(), 5);
        let order: Vec<(f64, u32, u64)> = std::iter::from_fn(|| q.pop())
            .map(|(k, _)| (k.time_s(), k.tenant, k.seq))
            .collect();
        assert_eq!(
            order,
            vec![
                (1.0, 2, 4),              // earliest time, smallest tenant
                (1.0, 5, 1),              // tenant tie broken by schedule seq
                (1.0, 5, 3),
                (1.0, SYSTEM_TENANT, 2),  // system events after arrivals
                (2.0, 0, 0),
            ]
        );
        assert!(q.is_empty());
    }

    #[test]
    fn time_bits_order_matches_numeric_order() {
        let times: [f64; 7] = [0.0, 1e-9, 0.5, 1.0, 1.0000000001, 3.25, 1e6];
        for pair in times.windows(2) {
            assert!(pair[0].to_bits() < pair[1].to_bits(), "{} vs {}", pair[0], pair[1]);
        }
    }

    #[test]
    fn trace_digest_is_order_sensitive() {
        let mut a = TraceDigest::new();
        let mut b = TraceDigest::new();
        a.record(1, &[7, 8]);
        a.record(2, &[9]);
        b.record(2, &[9]);
        b.record(1, &[7, 8]);
        assert_eq!(a.events(), 2);
        assert_eq!(b.events(), 2);
        assert_ne!(a.digest(), b.digest(), "reordered traces must not collide");

        let mut c = TraceDigest::new();
        c.record(1, &[7, 8]);
        c.record(2, &[9]);
        assert_eq!(a.digest(), c.digest(), "identical traces digest identically");
    }
}
