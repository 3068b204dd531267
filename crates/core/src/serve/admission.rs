//! Admission control: per-tenant token buckets, bounded lane queues,
//! and breaker-aware load shedding — all in virtual time.
//!
//! A request is admitted only if it clears three deterministic gates,
//! in a fixed order so the shed *reason* is as reproducible as the
//! shed itself:
//!
//! 1. **Rate limit** — the tenant's token bucket, refilled lazily at
//!    `bucket_rate_qps` up to `bucket_burst`, must hold a whole token.
//!    Refill amounts are pure arithmetic over virtual timestamps, so
//!    two runs see bit-identical token levels.
//! 2. **Overload trip** — if the lane's circuit breaker (the
//!    [`crate::resilience`] machinery inside the lane's session) is
//!    open and the lane already has queued work, the request is shed:
//!    queueing more behind a tripped backend only burns latency. The
//!    head-of-line request still goes through, which is what feeds the
//!    breaker its half-open probes and lets the lane recover.
//! 3. **Queue bound** — the lane's pending queue is capacity-bounded
//!    with deterministic tail drop.
//!
//! Shed requests are counted per reason and per tenant; they never
//! reach a model.

use crate::resilience::BreakerState;

/// Why admission refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShedReason {
    /// The tenant's token bucket was empty.
    RateLimited,
    /// The lane's breaker is open and work is already queued.
    Overload,
    /// The lane's pending queue is full.
    QueueFull,
}

impl ShedReason {
    /// Stable small code for trace digests.
    pub fn code(&self) -> u64 {
        match self {
            ShedReason::RateLimited => 1,
            ShedReason::Overload => 2,
            ShedReason::QueueFull => 3,
        }
    }

    /// Stable lowercase label for reports.
    pub fn label(&self) -> &'static str {
        match self {
            ShedReason::RateLimited => "rate-limited",
            ShedReason::Overload => "overload",
            ShedReason::QueueFull => "queue-full",
        }
    }
}

/// Shed counters by reason.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShedStats {
    /// Requests shed by an empty token bucket.
    pub rate_limited: u64,
    /// Requests shed behind an open breaker.
    pub overload: u64,
    /// Requests shed by a full lane queue.
    pub queue_full: u64,
}

impl ShedStats {
    /// Total shed requests across reasons.
    pub fn total(&self) -> u64 {
        self.rate_limited + self.overload + self.queue_full
    }

    /// Count one shed.
    pub fn count(&mut self, reason: ShedReason) {
        match reason {
            ShedReason::RateLimited => self.rate_limited += 1,
            ShedReason::Overload => self.overload += 1,
            ShedReason::QueueFull => self.queue_full += 1,
        }
    }
}

crate::counters!(ShedStats { rate_limited, overload, queue_full });

/// Per-tenant serving outcome counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// Tenant display name (from the [`super::TenantSpec`]).
    pub name: String,
    /// Requests the tenant offered.
    pub arrivals: u64,
    /// Requests past admission.
    pub admitted: u64,
    /// Requests shed, by reason.
    pub shed: ShedStats,
    /// Admitted requests answered successfully.
    pub completed: u64,
    /// Admitted requests that exhausted the resilience budget.
    pub failed: u64,
}

/// A token bucket in virtual time: lazily refilled on each probe.
#[derive(Debug, Clone, Copy)]
pub struct TokenBucket {
    rate_qps: f64,
    burst: f64,
    tokens: f64,
    refilled_at_s: f64,
}

impl TokenBucket {
    /// A full bucket refilling at `rate_qps` up to `burst` tokens.
    pub fn new(rate_qps: f64, burst: f64) -> Self {
        let burst = burst.max(1.0);
        TokenBucket { rate_qps: rate_qps.max(0.0), burst, tokens: burst, refilled_at_s: 0.0 }
    }

    /// Refill for the elapsed virtual time, then try to take one
    /// token. Returns whether the request is within allowance.
    pub fn admit(&mut self, now_s: f64) -> bool {
        if now_s > self.refilled_at_s {
            let refill = (now_s - self.refilled_at_s) * self.rate_qps;
            self.tokens = (self.tokens + refill).min(self.burst);
            self.refilled_at_s = now_s;
        }
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available.
    pub fn tokens(&self) -> f64 {
        self.tokens
    }
}

/// The admission gate: one token bucket and one stats row per tenant.
#[derive(Debug)]
pub struct AdmissionControl {
    buckets: Vec<TokenBucket>,
    stats: Vec<TenantStats>,
}

impl AdmissionControl {
    /// Build buckets and stats rows from the tenant specs.
    pub fn new(tenants: &[super::TenantSpec]) -> Self {
        AdmissionControl {
            buckets: tenants
                .iter()
                .map(|t| TokenBucket::new(t.bucket_rate_qps, t.bucket_burst))
                .collect(),
            stats: tenants
                .iter()
                .map(|t| TenantStats { name: t.name.clone(), ..TenantStats::default() })
                .collect(),
        }
    }

    /// Run the three admission gates for one arrival. `Ok(())` admits;
    /// `Err(reason)` sheds. Counters update either way.
    pub fn admit(
        &mut self,
        tenant: u32,
        now_s: f64,
        breaker: BreakerState,
        lane_pending: usize,
        lane_capacity: usize,
    ) -> Result<(), ShedReason> {
        let row = &mut self.stats[tenant as usize];
        row.arrivals += 1;
        let verdict = if !self.buckets[tenant as usize].admit(now_s) {
            Err(ShedReason::RateLimited)
        } else {
            let tripped = match breaker {
                BreakerState::Open => true,
                BreakerState::HalfOpen | BreakerState::Closed => false,
            };
            if tripped && lane_pending > 0 {
                Err(ShedReason::Overload)
            } else if lane_pending >= lane_capacity {
                Err(ShedReason::QueueFull)
            } else {
                Ok(())
            }
        };
        match verdict {
            Ok(()) => row.admitted += 1,
            Err(reason) => row.shed.count(reason),
        }
        verdict
    }

    /// Record the final outcome of an admitted request.
    pub fn record_outcome(&mut self, tenant: u32, delivered: bool) {
        let row = &mut self.stats[tenant as usize];
        if delivered {
            row.completed += 1;
        } else {
            row.failed += 1;
        }
    }

    /// The per-tenant rows, in tenant order.
    pub fn into_stats(self) -> Vec<TenantStats> {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::super::TenantSpec;
    use super::*;

    #[test]
    fn token_bucket_enforces_rate_and_burst() {
        let mut bucket = TokenBucket::new(10.0, 5.0);
        // The initial burst allowance: 5 immediate admits, then empty.
        for _ in 0..5 {
            assert!(bucket.admit(0.0));
        }
        assert!(!bucket.admit(0.0));
        // 0.1s refills exactly one token.
        assert!(bucket.admit(0.1));
        assert!(!bucket.admit(0.1));
        // A long idle period caps at the burst size.
        assert!(bucket.tokens() < 1.0);
        bucket.admit(100.0);
        assert!(bucket.tokens() <= 5.0);
    }

    fn gate() -> AdmissionControl {
        AdmissionControl::new(&[
            TenantSpec::poisson("steady", 100.0),
            TenantSpec::abusive("abusive", 100.0, 1.0),
        ])
    }

    #[test]
    fn gates_apply_in_order_and_count_per_tenant() {
        let mut gate = gate();
        // Gate 3: queue full.
        assert_eq!(gate.admit(0, 0.0, BreakerState::Closed, 8, 8), Err(ShedReason::QueueFull));
        // Gate 2: breaker open with queued work.
        assert_eq!(gate.admit(0, 0.0, BreakerState::Open, 1, 8), Err(ShedReason::Overload));
        // Breaker open but the lane is idle: the probe goes through.
        assert_eq!(gate.admit(0, 0.0, BreakerState::Open, 0, 8), Ok(()));
        // Half-open lanes admit normally.
        assert_eq!(gate.admit(0, 0.0, BreakerState::HalfOpen, 1, 8), Ok(()));
        // Gate 1 wins over the others: an empty bucket sheds even when
        // the queue is also full.
        let burst = 1.0f64.max(4.0) as u64;
        for _ in 0..burst {
            let _ = gate.admit(1, 0.0, BreakerState::Closed, 0, 8);
        }
        assert_eq!(gate.admit(1, 0.0, BreakerState::Open, 8, 8), Err(ShedReason::RateLimited));

        gate.record_outcome(0, true);
        gate.record_outcome(0, false);
        let stats = gate.into_stats();
        assert_eq!(stats[0].name, "steady");
        assert_eq!(stats[0].arrivals, 4);
        assert_eq!(stats[0].admitted, 2);
        assert_eq!(stats[0].shed.queue_full, 1);
        assert_eq!(stats[0].shed.overload, 1);
        assert_eq!(stats[0].completed, 1);
        assert_eq!(stats[0].failed, 1);
        assert_eq!(stats[1].shed.rate_limited, 1);
        assert_eq!(stats[1].shed.total(), 1);
    }
}
