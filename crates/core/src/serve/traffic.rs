//! Open-loop load generation in virtual time.
//!
//! Every tenant owns two RNG streams forked from the traffic seed by
//! tenant id — one for arrival gaps, one for request content — so a
//! tenant's entire offered load is a pure function of
//! `(seed, tenant)`, and the content of its `k`-th request a pure
//! function of `(seed, tenant, k)` regardless of how other tenants or
//! the serving side behave. Arrivals are *open-loop*: the generator
//! never waits for responses, which is what lets the benchmark drive
//! lanes past saturation and observe queueing and shed behavior.
//!
//! Two arrival processes:
//!
//! * [`ArrivalProcess::Poisson`] — exponential inter-arrival gaps at a
//!   constant rate, the classic open-loop model;
//! * [`ArrivalProcess::Burst`] — an on/off process: Poisson at
//!   `peak_qps` during the first `duty` fraction of every `period_s`,
//!   silent otherwise (mean rate `peak_qps * duty`). Bursts are what
//!   make batch deadlines and admission control earn their keep.
//!
//! Gaps are drawn by inversion (`-ln(1-u)/rate`) from the tenant's
//! arrival stream; no wall clock is involved anywhere (D002).

use taxoglimpse_synth::rng::{fork, Rng, SynthRng};

/// How a tenant's arrivals are spaced in virtual time.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Memoryless arrivals at a constant mean rate.
    Poisson {
        /// Mean arrival rate in requests per virtual second.
        rate_qps: f64,
    },
    /// On/off bursts: Poisson at `peak_qps` during the first
    /// `duty` fraction of each `period_s` window, silent for the rest.
    Burst {
        /// Arrival rate while the burst is on, in requests per
        /// virtual second.
        peak_qps: f64,
        /// Length of one on/off cycle in virtual seconds.
        period_s: f64,
        /// Fraction of each period the burst is on, in `(0, 1]`.
        duty: f64,
    },
}

impl ArrivalProcess {
    /// Long-run mean arrival rate in requests per virtual second.
    pub fn mean_rate_qps(&self) -> f64 {
        match self {
            ArrivalProcess::Poisson { rate_qps } => *rate_qps,
            ArrivalProcess::Burst { peak_qps, duty, .. } => peak_qps * duty,
        }
    }
}

/// One tenant of the serving system: an arrival process plus the
/// token-bucket allowance admission control enforces for it.
#[derive(Debug, Clone, PartialEq)]
pub struct TenantSpec {
    /// Display name for reports.
    pub name: String,
    /// Offered-load shape.
    pub process: ArrivalProcess,
    /// Token-bucket refill rate in requests per virtual second.
    pub bucket_rate_qps: f64,
    /// Token-bucket capacity (burst allowance), in requests.
    pub bucket_burst: f64,
}

impl TenantSpec {
    /// A well-behaved Poisson tenant whose bucket (2x its offered rate)
    /// never sheds it.
    pub fn poisson(name: impl Into<String>, rate_qps: f64) -> Self {
        TenantSpec {
            name: name.into(),
            process: ArrivalProcess::Poisson { rate_qps },
            bucket_rate_qps: rate_qps * 2.0,
            bucket_burst: (rate_qps * 0.5).max(16.0),
        }
    }

    /// A bursty tenant with mean rate `peak_qps * duty` and a bucket
    /// sized to admit its bursts.
    pub fn bursty(name: impl Into<String>, peak_qps: f64, period_s: f64, duty: f64) -> Self {
        TenantSpec {
            name: name.into(),
            process: ArrivalProcess::Burst { peak_qps, period_s, duty },
            bucket_rate_qps: peak_qps * duty * 2.0,
            bucket_burst: (peak_qps * period_s * duty).max(16.0),
        }
    }

    /// An abusive tenant: offers `rate_qps` but is only allowed
    /// `allowed_qps` by its bucket, so rate-limit sheds are exercised
    /// at every load level.
    pub fn abusive(name: impl Into<String>, rate_qps: f64, allowed_qps: f64) -> Self {
        TenantSpec {
            name: name.into(),
            process: ArrivalProcess::Poisson { rate_qps },
            bucket_rate_qps: allowed_qps,
            bucket_burst: allowed_qps.max(4.0),
        }
    }
}

/// The full traffic description: seed, horizon, and tenants.
#[derive(Debug, Clone, PartialEq)]
pub struct TrafficConfig {
    /// Master seed every tenant stream is forked from.
    pub seed: u64,
    /// Arrivals are generated for `[0, horizon_s)` virtual seconds;
    /// the simulation then drains.
    pub horizon_s: f64,
    /// The tenants, indexed by position (tenant id).
    pub tenants: Vec<TenantSpec>,
}

impl TrafficConfig {
    /// Total long-run offered load across tenants, in requests per
    /// virtual second.
    pub fn offered_qps(&self) -> f64 {
        self.tenants.iter().map(|t| t.process.mean_rate_qps()).sum()
    }

    /// The default mixed fleet used by the pinned serve cells and the
    /// examples:
    /// six steady Poisson tenants (70% of `total_qps`), one bursty
    /// tenant (20%), and one abusive tenant offering 10% but allowed
    /// only 3%.
    pub fn mixed_fleet(seed: u64, total_qps: f64, horizon_s: f64) -> Self {
        let mut tenants = Vec::new();
        let steady = total_qps * 0.70 / 6.0;
        for i in 0..6u32 {
            tenants.push(TenantSpec::poisson(format!("steady-{i}"), steady));
        }
        tenants.push(TenantSpec::bursty("bursty", total_qps * 0.20 / 0.25, 2.0, 0.25));
        tenants.push(TenantSpec::abusive("abusive", total_qps * 0.10, total_qps * 0.03));
        TrafficConfig { seed, horizon_s, tenants }
    }
}

/// Per-tenant generator state: the two forked streams plus the burst
/// phase bookkeeping.
#[derive(Debug)]
struct TenantSource {
    arrivals: SynthRng,
    content: SynthRng,
}

/// Draws arrival gaps and request contents for every tenant.
#[derive(Debug)]
pub struct TrafficSource {
    sources: Vec<TenantSource>,
    processes: Vec<ArrivalProcess>,
}

/// Exponential gap with mean `1/rate` by inversion. `u` is in
/// `[0, 1)`, so `1 - u` is in `(0, 1]` and the log is finite.
fn exp_gap(u: f64, rate_qps: f64) -> f64 {
    debug_assert!(rate_qps > 0.0);
    -(1.0 - u).ln() / rate_qps
}

impl TrafficSource {
    /// Fork every tenant's streams from the config seed.
    pub fn new(config: &TrafficConfig) -> Self {
        let sources = (0..config.tenants.len() as u64)
            .map(|tenant| TenantSource {
                arrivals: fork(config.seed, "serve-arrivals", tenant),
                content: fork(config.seed, "serve-content", tenant),
            })
            .collect();
        TrafficSource {
            sources,
            processes: config.tenants.iter().map(|t| t.process).collect(),
        }
    }

    /// The arrival time after `now_s` for `tenant`, consuming one gap
    /// from its arrival stream.
    pub fn next_arrival_s(&mut self, tenant: u32, now_s: f64) -> f64 {
        let source = &mut self.sources[tenant as usize];
        let u: f64 = source.arrivals.gen();
        match self.processes[tenant as usize] {
            ArrivalProcess::Poisson { rate_qps } => now_s + exp_gap(u, rate_qps),
            ArrivalProcess::Burst { peak_qps, period_s, duty } => {
                // Draw the gap at peak rate, then skip any off-phase
                // time it lands in: equivalent to a Poisson process
                // that only ticks while the burst is on.
                let mut t = now_s;
                let mut remaining = exp_gap(u, peak_qps);
                loop {
                    let phase = t - (t / period_s).floor() * period_s;
                    let on_until = duty * period_s;
                    if phase < on_until {
                        let budget = on_until - phase;
                        if remaining <= budget {
                            return t + remaining;
                        }
                        remaining -= budget;
                        t += budget;
                    } else {
                        t += period_s - phase;
                    }
                }
            }
        }
    }

    /// The `(model index, question index)` of a tenant's next request.
    ///
    /// Models are drawn uniformly; questions with a quadratic
    /// popularity skew (`(u^2) * n`), so a warm response cache sees
    /// realistic repeat traffic instead of a uniform scan.
    pub fn draw_request(&mut self, tenant: u32, models: usize, questions: usize) -> (u32, u32) {
        let source = &mut self.sources[tenant as usize];
        let model = source.content.gen_index(models) as u32;
        let u: f64 = source.content.gen();
        let question = ((u * u) * questions as f64) as usize;
        (model, question.min(questions - 1) as u32)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config() -> TrafficConfig {
        TrafficConfig::mixed_fleet(0x7E57, 1000.0, 10.0)
    }

    #[test]
    fn mixed_fleet_offers_the_requested_total() {
        let c = config();
        assert_eq!(c.tenants.len(), 8);
        assert!((c.offered_qps() - 1000.0).abs() < 1e-9);
        assert!(c.tenants.iter().all(|t| t.process.mean_rate_qps() > 0.0));
        // The abusive tenant's bucket cannot sustain its offered rate.
        let abusive = &c.tenants[7];
        assert!(abusive.bucket_rate_qps < abusive.process.mean_rate_qps());
    }

    #[test]
    fn streams_are_deterministic_and_tenant_independent() {
        let c = config();
        let mut a = TrafficSource::new(&c);
        let mut b = TrafficSource::new(&c);
        // Same seed, same draws.
        for tenant in 0..c.tenants.len() as u32 {
            assert_eq!(a.next_arrival_s(tenant, 0.0), b.next_arrival_s(tenant, 0.0));
            assert_eq!(a.draw_request(tenant, 4, 100), b.draw_request(tenant, 4, 100));
        }
        // Consuming tenant 0's stream does not perturb tenant 1's.
        let mut c1 = TrafficSource::new(&c);
        let mut c2 = TrafficSource::new(&c);
        for _ in 0..100 {
            c2.next_arrival_s(0, 0.0);
        }
        assert_eq!(c1.next_arrival_s(1, 0.0), c2.next_arrival_s(1, 0.0));
    }

    #[test]
    fn poisson_gaps_have_roughly_the_right_mean() {
        let c = TrafficConfig {
            seed: 9,
            horizon_s: 1.0,
            tenants: vec![TenantSpec::poisson("t", 100.0)],
        };
        let mut source = TrafficSource::new(&c);
        let mut t = 0.0;
        let n = 20_000;
        for _ in 0..n {
            let next = source.next_arrival_s(0, t);
            assert!(next > t);
            t = next;
        }
        let mean_gap = t / n as f64;
        assert!((mean_gap - 0.01).abs() < 0.001, "mean gap {mean_gap}");
    }

    #[test]
    fn burst_arrivals_stay_in_the_duty_window() {
        let c = TrafficConfig {
            seed: 11,
            horizon_s: 1.0,
            tenants: vec![TenantSpec::bursty("b", 400.0, 2.0, 0.25)],
        };
        let mut source = TrafficSource::new(&c);
        let mut t = 0.0;
        for _ in 0..2_000 {
            t = source.next_arrival_s(0, t);
            let phase = t - (t / 2.0).floor() * 2.0;
            assert!(phase <= 0.5 + 1e-9, "arrival at phase {phase} outside the burst");
        }
    }

    #[test]
    fn drawn_questions_are_skewed_and_in_range() {
        let c = config();
        let mut source = TrafficSource::new(&c);
        let n = 1000usize;
        let mut low_half = 0usize;
        for i in 0..4000 {
            let (model, question) = source.draw_request((i % 8) as u32, 4, n);
            assert!((model as usize) < 4);
            assert!((question as usize) < n);
            if (question as usize) < n / 2 {
                low_half += 1;
            }
        }
        // Quadratic skew: ~70% of draws land in the lower half.
        assert!(low_half > 2400, "only {low_half}/4000 in the popular half");
    }
}
