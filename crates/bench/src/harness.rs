//! Minimal wall-clock benchmark harness.
//!
//! A deliberately small replacement for an external benchmarking
//! framework: each benchmark warms up, auto-scales its iteration count
//! to a target measurement window, and prints a mean time per
//! iteration (plus optional throughput). Bench binaries keep
//! `harness = false` and call [`Bench::from_env`] from `main`.
//!
//! Usage from a bench target:
//!
//! ```no_run
//! use taxoglimpse_bench::harness::{black_box, Bench};
//!
//! let mut b = Bench::from_env();
//! b.bench("my/bench", || black_box(2 + 2));
//! ```
//!
//! Invocations accept an optional positional substring filter (so
//! `cargo bench -p taxoglimpse-bench --bench substrate -- codec` runs
//! only matching benchmarks) and honour `TAXOGLIMPSE_BENCH_QUICK=1`
//! for a fast smoke run.

pub use std::hint::black_box;
use std::time::{Duration, Instant};

/// Whether `TAXOGLIMPSE_BENCH_QUICK` (any value but `0`) asks for a
/// smoke-test-sized run.
fn quick_mode() -> bool {
    std::env::var("TAXOGLIMPSE_BENCH_QUICK").map(|v| v != "0").unwrap_or(false)
}

/// Per-iteration throughput unit attached to a benchmark.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// The benchmark processes this many bytes per iteration.
    Bytes(u64),
    /// The benchmark processes this many items per iteration.
    Elements(u64),
}

/// Benchmark runner: filters, times, and reports.
#[derive(Debug)]
pub struct Bench {
    filter: Option<String>,
    warmup: Duration,
    measure: Duration,
    ran: usize,
}

impl Bench {
    /// Build a runner from the process arguments and environment.
    ///
    /// The first non-flag argument is a substring filter; flags that
    /// cargo's bench protocol passes (`--bench`, `--exact`, ...) are
    /// ignored. `TAXOGLIMPSE_BENCH_QUICK=1` shrinks the warm-up and
    /// measurement windows to smoke-test levels.
    pub fn from_env() -> Self {
        let filter = std::env::args().skip(1).find(|a| !a.starts_with('-'));
        let (warmup, measure) = if quick_mode() {
            (Duration::from_millis(2), Duration::from_millis(10))
        } else {
            (Duration::from_millis(100), Duration::from_millis(400))
        };
        Bench { filter, warmup, measure, ran: 0 }
    }

    /// Run one benchmark if it passes the filter.
    pub fn bench<T>(&mut self, name: &str, f: impl FnMut() -> T) {
        self.bench_throughput(name, None, f)
    }

    /// Run one benchmark and additionally report throughput.
    pub fn bench_with_throughput<T>(&mut self, name: &str, throughput: Throughput, f: impl FnMut() -> T) {
        self.bench_throughput(name, Some(throughput), f)
    }

    fn bench_throughput<T>(
        &mut self,
        name: &str,
        throughput: Option<Throughput>,
        mut f: impl FnMut() -> T,
    ) {
        if let Some(filter) = &self.filter {
            if !name.contains(filter.as_str()) {
                return;
            }
        }
        self.ran += 1;

        // Warm up and estimate the cost of one iteration.
        let warm_start = Instant::now();
        let mut warm_iters: u32 = 0;
        while warm_start.elapsed() < self.warmup || warm_iters == 0 {
            black_box(f());
            warm_iters += 1;
        }
        let per_iter = warm_start.elapsed() / warm_iters;

        // Scale the measured run to roughly fill the measurement window.
        let iters = (self.measure.as_nanos() / per_iter.as_nanos().max(1)).clamp(1, u32::MAX as u128) as u32;
        let timed = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        let total = timed.elapsed();
        let mean = total / iters;

        let rate = throughput.map(|t| describe_rate(t, mean)).unwrap_or_default();
        println!("bench  {name:<52} {:>12}/iter  ({iters} iters){rate}", describe(mean));
    }

    /// Number of benchmarks that matched the filter and ran.
    pub fn ran(&self) -> usize {
        self.ran
    }
}

fn describe(d: Duration) -> String {
    let ns = d.as_nanos();
    if ns < 1_000 {
        format!("{ns} ns")
    } else if ns < 1_000_000 {
        format!("{:.2} µs", ns as f64 / 1e3)
    } else if ns < 1_000_000_000 {
        format!("{:.2} ms", ns as f64 / 1e6)
    } else {
        format!("{:.2} s", ns as f64 / 1e9)
    }
}

fn describe_rate(throughput: Throughput, mean: Duration) -> String {
    let secs = mean.as_secs_f64().max(1e-12);
    match throughput {
        Throughput::Bytes(n) => format!("  {:.1} MiB/s", n as f64 / secs / (1024.0 * 1024.0)),
        Throughput::Elements(n) => format!("  {:.0} elem/s", n as f64 / secs),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quiet() -> Bench {
        Bench {
            filter: None,
            warmup: Duration::from_micros(50),
            measure: Duration::from_micros(200),
            ran: 0,
        }
    }

    #[test]
    fn runs_and_counts() {
        let mut b = quiet();
        b.bench("t/add", || black_box(1u64) + black_box(2u64));
        assert_eq!(b.ran(), 1);
    }

    #[test]
    fn filter_skips_nonmatching() {
        let mut b = quiet();
        b.filter = Some("codec".to_owned());
        b.bench("t/add", || 0u8);
        b.bench("t/codec_roundtrip", || 0u8);
        assert_eq!(b.ran(), 1);
    }

    #[test]
    fn durations_format_with_units() {
        assert_eq!(describe(Duration::from_nanos(5)), "5 ns");
        assert_eq!(describe(Duration::from_micros(1500)), "1.50 ms");
        assert_eq!(describe(Duration::from_secs(2)), "2.00 s");
    }
}
