//! Order statistics, peak-memory and host readings.

/// Median of `values` (mean of the two middle values for an even
/// count); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    let sorted = sorted(values)?;
    let n = sorted.len();
    Some(if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    })
}

/// First and third quartiles with the same (exclusive) method as
/// Python's `statistics.quantiles(values, n=4)`, so spreads quoted from
/// this tool and from a script over its output agree. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let sorted = sorted(values)?;
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let at = |k: usize| {
        // Python's integer arithmetic verbatim: j is clamped, delta is
        // not, so the outer quartiles of tiny samples extrapolate.
        let m = k * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (4 * j) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((at(1), at(3)))
}

fn sorted(values: &[f64]) -> Option<Vec<f64>> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v)
}

/// `VmHWM` (peak resident set) from the text of `/proc/self/status`,
/// in MiB.
pub fn parse_vmhwm_mib(status: &str) -> Result<f64, String> {
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line")?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let kib: u64 = fields
        .next()
        .ok_or("VmHWM has no value")?
        .parse()
        .map_err(|e| format!("VmHWM value: {e}"))?;
    match fields.next() {
        Some("kB") => Ok(kib as f64 / 1024.0),
        other => Err(format!("VmHWM unit {other:?}, expected kB")),
    }
}

/// Peak resident set of this process so far, in MiB.
pub fn peak_rss_mib() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status").map_err(|e| e.to_string())?;
    parse_vmhwm_mib(&status)
}

/// One-minute load average, when the platform exposes it.
pub fn loadavg_1m() -> Option<f64> {
    std::fs::read_to_string("/proc/loadavg")
        .ok()?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[7.0]), Some(7.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        assert_eq!(quartiles(&[5.0, 4.0, 3.0, 2.0, 1.0]), Some((1.5, 4.5)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn vmhwm_parses_fixture() {
        let status = "Name:\te2e\nVmPeak:\t  900000 kB\nVmHWM:\t  524288 kB\nVmRSS:\t 1000 kB\n";
        assert_eq!(parse_vmhwm_mib(status), Ok(512.0));
    }

    #[test]
    fn vmhwm_errors_never_panic() {
        for bad in [
            "",
            "VmRSS:\t1 kB\n",
            "VmHWM:\n",
            "VmHWM:\tlots kB\n",
            "VmHWM:\t12 MB\n",
            "VmHWM:\t12\n",
            "VmHWM:\t-3 kB\n",
        ] {
            assert!(parse_vmhwm_mib(bad).is_err(), "{bad:?} should be rejected");
        }
    }
}
