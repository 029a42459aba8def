//! Order statistics and process measurements.

/// The median of `values` (mean of the middle pair for even lengths);
/// `0.0` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// A smoothed median: the mean of the central fifth of the sorted values.
/// Over a set of a few hundred distinct kernels it stays steady when a
/// different draw moves a few kernels across the middle, where the plain
/// median would jump across any gap between neighbouring values.
pub fn smoothed_median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return 0.0;
    }
    let (lo, hi) = (n * 2 / 5, (n * 3 / 5).max(n * 2 / 5 + 1).min(n));
    sorted[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
}

/// The nearest-rank `q` quantile of `values`; `0.0` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    sorted
}

/// The geometric mean of positive values; `0.0` when there are none.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (mut log_sum, mut count) = (0.0f64, 0usize);
    for value in values.into_iter().filter(|v| *v > 0.0) {
        log_sum += value.ln();
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        (log_sum / count as f64).exp()
    }
}

/// `part / whole`, or `0.0` when `whole` is zero.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident memory of this process in MiB (`VmHWM`); `0.0` where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Microseconds in a duration, as a float.
pub fn micros(duration: std::time::Duration) -> f64 {
    duration.as_secs_f64() * 1e6
}

/// Runs `setup` and returns its result with the seconds it took.
///
/// # Errors
/// Propagates the set-up's error.
pub fn timed<T>(setup: impl FnOnce() -> Result<T, String>) -> Result<(T, f64), String> {
    let started = std::time::Instant::now();
    let value = setup()?;
    Ok((value, started.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.99), 5.0);
        assert_eq!(quantile(&[5.0, 1.0, 4.0, 2.0, 3.0], 0.5), 3.0);
        assert!((geomean([2.0, 8.0]) - 4.0).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(smoothed_median(&[7.0]), 7.0);
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(smoothed_median(&ten), 5.5);
    }
}
