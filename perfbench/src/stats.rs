//! Order statistics for the end-to-end metrics.

use std::time::Duration;

use crate::host::Timing;

/// The tail percentile every workload reports.
pub const TAIL: f64 = 0.95;

/// Samples that must lie beyond a reported percentile for it to mean
/// anything.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile of ascending `sorted` (the rank the serving
/// engines use): the `ceil(p·n)`-th smallest sample.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// The 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// The highest of `candidates` that keeps at least [`MIN_BEYOND`]
/// samples beyond it, if any does.
pub fn highest_supported(n: usize, candidates: &[f64]) -> Option<f64> {
    candidates.iter().copied().filter(|&p| beyond(n, p) >= MIN_BEYOND).reduce(f64::max)
}

/// The median of unsorted samples (mean of the middle pair for even
/// counts).
///
/// # Panics
///
/// Panics if `values` is empty.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Appends the timings of more fresh set-ups (each made by `f`) to
/// `setups` until it holds at least `min_runs` whose host seconds sum to
/// at least `budget`.
pub fn more_setups(
    setups: &mut Vec<Timing>,
    min_runs: usize,
    budget: Duration,
    mut f: impl FnMut() -> Timing,
) {
    while setups.len() < min_runs
        || setups.iter().map(|t| t.secs).sum::<f64>() < budget.as_secs_f64()
    {
        setups.push(f());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.95), 95.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.95), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(beyond(200, TAIL), 10);
        assert_eq!(beyond(199, TAIL), 9);
        assert_eq!(beyond(0, TAIL), 0);
        let cands = [0.5, 0.9, 0.95, 0.99, 0.999];
        assert_eq!(highest_supported(400, &cands), Some(0.95));
        assert_eq!(highest_supported(1000, &cands), Some(0.99));
        assert_eq!(highest_supported(10_000, &cands), Some(0.999));
        assert_eq!(highest_supported(15, &cands), None);
        // Every workload's window yields at least 400 ops, so p95 holds.
        assert!(beyond(400, TAIL) >= MIN_BEYOND);
    }

    #[test]
    fn medians_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn setups_repeat_for_the_budget_and_at_least_the_minimum() {
        let t = |secs| Timing::new(secs, 1.0, 1.0);
        let mut v = vec![t(0.5)];
        more_setups(&mut v, 3, Duration::ZERO, || t(0.5));
        assert_eq!(v.len(), 3, "two more after the first");
        let mut v = vec![t(0.0)];
        more_setups(&mut v, 1, Duration::from_millis(250), || t(0.0625));
        assert_eq!(v.len(), 5, "a 250 ms budget takes four 62.5 ms set-ups");
        let mut v = vec![t(2.0), t(2.0), t(2.0)];
        more_setups(&mut v, 3, Duration::from_secs(1), || unreachable!("already enough"));
    }
}
