//! Percentiles with the benchmark's two rules.
//!
//! 1. **Enough samples.** A tail percentile is reported only when at least
//!    ten samples lie beyond it: p90 needs 100 samples, p99 needs 1000.
//!    The median is reported from any non-empty sample.
//! 2. **Failures rank last.** A failed operation counts as slower than any
//!    success. Percentiles are taken over *attempted* operations, so a
//!    percentile whose rank falls among the failures is unbounded: p99
//!    reads unbounded while 1% or more of the operations fail.

/// A percentile reading.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pct {
    /// The value at the percentile's rank.
    Value(f64),
    /// The rank falls among failed operations.
    Unbounded,
    /// Fewer samples than [`min_samples`] asks for.
    TooFew,
}

impl Pct {
    pub fn value(self) -> Option<f64> {
        match self {
            Pct::Value(v) => Some(v),
            _ => None,
        }
    }
}

/// Samples needed before percentile `p` (0–100) may be reported.
pub fn min_samples(p: f64) -> usize {
    if p <= 50.0 {
        1
    } else {
        (10.0 / (1.0 - p / 100.0) - 1e-9).ceil() as usize
    }
}

/// Nearest-rank percentile `p` over `attempted` operations, of which the
/// successes' values are `ok` (any order); the remaining
/// `attempted - ok.len()` operations failed and rank slowest.
pub fn percentile(ok: &[f64], attempted: usize, p: f64) -> Pct {
    assert!(ok.len() <= attempted, "more successes than attempts");
    if attempted == 0 || attempted < min_samples(p) {
        return Pct::TooFew;
    }
    let rank = ((p / 100.0) * attempted as f64).ceil().max(1.0) as usize - 1;
    if rank >= ok.len() {
        return Pct::Unbounded;
    }
    let mut v = ok.to_vec();
    v.sort_by(f64::total_cmp);
    Pct::Value(v[rank])
}

/// Median of a non-empty sample (mean of the two middles for even
/// lengths), for aggregating per-round and per-repetition values.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of an empty sample");
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len() / 2;
    if v.len() % 2 == 1 {
        v[m]
    } else {
        (v[m - 1] + v[m]) / 2.0
    }
}

/// Nearest-rank percentile with no sample-count rule, for per-layer
/// breakdowns whose sample count is printed beside them (0 when empty).
pub fn nearest_rank(v: &[f64], p: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil().max(1.0) as usize - 1;
    v[rank.min(v.len() - 1)]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_needs_a_thousand_samples() {
        assert_eq!(min_samples(99.0), 1000);
        assert_eq!(min_samples(90.0), 100);
        assert_eq!(min_samples(50.0), 1);
        let v: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&v, v.len(), 99.0), Pct::TooFew);
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&v, v.len(), 99.0), Pct::Value(990.0));
        assert_eq!(percentile(&v, v.len(), 50.0), Pct::Value(500.0));
    }

    #[test]
    fn failures_rank_slower_than_any_success() {
        // 1000 attempts, 989 successes: the p99 rank (989) is a failure.
        let ok: Vec<f64> = (1..=989).map(f64::from).collect();
        assert_eq!(percentile(&ok, 1000, 99.0), Pct::Unbounded);
        // 991 successes: rank 989 is still a success, however slow the
        // failed ones were.
        let ok: Vec<f64> = (1..=991).map(f64::from).collect();
        assert_eq!(percentile(&ok, 1000, 99.0), Pct::Value(990.0));
        // With 29% failing, the median is the success at overall rank 500.
        let ok: Vec<f64> = (1..=710).map(f64::from).collect();
        assert_eq!(percentile(&ok, 1000, 50.0), Pct::Value(500.0));
        assert_eq!(percentile(&ok, 1000, 90.0), Pct::Unbounded);
    }

    #[test]
    fn median_is_order_free() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }
}
