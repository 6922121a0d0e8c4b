//! Percentiles, medians and failure accounting.

/// The `q`-quantile (`0 < q <= 1`) of an ascending slice by the
/// nearest-rank rule: the smallest sample with at least `q·n` samples at
/// or below it. Returns `NaN` for an empty slice.
#[must_use]
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Sorts `v` in place and returns its nearest-rank median.
#[must_use]
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(v, 0.5)
}

/// What one closed-loop request came back as.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Reply {
    /// A schedule was served.
    Done,
    /// `busy`, `overloaded`, `expired`, an `error` reply or a broken
    /// connection: the operation failed.
    Failed,
}

/// Operations attempted, completed and failed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Tally {
    /// Requests sent or schedules started.
    pub attempted: u64,
    /// Requests that failed; see [`Reply::Failed`].
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, reply: Reply) {
        self.attempted += 1;
        if reply == Reply::Failed {
            self.failed += 1;
        }
    }

    /// Operations that completed.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 5.0);
        assert_eq!(percentile(&v, 0.9), 9.0);
        assert_eq!(percentile(&v, 0.91), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&v, 0.01), 1.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
        assert!(percentile(&[], 0.5).is_nan());
    }

    #[test]
    fn median_sorts_first() {
        let mut v = vec![3.0, 1.0, 2.0, 5.0, 4.0];
        assert_eq!(median(&mut v), 3.0);
        assert_eq!(v, vec![1.0, 2.0, 3.0, 4.0, 5.0]);
        let mut even = vec![4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&mut even), 2.0);
    }

    #[test]
    fn failures_count_against_attempts() {
        let mut t = Tally::default();
        t.record(Reply::Done);
        t.record(Reply::Failed);
        t.record(Reply::Done);
        assert_eq!((t.attempted, t.failed, t.completed()), (3, 1, 2));
    }
}
