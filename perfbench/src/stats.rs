//! Exact percentiles over raw per-operation samples.
//!
//! Percentiles are given in parts per 100 000 (`P50 = 50_000`) so that ranks
//! are computed with integer arithmetic: `99.99 / 100 * n` in floating point
//! can land a hair above an integer and shift the rank by one.

/// Parts per 100 000 of the median.
pub const P50: u64 = 50_000;
/// Parts per 100 000 of the 99th percentile.
pub const P99: u64 = 99_000;

/// The percentiles a tail is chosen from, lowest first.
const TAIL_LADDER: [u64; 7] = [50_000, 90_000, 99_000, 99_900, 99_990, 99_999, 100_000];

/// A tail percentile is reported only with at least this many samples above it.
pub const TAIL_MIN_BEYOND: usize = 10;

/// The 1-based nearest rank of percentile `pct` among `n` samples.
fn rank(n: usize, pct: u64) -> usize {
    let n = n as u64;
    (n * pct).div_ceil(100_000).clamp(1, n.max(1)) as usize
}

/// The `pct` percentile (parts per 100 000) of `sorted`, by nearest rank.
///
/// # Panics
///
/// Panics if `sorted` is empty.
pub fn percentile(sorted: &[u32], pct: u64) -> u32 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), pct) - 1]
}

/// Number of samples ranked strictly above the `pct` percentile.
pub fn samples_beyond(n: usize, pct: u64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, pct)
    }
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`] samples
/// beyond it, or `None` when there are too few samples for even the median.
pub fn tail_percentile(n: usize) -> Option<u64> {
    TAIL_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&pct| samples_beyond(n, pct) >= TAIL_MIN_BEYOND)
}

/// Raw per-operation latencies in nanoseconds, held as `u32` (an op of
/// more than 4.29 s is recorded as 4.29 s) to halve their memory.
#[derive(Debug, Default)]
pub struct Latencies {
    samples: Vec<u32>,
    sorted: bool,
}

impl Latencies {
    /// Records one sample.
    pub fn push(&mut self, nanos: u64) {
        self.samples.push(u32::try_from(nanos).unwrap_or(u32::MAX));
        self.sorted = false;
    }

    /// An empty set with room for `n` samples, its memory already written
    /// so that it is resident from the start.
    pub fn with_touched_capacity(n: usize) -> Latencies {
        let mut samples = vec![u32::MAX; n];
        samples.clear();
        Latencies {
            samples,
            sorted: false,
        }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether no sample was recorded.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The `pct` percentile in microseconds, or 0 with no samples.
    pub fn pct_us(&mut self, pct: u64) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.samples.sort_unstable();
            self.sorted = true;
        }
        percentile(&self.samples, pct) as f64 / 1e3
    }

    /// The tail: its percentile (parts per 100 000) and value in microseconds.
    pub fn tail_us(&mut self) -> Option<(u64, f64)> {
        let pct = tail_percentile(self.samples.len())?;
        Some((pct, self.pct_us(pct)))
    }

    /// Mean in microseconds, or 0 with no samples.
    pub fn mean_us(&self) -> f64 {
        if self.samples.is_empty() {
            return 0.0;
        }
        self.samples.iter().map(|&ns| u64::from(ns)).sum::<u64>() as f64
            / self.samples.len() as f64
            / 1e3
    }
}

/// Median of a small set of values (the mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Formats a percentile in parts per 100 000 as `p99.99`.
pub fn pct_label(pct: u64) -> String {
    let whole = pct / 1000;
    let frac = pct % 1000;
    if frac == 0 {
        format!("p{whole}")
    } else {
        let digits = format!("{frac:03}");
        format!("p{whole}.{}", digits.trim_end_matches('0'))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile(&v, P50), 50);
        assert_eq!(percentile(&v, P99), 99);
        assert_eq!(percentile(&v, 100_000), 100);
        assert_eq!(percentile(&v, 0), 1);
        assert_eq!(percentile(&[7], P99), 7);
        let v: Vec<u32> = (1..=1000).collect();
        assert_eq!(percentile(&v, 99_900), 999);
        // 99.99% of 500 000 is exactly rank 499 950; float rounding must not
        // push it to 499 951.
        let v: Vec<u32> = (1..=500_000).collect();
        assert_eq!(percentile(&v, 99_990), 499_950);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(P50));
        assert_eq!(tail_percentile(100), Some(90_000));
        assert_eq!(tail_percentile(999), Some(90_000));
        assert_eq!(tail_percentile(1000), Some(P99));
        assert_eq!(tail_percentile(10_000), Some(99_900));
        assert_eq!(tail_percentile(500_000), Some(99_990));
        assert_eq!(tail_percentile(1_000_000), Some(99_999));
        assert_eq!(samples_beyond(500_000, 99_990), 50);
        assert_eq!(samples_beyond(500_000, 99_999), 5);
    }

    #[test]
    fn latencies_report_in_microseconds() {
        let mut l = Latencies::default();
        for ns in (1..=1000).rev() {
            l.push(ns * 1000);
        }
        assert_eq!(l.pct_us(P50), 500.0);
        assert_eq!(l.pct_us(P99), 990.0);
        assert_eq!(l.tail_us(), Some((P99, 990.0)));
        assert!((l.mean_us() - 500.5).abs() < 1e-9);
        assert_eq!(Latencies::default().pct_us(P50), 0.0);
    }

    #[test]
    fn medians_and_labels() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(pct_label(P50), "p50");
        assert_eq!(pct_label(99_990), "p99.99");
        assert_eq!(pct_label(99_900), "p99.9");
    }
}
