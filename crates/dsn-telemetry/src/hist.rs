//! Deterministic log-bucketed histograms for latency distributions.
//!
//! Bucket `0` holds the value `0`; bucket `b >= 1` holds the values in
//! `[2^(b-1), 2^b - 1]`. Buckets are plain counters, so merging two
//! histograms is element-wise addition — associative and order-independent
//! by construction (pinned by a proptest) — which lets per-window
//! histograms be combined without any loss relative to recording into one
//! histogram directly.

/// Log-bucket index of a value: `0` for `0`, else `floor(log2(v)) + 1`.
#[inline]
pub fn bucket_of(v: u64) -> usize {
    (u64::BITS - v.leading_zeros()) as usize
}

/// Inclusive upper bound of a bucket (the largest value it can hold).
#[inline]
pub fn bucket_upper_bound(bucket: usize) -> u64 {
    if bucket == 0 {
        0
    } else if bucket >= 64 {
        u64::MAX
    } else {
        (1u64 << bucket) - 1
    }
}

/// A log-bucketed histogram with exact count, max and sum tracking.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Per-bucket counts; trailing empty buckets are never stored.
    buckets: Vec<u64>,
    count: u64,
    sum: u64,
    max: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LogHistogram::default()
    }

    /// Record one value.
    pub fn record(&mut self, v: u64) {
        let b = bucket_of(v);
        if self.buckets.len() <= b {
            self.buckets.resize(b + 1, 0);
        }
        self.buckets[b] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Merge `other` into `self` (element-wise bucket addition).
    pub fn merge(&mut self, other: &LogHistogram) {
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (b, &c) in other.buckets.iter().enumerate() {
            self.buckets[b] += c;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.max = self.max.max(other.max);
    }

    /// Number of recorded values.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Exact maximum recorded value (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// Per-bucket counts (trailing empty buckets trimmed).
    pub fn buckets(&self) -> &[u64] {
        &self.buckets
    }

    /// Approximate `q`-quantile (`0.0 < q <= 1.0`): the upper bound of the
    /// first bucket at which the cumulative count reaches `ceil(q * count)`,
    /// clamped to the exact maximum. Returns 0 for an empty histogram.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let target = ((self.count as f64 * q).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (b, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= target {
                return bucket_upper_bound(b).min(self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries() {
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        assert_eq!(bucket_of(2), 2);
        assert_eq!(bucket_of(3), 2);
        assert_eq!(bucket_of(4), 3);
        assert_eq!(bucket_of(1023), 10);
        assert_eq!(bucket_of(1024), 11);
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(2), 3);
        assert_eq!(bucket_upper_bound(10), 1023);
        // Every value lands in a bucket whose range contains it.
        for v in [0u64, 1, 2, 3, 7, 8, 100, 65535, 65536] {
            let b = bucket_of(v);
            assert!(v <= bucket_upper_bound(b), "{v} above bucket {b}");
            if b > 0 {
                assert!(v > bucket_upper_bound(b - 1), "{v} fits bucket {}", b - 1);
            }
        }
    }

    #[test]
    fn quantiles_bracket_the_data() {
        let mut h = LogHistogram::new();
        for v in 1..=1000u64 {
            h.record(v);
        }
        assert_eq!(h.count(), 1000);
        assert_eq!(h.sum(), 500_500);
        assert_eq!(h.max(), 1000);
        // p50 of 1..=1000 is 500; its bucket [256,511] upper bound is 511.
        assert_eq!(h.quantile(0.5), 511);
        // p99 = 990 -> bucket [512,1023], clamped to max 1000.
        assert_eq!(h.quantile(0.99), 1000);
        assert_eq!(h.quantile(1.0), 1000);
    }

    #[test]
    fn merge_equals_direct_recording() {
        let values = [0u64, 5, 5, 17, 400, 3, 9000, 1];
        let mut direct = LogHistogram::new();
        let mut a = LogHistogram::new();
        let mut b = LogHistogram::new();
        for (i, &v) in values.iter().enumerate() {
            direct.record(v);
            if i % 2 == 0 { &mut a } else { &mut b }.record(v);
        }
        a.merge(&b);
        assert_eq!(a, direct);
    }

    #[test]
    fn empty_histogram_is_all_zero() {
        let h = LogHistogram::new();
        assert_eq!(h.quantile(0.5), 0);
        assert_eq!(h.max(), 0);
        assert_eq!(h.count(), 0);
        assert!(h.buckets().is_empty());
    }
}
