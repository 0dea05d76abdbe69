//! The two metric primitives: counters and log-bucketed histograms. Both
//! are lock-free — safe to hammer from every
//! handler thread of a parameter server.

use crate::snapshot::HistogramSnapshot;
use std::sync::atomic::{AtomicU64, Ordering};

/// Number of histogram buckets (one underflow, 62 power-of-two buckets,
/// one overflow).
pub const BUCKETS: usize = 64;

/// Exponent of the first finite bucket boundary: bucket 1 starts at
/// `2^MIN_EXP` (≈ 0.93 ns when recording seconds).
pub(crate) const MIN_EXP: i64 = -30;

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Creates a counter at zero.
    pub fn new() -> Self {
        Counter(AtomicU64::new(0))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// The current count.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Folds `v` into an atomic `f64` cell with a compare-exchange loop.
fn atomic_f64_update(cell: &AtomicU64, v: f64, fold: impl Fn(f64, f64) -> f64) {
    let mut current = cell.load(Ordering::Relaxed);
    loop {
        let next = fold(f64::from_bits(current), v).to_bits();
        match cell.compare_exchange_weak(current, next, Ordering::Relaxed, Ordering::Relaxed) {
            Ok(_) => return,
            Err(actual) => current = actual,
        }
    }
}

/// The bucket index for a value.
///
/// Boundaries are exact powers of two, computed from the `f64` bit
/// pattern (not a floating `log2`), so placement at boundaries is exact:
/// bucket 0 holds everything below `2^MIN_EXP` (including zero, negative,
/// and NaN inputs), bucket `i ∈ 1..=62` holds `[2^(i-31), 2^(i-30))`, and
/// bucket 63 holds everything from `2^32` up (including `+∞`).
pub(crate) fn bucket_of(v: f64) -> usize {
    let min = f64::from_bits(((MIN_EXP + 1023) as u64) << 52);
    if v.is_nan() || v < min {
        return 0; // below the first boundary, non-positive, or NaN
    }
    let exp = ((v.to_bits() >> 52) & 0x7ff) as i64 - 1023;
    (exp - MIN_EXP + 1).clamp(1, BUCKETS as i64 - 1) as usize
}

/// The inclusive lower bound of bucket `i` (0.0 for the underflow bucket).
pub fn bucket_lower_bound(i: usize) -> f64 {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i == 0 {
        0.0
    } else {
        exp2(i as i64 + MIN_EXP - 1)
    }
}

/// The exclusive upper bound of bucket `i` (`+∞` for the overflow bucket).
pub fn bucket_upper_bound(i: usize) -> f64 {
    assert!(i < BUCKETS, "bucket index {i} out of range");
    if i == BUCKETS - 1 {
        f64::INFINITY
    } else {
        exp2(i as i64 + MIN_EXP)
    }
}

/// Exact `2^e` for in-range exponents, via the bit pattern.
fn exp2(e: i64) -> f64 {
    f64::from_bits(((e + 1023) as u64) << 52)
}

/// A log-bucketed histogram: power-of-two buckets plus exact count, sum,
/// min, and max. Recording is a handful of relaxed atomic operations;
/// percentiles come from the bucket counts at snapshot time.
///
/// A histogram covers ~28 decimal orders of magnitude (`2^-30` to
/// `2^32`), wide enough for seconds, byte counts, and compression ratios
/// alike; values outside land in the under/overflow buckets and still
/// count toward `count`/`sum`/`min`/`max` exactly.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram::new()
    }
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_bits: AtomicU64::new(0.0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Records one observation.
    pub fn record(&self, v: f64) {
        self.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        atomic_f64_update(&self.sum_bits, v, |a, b| a + b);
        atomic_f64_update(&self.min_bits, v, f64::min);
        atomic_f64_update(&self.max_bits, v, f64::max);
    }

    /// Observations recorded so far.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// A point-in-time copy of the histogram state.
    ///
    /// Taken field-by-field with relaxed loads: concurrent recorders may
    /// leave the copy one observation ahead or behind in individual
    /// fields, which is fine for reporting.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let count = self.count.load(Ordering::Relaxed);
        let (min, max) = if count == 0 {
            (0.0, 0.0) // keep JSON finite; empty min/max carry no signal
        } else {
            (
                f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
                f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            )
        };
        HistogramSnapshot {
            count,
            sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
            min,
            max,
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_basics() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn bucket_boundaries_are_exact() {
        // The first finite boundary.
        let min_bound = bucket_lower_bound(1);
        assert_eq!(min_bound, (-30.0f64).exp2());
        assert_eq!(bucket_of(min_bound), 1, "boundary value goes up");
        assert_eq!(bucket_of(min_bound * 0.999), 0);
        assert_eq!(bucket_of(0.0), 0);
        assert_eq!(bucket_of(-1.0), 0);
        assert_eq!(bucket_of(f64::NAN), 0);

        // 1.0 = 2^0 sits exactly on the boundary between buckets 30 and 31.
        assert_eq!(bucket_of(1.0), 31);
        assert_eq!(bucket_upper_bound(30), 1.0);
        assert_eq!(bucket_lower_bound(31), 1.0);
        let below_one = f64::from_bits(1.0f64.to_bits() - 1);
        assert_eq!(bucket_of(below_one), 30);

        // Every finite boundary value lands in the bucket it opens.
        for i in 1..BUCKETS - 1 {
            let lo = bucket_lower_bound(i);
            assert_eq!(bucket_of(lo), i, "lower bound of bucket {i}");
            assert_eq!(bucket_upper_bound(i), bucket_lower_bound(i + 1));
        }

        // Overflow.
        assert_eq!(bucket_of(2.0f64.powi(32)), 63);
        assert_eq!(bucket_of(f64::INFINITY), 63);
        assert_eq!(bucket_of(1e300), 63);
    }

    #[test]
    fn histogram_counts_sum_min_max() {
        let h = Histogram::new();
        for v in [0.5, 2.0, 2.0, 8.0] {
            h.record(v);
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.sum, 12.5);
        assert_eq!(s.min, 0.5);
        assert_eq!(s.max, 8.0);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4);
        assert_eq!(s.buckets[bucket_of(2.0)], 2);
    }

    #[test]
    fn empty_histogram_snapshot_is_finite() {
        let s = Histogram::new().snapshot();
        assert_eq!(s.count, 0);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
        assert_eq!(s.sum, 0.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = std::sync::Arc::new(Histogram::new());
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let h = std::sync::Arc::clone(&h);
                std::thread::spawn(move || {
                    for i in 0..1000 {
                        h.record((t * 1000 + i) as f64);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().expect("recorder thread");
        }
        let s = h.snapshot();
        assert_eq!(s.count, 4000);
        assert_eq!(s.buckets.iter().sum::<u64>(), 4000);
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 3999.0);
        assert_eq!(s.sum, (0..4000u64).sum::<u64>() as f64);
    }
}
