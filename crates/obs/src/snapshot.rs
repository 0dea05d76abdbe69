//! Point-in-time metric exports: JSON-serializable snapshot types and a
//! text renderer.
//!
//! Snapshots are plain data. They travel as the payload of the
//! `MetricsSnapshot` protocol message in `threelc-net`, land in JSON
//! reports, and [`Snapshot::render_text`] is what `threelc metrics`
//! prints. [`HistogramSnapshot::merge`] aggregates across threads,
//! connections, or processes; merging is associative and commutative (up
//! to float rounding in `sum`), so shards can be combined in any order.

use crate::metrics::{bucket_upper_bound, BUCKETS};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// A copy of one histogram's state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Observations recorded.
    pub count: u64,
    /// Sum of all observations.
    pub sum: f64,
    /// Smallest observation (0.0 when empty).
    pub min: f64,
    /// Largest observation (0.0 when empty).
    pub max: f64,
    /// Per-bucket observation counts (see [`crate::metrics::bucket_lower_bound`]).
    pub buckets: Vec<u64>,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
            buckets: vec![0; BUCKETS],
        }
    }
}

impl HistogramSnapshot {
    /// Mean observation (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `p`-th percentile (`0 < p ≤ 100`), estimated from the bucket
    /// counts: the upper bound of the bucket holding the `⌈p/100·count⌉`-th
    /// smallest observation, clamped to the observed `[min, max]` range.
    /// The estimate therefore never exceeds one bucket width (2×) of
    /// error, and `percentile(100) == max` exactly.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_upper_bound(i).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Folds another snapshot into this one. Bucket counts, `count`,
    /// `min`, and `max` merge exactly; `sum` is a float addition.
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = other.clone();
            return;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        if self.buckets.len() < other.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (a, &b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
    }
}

/// One named counter in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CounterEntry {
    /// Metric name.
    pub name: String,
    /// Counter value.
    pub value: u64,
}

/// One named histogram in a snapshot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistEntry {
    /// Metric name.
    pub name: String,
    /// Histogram state.
    pub hist: HistogramSnapshot,
}

/// A point-in-time copy of every metric in a [`Registry`](crate::Registry),
/// sorted by name for deterministic output.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Snapshot {
    /// All counters, sorted by name.
    pub counters: Vec<CounterEntry>,
    /// All histograms, sorted by name.
    pub histograms: Vec<HistEntry>,
}

impl Snapshot {
    /// The value of a counter, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|c| c.name == name)
            .map(|c| c.value)
    }

    /// A histogram by name, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms
            .iter()
            .find(|h| h.name == name)
            .map(|h| &h.hist)
    }

    /// Folds another snapshot into this one (same-named histograms merge,
    /// counters add).
    pub fn merge(&mut self, other: &Snapshot) {
        for c in &other.counters {
            match self.counters.iter_mut().find(|e| e.name == c.name) {
                Some(e) => e.value += c.value,
                None => self.counters.push(c.clone()),
            }
        }
        for h in &other.histograms {
            match self.histograms.iter_mut().find(|e| e.name == h.name) {
                Some(e) => e.hist.merge(&h.hist),
                None => self.histograms.push(h.clone()),
            }
        }
        self.counters.sort_by(|a, b| a.name.cmp(&b.name));
        self.histograms.sort_by(|a, b| a.name.cmp(&b.name));
    }

    /// A human-readable table of every metric: counters one per line,
    /// histograms with count/mean/min/p50/p95/p99/max.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        if !self.counters.is_empty() {
            let _ = writeln!(out, "counters:");
            for c in &self.counters {
                let _ = writeln!(out, "  {:<44} {}", c.name, c.value);
            }
        }
        if !self.histograms.is_empty() {
            let _ = writeln!(
                out,
                "histograms: {:<32} {:>8} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
                "", "count", "mean", "min", "p50", "p95", "p99", "max"
            );
            for h in &self.histograms {
                let s = &h.hist;
                let _ = writeln!(
                    out,
                    "  {:<42} {:>8} {:>11.4e} {:>11.4e} {:>11.4e} {:>11.4e} {:>11.4e} {:>11.4e}",
                    h.name,
                    s.count,
                    s.mean(),
                    s.min,
                    s.percentile(50.0),
                    s.percentile(95.0),
                    s.percentile(99.0),
                    s.max
                );
            }
        }
        if out.is_empty() {
            out.push_str("(no metrics recorded)\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::Histogram;

    fn hist_of(values: &[f64]) -> HistogramSnapshot {
        let h = Histogram::new();
        for &v in values {
            h.record(v);
        }
        h.snapshot()
    }

    #[test]
    fn percentiles_on_a_known_uniform_distribution() {
        // Values 1..=100: the 50th smallest is 50, which lives in the
        // [32, 64) bucket, so p50 reports that bucket's upper bound.
        let s = hist_of(&(1..=100).map(f64::from).collect::<Vec<_>>());
        assert_eq!(s.percentile(50.0), 64.0);
        // The 95th and 99th values (95, 99) live in [64, 128); the upper
        // bound 128 clamps to the observed max of 100.
        assert_eq!(s.percentile(95.0), 100.0);
        assert_eq!(s.percentile(99.0), 100.0);
        assert_eq!(s.percentile(100.0), 100.0);
        // The 1st value lives in [1, 2); clamped below by min = 1.
        assert_eq!(s.percentile(1.0), 2.0);
        assert_eq!(s.mean(), 50.5);
    }

    #[test]
    fn percentile_bounds_the_true_value_by_one_bucket() {
        let values: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.05 - 20.0).exp2()).collect();
        let mut sorted = values.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        let s = hist_of(&values);
        for p in [10.0f64, 50.0, 90.0, 99.0] {
            let rank = ((p / 100.0) * 1000.0).ceil() as usize - 1;
            let truth = sorted[rank];
            let est = s.percentile(p);
            assert!(
                est >= truth && est <= truth * 2.0,
                "p{p}: estimate {est} not within one bucket of {truth}"
            );
        }
    }

    #[test]
    fn percentile_of_single_value_is_that_value() {
        let s = hist_of(&[0.25]);
        for p in [1.0, 50.0, 99.0, 100.0] {
            assert_eq!(s.percentile(p), 0.25);
        }
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let a = hist_of(&[1.0, 3.0]);
        let mut left = a.clone();
        left.merge(&HistogramSnapshot::default());
        assert_eq!(left, a);
        let mut right = HistogramSnapshot::default();
        right.merge(&a);
        assert_eq!(right, a);
    }

    #[test]
    fn snapshot_lookup_and_merge() {
        let mut a = Snapshot {
            counters: vec![CounterEntry {
                name: "x".into(),
                value: 2,
            }],
            histograms: vec![HistEntry {
                name: "h".into(),
                hist: hist_of(&[1.0]),
            }],
        };
        let b = Snapshot {
            counters: vec![CounterEntry {
                name: "x".into(),
                value: 3,
            }],
            histograms: vec![HistEntry {
                name: "h".into(),
                hist: hist_of(&[4.0]),
            }],
        };
        a.merge(&b);
        assert_eq!(a.counter("x"), Some(5));
        let h = a.histogram("h").expect("merged histogram");
        assert_eq!(h.count, 2);
        assert_eq!(h.max, 4.0);
        assert_eq!(a.counter("missing"), None);
    }

    #[test]
    fn render_text_lists_every_metric() {
        let reg = crate::Registry::new();
        reg.counter("frames_total").add(7);
        reg.histogram("seconds").record(0.125);
        let text = reg.snapshot().render_text();
        assert!(text.contains("frames_total"), "{text}");
        assert!(text.contains("seconds"), "{text}");
        assert_eq!(
            crate::Registry::new().snapshot().render_text(),
            "(no metrics recorded)\n"
        );
    }

    #[test]
    fn snapshot_json_roundtrip() {
        let snap = Snapshot {
            counters: vec![CounterEntry {
                name: "c".into(),
                value: 9,
            }],
            histograms: vec![HistEntry {
                name: "h".into(),
                hist: hist_of(&[0.5, 128.0]),
            }],
        };
        let json = serde_json::to_string(&snap).expect("serialize");
        let back: Snapshot = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, snap);
        // Snapshots written while the registry still had gauges carry a
        // `gauges` array; it is read past.
        let with_gauges = json.replacen(
            "\"histograms\"",
            "\"gauges\":[{\"name\":\"loss\",\"value\":0.5}],\"histograms\"",
            1,
        );
        assert_ne!(with_gauges, json);
        let back: Snapshot = serde_json::from_str(&with_gauges).expect("parse old snapshot");
        assert_eq!(back, snap);
    }
}
