//! Per-metric time series with bounded memory: a raw tail window plus
//! tiered downsampling for older points.
//!
//! A [`Series`] keeps the most recent `raw_window` points exactly and
//! folds everything older into fixed-width [`Bucket`]s (min/max/sum/count
//! per bucket). When the bucket ring itself fills, the bucket width
//! doubles and adjacent buckets merge — so an arbitrarily long run always
//! fits in `raw_window + bucket_capacity` slots, and the oldest history
//! degrades gracefully from exact points to coarser aggregates instead of
//! vanishing.
//!
//! Everything here is deterministic: values are indexed by **training
//! step**, never by wall clock, and the stored state is a pure function
//! of the pushed `(step, value)` sequence and the capacities. Two runs
//! that record the same values (the simulator and a TCP run of the same
//! seed) therefore hold bit-identical series. Wall-clock-derived series
//! (step latency) are recorded too, but under names listed in
//! [`WALL_CLOCK_SERIES`] so comparisons can strip them
//! ([`RunSeries::deterministic`]).
//!
//! [`RunRecorder`] is the run-wide store: one set of named series per
//! worker plus run-level aggregates, fed once per step from the server's
//! barrier (or the simulator's worker loop) and scraped live over the
//! metrics side-door.

use serde::{Deserialize, Serialize};

/// Exact points kept in a series' raw tail window by default.
pub const DEFAULT_RAW_WINDOW: usize = 64;
/// Aggregated buckets kept per series by default. When exceeded, the
/// bucket width doubles and adjacent buckets merge.
pub const DEFAULT_BUCKET_CAPACITY: usize = 64;

/// Per-worker series names recorded by [`RunRecorder::record_step`].
pub const S_WIRE_BYTES: &str = "wire_bytes";
/// Achieved push compression ratio (32 / bits-per-value); 0 when the
/// step pushed no compressed payloads.
pub const S_RATIO: &str = "ratio";
/// Residual (error-accumulation) L2 norm.
pub const S_RESIDUAL_L2: &str = "residual_l2";
/// Training loss observed by the worker.
pub const S_LOSS: &str = "loss";
/// Policy sparsity multiplier governing the step (tensor 0).
pub const S_MULTIPLIER: &str = "multiplier";
/// Cumulative rejoin count for the worker (always 0 in the simulator).
pub const S_REJOINS: &str = "rejoins";
/// Wall-clock seconds the worker spent computing + encoding the step.
pub const S_STEP_SECONDS: &str = "step_seconds";
/// Wall-clock seconds the barrier spent waiting on this worker beyond
/// the first arrival — how late its push was relative to the fastest
/// worker that step (0 in the simulator, which has no wall clock).
pub const S_BARRIER_WAIT: &str = "barrier_wait_seconds";

/// Series whose values derive from wall clocks and therefore differ
/// between two otherwise identical runs. [`RunSeries::deterministic`]
/// strips these before bit-exact comparisons.
pub const WALL_CLOCK_SERIES: &[&str] = &[S_STEP_SECONDS, S_BARRIER_WAIT];

/// All per-worker series names, in recording order.
pub const WORKER_SERIES: &[&str] = &[
    S_WIRE_BYTES,
    S_RATIO,
    S_RESIDUAL_L2,
    S_LOSS,
    S_MULTIPLIER,
    S_REJOINS,
    S_STEP_SECONDS,
    S_BARRIER_WAIT,
];

/// Run-level series names (aggregated across workers each step).
pub const RUN_SERIES: &[&str] = &[S_WIRE_BYTES, S_RATIO, S_RESIDUAL_L2, S_LOSS, S_MULTIPLIER];

/// One exactly-stored observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Training step the value was observed at.
    pub step: u64,
    /// Observed value.
    pub value: f64,
}

/// One downsampled bucket: the aggregate of every point whose step falls
/// in `[start_step, start_step + width)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Bucket {
    /// First step covered (aligned to a multiple of `width`).
    pub start_step: u64,
    /// Steps covered.
    pub width: u64,
    /// Points folded in.
    pub count: u64,
    /// Smallest folded value.
    pub min: f64,
    /// Largest folded value.
    pub max: f64,
    /// Sum of folded values (mean = sum / count).
    pub sum: f64,
}

impl Bucket {
    /// A bucket of `width` steps holding just `p`.
    pub fn of_point(p: Point, width: u64) -> Bucket {
        Bucket {
            start_step: p.step - p.step % width,
            width,
            count: 1,
            min: p.value,
            max: p.value,
            sum: p.value,
        }
    }

    /// Mean folded value (0.0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Folds one point in. The point's step must lie inside the bucket.
    pub fn add_point(&mut self, p: Point) {
        debug_assert!(p.step >= self.start_step && p.step - self.start_step < self.width);
        self.count += 1;
        self.min = self.min.min(p.value);
        self.max = self.max.max(p.value);
        self.sum += p.value;
    }

    /// Folds another bucket in. `count`, `min`, and `max` merge exactly;
    /// `sum` is a float addition.
    pub fn absorb(&mut self, other: &Bucket) {
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.sum += other.sum;
    }
}

/// Downsamples step-ordered points into width-aligned buckets.
pub fn downsample(points: &[Point], width: u64) -> Vec<Bucket> {
    assert!(width > 0, "bucket width must be positive");
    let mut out: Vec<Bucket> = Vec::new();
    for &p in points {
        let start = p.step - p.step % width;
        match out.last_mut() {
            Some(last) if last.start_step == start => last.add_point(p),
            _ => out.push(Bucket::of_point(p, width)),
        }
    }
    out
}

/// Merges two step-ordered bucket lists of the same width: buckets with
/// equal `start_step` absorb each other, everything else interleaves in
/// step order. `merge_buckets(downsample(a, w), downsample(b, w))` equals
/// `downsample(a ++ b, w)` for any split of a step-ordered sequence —
/// exactly for `start_step`/`width`/`count`/`min`/`max`, and up to float
/// associativity for `sum`.
pub fn merge_buckets(a: &[Bucket], b: &[Bucket]) -> Vec<Bucket> {
    let mut out: Vec<Bucket> = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() || j < b.len() {
        let next = if j >= b.len() || (i < a.len() && a[i].start_step <= b[j].start_step) {
            i += 1;
            a[i - 1]
        } else {
            j += 1;
            b[j - 1]
        };
        match out.last_mut() {
            Some(last) if last.start_step == next.start_step => last.absorb(&next),
            _ => out.push(next),
        }
    }
    out
}

/// Re-tiers buckets to a coarser width (a multiple of the old one),
/// merging buckets that land in the same new-aligned slot.
fn retier(buckets: &[Bucket], width: u64) -> Vec<Bucket> {
    let mut out: Vec<Bucket> = Vec::new();
    for b in buckets {
        let mut nb = *b;
        nb.start_step = b.start_step - b.start_step % width;
        nb.width = width;
        match out.last_mut() {
            Some(last) if last.start_step == nb.start_step => last.absorb(&nb),
            _ => out.push(nb),
        }
    }
    out
}

/// A fixed-capacity time series: recent points exact, older points
/// downsampled into buckets of doubling width.
///
/// Points must be pushed in non-decreasing step order (the recorder's
/// callers all iterate steps forward).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Metric name (one of the `S_*` constants for recorder-fed series).
    pub name: String,
    /// Exact points kept in the raw tail.
    pub raw_window: usize,
    /// Buckets kept before the tier doubles.
    pub bucket_capacity: usize,
    /// Current bucket width in steps (doubles on overflow).
    pub bucket_width: u64,
    /// Downsampled history, oldest first.
    pub buckets: Vec<Bucket>,
    /// Exact recent points, oldest first.
    pub raw: Vec<Point>,
}

impl Series {
    /// An empty series with the default capacities.
    pub fn new(name: &str) -> Series {
        Series::with_capacity(name, DEFAULT_RAW_WINDOW, DEFAULT_BUCKET_CAPACITY)
    }

    /// An empty series with explicit capacities (both must be ≥ 1).
    pub fn with_capacity(name: &str, raw_window: usize, bucket_capacity: usize) -> Series {
        assert!(raw_window >= 1, "raw window must hold at least one point");
        assert!(
            bucket_capacity >= 1,
            "bucket ring must hold at least one bucket"
        );
        Series {
            name: name.to_string(),
            raw_window,
            bucket_capacity,
            bucket_width: 1,
            buckets: Vec::new(),
            raw: Vec::new(),
        }
    }

    /// Records one observation. Amortized O(1); evicted raw points fold
    /// into the bucket tier, which compacts by doubling its width.
    pub fn push(&mut self, step: u64, value: f64) {
        self.raw.push(Point { step, value });
        while self.raw.len() > self.raw_window {
            let p = self.raw.remove(0);
            self.fold(p);
        }
    }

    fn fold(&mut self, p: Point) {
        let start = p.step - p.step % self.bucket_width;
        match self.buckets.last_mut() {
            Some(last) if last.start_step == start => last.add_point(p),
            _ => self.buckets.push(Bucket::of_point(p, self.bucket_width)),
        }
        while self.buckets.len() > self.bucket_capacity {
            self.bucket_width *= 2;
            self.buckets = retier(&self.buckets, self.bucket_width);
        }
    }

    /// Total observations held (raw + bucketed). Equals the number of
    /// pushes — downsampling never loses counts.
    pub fn count(&self) -> u64 {
        self.raw.len() as u64 + self.buckets.iter().map(|b| b.count).sum::<u64>()
    }

    /// Exact minimum over every observation ever pushed (None when empty).
    pub fn min(&self) -> Option<f64> {
        let raw = self.raw.iter().map(|p| p.value);
        let old = self.buckets.iter().map(|b| b.min);
        raw.chain(old)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.min(v))))
    }

    /// Exact maximum over every observation ever pushed (None when empty).
    pub fn max(&self) -> Option<f64> {
        let raw = self.raw.iter().map(|p| p.value);
        let old = self.buckets.iter().map(|b| b.max);
        raw.chain(old)
            .fold(None, |m, v| Some(m.map_or(v, |m: f64| m.max(v))))
    }

    /// Sum over every observation (float additions, so associativity
    /// rounding applies).
    pub fn sum(&self) -> f64 {
        self.raw.iter().map(|p| p.value).sum::<f64>()
            + self.buckets.iter().map(|b| b.sum).sum::<f64>()
    }

    /// The most recent observation.
    pub fn last(&self) -> Option<Point> {
        self.raw.last().copied().or_else(|| {
            self.buckets.last().map(|b| Point {
                step: b.start_step,
                value: b.mean(),
            })
        })
    }

    /// The last `n` exact points (fewer when the raw tail is shorter).
    pub fn recent(&self, n: usize) -> &[Point] {
        let skip = self.raw.len().saturating_sub(n);
        &self.raw[skip..]
    }
}

/// All series recorded for one worker.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WorkerSeries {
    /// Worker id.
    pub worker: u64,
    /// Named series (one per [`WORKER_SERIES`] entry, in that order).
    pub series: Vec<Series>,
}

impl WorkerSeries {
    /// A series by name, if present.
    pub fn series(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name == name)
    }
}

/// The run-wide series store: per-worker series plus run-level
/// aggregates. This is what a series scrape returns and
/// what `threelc top --json` prints.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RunSeries {
    /// Steps fully recorded so far (the next step to record).
    pub steps_recorded: u64,
    /// Per-worker series, indexed by worker id.
    pub workers: Vec<WorkerSeries>,
    /// Run-level aggregates (one per [`RUN_SERIES`] entry): wire bytes
    /// summed, ratio and loss averaged, residual maxed over workers.
    pub run: Vec<Series>,
}

impl RunSeries {
    /// A run-level series by name, if present.
    pub fn run_series(&self, name: &str) -> Option<&Series> {
        self.run.iter().find(|s| s.name == name)
    }

    /// A copy with every wall-clock-derived series removed — the view two
    /// runs of the same seed must agree on bit-for-bit.
    pub fn deterministic(&self) -> RunSeries {
        let keep = |s: &Series| !WALL_CLOCK_SERIES.contains(&s.name.as_str());
        RunSeries {
            steps_recorded: self.steps_recorded,
            workers: self
                .workers
                .iter()
                .map(|w| WorkerSeries {
                    worker: w.worker,
                    series: w.series.iter().filter(|s| keep(s)).cloned().collect(),
                })
                .collect(),
            run: self.run.iter().filter(|s| keep(s)).cloned().collect(),
        }
    }
}

/// One worker's contribution to one step, as observed at the server's
/// barrier (or the simulator's worker loop — both construct identical
/// values for identical runs, except `step_seconds`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkerDelta {
    /// Worker id.
    pub worker: usize,
    /// Total push wire bytes this worker sent (all payloads).
    pub wire_bytes: u64,
    /// Achieved push compression ratio (32 / bits-per-value over the
    /// compressed payloads); 0 when nothing compressed.
    pub ratio: f64,
    /// Residual L2 after encoding.
    pub residual_l2: f64,
    /// Training loss.
    pub loss: f64,
    /// Policy multiplier governing the step (tensor 0).
    pub multiplier: f64,
    /// Cumulative rejoins for this worker so far.
    pub rejoins: u64,
    /// Wall-clock compute+encode seconds (non-deterministic).
    pub step_seconds: f64,
    /// Seconds the barrier waited on this worker past the first push
    /// arrival (non-deterministic; 0 in the simulator).
    pub barrier_wait_seconds: f64,
}

/// Folds per-worker step deltas into a bounded [`RunSeries`] store.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecorder {
    store: RunSeries,
}

impl RunRecorder {
    /// A recorder pre-sized for `workers` workers with default capacities.
    pub fn new(workers: usize) -> RunRecorder {
        RunRecorder::with_capacity(workers, DEFAULT_RAW_WINDOW, DEFAULT_BUCKET_CAPACITY)
    }

    /// A recorder with explicit per-series capacities.
    pub fn with_capacity(workers: usize, raw_window: usize, bucket_capacity: usize) -> RunRecorder {
        let worker_set = |w: usize| WorkerSeries {
            worker: w as u64,
            series: WORKER_SERIES
                .iter()
                .map(|n| Series::with_capacity(n, raw_window, bucket_capacity))
                .collect(),
        };
        RunRecorder {
            store: RunSeries {
                steps_recorded: 0,
                workers: (0..workers).map(worker_set).collect(),
                run: RUN_SERIES
                    .iter()
                    .map(|n| Series::with_capacity(n, raw_window, bucket_capacity))
                    .collect(),
            },
        }
    }

    /// Folds one step's deltas in. `deltas` holds one entry per
    /// participating worker (a worker without an entry simply gets no
    /// point this step); run-level aggregates are computed over the
    /// participating set.
    pub fn record_step(&mut self, step: u64, deltas: &[WorkerDelta]) {
        for d in deltas {
            let Some(ws) = self.store.workers.get_mut(d.worker) else {
                continue;
            };
            let values = [
                d.wire_bytes as f64,
                d.ratio,
                d.residual_l2,
                d.loss,
                d.multiplier,
                d.rejoins as f64,
                d.step_seconds,
                d.barrier_wait_seconds,
            ];
            for (s, v) in ws.series.iter_mut().zip(values) {
                s.push(step, v);
            }
        }
        if !deltas.is_empty() {
            let n = deltas.len() as f64;
            let values = [
                deltas.iter().map(|d| d.wire_bytes).sum::<u64>() as f64,
                deltas.iter().map(|d| d.ratio).sum::<f64>() / n,
                deltas.iter().map(|d| d.residual_l2).fold(0.0, f64::max),
                deltas.iter().map(|d| d.loss).sum::<f64>() / n,
                deltas.first().map(|d| d.multiplier).unwrap_or(1.0),
            ];
            for (s, v) in self.store.run.iter_mut().zip(values) {
                s.push(step, v);
            }
        }
        self.store.steps_recorded = self.store.steps_recorded.max(step + 1);
    }

    /// The live store.
    pub fn store(&self) -> &RunSeries {
        &self.store
    }

    /// A point-in-time copy of the store (what scrapes serialize).
    pub fn snapshot(&self) -> RunSeries {
        self.store.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_series_stays_raw() {
        let mut s = Series::new("x");
        for step in 0..10 {
            s.push(step, step as f64);
        }
        assert_eq!(s.raw.len(), 10);
        assert!(s.buckets.is_empty());
        assert_eq!(s.count(), 10);
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.max(), Some(9.0));
        assert_eq!(s.last().map(|p| p.value), Some(9.0));
    }

    #[test]
    fn long_series_downsamples_without_losing_extremes() {
        let mut s = Series::with_capacity("x", 8, 4);
        let n = 10_000u64;
        for step in 0..n {
            // A spike early in the run must survive arbitrary compaction.
            let v = if step == 17 { 1e9 } else { step as f64 };
            s.push(step, v);
        }
        assert_eq!(s.count(), n);
        assert_eq!(s.min(), Some(0.0));
        assert_eq!(s.max(), Some(1e9));
        assert!(
            s.buckets.len() <= 4,
            "bucket ring overflowed: {}",
            s.buckets.len()
        );
        assert_eq!(s.raw.len(), 8);
        // Buckets tile the evicted prefix in order without overlap.
        for w in s.buckets.windows(2) {
            assert!(w[0].start_step + w[0].width <= w[1].start_step + w[1].width);
            assert!(w[0].start_step < w[1].start_step);
        }
    }

    #[test]
    fn merge_of_downsampled_equals_downsample_of_merged() {
        let points: Vec<Point> = (0..100)
            .map(|i| Point {
                step: i,
                value: (i as f64) * 0.5 - 10.0,
            })
            .collect();
        let whole = downsample(&points, 8);
        for split in [0usize, 1, 7, 8, 50, 99, 100] {
            let merged = merge_buckets(
                &downsample(&points[..split], 8),
                &downsample(&points[split..], 8),
            );
            assert_eq!(merged.len(), whole.len(), "split {split}");
            for (m, w) in merged.iter().zip(&whole) {
                assert_eq!(m.start_step, w.start_step);
                assert_eq!(m.count, w.count);
                assert_eq!(m.min, w.min);
                assert_eq!(m.max, w.max);
                assert!((m.sum - w.sum).abs() <= 1e-9 * (1.0 + w.sum.abs()));
            }
        }
    }

    #[test]
    fn recorder_folds_worker_and_run_series() {
        let mut r = RunRecorder::new(2);
        for step in 0..5u64 {
            let deltas: Vec<WorkerDelta> = (0..2)
                .map(|w| WorkerDelta {
                    worker: w,
                    wire_bytes: 100 + w as u64,
                    ratio: 8.0,
                    residual_l2: 0.5 + w as f64,
                    loss: 1.0,
                    multiplier: 1.5,
                    rejoins: 0,
                    step_seconds: 0.001,
                    barrier_wait_seconds: 0.0,
                })
                .collect();
            r.record_step(step, &deltas);
        }
        let s = r.store();
        assert_eq!(s.steps_recorded, 5);
        assert_eq!(s.workers.len(), 2);
        let w1 = s.workers[1].series(S_WIRE_BYTES).expect("series exists");
        assert_eq!(w1.last().map(|p| p.value), Some(101.0));
        let run_bytes = s.run_series(S_WIRE_BYTES).expect("run series");
        assert_eq!(run_bytes.last().map(|p| p.value), Some(201.0));
        let run_res = s.run_series(S_RESIDUAL_L2).expect("run series");
        assert_eq!(run_res.last().map(|p| p.value), Some(1.5));
    }

    #[test]
    fn deterministic_view_strips_wall_clock_series() {
        let mut r = RunRecorder::new(1);
        r.record_step(
            0,
            &[WorkerDelta {
                worker: 0,
                wire_bytes: 1,
                ratio: 1.0,
                residual_l2: 0.0,
                loss: 0.0,
                multiplier: 1.0,
                rejoins: 0,
                step_seconds: 0.123,
                barrier_wait_seconds: 0.0,
            }],
        );
        let det = r.store().deterministic();
        assert!(det.workers[0].series(S_STEP_SECONDS).is_none());
        assert!(det.workers[0].series(S_WIRE_BYTES).is_some());
        // Determinism holds trivially for the stripped view: the same
        // pushes minus wall-clock series compare equal.
        assert_eq!(det, r.store().deterministic());
    }

    #[test]
    fn run_series_json_roundtrip() {
        let mut r = RunRecorder::with_capacity(1, 2, 2);
        for step in 0..20u64 {
            r.record_step(
                step,
                &[WorkerDelta {
                    worker: 0,
                    wire_bytes: step,
                    ratio: 4.0,
                    residual_l2: 0.1,
                    loss: 2.0,
                    multiplier: 1.0,
                    rejoins: 0,
                    step_seconds: 0.0,
                    barrier_wait_seconds: 0.0,
                }],
            );
        }
        let json = serde_json::to_string(r.store()).expect("serialize");
        let back: RunSeries = serde_json::from_str(&json).expect("parse");
        assert_eq!(&back, r.store());
    }
}
