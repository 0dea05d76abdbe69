//! Per-metric time series with bounded memory: each [`Series`] keeps the
//! last [`WINDOW`] points, which is all its readers draw (`threelc top`'s
//! latest values and sparklines, the flight dump's tail).
//!
//! Everything here is deterministic: values are indexed by **training
//! step**, never by wall clock, and the stored state is a pure function
//! of the pushed `(step, value)` sequence. Two runs
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

/// Points a series keeps: its most recent 64.
pub const WINDOW: usize = 64;

/// Per-worker series names recorded by [`RunRecorder::record_step`].
pub const S_WIRE_BYTES: &str = "wire_bytes";
/// Achieved push compression ratio (32 / bits-per-value); 0 when the
/// step pushed no compressed payloads.
pub const S_RATIO: &str = "ratio";
/// Training loss observed by the worker.
pub const S_LOSS: &str = "loss";
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
    S_LOSS,
    S_REJOINS,
    S_STEP_SECONDS,
    S_BARRIER_WAIT,
];

/// Run-level series names (aggregated across workers each step).
pub const RUN_SERIES: &[&str] = &[S_WIRE_BYTES, S_RATIO, S_LOSS];

/// One exactly-stored observation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Point {
    /// Training step the value was observed at.
    pub step: u64,
    /// Observed value.
    pub value: f64,
}

/// A time series' recent window: the last [`WINDOW`] points, exact.
///
/// Points must be pushed in non-decreasing step order (the recorder's
/// callers all iterate steps forward). The full history of a run is its
/// `TrainingTrace`'s step records; the window is what `top` and the flight
/// dump draw.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Series {
    /// Metric name (one of the `S_*` constants for recorder-fed series).
    pub name: String,
    /// The most recent points, oldest first. Named `raw` so that reports
    /// and flight dumps which also carry older points in bucket fields
    /// still parse: those fields are ignored.
    pub raw: Vec<Point>,
}

impl Series {
    /// An empty series.
    pub fn new(name: &str) -> Series {
        Series {
            name: name.to_string(),
            raw: Vec::new(),
        }
    }

    /// Records one observation, evicting the oldest beyond [`WINDOW`].
    pub fn push(&mut self, step: u64, value: f64) {
        if self.raw.len() == WINDOW {
            self.raw.remove(0);
        }
        self.raw.push(Point { step, value });
    }

    /// The most recent observation.
    pub fn last(&self) -> Option<Point> {
        self.raw.last().copied()
    }

    /// The last `n` points (fewer when the window holds fewer).
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
    /// Training loss.
    pub loss: f64,
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
    /// A recorder pre-sized for `workers` workers.
    pub fn new(workers: usize) -> RunRecorder {
        let series = |names: &[&str]| names.iter().map(|n| Series::new(n)).collect();
        RunRecorder {
            store: RunSeries {
                steps_recorded: 0,
                workers: (0..workers)
                    .map(|w| WorkerSeries {
                        worker: w as u64,
                        series: series(WORKER_SERIES),
                    })
                    .collect(),
                run: series(RUN_SERIES),
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
                d.loss,
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
                deltas.iter().map(|d| d.loss).sum::<f64>() / n,
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
        let steps: Vec<u64> = s.raw.iter().map(|p| p.step).collect();
        assert_eq!(steps, (0..10).collect::<Vec<_>>());
        assert_eq!(s.last().map(|p| p.value), Some(9.0));
        assert_eq!(s.recent(3)[0].step, 7);
    }

    #[test]
    fn long_series_keeps_only_the_last_window() {
        let mut s = Series::new("x");
        let n = 10_000u64;
        for step in 0..n {
            s.push(step, step as f64 * 0.5);
        }
        assert_eq!(s.raw.len(), WINDOW);
        for (p, step) in s.raw.iter().zip(n - WINDOW as u64..) {
            assert_eq!((p.step, p.value), (step, step as f64 * 0.5));
        }
        assert_eq!(s.recent(2 * WINDOW).len(), WINDOW);
    }

    #[test]
    fn a_store_with_buckets_beside_the_window_still_parses() {
        // A series as stores that also kept older points wrote it, less
        // two of its sizing keys: every key but `name` and `raw` is ignored.
        let json = r#"{"name":"loss","raw_window":2,
            "buckets":[{"start_step":0,"width":2,"count":2,"min":1.0,"max":3.0,"sum":4.0}],
            "raw":[{"step":2,"value":0.5},{"step":3,"value":0.25}]}"#;
        let s: Series = serde_json::from_str(json).expect("parse");
        assert_eq!(s.name, "loss");
        assert_eq!(
            s.last(),
            Some(Point {
                step: 3,
                value: 0.25
            })
        );
        assert_eq!(s.raw.len(), 2);
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
                    loss: 1.0 + w as f64,
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
        let run_loss = s.run_series(S_LOSS).expect("run series");
        assert_eq!(run_loss.last().map(|p| p.value), Some(1.5));
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
                loss: 0.0,
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
        let mut r = RunRecorder::new(1);
        for step in 0..2 * WINDOW as u64 {
            r.record_step(
                step,
                &[WorkerDelta {
                    worker: 0,
                    wire_bytes: step,
                    ratio: 4.0,
                    loss: 2.0,
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
