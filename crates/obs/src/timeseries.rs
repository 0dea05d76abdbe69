//! The run's recent steps: a bounded ring of the last [`WINDOW`] rows,
//! each one step's [`WorkerDelta`]s exactly as the engine's step
//! accountant booked them (`StepAccount::deltas`), in worker order.
//!
//! Nothing else is stored. `threelc top`'s rows and headline, the flight
//! dump's dashboard and the run report derive their views from the rows
//! when they read them. The rows are a pure function of the recorded
//! deltas, so the simulator and a TCP run of the same seed hold equal
//! rings but for the two wall-clock fields, `step_seconds` and
//! `barrier_wait_seconds`.

use serde::{Deserialize, Serialize};

/// Steps the ring keeps: the most recent 64.
pub const WINDOW: usize = 64;

/// One worker's contribution to one step, as observed at the server's
/// barrier (or the simulator's worker loop — both construct identical
/// values for identical runs, except the two wall-clock fields).
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
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

/// One step of the ring: its number and its deltas in worker order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StepRow {
    /// Training step.
    pub step: u64,
    /// One delta per participating worker, in worker-id order.
    pub deltas: Vec<WorkerDelta>,
}

/// The last [`WINDOW`] steps of a run, oldest first. This is what a
/// series scrape returns and what `threelc top --json` prints.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct RecentSteps {
    /// Workers in the run, so an empty ring still names every one.
    pub workers: usize,
    /// The most recent rows, oldest first, in rising step order.
    pub rows: Vec<StepRow>,
}

impl RecentSteps {
    /// An empty ring for a run of `workers` workers.
    pub fn new(workers: usize) -> RecentSteps {
        RecentSteps {
            workers,
            rows: Vec::new(),
        }
    }

    /// Appends one step's row, evicting the oldest beyond [`WINDOW`].
    pub fn record(&mut self, step: u64, deltas: &[WorkerDelta]) {
        if self.rows.len() == WINDOW {
            self.rows.remove(0);
        }
        self.rows.push(StepRow {
            step,
            deltas: deltas.to_vec(),
        });
    }

    /// Steps recorded so far: one past the newest row's step.
    pub fn steps_recorded(&self) -> u64 {
        self.rows.last().map_or(0, |r| r.step + 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn delta(worker: usize, step: u64) -> WorkerDelta {
        WorkerDelta {
            worker,
            wire_bytes: step * 10 + worker as u64,
            ratio: 8.0,
            loss: step as f64 * 0.5,
            rejoins: 0,
            step_seconds: 0.001,
            barrier_wait_seconds: 0.0,
        }
    }

    fn ring(workers: usize, steps: u64) -> RecentSteps {
        let mut r = RecentSteps::new(workers);
        for step in 0..steps {
            let deltas: Vec<WorkerDelta> = (0..workers).map(|w| delta(w, step)).collect();
            r.record(step, &deltas);
        }
        r
    }

    #[test]
    fn short_series_stays_raw() {
        let r = ring(2, 10);
        let steps: Vec<u64> = r.rows.iter().map(|row| row.step).collect();
        assert_eq!(steps, (0..10).collect::<Vec<_>>());
        assert_eq!(r.rows[9].deltas, [delta(0, 9), delta(1, 9)]);
        assert_eq!(r.steps_recorded(), 10);
        assert_eq!(RecentSteps::new(2).steps_recorded(), 0);
    }

    #[test]
    fn long_series_keeps_only_the_last_window() {
        let n = 10_000u64;
        let r = ring(1, n);
        assert_eq!(r.rows.len(), WINDOW);
        for (row, step) in r.rows.iter().zip(n - WINDOW as u64..) {
            assert_eq!((row.step, &row.deltas[..]), (step, &[delta(0, step)][..]));
        }
        assert_eq!(r.steps_recorded(), n);
    }

    #[test]
    fn ring_json_roundtrip() {
        let r = ring(2, 2 * WINDOW as u64);
        let json = serde_json::to_string(&r).expect("serialize");
        let back: RecentSteps = serde_json::from_str(&json).expect("parse");
        assert_eq!(back, r);
    }
}
