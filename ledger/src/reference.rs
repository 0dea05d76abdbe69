//! The host-speed reference: a fixed amount of work that belongs to the
//! ledger, not to the code it measures, timed before the first and after
//! every measured run.
//!
//! The 2-vCPU hosts this benchmark runs on have phases, seconds to minutes
//! long, in which the same two busy threads get 20–50 % less done — most
//! likely a neighbour on the sibling hyperthreads, since code that
//! saturates the vector ports or lives in L2 loses most and code that
//! waits for memory least. A run of 25 s cannot average a phase away, and
//! ten runs in a row straddle a phase change more often than not. So the
//! times of a run are divided by how much slower than nominal the
//! reference ran around them. The reference never changes with the
//! repository's code, so a change there moves the corrected time by the
//! same share as the raw one.

use std::hint::black_box;
use std::thread;
use std::time::Instant;

/// Seconds a reading takes on the reference host (Xeon 2.1 GHz, 2 vCPUs)
/// in a quiet phase. Only a scale: it makes corrected times read as that
/// host's quiet-phase seconds.
pub const NOMINAL_S: f64 = 0.28;

const SMALL_VALUES: usize = 4 << 10;
const SMALL_PASSES: usize = 300_000;
const ROW_VALUES: usize = 512;
const MATRIX_ROWS: usize = 512;
const MATRIX_PASSES: usize = 6000;

/// One thread's buffers. They live as long as the [`Reference`]: freeing a
/// megabyte between runs would move the allocator's mmap threshold, and
/// with it the page faults of the run being measured.
struct Lane {
    small: Vec<f32>,
    row: Vec<f32>,
    matrix: Vec<f32>,
}

impl Lane {
    fn new() -> Lane {
        Lane {
            small: vec![1.0; SMALL_VALUES],
            row: vec![1.0; ROW_VALUES],
            matrix: vec![0.5; MATRIX_ROWS * ROW_VALUES],
        }
    }

    /// The fixed work, two loops with the two sensitivities a BSP step of
    /// these models has: multiply-adds over an L1-resident buffer (the
    /// vector ports), and `row += a * matrix_row` swept over a 1 MB matrix,
    /// which is the access pattern of the models' GEMMs (L2 bandwidth, and
    /// L2 capacity once a sibling thread wants its share).
    fn work(&mut self) -> f64 {
        let start = Instant::now();
        for _ in 0..SMALL_PASSES {
            for x in self.small.iter_mut() {
                *x = *x * 0.999_9 + 0.000_1;
            }
            black_box(&mut self.small);
        }
        for pass in 0..MATRIX_PASSES {
            let a = 1.0 / (1 + pass) as f32;
            for matrix_row in self.matrix.chunks_exact(ROW_VALUES) {
                for (x, y) in self.row.iter_mut().zip(matrix_row) {
                    *x += a * *y;
                }
            }
            black_box(&mut self.row);
        }
        start.elapsed().as_secs_f64()
    }
}

pub struct Reference {
    lanes: Vec<Lane>,
}

impl Reference {
    /// A reference that keeps `threads` threads busy at once — as many as
    /// the measured run does.
    pub fn new(threads: usize) -> Reference {
        Reference {
            lanes: (0..threads).map(|_| Lane::new()).collect(),
        }
    }

    /// One reading: the fixed work on every lane at once, the mean of the
    /// lanes' wall seconds.
    pub fn reading(&mut self) -> f64 {
        let lanes = self.lanes.len() as f64;
        let total: f64 = thread::scope(|s| {
            let handles: Vec<_> = self
                .lanes
                .iter_mut()
                .map(|lane| s.spawn(move || lane.work()))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("the reference loops do not panic"))
                .sum()
        });
        total / lanes
    }
}

/// How much slower than nominal the host ran while `readings` were taken:
/// what the times measured between them are divided by. The median, so
/// that a burst that hit one reading but not the runs (or the other way
/// round) does not move it.
pub fn slowdown(readings: &[f64]) -> f64 {
    crate::stats::median(readings) / NOMINAL_S
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nominal_readings_are_no_slowdown() {
        assert_eq!(slowdown(&[NOMINAL_S; 3]), 1.0);
        // One reading hit by a burst does not move the median.
        assert_eq!(slowdown(&[NOMINAL_S, 3.0 * NOMINAL_S, NOMINAL_S]), 1.0);
        assert!((slowdown(&[1.25 * NOMINAL_S; 4]) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn a_reading_times_the_same_work_on_every_lane() {
        let mut reference = Reference::new(2);
        let reading = reference.reading();
        assert!(reading.is_finite() && reading > 0.0);
    }
}
