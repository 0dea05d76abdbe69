//! Learning-rate schedules.

use serde::{Deserialize, Serialize};

/// A learning-rate schedule over a fixed number of total training steps.
///
/// The paper uses cosine decay without restarts (Loshchilov & Hutter) from
/// 0.1 to 0.001 and notes that the schedule always spans the *adjusted*
/// total step count — when an experiment runs 25% of standard steps, the
/// cosine sweeps the full learning-rate range over those fewer steps
/// (§5.2 "Measurement Methodology"). The runtimes get that re-stretching by
/// building the schedule over the run's own total step count.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum LrSchedule {
    /// A constant learning rate.
    Constant {
        /// The learning rate.
        lr: f32,
        /// Total steps.
        total_steps: u64,
    },
    /// Cosine decay without restarts from `lr_max` to `lr_min`.
    Cosine {
        /// Initial learning rate.
        lr_max: f32,
        /// Final learning rate.
        lr_min: f32,
        /// Total steps the decay spans.
        total_steps: u64,
    },
    /// Stepwise decay: multiply by `factor` at each milestone fraction.
    Stepwise {
        /// Initial learning rate.
        lr0: f32,
        /// Multiplicative factor applied at each milestone.
        factor: f32,
        /// Fractions of `total_steps` at which to decay (must be sorted).
        milestones: [f32; 2],
        /// Total steps.
        total_steps: u64,
    },
}

impl LrSchedule {
    /// The paper's schedule: cosine decay from 0.1 to 0.001.
    pub fn paper_default(total_steps: u64) -> Self {
        LrSchedule::cosine(0.1, 0.001, total_steps)
    }

    /// Cosine decay without restarts.
    pub fn cosine(lr_max: f32, lr_min: f32, total_steps: u64) -> Self {
        LrSchedule::Cosine {
            lr_max,
            lr_min,
            total_steps,
        }
    }

    /// The learning rate at step `t` (0-based).
    pub fn lr_at(&self, t: u64) -> f32 {
        match *self {
            LrSchedule::Constant { lr, .. } => lr,
            LrSchedule::Cosine {
                lr_max,
                lr_min,
                total_steps,
            } => {
                if total_steps <= 1 {
                    return lr_max;
                }
                let progress = (t.min(total_steps - 1)) as f64 / (total_steps - 1) as f64;
                let cos = 0.5 * (1.0 + (std::f64::consts::PI * progress).cos());
                (lr_min as f64 + (lr_max as f64 - lr_min as f64) * cos) as f32
            }
            LrSchedule::Stepwise {
                lr0,
                factor,
                milestones,
                total_steps,
            } => {
                let progress = t as f64 / total_steps.max(1) as f64;
                let hits = milestones.iter().filter(|&&m| progress >= m as f64).count() as i32;
                lr0 * factor.powi(hits)
            }
        }
    }

    /// Total steps the schedule spans.
    pub fn total_steps(&self) -> u64 {
        match *self {
            LrSchedule::Constant { total_steps, .. }
            | LrSchedule::Cosine { total_steps, .. }
            | LrSchedule::Stepwise { total_steps, .. } => total_steps,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_endpoints() {
        let s = LrSchedule::cosine(0.1, 0.001, 1000);
        assert!((s.lr_at(0) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(999) - 0.001).abs() < 1e-7);
        // Past the end it stays at the minimum.
        assert!((s.lr_at(5000) - 0.001).abs() < 1e-7);
    }

    #[test]
    fn cosine_midpoint_is_mean() {
        let s = LrSchedule::cosine(0.1, 0.0, 1001);
        assert!((s.lr_at(500) - 0.05).abs() < 1e-4);
    }

    #[test]
    fn cosine_monotonically_decreasing() {
        let s = LrSchedule::paper_default(500);
        let mut prev = f32::INFINITY;
        for t in 0..500 {
            let lr = s.lr_at(t);
            assert!(lr <= prev + 1e-9, "lr increased at step {t}");
            prev = lr;
        }
    }

    #[test]
    fn constant_schedule() {
        let s = LrSchedule::Constant {
            lr: 0.05,
            total_steps: 10,
        };
        assert_eq!(s.lr_at(0), 0.05);
        assert_eq!(s.lr_at(9), 0.05);
    }

    #[test]
    fn stepwise_milestones() {
        let s = LrSchedule::Stepwise {
            lr0: 0.1,
            factor: 0.1,
            milestones: [0.5, 0.75],
            total_steps: 100,
        };
        assert!((s.lr_at(0) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(49) - 0.1).abs() < 1e-7);
        assert!((s.lr_at(50) - 0.01).abs() < 1e-7);
        assert!((s.lr_at(75) - 0.001).abs() < 1e-7);
    }

    #[test]
    fn degenerate_single_step() {
        let s = LrSchedule::cosine(0.1, 0.001, 1);
        assert_eq!(s.lr_at(0), 0.1);
    }
}
