//! The ledger's own arithmetic on samples: medians, ranges, and the
//! `setup_s` / `step_s` split of a repetition.

/// Median of `xs` (mean of the middle pair for an even count).
///
/// # Panics
///
/// Panics on an empty slice or a NaN sample: both mean the caller timed
/// nothing.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("samples are not NaN"));
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// A metric summarised over repetitions: the median is the reported
/// value, min–max is recorded beside it (with n = 5 there is no tail
/// percentile worth the name).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub min: f64,
    pub max: f64,
    pub n: usize,
}

impl Summary {
    pub fn of(xs: &[f64]) -> Summary {
        Summary {
            median: median(xs),
            min: xs.iter().copied().fold(f64::INFINITY, f64::min),
            max: xs.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            n: xs.len(),
        }
    }
}

/// Steady-state seconds per BSP step of one repetition: a 1-step run
/// (`setup_s`: three problem builds, handshake, one cold step, shutdown)
/// and an `(steps + 1)`-step run of the same configuration differ by
/// exactly `steps` warm steps.
pub fn step_seconds(setup_s: f64, long_s: f64, steps: u64) -> f64 {
    assert!(steps > 0, "the long run must add steps to the 1-step run");
    (long_s - setup_s) / steps as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_unsorted_samples() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn summary_records_min_and_max_beside_the_median() {
        let s = Summary::of(&[0.9, 0.5, 0.7, 0.6, 2.0]);
        assert_eq!(
            s,
            Summary {
                median: 0.7,
                min: 0.5,
                max: 2.0,
                n: 5
            }
        );
    }

    #[test]
    fn step_seconds_subtracts_the_one_step_run() {
        // 0.5 s of set-up (one cold step included) + 200 warm steps of 30 ms.
        let s = step_seconds(0.5, 0.5 + 200.0 * 0.030, 200);
        assert!((s - 0.030).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "must add steps")]
    fn step_seconds_rejects_a_zero_step_difference() {
        step_seconds(0.5, 0.5, 0);
    }
}
