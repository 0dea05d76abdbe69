//! Shared data schemas for the table/figure outputs under `results/`.
//!
//! Every bench binary writes one of these shapes as JSON; the `plots`
//! binary reads them back to render SVG figures. Keeping the schema in
//! one place guarantees writers and readers stay in sync.

use serde::{Deserialize, Serialize};

/// One (time, accuracy) datapoint of a Figures-4–6/8 series.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TradeoffPoint {
    /// Fraction of standard training steps (25/50/75/100).
    pub percent_steps: u64,
    /// Training time, minutes: the run's steps times the design's step
    /// measured through the paced relay ([`crate::step_cached`]).
    pub training_minutes: f64,
    /// Final top-1 test accuracy, percent.
    pub accuracy_pct: f64,
}

/// A named series of tradeoff points (one design).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TradeoffSeries {
    /// Design label as used in the paper's legends.
    pub design: String,
    /// Points in increasing step-fraction order.
    pub points: Vec<TradeoffPoint>,
}

/// One full time-vs-accuracy figure at a single bandwidth.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TradeoffFigure {
    /// Bandwidth label (`"10 Mbps"`, ...).
    pub bandwidth: String,
    /// One series per design.
    pub series: Vec<TradeoffSeries>,
}

/// Loss/accuracy curves over training steps (Figure 7).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainingCurve {
    /// Design label.
    pub design: String,
    /// (step, smoothed training loss) samples.
    pub loss: Vec<(u64, f32)>,
    /// (step, test accuracy %) samples.
    pub accuracy: Vec<(u64, f64)>,
}

/// Per-step compressed size panel (Figure 9).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BitsPanel {
    /// Sparsity multiplier of this panel.
    pub sparsity: f32,
    /// The fixed no-ZRE reference line (1.6 bits).
    pub without_zre_bits: f64,
    /// (step, push bits/value, pull bits/value), each a mean over one
    /// chunk of steps.
    pub samples: Vec<(u64, f64, f64)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_figure() {
        let fig = TradeoffFigure {
            bandwidth: "10 Mbps".into(),
            series: vec![TradeoffSeries {
                design: "3LC (s=1.00)".into(),
                points: vec![TradeoffPoint {
                    percent_steps: 100,
                    training_minutes: 112.6,
                    accuracy_pct: 95.31,
                }],
            }],
        };
        let json = serde_json::to_string(&fig).unwrap();
        let back: TradeoffFigure = serde_json::from_str(&json).unwrap();
        assert_eq!(fig, back);
    }
}
