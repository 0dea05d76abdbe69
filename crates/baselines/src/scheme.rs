//! Uniform scheme selection for the simulator and benchmark harness.

use crate::{
    Float32Compressor, Fp16Compressor, Int8Compressor, LocalStepsCompressor, MqeOneBitCompressor,
    SparsifyCompressor, StochasticTernaryCompressor,
};
use serde::{Deserialize, Serialize};
use std::fmt;
use threelc::{Compressor, SparsityMultiplier, ThreeLcCompressor, ThreeLcOptions};
use threelc_tensor::Shape;

/// Every communication-reduction design evaluated in the paper (§5.1),
/// as a serializable configuration value.
///
/// ```
/// use threelc_baselines::{build_compressor, SchemeKind};
/// let cx = build_compressor(&SchemeKind::three_lc(1.75), (&[8usize]).into(), 0);
/// assert_eq!(cx.name(), "3LC (s=1.75)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SchemeKind {
    /// Uncompressed 32-bit floats (the baseline).
    Float32,
    /// IEEE half-precision truncation (extension; ubiquitous in practice).
    Fp16,
    /// TPU-style 8-bit quantization.
    Int8,
    /// TernGrad-like stochastic ternary quantization with quartic encoding.
    StochasticTernary,
    /// 1-bit SGD with minimum squared quantization error and error feedback.
    MqeOneBit,
    /// Top-magnitude sparsification keeping `fraction` of values.
    Sparsify {
        /// Fraction of state changes to transmit (e.g. `0.25`, `0.05`).
        fraction: f64,
    },
    /// Transmit only every `period` steps, accumulating locally.
    LocalSteps {
        /// Steps between transmissions.
        period: u32,
    },
    /// The full 3LC design.
    ThreeLc {
        /// Sparsity multiplier `s ∈ [1, 2)`.
        sparsity: f32,
        /// Apply zero-run encoding (paper default: true).
        zero_run_encoding: bool,
        /// Use the error-accumulation buffer (paper default: true).
        error_accumulation: bool,
    },
}

impl SchemeKind {
    /// The full 3LC design with sparsity multiplier `s` and paper defaults.
    pub fn three_lc(s: f32) -> Self {
        SchemeKind::ThreeLc {
            sparsity: s,
            zero_run_encoding: true,
            error_accumulation: true,
        }
    }

    /// All eleven rows of the paper's Table 1, in table order.
    pub fn table1_designs() -> Vec<SchemeKind> {
        vec![
            SchemeKind::Float32,
            SchemeKind::Int8,
            SchemeKind::StochasticTernary,
            SchemeKind::MqeOneBit,
            SchemeKind::Sparsify { fraction: 0.25 },
            SchemeKind::Sparsify { fraction: 0.05 },
            SchemeKind::LocalSteps { period: 2 },
            SchemeKind::three_lc(1.0),
            SchemeKind::three_lc(1.5),
            SchemeKind::three_lc(1.75),
            SchemeKind::three_lc(1.9),
        ]
    }

    /// Human-readable name matching the paper's tables.
    pub fn label(&self) -> String {
        // Build a throwaway instance to reuse the canonical name logic.
        build_compressor(self, Shape::new(&[1]), 0).name()
    }
}

impl fmt::Display for SchemeKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// Instantiates a compression context of the given kind for one tensor.
///
/// `seed` only matters for stochastic schemes; give each worker/tensor pair
/// a distinct seed so their random choices are independent.
///
/// # Panics
///
/// Panics if the kind carries invalid parameters (e.g. a sparsity
/// multiplier outside `[1, 2)`); configurations come from code, not wire
/// input, so this is a programming error.
pub fn build_compressor(kind: &SchemeKind, shape: Shape, seed: u64) -> Box<dyn Compressor> {
    match *kind {
        SchemeKind::Float32 => Box::new(Float32Compressor::new(shape)),
        SchemeKind::Fp16 => Box::new(Fp16Compressor::new(shape)),
        SchemeKind::Int8 => Box::new(Int8Compressor::new(shape)),
        SchemeKind::StochasticTernary => Box::new(StochasticTernaryCompressor::new(shape, seed)),
        SchemeKind::MqeOneBit => Box::new(MqeOneBitCompressor::new(shape)),
        SchemeKind::Sparsify { fraction } => Box::new(SparsifyCompressor::new(shape, fraction)),
        SchemeKind::LocalSteps { period } => Box::new(LocalStepsCompressor::new(shape, period)),
        SchemeKind::ThreeLc {
            sparsity,
            zero_run_encoding,
            error_accumulation,
        } => {
            let options = ThreeLcOptions {
                sparsity: SparsityMultiplier::new(sparsity)
                    .expect("sparsity multiplier must be in [1, 2)"),
                zero_run_encoding,
                error_accumulation,
            };
            Box::new(ThreeLcCompressor::with_options(shape, options))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threelc_tensor::Tensor;

    #[test]
    fn table1_has_eleven_designs() {
        assert_eq!(SchemeKind::table1_designs().len(), 11);
    }

    #[test]
    fn labels_match_paper_names() {
        let labels: Vec<String> = SchemeKind::table1_designs()
            .iter()
            .map(|k| k.label())
            .collect();
        assert_eq!(
            labels,
            vec![
                "32-bit float",
                "8-bit int",
                "Stoch 3-value + QE",
                "MQE 1-bit int",
                "25% sparsification",
                "5% sparsification",
                "2 local steps",
                "3LC (s=1.00)",
                "3LC (s=1.50)",
                "3LC (s=1.75)",
                "3LC (s=1.90)",
            ]
        );
    }

    #[test]
    fn every_design_roundtrips_a_tensor() {
        let mut r = threelc_tensor::rng(0);
        let t = threelc_tensor::Initializer::Normal {
            mean: 0.0,
            std_dev: 0.1,
        }
        .init(&mut r, [64]);
        for kind in SchemeKind::table1_designs() {
            let mut cx = build_compressor(&kind, t.shape().clone(), 1);
            let wire = cx.compress(&t).unwrap();
            let out = cx.decompress(&wire).unwrap();
            assert_eq!(out.shape(), t.shape(), "{kind}");
        }
    }

    #[test]
    fn lossy_designs_compress_below_float32() {
        let mut r = threelc_tensor::rng(5);
        let t = threelc_tensor::Initializer::Normal {
            mean: 0.0,
            std_dev: 0.1,
        }
        .init(&mut r, [4096]);
        let baseline = 4096 * 4;
        for kind in SchemeKind::table1_designs().into_iter().skip(1) {
            let mut cx = build_compressor(&kind, t.shape().clone(), 1);
            // Two steps so LocalSteps hits both its empty and full payloads.
            let a = cx.compress(&t).unwrap().len();
            let b = cx.compress(&t).unwrap().len();
            assert!(a + b < 2 * baseline, "{kind}: {a}+{b} vs {baseline}");
        }
    }

    #[test]
    fn display_uses_label() {
        assert_eq!(SchemeKind::Float32.to_string(), "32-bit float");
    }

    #[test]
    fn serde_roundtrip() {
        let kind = SchemeKind::three_lc(1.5);
        let json = serde_json::to_string(&kind).unwrap();
        let back: SchemeKind = serde_json::from_str(&json).unwrap();
        assert_eq!(kind, back);
    }

    #[test]
    fn zero_tensor_all_designs() {
        let t = Tensor::zeros([50]);
        for kind in SchemeKind::table1_designs() {
            let mut cx = build_compressor(&kind, t.shape().clone(), 2);
            let wire = cx.compress(&t).unwrap();
            let out = cx.decompress(&wire).unwrap();
            assert_eq!(out, t, "{kind}");
        }
    }
}
