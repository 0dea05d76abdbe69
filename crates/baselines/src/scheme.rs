//! Uniform scheme selection for the simulator, the networked runtime,
//! the CLI and the benchmark harness.

use crate::{
    Float32Compressor, Int8Compressor, LocalStepsCompressor, MqeOneBitCompressor,
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

/// A design at the multiplier `--sparsity` gives.
type DesignAt = fn(f32) -> SchemeKind;

/// The designs a command line can name, one token each, in table order:
/// Table 1's rows — its four 3LC rows folded into `3lc`, which takes the
/// multiplier `--sparsity` gives — then Table 2's "No ZRE" row. Parsing,
/// the CLI's usage text and the unknown-token error all read this list.
const DESIGNS: &[(&str, DesignAt)] = &[
    ("float32", |_| SchemeKind::Float32),
    ("int8", |_| SchemeKind::Int8),
    ("ternary", |_| SchemeKind::StochasticTernary),
    ("onebit", |_| SchemeKind::MqeOneBit),
    ("sparse25", |_| SchemeKind::Sparsify { fraction: 0.25 }),
    ("sparse5", |_| SchemeKind::Sparsify { fraction: 0.05 }),
    ("local2", |_| SchemeKind::LocalSteps { period: 2 }),
    ("3lc", SchemeKind::three_lc),
    ("3lc-nozre", |sparsity| SchemeKind::ThreeLc {
        sparsity,
        zero_run_encoding: false,
        error_accumulation: true,
    }),
];

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

    /// The command-line token of every design [`SchemeKind::parse`]
    /// accepts, in table order.
    pub fn tokens() -> impl Iterator<Item = &'static str> {
        DESIGNS.iter().map(|&(token, _)| token)
    }

    /// The design `token` names (see [`SchemeKind::tokens`]); the 3LC
    /// designs run at multiplier `sparsity`, the others ignore it.
    ///
    /// # Errors
    ///
    /// Names every token when `token` is none of them, and passes on
    /// [`SchemeKind::validate`]'s reason when `sparsity` is out of range.
    pub fn parse(token: &str, sparsity: f32) -> Result<SchemeKind, String> {
        let &(_, design) = DESIGNS
            .iter()
            .find(|&&(name, _)| name == token)
            .ok_or_else(|| {
                let known: Vec<&str> = Self::tokens().collect();
                format!("unknown scheme `{token}` (expected {})", known.join("|"))
            })?;
        let kind = design(sparsity);
        kind.validate()?;
        Ok(kind)
    }

    /// Range-checks the design's parameters: a multiplier in `[1, 2)`, a
    /// sparsification fraction in `(0, 1]` and a local-steps period of at
    /// least one. [`build_compressor`] panics on a kind that fails this,
    /// so a kind that arrives from outside the program (a handshake, a
    /// report) must pass it first.
    ///
    /// # Errors
    ///
    /// Returns the reason, naming the parameter.
    pub fn validate(&self) -> Result<(), String> {
        match *self {
            SchemeKind::Sparsify { fraction } if !(fraction > 0.0 && fraction <= 1.0) => Err(
                format!("sparsification fraction {fraction} must be in (0, 1]"),
            ),
            SchemeKind::LocalSteps { period: 0 } => {
                Err("local-steps period must be at least 1".into())
            }
            SchemeKind::ThreeLc { sparsity, .. } => SparsityMultiplier::new(sparsity)
                .map(drop)
                .map_err(|e| e.to_string()),
            _ => Ok(()),
        }
    }

    /// Whether the design's wire payload is the tensor's own `f32`s, four
    /// bytes a value whatever the data: the one design whose step size the
    /// plan alone fixes.
    pub fn sends_floats(&self) -> bool {
        matches!(self, SchemeKind::Float32)
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
/// Panics if the kind fails [`SchemeKind::validate`].
pub fn build_compressor(kind: &SchemeKind, shape: Shape, seed: u64) -> Box<dyn Compressor> {
    match *kind {
        SchemeKind::Float32 => Box::new(Float32Compressor::new(shape)),
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
    fn tokens_parse_to_every_table_design_and_no_zre() {
        let tokens: Vec<&str> = SchemeKind::tokens().collect();
        assert_eq!(
            tokens,
            [
                "float32",
                "int8",
                "ternary",
                "onebit",
                "sparse25",
                "sparse5",
                "local2",
                "3lc",
                "3lc-nozre"
            ]
        );
        // Table 1, row by row.
        let rows = [
            ("float32", 1.0),
            ("int8", 1.0),
            ("ternary", 1.0),
            ("onebit", 1.0),
            ("sparse25", 1.0),
            ("sparse5", 1.0),
            ("local2", 1.0),
            ("3lc", 1.0),
            ("3lc", 1.5),
            ("3lc", 1.75),
            ("3lc", 1.9),
        ];
        let parsed: Vec<SchemeKind> = rows
            .iter()
            .map(|&(token, s)| SchemeKind::parse(token, s).unwrap())
            .collect();
        assert_eq!(parsed, SchemeKind::table1_designs());
        // Table 2's "No ZRE" row.
        assert_eq!(
            SchemeKind::parse("3lc-nozre", 1.5).unwrap().label(),
            "3LC (s=1.50) no-ZRE"
        );
    }

    #[test]
    fn parse_names_every_token_and_rejects_out_of_range_parameters() {
        let err = SchemeKind::parse("zstd", 1.0).unwrap_err();
        for token in SchemeKind::tokens() {
            assert!(err.contains(token), "{err}");
        }
        assert!(SchemeKind::parse("3lc", 2.0).is_err());
        assert!(SchemeKind::parse("3lc-nozre", 0.5).is_err());
        // Designs without a multiplier ignore it.
        assert_eq!(SchemeKind::parse("int8", 7.0), Ok(SchemeKind::Int8));
        for (bad, field) in [
            (SchemeKind::three_lc(5.0), "sparsity multiplier 5"),
            (SchemeKind::three_lc(f32::NAN), "sparsity multiplier NaN"),
            (SchemeKind::Sparsify { fraction: 0.0 }, "fraction 0"),
            (SchemeKind::Sparsify { fraction: 1.5 }, "fraction 1.5"),
            (SchemeKind::Sparsify { fraction: f64::NAN }, "fraction NaN"),
            (SchemeKind::LocalSteps { period: 0 }, "period"),
        ] {
            let err = bad.validate().unwrap_err();
            assert!(err.contains(field), "{bad:?}: {err}");
        }
        for kind in SchemeKind::table1_designs() {
            assert_eq!(kind.validate(), Ok(()), "{kind}");
        }
        assert_eq!(SchemeKind::Sparsify { fraction: 1.0 }.validate(), Ok(()));
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
