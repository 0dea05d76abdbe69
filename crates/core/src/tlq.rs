//! 3-value quantization with sparsity multiplication (paper §3.1).
//!
//! The lossy transformation at the heart of 3LC. An input tensor `T_in` is
//! mapped to a ternary tensor and one full-precision scalar:
//!
//! ```text
//! M           = max(|T_in|) · s          (Equation 1)
//! T_quantized = round(T_in / M)          (Equation 2)
//! T_out       = M · T_quantized          (Equation 3, dequantization)
//! ```
//!
//! The sparsity multiplier `s ∈ [1, 2)` is 3LC's compression-level knob:
//! with `s > 1` more values fall below `M/2` in magnitude and quantize to
//! zero, making the downstream zero-run encoding more effective, while
//! dequantization *enlarges* the surviving values — preserving the average
//! magnitude of the input better than thresholding sparsifiers do.
//!
//! `round()` introduces at most `1/2` of absolute error in the scaled
//! domain, so `max(|T_in − T_out|) ≤ M/2 < max(|T_in|)` — the bound the
//! paper's convergence argument rests on (it is verified by property tests
//! in this module).

use crate::CompressError;
use serde::{Deserialize, Serialize};
use std::fmt;
use threelc_tensor::{Shape, Tensor};

/// The sparsity multiplier `s`, restricted to `1.0 ≤ s < 2.0`.
///
/// `s = 1` (the default) preserves the maximum magnitude of the input
/// exactly across a quantize/dequantize roundtrip. Larger values produce
/// sparser ternary output at the cost of larger per-step quantization error
/// (corrected over time by the error-accumulation buffer).
///
/// ```
/// use threelc::SparsityMultiplier;
/// let s = SparsityMultiplier::new(1.75)?;
/// assert_eq!(s.value(), 1.75);
/// assert!(SparsityMultiplier::new(2.0).is_err());
/// # Ok::<(), threelc::CompressError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SparsityMultiplier(f32);

impl SparsityMultiplier {
    /// Creates a sparsity multiplier.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::InvalidSparsity`] if `s` is outside
    /// `[1.0, 2.0)` or non-finite. (The range restriction is what makes the
    /// quantization output ternary: `|T_in / M| ≤ 1/s ≤ 1`.) Every entry
    /// point for a multiplier — CLI flags, `ThreeLcOptions`, policy
    /// decisions arriving over the wire — funnels through here.
    pub fn new(s: f32) -> Result<Self, CompressError> {
        if !s.is_finite() || !(1.0..2.0).contains(&s) {
            return Err(CompressError::InvalidSparsity { value: s });
        }
        Ok(SparsityMultiplier(s))
    }

    /// The underlying multiplier value.
    pub fn value(&self) -> f32 {
        self.0
    }
}

impl Default for SparsityMultiplier {
    /// The paper's default, `s = 1.0`.
    fn default() -> Self {
        SparsityMultiplier(1.0)
    }
}

impl fmt::Display for SparsityMultiplier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s={:.2}", self.0)
    }
}

/// A 3-value quantized tensor: ternary values plus the scale `M`.
///
/// The ternary data is kept dense (one `i8 ∈ {-1, 0, 1}` per element) —
/// the paper deliberately avoids sparse representations because dense
/// operations vectorize (§3.1 "Alternative sparsification techniques").
#[derive(Debug, Clone, PartialEq)]
pub struct TernaryTensor {
    shape: Shape,
    values: Vec<i8>,
    scale: f32,
}

impl TernaryTensor {
    /// Quantizes `input` with sparsity multiplier `s` (Equations 1–2).
    ///
    /// An all-zero input produces `M = 0` and an all-zero ternary tensor.
    /// Runs on the process-wide codec tier (see [`crate::kernels`]); every
    /// tier produces identical output.
    ///
    /// # Errors
    ///
    /// Returns [`CompressError::NonFiniteInput`] if any element is NaN or
    /// infinite.
    pub fn quantize(input: &Tensor, s: SparsityMultiplier) -> Result<Self, CompressError> {
        Self::quantize_impl(crate::kernels::active(), input, s)
    }

    /// [`Self::quantize`] on an explicit codec tier. The differential
    /// tests drive every tier through this; production code should use
    /// [`Self::quantize`].
    ///
    /// The mapping is `round(x / M)` evaluated in comparison form (sign
    /// and the single threshold `|x / M| ≥ 1/2` on the IEEE bit pattern),
    /// which is exact wherever `round` stays ternary — see the
    /// bit-identity argument in [`crate::kernels`]. In the degenerate
    /// corner where `M` is subnormal and `1/M` overflows to infinity, the
    /// historical `round() as i8` saturated to ±127 (invalid ternary
    /// output); the comparison form clamps to ±1 instead.
    ///
    /// # Errors
    ///
    /// Same as [`Self::quantize`].
    pub fn quantize_impl(
        imp: crate::kernels::CodecImpl,
        input: &Tensor,
        s: SparsityMultiplier,
    ) -> Result<Self, CompressError> {
        // One fused kernel pass computes the max magnitude and detects
        // NaN/inf (`f32::max` silently ignores NaN, so finiteness is
        // tracked separately).
        let (max_abs, finite) = crate::kernels::max_abs_finite(imp, input.as_slice());
        if !finite {
            return Err(CompressError::NonFiniteInput);
        }
        let scale = max_abs * s.value();
        let values = if scale == 0.0 {
            vec![0i8; input.len()]
        } else {
            let inv = 1.0 / scale;
            let mut v = vec![0i8; input.len()];
            crate::kernels::quantize_ternary(imp, input.as_slice(), inv, &mut v);
            v
        };
        Ok(TernaryTensor {
            shape: input.shape().clone(),
            values,
            scale,
        })
    }

    /// Dequantizes back to floats: `T_out = M · T_quantized` (Equation 3).
    pub fn dequantize(&self) -> Tensor {
        Tensor::from_vec(
            self.values.iter().map(|&v| v as f32 * self.scale).collect(),
            self.shape.clone(),
        )
    }

    /// The ternary values (each in `{-1, 0, 1}`), row-major.
    pub fn values(&self) -> &[i8] {
        &self.values
    }

    /// The scale `M = max(|T_in|) · s`.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The original tensor shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Fraction of zero ternary values (what the sparsity multiplier
    /// increases and zero-run encoding exploits).
    pub fn zero_fraction(&self) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        self.values.iter().filter(|&&v| v == 0).count() as f64 / self.values.len() as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn s(v: f32) -> SparsityMultiplier {
        SparsityMultiplier::new(v).unwrap()
    }

    #[test]
    fn multiplier_validation() {
        // The exact boundaries: 1.0 is the smallest legal value and the
        // largest f32 strictly below 2.0 is the biggest.
        assert!(SparsityMultiplier::new(1.0).is_ok());
        assert!(SparsityMultiplier::new(1.99).is_ok());
        let below_two = f32::from_bits(2.0f32.to_bits() - 1);
        assert!(below_two < 2.0);
        assert!(SparsityMultiplier::new(below_two).is_ok());
        assert!(SparsityMultiplier::new(2.0).is_err());
        assert!(SparsityMultiplier::new(0.99).is_err());
        assert!(SparsityMultiplier::new(f32::NAN).is_err());
        assert_eq!(SparsityMultiplier::default().value(), 1.0);
    }

    #[test]
    fn multiplier_rejection_is_typed_and_names_the_value() {
        for bad in [0.0, 0.99, 2.0, 2.5, -1.0, f32::INFINITY, f32::NEG_INFINITY] {
            match SparsityMultiplier::new(bad) {
                Err(CompressError::InvalidSparsity { value }) => assert_eq!(value, bad),
                other => panic!("s={bad} gave {other:?}, want InvalidSparsity"),
            }
        }
        match SparsityMultiplier::new(f32::NAN) {
            Err(CompressError::InvalidSparsity { value }) => assert!(value.is_nan()),
            other => panic!("NaN gave {other:?}, want InvalidSparsity"),
        }
    }

    #[test]
    fn quantize_paper_figure3_example() {
        // Figure 3 of the paper: accumulated tensor with max |x| = 0.3,
        // s = 1 → M = 0.3. Values round to {-1, 0, 1}.
        let input = Tensor::from_vec(
            vec![
                -0.3, 0.1, -0.4, 0.0, //
                -0.2, 0.0, -0.2, -0.1, //
                0.1, -0.4, 0.1, 0.3, //
                0.0, 0.3, -0.2, 0.0,
            ],
            [4, 4],
        );
        // NB: the figure's accumulation buffer has max 0.4; after scaling by
        // M = 0.4, round(x/0.4): -0.3/0.4=-0.75→-1, 0.1/0.4=0.25→0, …
        let q = TernaryTensor::quantize(&input, s(1.0)).unwrap();
        assert_eq!(q.scale(), 0.4);
        assert_eq!(
            q.values(),
            &[
                -1, 0, -1, 0, //
                -1, 0, -1, 0, //
                0, -1, 0, 1, //
                0, 1, -1, 0
            ]
        );
    }

    #[test]
    fn quantize_all_zero_tensor() {
        let input = Tensor::zeros([10]);
        let q = TernaryTensor::quantize(&input, s(1.0)).unwrap();
        assert_eq!(q.scale(), 0.0);
        assert!(q.values().iter().all(|&v| v == 0));
        assert_eq!(q.dequantize(), input);
    }

    #[test]
    fn max_magnitude_preserved_with_s1() {
        // With s = 1, an element at ±max(|T|) maps to ±1 and dequantizes to
        // exactly ±max(|T|).
        let input = Tensor::from_slice(&[0.5, -0.1, 0.02]);
        let q = TernaryTensor::quantize(&input, s(1.0)).unwrap();
        let out = q.dequantize();
        assert_eq!(out.as_slice()[0], 0.5);
    }

    #[test]
    fn error_bounded_by_half_m() {
        let input = Tensor::from_slice(&[0.31, -0.17, 0.05, 0.44, -0.29, 0.0]);
        for mult in [1.0, 1.5, 1.75, 1.9] {
            let q = TernaryTensor::quantize(&input, s(mult)).unwrap();
            let out = q.dequantize();
            let err = input.sub(&out).unwrap().max_abs();
            assert!(
                err <= q.scale() / 2.0 + 1e-7,
                "s={mult}: err {err} > M/2 {}",
                q.scale() / 2.0
            );
        }
    }

    #[test]
    fn larger_s_gives_more_zeros() {
        let mut r = threelc_tensor::rng(11);
        let input = threelc_tensor::Initializer::Normal {
            mean: 0.0,
            std_dev: 0.1,
        }
        .init(&mut r, [4096]);
        let z1 = TernaryTensor::quantize(&input, s(1.0))
            .unwrap()
            .zero_fraction();
        let z19 = TernaryTensor::quantize(&input, s(1.9))
            .unwrap()
            .zero_fraction();
        assert!(z19 > z1, "z(1.9)={z19} should exceed z(1.0)={z1}");
    }

    #[test]
    fn non_finite_input_rejected() {
        let input = Tensor::from_slice(&[1.0, f32::NAN]);
        assert_eq!(
            TernaryTensor::quantize(&input, s(1.0)).unwrap_err(),
            CompressError::NonFiniteInput
        );
        let input = Tensor::from_slice(&[f32::INFINITY]);
        assert!(TernaryTensor::quantize(&input, s(1.0)).is_err());
    }

    #[test]
    fn display_of_multiplier() {
        assert_eq!(s(1.75).to_string(), "s=1.75");
    }
}
