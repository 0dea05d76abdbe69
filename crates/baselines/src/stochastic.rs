//! Stochastic 3-value quantization with quartic encoding
//! (the paper's `Stoch 3-value + QE` design, TernGrad-like).

use crate::wire;
use rand::Rng as _;
use std::ops::Range;
use threelc::kernels::{self, DequantOp};
use threelc::{quartic, sizing, CompressError, Compressor, DecodeError};
use threelc_tensor::{Rng, Shape, Tensor};

/// Header: 4-byte `f32` scale + 4-byte `u32` element count.
const HEADER_LEN: usize = 8;

/// Stochastic ternary quantization in the style of TernGrad (Wen et al.,
/// NIPS 2017), but using 3LC's quartic encoding for a 1.6-bit
/// representation instead of TernGrad's 2-bit encoding, and without
/// gradient clipping — exactly the configuration the paper evaluates.
///
/// Each value `x` becomes `sign(x)` with probability `|x| / M` (where
/// `M = max(|T|)`) and `0` otherwise, making the dequantized output an
/// unbiased estimator of the input. There is **no** error-accumulation
/// buffer: the paper found stochastic quantization *combined* with error
/// accumulation fails to converge (§3.1), so the two are alternatives.
#[derive(Debug, Clone)]
pub struct StochasticTernaryCompressor {
    shape: Shape,
    rng: Rng,
    /// The scratch it lends: `None` until the first lend, and while lent.
    scratch: Option<Tensor>,
}

impl StochasticTernaryCompressor {
    /// Creates a context for tensors of `shape` with a deterministic RNG
    /// seed (each worker/tensor context should get a distinct seed).
    ///
    /// This is the paper's evaluated configuration: *no* gradient
    /// clipping.
    pub fn new(shape: Shape, seed: u64) -> Self {
        StochasticTernaryCompressor {
            shape,
            rng: threelc_tensor::rng(seed),
            scratch: None,
        }
    }

    /// Draws each value's ternary symbol, `sign(x)` with probability
    /// `|x| / max|x|`, and quartic-encodes them behind the header.
    fn encode(&mut self, input: &Tensor) -> Result<Vec<u8>, CompressError> {
        let (scale, finite) = input.as_slice().iter().fold((0.0f32, true), |(m, ok), &x| {
            (m.max(x.abs()), ok && x.is_finite())
        });
        if !finite {
            return Err(CompressError::NonFiniteInput);
        }
        let ternary: Vec<i8> = if scale == 0.0 {
            vec![0; input.len()]
        } else {
            input
                .iter()
                .map(|&x| {
                    let p = (x.abs() / scale).min(1.0);
                    if self.rng.gen::<f32>() < p {
                        if x > 0.0 {
                            1
                        } else {
                            -1
                        }
                    } else {
                        0
                    }
                })
                .collect()
        };
        let body = quartic::encode(&ternary);
        let mut wire = Vec::with_capacity(HEADER_LEN + body.len());
        wire.extend_from_slice(&scale.to_le_bytes());
        wire.extend_from_slice(&(input.len() as u32).to_le_bytes());
        wire.extend_from_slice(&body);
        Ok(wire)
    }
}

impl Compressor for StochasticTernaryCompressor {
    fn name(&self) -> String {
        "Stoch 3-value + QE".to_owned()
    }

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn take_accumulator(&mut self) -> (Tensor, DequantOp) {
        let zeros = || Tensor::zeros(self.shape.clone());
        (self.scratch.take().unwrap_or_else(zeros), DequantOp::Assign)
    }

    fn compress_accumulator(&mut self, input: Tensor, _: f32) -> Result<Vec<u8>, CompressError> {
        wire::check_shape(&self.shape, &input)?;
        let payload = self.encode(&input);
        self.scratch = Some(input);
        payload
    }

    fn stage(&self, payload: &[u8]) -> Result<(), DecodeError> {
        let n = self.shape.num_elements();
        let (_, body) = wire::scaled_body(payload, n)?;
        if body.len() != sizing::quartic_len(n) {
            return Err(DecodeError::BodyLengthMismatch {
                decoded: body.len() * quartic::VALUES_PER_BYTE,
                expected: n,
            });
        }
        match kernels::find_invalid_quartic(kernels::active(), body) {
            Some(offset) => Err(DecodeError::InvalidQuarticByte {
                byte: body[offset],
                offset,
            }),
            None => Ok(()),
        }
    }

    /// The body is 3LC's quartic bytes, read in place by 3LC's plane
    /// kernel: `sym as f32 · scale`, through `op`.
    fn decode_strip(
        &self,
        payload: &[u8],
        bytes: Range<usize>,
        op: DequantOp,
        planes: &mut [&mut [f32]; 5],
    ) {
        let n = self.shape.num_elements();
        let ranges = sizing::strip_planes(n, bytes.clone());
        assert!(
            planes.iter().zip(ranges).all(|(p, r)| p.len() == r.len()),
            "a plane whose length is not its range's"
        );
        let (scale, body) = wire::scaled_body(payload, n).expect("a staged payload");
        kernels::unpack_dequant_planes(kernels::active(), &body[bytes], scale, op, planes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn output_is_ternary_scaled() {
        let t = Tensor::from_slice(&[0.5, -0.25, 0.1, 0.0]);
        let mut cx = StochasticTernaryCompressor::new(t.shape().clone(), 1);
        let wire = cx.compress(&t).unwrap();
        let out = cx.decompress(&wire).unwrap();
        let m = t.max_abs();
        for &v in out.iter() {
            assert!(v == 0.0 || v == m || v == -m, "value {v}");
        }
    }

    #[test]
    fn unbiased_in_expectation() {
        // Averaging many independent quantizations approaches the input.
        let t = Tensor::from_slice(&[0.8, -0.4, 0.2, 0.0, -1.0]);
        let mut cx = StochasticTernaryCompressor::new(t.shape().clone(), 7);
        let rounds = 4000;
        let mut sum = Tensor::zeros(t.shape().clone());
        for _ in 0..rounds {
            let wire = cx.compress(&t).unwrap();
            sum.add_assign(&cx.decompress(&wire).unwrap()).unwrap();
        }
        let avg = sum.scale(1.0 / rounds as f32);
        assert!(
            avg.approx_eq(&t, 0.05),
            "average {avg} should approximate input {t}"
        );
    }

    #[test]
    fn max_magnitude_value_always_sent() {
        // p = |x|/M = 1 for the max-magnitude element.
        let t = Tensor::from_slice(&[1.0, 0.0]);
        let mut cx = StochasticTernaryCompressor::new(t.shape().clone(), 3);
        for _ in 0..50 {
            let wire = cx.compress(&t).unwrap();
            let out = cx.decompress(&wire).unwrap();
            assert_eq!(out.as_slice()[0], 1.0);
            assert_eq!(out.as_slice()[1], 0.0);
        }
    }

    #[test]
    fn wire_size_is_1_6_bits_per_value() {
        let t = Tensor::zeros([1000]);
        let mut cx = StochasticTernaryCompressor::new(t.shape().clone(), 0);
        assert_eq!(cx.compress(&t).unwrap().len(), HEADER_LEN + 200);
    }

    #[test]
    fn no_error_accumulation() {
        let cx = StochasticTernaryCompressor::new(Shape::new(&[4]), 0);
        assert!(cx.residual().is_none());
    }

    #[test]
    fn deterministic_given_seed() {
        let t = Tensor::from_slice(&[0.3, -0.6, 0.9, 0.1]);
        let mut a = StochasticTernaryCompressor::new(t.shape().clone(), 5);
        let mut b = StochasticTernaryCompressor::new(t.shape().clone(), 5);
        assert_eq!(a.compress(&t).unwrap(), b.compress(&t).unwrap());
    }

    #[test]
    fn malformed_payload_errors() {
        let cx = StochasticTernaryCompressor::new(Shape::new(&[5]), 0);
        assert!(cx.decompress(&[0u8; 3]).is_err());
        let mut bad = Vec::new();
        bad.extend_from_slice(&1.0f32.to_le_bytes());
        bad.extend_from_slice(&5u32.to_le_bytes());
        bad.push(255); // invalid quartic byte
        assert!(matches!(
            cx.decompress(&bad),
            Err(DecodeError::InvalidQuarticByte { .. })
        ));
    }
}
