//! 1-bit quantization with minimum squared quantization error
//! (the paper's `MQE 1-bit int` design, after Seide et al.'s 1-bit SGD).

use crate::wire;
use std::ops::Range;
use threelc::kernels::DequantOp;
use threelc::{CompressError, Compressor, DecodeError};
use threelc_tensor::{Shape, Tensor};

/// Header: two 4-byte `f32` dequantization levels + 4-byte `u32` count.
const HEADER_LEN: usize = 12;

/// 1-bit stochastic gradient descent quantization (Seide et al.,
/// Interspeech 2014): every value is transmitted as one bit — `1` for
/// non-negative, `0` for negative — and each bit dequantizes to the *mean*
/// of the input values in its class, which minimizes the squared
/// quantization error for a fixed 2-level code. Quantization errors are
/// corrected through an error-feedback (accumulation) buffer.
///
/// The paper notes this design's unconventional per-class mean reduction is
/// costly to vectorize, which shows up as high computation overhead in the
/// 1 Gbps results (§5.3); the cluster simulator measures our implementation
/// the same way.
#[derive(Debug, Clone)]
pub struct MqeOneBitCompressor {
    shape: Shape,
    /// The error-feedback buffer: `None` until first used, and while lent.
    buffer: Option<Tensor>,
}

impl MqeOneBitCompressor {
    /// Creates a context for tensors of `shape`.
    pub fn new(shape: Shape) -> Self {
        MqeOneBitCompressor {
            shape,
            buffer: None,
        }
    }

    /// Quantizes the error-feedback buffer, input already added, to the
    /// payload and leaves the quantization error in it.
    fn encode(&mut self, mut buffer: Tensor) -> Vec<u8> {
        // Two-level MQE: level of each class is the class mean.
        let (mut pos_sum, mut pos_n, mut neg_sum, mut neg_n) = (0.0f64, 0u64, 0.0f64, 0u64);
        for &x in buffer.iter() {
            if x >= 0.0 {
                pos_sum += x as f64;
                pos_n += 1;
            } else {
                neg_sum += x as f64;
                neg_n += 1;
            }
        }
        let pos_level = if pos_n > 0 {
            (pos_sum / pos_n as f64) as f32
        } else {
            0.0
        };
        let neg_level = if neg_n > 0 {
            (neg_sum / neg_n as f64) as f32
        } else {
            0.0
        };

        let n = buffer.len();
        let mut wire = Vec::with_capacity(HEADER_LEN + n.div_ceil(8));
        wire.extend_from_slice(&pos_level.to_le_bytes());
        wire.extend_from_slice(&neg_level.to_le_bytes());
        wire.extend_from_slice(&(n as u32).to_le_bytes());
        let mut bits = vec![0u8; n.div_ceil(8)];
        for (i, &x) in buffer.as_slice().iter().enumerate() {
            if x >= 0.0 {
                bits[i / 8] |= 1 << (i % 8);
            }
        }
        wire.extend_from_slice(&bits);

        // Error feedback: subtract what was transmitted.
        for x in buffer.as_mut_slice() {
            *x -= if *x >= 0.0 { pos_level } else { neg_level };
        }
        self.buffer = Some(buffer);
        wire
    }
}

impl Compressor for MqeOneBitCompressor {
    fn name(&self) -> String {
        "MQE 1-bit int".to_owned()
    }

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn take_accumulator(&mut self) -> (Tensor, DequantOp) {
        let zeros = || Tensor::zeros(self.shape.clone());
        (self.buffer.take().unwrap_or_else(zeros), DequantOp::Add)
    }

    fn compress_accumulator(
        &mut self,
        accumulator: Tensor,
        max_abs: f32,
    ) -> Result<Vec<u8>, CompressError> {
        wire::check_shape(&self.shape, &accumulator)?;
        if !max_abs.is_finite() {
            self.buffer = Some(accumulator);
            return Err(CompressError::NonFiniteInput);
        }
        Ok(self.encode(accumulator))
    }

    fn stage(&self, payload: &[u8]) -> Result<(), DecodeError> {
        let pos_level = wire::read_f32(payload, 0)?;
        let neg_level = wire::read_f32(payload, 4)?;
        if !pos_level.is_finite() || !neg_level.is_finite() {
            return Err(DecodeError::NonFiniteScale);
        }
        let n = self.shape.num_elements();
        wire::check_count(wire::read_u32(payload, 8)?, n)?;
        let bits = &payload[HEADER_LEN..];
        if bits.len() != n.div_ceil(8) {
            return Err(DecodeError::BodyLengthMismatch {
                decoded: bits.len() * 8,
                expected: n,
            });
        }
        Ok(())
    }

    /// Each bit is its class's level, through `op`.
    fn decode_strip(
        &self,
        payload: &[u8],
        bytes: Range<usize>,
        op: DequantOp,
        planes: &mut [&mut [f32]; 5],
    ) {
        let staged = "a staged payload has both levels";
        let pos = wire::read_f32(payload, 0).expect(staged);
        let neg = wire::read_f32(payload, 4).expect(staged);
        let bits = &payload[HEADER_LEN..];
        let level = |i| if wire::bit(bits, i) { pos } else { neg };
        let n = self.shape.num_elements();
        wire::apply_strip(n, bytes, op, planes, |r| r.map(level));
    }

    fn residual(&self) -> Option<&Tensor> {
        self.buffer.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_level_output() {
        let t = Tensor::from_slice(&[0.4, 0.2, -0.1, -0.3]);
        let mut cx = MqeOneBitCompressor::new(t.shape().clone());
        let wire = cx.compress(&t).unwrap();
        let out = cx.decompress(&wire).unwrap();
        // Positive class mean 0.3; negative class mean −0.2.
        assert!(out.approx_eq(&Tensor::from_slice(&[0.3, 0.3, -0.2, -0.2]), 1e-6));
    }

    #[test]
    fn class_means_minimize_squared_error() {
        // For a 2-level code with fixed class assignment, the class mean is
        // the unique minimizer of squared error — perturbing either level
        // must not reduce it.
        let t = Tensor::from_slice(&[0.9, 0.1, 0.5, -0.4, -0.6]);
        let mut cx = MqeOneBitCompressor::new(t.shape().clone());
        let wire = cx.compress(&t).unwrap();
        let out = cx.decompress(&wire).unwrap();
        let base: f32 = t.sub(&out).unwrap().sum_squares();
        for delta in [-0.05f32, 0.05] {
            let perturbed = out.map(|x| if x > 0.0 { x + delta } else { x });
            let err = t.sub(&perturbed).unwrap().sum_squares();
            assert!(err >= base - 1e-9, "perturbed {err} < base {base}");
        }
    }

    #[test]
    fn error_feedback_residual_correct() {
        let t = Tensor::from_slice(&[0.4, 0.2, -0.1, -0.3]);
        let mut cx = MqeOneBitCompressor::new(t.shape().clone());
        let wire = cx.compress(&t).unwrap();
        let out = cx.decompress(&wire).unwrap();
        let expected = t.sub(&out).unwrap();
        assert!(cx.residual().unwrap().approx_eq(&expected, 1e-6));
    }

    #[test]
    fn cumulative_transmission_tracks_input() {
        let t = Tensor::from_slice(&[0.05, 0.5, -0.2, -0.02]);
        let mut cx = MqeOneBitCompressor::new(t.shape().clone());
        let mut sent = Tensor::zeros(t.shape().clone());
        for _ in 0..50 {
            let wire = cx.compress(&t).unwrap();
            sent.add_assign(&cx.decompress(&wire).unwrap()).unwrap();
        }
        let total = t.scale(50.0);
        // Error feedback keeps the cumulative residual bounded (not growing
        // with the number of steps).
        let resid = total.sub(&sent).unwrap().max_abs();
        assert!(resid < 1.5, "cumulative residual {resid} too large");
    }

    #[test]
    fn wire_size_about_one_bit_per_value() {
        let t = Tensor::zeros([800]);
        let mut cx = MqeOneBitCompressor::new(t.shape().clone());
        assert_eq!(cx.compress(&t).unwrap().len(), HEADER_LEN + 100);
    }

    #[test]
    fn all_positive_input() {
        let t = Tensor::from_slice(&[1.0, 2.0, 3.0]);
        let mut cx = MqeOneBitCompressor::new(t.shape().clone());
        let wire = cx.compress(&t).unwrap();
        let out = cx.decompress(&wire).unwrap();
        assert!(out.approx_eq(&Tensor::full([3], 2.0), 1e-6));
    }

    #[test]
    fn malformed_payload_errors() {
        let cx = MqeOneBitCompressor::new(Shape::new(&[8]));
        assert!(cx.decompress(&[0u8; 5]).is_err());
        let mut bad = Vec::new();
        bad.extend_from_slice(&0.1f32.to_le_bytes());
        bad.extend_from_slice(&(-0.1f32).to_le_bytes());
        bad.extend_from_slice(&8u32.to_le_bytes());
        // missing bitmap byte
        assert!(matches!(
            cx.decompress(&bad),
            Err(DecodeError::BodyLengthMismatch { .. })
        ));
    }
}
