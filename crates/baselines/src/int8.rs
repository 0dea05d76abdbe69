//! 8-bit integer quantization (the paper's `8-bit int` design).

use crate::wire;
use std::ops::Range;
use threelc::kernels::DequantOp;
use threelc::{CompressError, Compressor, DecodeError};
use threelc_tensor::{Shape, Tensor};

/// Header: 4-byte `f32` scale + 4-byte `u32` element count.
const HEADER_LEN: usize = 8;

/// The paper's `8-bit int` scheme, approximating the Google TPU's internal
/// 8-bit quantization: values are scaled by `max(|T|)` and rounded to 255
/// distinct integers in `[-127, 127]` (−128 is left unused).
///
/// This scheme is stateless — with 255 levels the quantization error is
/// small enough that the paper uses it without error feedback.
#[derive(Debug, Clone)]
pub struct Int8Compressor {
    shape: Shape,
    /// The scratch it lends: `None` until the first lend, and while lent.
    scratch: Option<Tensor>,
}

impl Int8Compressor {
    /// Creates a context for tensors of `shape`.
    pub fn new(shape: Shape) -> Self {
        Int8Compressor {
            shape,
            scratch: None,
        }
    }
}

/// Scales `input` by `max|x| / 127` and rounds each value to one byte.
fn encode(input: &Tensor) -> Result<Vec<u8>, CompressError> {
    let (max_abs, finite) = input.as_slice().iter().fold((0.0f32, true), |(m, ok), &x| {
        (m.max(x.abs()), ok && x.is_finite())
    });
    if !finite {
        return Err(CompressError::NonFiniteInput);
    }
    let scale = max_abs / 127.0;
    let mut wire = Vec::with_capacity(HEADER_LEN + input.len());
    wire.extend_from_slice(&scale.to_le_bytes());
    wire.extend_from_slice(&(input.len() as u32).to_le_bytes());
    if scale == 0.0 {
        wire.extend(std::iter::repeat_n(0u8, input.len()));
    } else {
        let inv = 1.0 / scale;
        wire.extend(input.iter().map(|&x| ((x * inv).round() as i8) as u8));
    }
    Ok(wire)
}

impl Compressor for Int8Compressor {
    fn name(&self) -> String {
        "8-bit int".to_owned()
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
        let payload = encode(&input);
        self.scratch = Some(input);
        payload
    }

    fn stage(&self, payload: &[u8]) -> Result<(), DecodeError> {
        let n = self.shape.num_elements();
        let (_, body) = wire::scaled_body(payload, n)?;
        if body.len() != n {
            return Err(DecodeError::BodyLengthMismatch {
                decoded: body.len(),
                expected: n,
            });
        }
        Ok(())
    }

    /// Each byte is `(b as i8) as f32 · scale`, through `op`.
    fn decode_strip(
        &self,
        payload: &[u8],
        bytes: Range<usize>,
        op: DequantOp,
        planes: &mut [&mut [f32]; 5],
    ) {
        let n = self.shape.num_elements();
        let (scale, body) = wire::scaled_body(payload, n).expect("a staged payload");
        wire::apply_strip(n, bytes, op, planes, |r| {
            body[r].iter().map(move |&b| (b as i8) as f32 * scale)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(t: &Tensor) -> Tensor {
        let mut cx = Int8Compressor::new(t.shape().clone());
        let wire = cx.compress(t).unwrap();
        cx.decompress(&wire).unwrap()
    }

    #[test]
    fn error_bounded_by_half_step() {
        let t = Tensor::from_slice(&[0.5, -0.31, 0.127, 0.001, -0.499]);
        let out = roundtrip(&t);
        let step = t.max_abs() / 127.0;
        assert!(t.sub(&out).unwrap().max_abs() <= step / 2.0 + 1e-7);
    }

    #[test]
    fn extremes_map_to_exact_values() {
        let t = Tensor::from_slice(&[1.0, -1.0, 0.0]);
        let out = roundtrip(&t);
        assert_eq!(out.as_slice(), &[1.0, -1.0, 0.0]);
    }

    #[test]
    fn wire_size_is_one_byte_per_value_plus_header() {
        let t = Tensor::zeros([1000]);
        let mut cx = Int8Compressor::new(t.shape().clone());
        assert_eq!(cx.compress(&t).unwrap().len(), 1008);
    }

    #[test]
    fn all_zero_tensor() {
        let t = Tensor::zeros([16]);
        assert_eq!(roundtrip(&t), t);
    }

    #[test]
    fn never_uses_minus_128() {
        // [-127, 127] leaves -128 unused (255 distinct values).
        let t = Tensor::from_slice(&[-1.0, 1.0, -0.999999]);
        let mut cx = Int8Compressor::new(t.shape().clone());
        let wire = cx.compress(&t).unwrap();
        assert!(wire[HEADER_LEN..].iter().all(|&b| b as i8 != i8::MIN));
    }

    #[test]
    fn malformed_payloads_error() {
        let cx = Int8Compressor::new(Shape::new(&[4]));
        assert!(cx.decompress(&[1, 2]).is_err());
        let mut bad = Vec::new();
        bad.extend_from_slice(&1.0f32.to_le_bytes());
        bad.extend_from_slice(&4u32.to_le_bytes());
        bad.extend_from_slice(&[0, 0, 0]); // one byte short
        assert!(matches!(
            cx.decompress(&bad),
            Err(DecodeError::BodyLengthMismatch { .. })
        ));
    }

    #[test]
    fn non_finite_rejected() {
        let t = Tensor::from_slice(&[f32::NAN]);
        let mut cx = Int8Compressor::new(t.shape().clone());
        assert_eq!(cx.compress(&t).unwrap_err(), CompressError::NonFiniteInput);
    }
}
