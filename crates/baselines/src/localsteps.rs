//! Infrequent transmission (the paper's `2 local steps` design).

use crate::wire;
use std::ops::Range;
use threelc::kernels::DequantOp;
use threelc::{CompressError, Compressor, DecodeError};
use threelc_tensor::{Shape, Tensor};

/// Payload tag for a skipped (empty) transmission.
const TAG_EMPTY: u8 = 0;
/// Payload tag for a full `f32` transmission.
const TAG_DATA: u8 = 1;

/// Transmits accumulated state changes every `period` steps and sends an
/// empty payload otherwise (the paper's `2 local steps` design with
/// `period = 2`).
///
/// Unsent updates accumulate locally in an error-accumulation buffer and
/// are folded into the next transmission, which "effectively doubles the
/// global batch size" (§5.1) — the accuracy cost the evaluation observes.
#[derive(Debug, Clone)]
pub struct LocalStepsCompressor {
    shape: Shape,
    period: u32,
    step: u32,
    /// The error-accumulation buffer: `None` until first used, and while lent.
    buffer: Option<Tensor>,
}

impl LocalStepsCompressor {
    /// Creates a context that transmits every `period` steps.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(shape: Shape, period: u32) -> Self {
        assert!(period > 0, "period must be positive");
        LocalStepsCompressor {
            shape,
            period,
            step: 0,
            buffer: None,
        }
    }

    /// Sends the buffer, input already added, on every `period`-th step
    /// and empties it; keeps it otherwise.
    fn encode(&mut self, mut buffer: Tensor) -> Vec<u8> {
        self.step += 1;
        let wire = if self.step.is_multiple_of(self.period) {
            let mut wire = vec![0u8; 1 + buffer.len() * 4];
            wire[0] = TAG_DATA;
            buffer.write_le_bytes(&mut wire[1..]);
            buffer.map_inplace(|_| 0.0);
            wire
        } else {
            vec![TAG_EMPTY]
        };
        self.buffer = Some(buffer);
        wire
    }
}

impl Compressor for LocalStepsCompressor {
    fn name(&self) -> String {
        format!("{} local steps", self.period)
    }

    fn shape(&self) -> &Shape {
        &self.shape
    }

    fn take_accumulator(&mut self) -> (Tensor, DequantOp) {
        let zeros = || Tensor::zeros(self.shape.clone());
        (self.buffer.take().unwrap_or_else(zeros), DequantOp::Add)
    }

    /// Refuses no value: `max_abs` is not read.
    fn compress_accumulator(
        &mut self,
        accumulator: Tensor,
        _: f32,
    ) -> Result<Vec<u8>, CompressError> {
        wire::check_shape(&self.shape, &accumulator)?;
        Ok(self.encode(accumulator))
    }

    fn stage(&self, payload: &[u8]) -> Result<(), DecodeError> {
        let n = self.shape.num_elements();
        match payload.first() {
            Some(&TAG_EMPTY) if payload.len() == 1 => Ok(()),
            Some(&TAG_DATA) if payload.len() == 1 + n * 4 => Ok(()),
            Some(&tag) if tag > TAG_DATA => Err(DecodeError::UnknownFormat { flags: tag }),
            _ => Err(DecodeError::BodyLengthMismatch {
                decoded: payload.len().saturating_sub(1) / 4,
                expected: n,
            }),
        }
    }

    /// A skipped step's values are zeros; a sent one's are its floats.
    fn decode_strip(
        &self,
        payload: &[u8],
        bytes: Range<usize>,
        op: DequantOp,
        planes: &mut [&mut [f32]; 5],
    ) {
        let n = self.shape.num_elements();
        if payload[0] == TAG_DATA {
            let floats = &payload[1..];
            wire::apply_strip(n, bytes, op, planes, |r| {
                wire::floats(&floats[4 * r.start..4 * r.end])
            });
        } else {
            wire::apply_strip(n, bytes, op, planes, |r| std::iter::repeat_n(0.0, r.len()));
        }
    }

    fn residual(&self) -> Option<&Tensor> {
        self.buffer.as_ref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alternates_empty_and_full() {
        let t = Tensor::from_slice(&[1.0, -2.0]);
        let mut cx = LocalStepsCompressor::new(t.shape().clone(), 2);
        let w1 = cx.compress(&t).unwrap();
        assert_eq!(w1, vec![TAG_EMPTY]);
        assert_eq!(cx.decompress(&w1).unwrap(), Tensor::zeros([2]));
        let w2 = cx.compress(&t).unwrap();
        assert_eq!(w2.len(), 1 + 8);
        // Second transmission carries both steps' updates.
        assert_eq!(cx.decompress(&w2).unwrap(), t.scale(2.0));
    }

    #[test]
    fn nothing_is_lost_across_a_cycle() {
        let t = Tensor::from_slice(&[0.3, 0.7, -0.1]);
        let mut cx = LocalStepsCompressor::new(t.shape().clone(), 3);
        let mut total = Tensor::zeros(t.shape().clone());
        for _ in 0..9 {
            let w = cx.compress(&t).unwrap();
            total.add_assign(&cx.decompress(&w).unwrap()).unwrap();
        }
        assert!(total.approx_eq(&t.scale(9.0), 1e-5));
    }

    #[test]
    fn traffic_roughly_halved_with_period_2() {
        let t = Tensor::zeros([1000]);
        let mut cx = LocalStepsCompressor::new(t.shape().clone(), 2);
        let mut bytes = 0usize;
        for _ in 0..10 {
            bytes += cx.compress(&t).unwrap().len();
        }
        let uncompressed = 10 * 1000 * 4;
        assert!(bytes < uncompressed * 51 / 100);
    }

    #[test]
    fn period_one_sends_everything() {
        let t = Tensor::from_slice(&[1.0]);
        let mut cx = LocalStepsCompressor::new(t.shape().clone(), 1);
        let w = cx.compress(&t).unwrap();
        assert_eq!(cx.decompress(&w).unwrap(), t);
    }

    #[test]
    #[should_panic(expected = "period")]
    fn zero_period_panics() {
        LocalStepsCompressor::new(Shape::new(&[1]), 0);
    }

    #[test]
    fn malformed_payload_errors() {
        let cx = LocalStepsCompressor::new(Shape::new(&[2]), 2);
        assert!(cx.decompress(&[]).is_err());
        assert!(cx.decompress(&[TAG_DATA, 0, 0]).is_err());
        assert!(matches!(
            cx.decompress(&[7]),
            Err(DecodeError::UnknownFormat { flags: 7 })
        ));
    }
}
