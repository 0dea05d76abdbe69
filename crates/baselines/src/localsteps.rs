//! Infrequent transmission (the paper's `2 local steps` design).

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
    buffer: Tensor,
}

impl LocalStepsCompressor {
    /// Creates a context that transmits every `period` steps.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(shape: Shape, period: u32) -> Self {
        assert!(period > 0, "period must be positive");
        let buffer = Tensor::zeros(shape.clone());
        LocalStepsCompressor {
            shape,
            period,
            step: 0,
            buffer,
        }
    }

    /// The configured transmission period.
    pub fn period(&self) -> u32 {
        self.period
    }
}

impl Compressor for LocalStepsCompressor {
    fn name(&self) -> String {
        format!("{} local steps", self.period)
    }

    fn compress(&mut self, input: &Tensor) -> Result<Vec<u8>, CompressError> {
        if input.shape() != &self.shape {
            return Err(CompressError::ShapeMismatch {
                expected: self.shape.dims().to_vec(),
                actual: input.shape().dims().to_vec(),
            });
        }
        self.buffer
            .add_assign(input)
            .expect("buffer shape is validated");
        self.step += 1;
        if !self.step.is_multiple_of(self.period) {
            return Ok(vec![TAG_EMPTY]);
        }
        let mut wire = vec![0u8; 1 + self.buffer.len() * 4];
        wire[0] = TAG_DATA;
        self.buffer.write_le_bytes(&mut wire[1..]);
        self.buffer.map_inplace(|_| 0.0);
        Ok(wire)
    }

    fn decompress(&self, payload: &[u8]) -> Result<Tensor, DecodeError> {
        let n = self.shape.num_elements();
        match payload.first() {
            Some(&TAG_EMPTY) if payload.len() == 1 => Ok(Tensor::zeros(self.shape.clone())),
            Some(&TAG_DATA) if payload.len() == 1 + n * 4 => {
                let data = payload[1..]
                    .chunks_exact(4)
                    .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                    .collect();
                Ok(Tensor::from_vec(data, self.shape.clone()))
            }
            Some(&tag) if tag > TAG_DATA => Err(DecodeError::UnknownFormat { flags: tag }),
            _ => Err(DecodeError::BodyLengthMismatch {
                decoded: payload.len().saturating_sub(1) / 4,
                expected: n,
            }),
        }
    }

    fn residual(&self) -> Option<&Tensor> {
        Some(&self.buffer)
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
