//! The uncompressed 32-bit float baseline.

use threelc::kernels::DequantOp;
use threelc::{CompressError, Compressor, DecodeError};
use threelc_tensor::{Shape, Tensor};

/// The paper's `32-bit float` baseline: state changes are transmitted as
/// raw little-endian `f32`s, 4 bytes per value, with no loss.
///
/// ```
/// use threelc::Compressor;
/// use threelc_baselines::Float32Compressor;
/// use threelc_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let t = Tensor::from_slice(&[1.5, -2.25]);
/// let mut cx = Float32Compressor::new(t.shape().clone());
/// let wire = cx.compress(&t)?;
/// assert_eq!(wire.len(), 8);
/// assert_eq!(cx.decompress(&wire)?, t);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Float32Compressor {
    shape: Shape,
}

impl Float32Compressor {
    /// Creates a context for tensors of `shape`.
    pub fn new(shape: Shape) -> Self {
        Float32Compressor { shape }
    }
}

impl Compressor for Float32Compressor {
    fn name(&self) -> String {
        "32-bit float".to_owned()
    }

    fn compress(&mut self, input: &Tensor) -> Result<Vec<u8>, CompressError> {
        if input.shape() != &self.shape {
            return Err(CompressError::ShapeMismatch {
                expected: self.shape.dims().to_vec(),
                actual: input.shape().dims().to_vec(),
            });
        }
        Ok(input.to_le_bytes())
    }

    fn decompress(&self, payload: &[u8]) -> Result<Tensor, DecodeError> {
        let mut data = vec![0f32; self.shape.num_elements()];
        self.decode_into(payload, DequantOp::Assign, &mut data)?;
        Ok(Tensor::from_vec(data, self.shape.clone()))
    }

    /// The floats go from the wire straight through `op` into `out`: no
    /// model-sized tensor per payload in between.
    fn decode_into(
        &self,
        payload: &[u8],
        op: DequantOp,
        out: &mut [f32],
    ) -> Result<(), DecodeError> {
        let n = self.shape.num_elements();
        if payload.len() != n * 4 {
            return Err(DecodeError::BodyLengthMismatch {
                decoded: payload.len() / 4,
                expected: n,
            });
        }
        let wire = payload
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")));
        op.apply(wire, out);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lossless_roundtrip() {
        let t = Tensor::from_vec(vec![0.0, 1.0, -1.5, f32::MIN_POSITIVE], [4]);
        let mut cx = Float32Compressor::new(t.shape().clone());
        let wire = cx.compress(&t).unwrap();
        assert_eq!(cx.decompress(&wire).unwrap(), t);
    }

    #[test]
    fn exact_wire_size() {
        let t = Tensor::zeros([100]);
        let mut cx = Float32Compressor::new(t.shape().clone());
        assert_eq!(cx.compress(&t).unwrap().len(), 400);
    }

    #[test]
    fn shape_mismatch_rejected() {
        let mut cx = Float32Compressor::new(Shape::new(&[2]));
        assert!(cx.compress(&Tensor::zeros([3])).is_err());
    }

    #[test]
    fn truncated_payload_errors() {
        let cx = Float32Compressor::new(Shape::new(&[2]));
        assert!(matches!(
            cx.decompress(&[0u8; 7]),
            Err(DecodeError::BodyLengthMismatch { .. })
        ));
    }

    #[test]
    fn decode_into_matches_decompress_then_op_by_bit_pattern() {
        let values = [0.0f32, -0.0, 1.5, -2.25e-40, f32::MAX, 3.0e-3];
        let acc = [-0.0f32, 0.0, 0.1, 1.0e-40, f32::MAX, -3.0e-3];
        let t = Tensor::from_slice(&values);
        let mut cx = Float32Compressor::new(t.shape().clone());
        let wire = cx.compress(&t).unwrap();
        let bits = |xs: &[f32]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for op in [
            DequantOp::Assign,
            DequantOp::Add,
            DequantOp::AssignScaled(0.5),
            DequantOp::AddScaled(1.0 / 3.0),
        ] {
            // The dense route: a tensor, then the op over it.
            let mut want = acc;
            op.apply(cx.decompress(&wire).unwrap().iter().copied(), &mut want);
            let mut got = acc;
            cx.decode_into(&wire, op, &mut got).unwrap();
            assert_eq!(bits(&got), bits(&want), "{op:?}");
        }
        // Same error as `decompress`, nothing written.
        let mut out = acc;
        assert_eq!(
            cx.decode_into(&wire[..23], DequantOp::Assign, &mut out),
            Err(cx.decompress(&wire[..23]).unwrap_err())
        );
        assert_eq!(bits(&out), bits(&acc));
    }

    #[test]
    fn no_residual() {
        let cx = Float32Compressor::new(Shape::new(&[2]));
        assert!(cx.residual().is_none());
    }
}
