//! Baseline communication-reduction schemes compared against 3LC.
//!
//! Implements every design from the paper's §5.1 "Compared Designs",
//! behind the same [`Compressor`](threelc::Compressor) trait as 3LC itself:
//!
//! | Paper name | Type | Module |
//! |---|---|---|
//! | `32-bit float` | baseline, no compression | [`float32`] |
//! | `8-bit int` | TPU-style 8-bit quantization | [`int8`] |
//! | `Stoch 3-value + QE` | TernGrad-like stochastic ternary + quartic encoding | [`stochastic`] |
//! | `MQE 1-bit int` | 1-bit SGD with minimum squared quantization error + error feedback | [`onebit`] |
//! | `25% / 5% sparsification` | top-magnitude selection with sampled threshold + bitmap | [`sparsify`] |
//! | `2 local steps` | infrequent transmission with local accumulation | [`localsteps`] |
//!
//! The [`SchemeKind`] enum and [`build_compressor`] factory give the cluster
//! simulator and the benchmark harness a uniform way to instantiate any
//! scheme (including 3LC variants).

#![forbid(unsafe_code)]

pub mod float32;
pub mod int8;
pub mod localsteps;
pub mod onebit;
pub mod scheme;
pub mod sparsify;
pub mod stochastic;

pub use float32::Float32Compressor;
pub use int8::Int8Compressor;
pub use localsteps::LocalStepsCompressor;
pub use onebit::MqeOneBitCompressor;
pub use scheme::{build_compressor, SchemeKind};
pub use sparsify::SparsifyCompressor;
pub use stochastic::StochasticTernaryCompressor;

/// Shared wire-format and lending helpers for the baseline schemes.
pub(crate) mod wire {
    use std::ops::Range;
    use threelc::kernels::DequantOp;
    use threelc::sizing::strip_planes;
    use threelc::{CompressError, DecodeError};
    use threelc_tensor::{Shape, Tensor};

    /// Refuses an input whose shape is not the context's.
    pub fn check_shape(shape: &Shape, input: &Tensor) -> Result<(), CompressError> {
        if input.shape() != shape {
            return Err(CompressError::ShapeMismatch {
                expected: shape.dims().to_vec(),
                actual: input.shape().dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Applies `values(r)`, the decoded values of elements `r`, to each of
    /// a strip's planes under `op`: the `decode_strip` of a payload that
    /// is read element by element.
    pub fn apply_strip<I: ExactSizeIterator<Item = f32>>(
        n: usize,
        bytes: Range<usize>,
        op: DequantOp,
        planes: &mut [&mut [f32]; 5],
        mut values: impl FnMut(Range<usize>) -> I,
    ) {
        for (plane, r) in planes.iter_mut().zip(strip_planes(n, bytes)) {
            op.apply(values(r), plane);
        }
    }

    /// Whether bit `i` of a little-endian bitmap is set.
    pub fn bit(bitmap: &[u8], i: usize) -> bool {
        bitmap[i / 8] & (1 << (i % 8)) != 0
    }

    /// The little-endian `f32`s of `bytes` (a multiple of four long).
    pub fn floats(bytes: &[u8]) -> impl ExactSizeIterator<Item = f32> + '_ {
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
    }

    /// The four bytes at `offset`.
    fn read4(payload: &[u8], offset: usize) -> Result<[u8; 4], DecodeError> {
        let bytes = payload
            .get(offset..offset + 4)
            .ok_or(DecodeError::TruncatedHeader {
                have: payload.len(),
                need: offset + 4,
            })?;
        Ok(bytes.try_into().expect("4 bytes"))
    }

    /// Reads a little-endian `f32` at `offset`.
    pub fn read_f32(payload: &[u8], offset: usize) -> Result<f32, DecodeError> {
        read4(payload, offset).map(f32::from_le_bytes)
    }

    /// Reads a little-endian `u32` at `offset`.
    pub fn read_u32(payload: &[u8], offset: usize) -> Result<u32, DecodeError> {
        read4(payload, offset).map(u32::from_le_bytes)
    }

    /// Holds a payload's element count to the context's `n`.
    pub fn check_count(count: u32, n: usize) -> Result<(), DecodeError> {
        if count as usize != n {
            return Err(DecodeError::ElementCountMismatch {
                payload: count as usize,
                expected: n,
            });
        }
        Ok(())
    }

    /// The 8-byte header `8-bit int` and stochastic ternary share — a
    /// finite `f32` scale, then a `u32` element count that must be `n` —
    /// checked in that order: the scale and the body behind it.
    pub fn scaled_body(payload: &[u8], n: usize) -> Result<(f32, &[u8]), DecodeError> {
        let scale = read_f32(payload, 0)?;
        if !scale.is_finite() {
            return Err(DecodeError::NonFiniteScale);
        }
        check_count(read_u32(payload, 4)?, n)?;
        Ok((scale, &payload[8..]))
    }
}
