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

/// Shared wire-format helpers for the baseline schemes.
pub(crate) mod wire {
    use threelc::DecodeError;

    /// Reads a little-endian `f32` at `offset`.
    pub fn read_f32(payload: &[u8], offset: usize) -> Result<f32, DecodeError> {
        let bytes: [u8; 4] = payload
            .get(offset..offset + 4)
            .ok_or(DecodeError::TruncatedHeader {
                have: payload.len(),
                need: offset + 4,
            })?
            .try_into()
            .expect("slice is 4 bytes");
        Ok(f32::from_le_bytes(bytes))
    }

    /// Reads a little-endian `u32` at `offset`.
    pub fn read_u32(payload: &[u8], offset: usize) -> Result<u32, DecodeError> {
        let bytes: [u8; 4] = payload
            .get(offset..offset + 4)
            .ok_or(DecodeError::TruncatedHeader {
                have: payload.len(),
                need: offset + 4,
            })?
            .try_into()
            .expect("slice is 4 bytes");
        Ok(u32::from_le_bytes(bytes))
    }
}
