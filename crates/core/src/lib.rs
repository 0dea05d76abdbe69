//! # 3LC: 3-value lossy compression for distributed machine learning
//!
//! A from-scratch implementation of the traffic compression scheme from
//! *3LC: Lightweight and Effective Traffic Compression for Distributed
//! Machine Learning* (Lim, Andersen, Kaminsky — MLSys 2019).
//!
//! 3LC compresses the state-change tensors (gradients pushed from workers to
//! parameter servers, and model deltas pulled back) with three composed
//! transformations:
//!
//! 1. **3-value quantization with sparsity multiplication** ([`tlq`]) — a
//!    lossy map of each `f32` onto `{-1, 0, 1}` scaled by a single
//!    full-precision scalar `M = max(|T|) · s`, where the sparsity
//!    multiplier `s ∈ [1, 2)` trades resolution for more zeros. Quantization
//!    errors are remembered in a per-tensor error-accumulation buffer and
//!    corrected at later steps.
//! 2. **Quartic encoding** ([`quartic`]) — a lossless pack of five ternary
//!    values into one byte (1.6 bits/value, 0.95% above the ternary entropy
//!    bound of log₂3 ≈ 1.585 bits).
//! 3. **Zero-run encoding** ([`zrle`]) — a lossless run-length code
//!    specialized to quartic output: runs of the all-zero byte 121 are
//!    replaced by single bytes 243–255.
//!
//! The stateful entry point is [`ThreeLcCompressor`], which owns the error
//! accumulation buffer for one tensor and implements the [`Compressor`]
//! trait shared with the baseline schemes in `threelc-baselines`.
//!
//! ```
//! use threelc::{Compressor, SparsityMultiplier, ThreeLcCompressor};
//! use threelc_tensor::Tensor;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let grad = Tensor::from_vec(vec![0.02, -0.3, 0.0, 0.11, -0.07, 0.0], &[2, 3]);
//! let mut cx = ThreeLcCompressor::new(grad.shape().clone(), SparsityMultiplier::default());
//! let wire = cx.compress(&grad)?;
//! let restored = cx.decompress(&wire)?;
//! // The per-element error is bounded by M/2 (see `tlq`).
//! let m = grad.max_abs();
//! assert!(grad.sub(&restored)?.max_abs() <= m / 2.0 + 1e-6);
//! # Ok(())
//! # }
//! ```

mod compressor;
mod error;
pub mod huffman;
pub mod kernels;
pub mod quartic;
pub mod sizing;
pub mod tlq;
mod traits;
pub mod zrle;

pub use compressor::{ThreeLcCompressor, ThreeLcOptions};
pub use error::{CompressError, DecodeError};
pub use kernels::{CodecImpl, CodecSelection, SelectionSource, CODEC_IMPL_ENV};
pub use tlq::{SparsityMultiplier, TernaryTensor};
pub use traits::{CompressionStats, Compressor};
