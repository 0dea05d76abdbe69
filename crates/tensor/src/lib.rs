//! Dense `f32` tensor substrate for the 3LC reproduction.
//!
//! The paper treats each layer's parameters, gradients, and model deltas as
//! a tensor (a multidimensional array of 32-bit floats). This crate provides
//! that substrate: a row-major dense [`Tensor`] with the elementwise,
//! reduction, and linear-algebra operations the compression schemes and the
//! neural-network training framework need, plus deterministic random
//! initialization and summary statistics.
//!
//! # Example
//!
//! ```
//! use threelc_tensor::Tensor;
//!
//! let a = Tensor::from_vec(vec![1.0, -2.0, 3.0, 0.0], &[2, 2]);
//! let b = a.map(|x| x * 2.0);
//! assert_eq!(b.as_slice(), &[2.0, -4.0, 6.0, 0.0]);
//! assert_eq!(b.max_abs(), 6.0);
//! ```

mod error;
mod gemm;
pub mod init;
mod ops;
mod shape;
mod stats;
mod tensor;

pub use error::TensorError;
pub use gemm::gemm_instantiation;
pub use init::Initializer;
pub use shape::Shape;
pub use stats::{Histogram, TensorStats};
pub use tensor::Tensor;

/// Deterministic RNG used across the workspace for reproducible experiments.
pub type Rng = rand_chacha::ChaCha8Rng;

/// Creates a deterministic RNG from a seed.
///
/// All experiments in the benchmark harness derive their randomness from
/// seeds so that table and figure regeneration is reproducible run-to-run.
///
/// ```
/// use rand::Rng as _;
/// let mut a = threelc_tensor::rng(7);
/// let mut b = threelc_tensor::rng(7);
/// assert_eq!(a.gen::<u64>(), b.gen::<u64>());
/// ```
pub fn rng(seed: u64) -> Rng {
    use rand::SeedableRng;
    Rng::seed_from_u64(seed)
}

/// The host's core count, read once: the most parts a large GEMM or a
/// large normal fill is split into.
fn cores() -> usize {
    static CORES: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *CORES
        .get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get))
}
