//! Neural-network training substrate for the 3LC reproduction.
//!
//! The paper evaluates 3LC by training ResNet-110 image classifiers for
//! CIFAR-10 on TensorFlow. This crate is the from-scratch stand-in for that
//! stack: feedforward networks with residual (identity-mapping) blocks,
//! manual backpropagation, SGD with momentum and weight decay, the
//! cosine-decay learning-rate schedule the paper uses, and a synthetic
//! CIFAR-like dataset with crop/flip augmentation (see `DESIGN.md` §3 for
//! why this substitution preserves the behaviours 3LC's evaluation
//! depends on).
//!
//! The central types are:
//!
//! - [`Network`] — an ordered stack of [`Layer`]s with named parameter
//!   tensors, exposing exactly the interface a parameter server needs:
//!   read/overwrite parameters ([`Network::snapshot`] /
//!   [`Network::restore`] are the in-memory checkpoint) and compute
//!   per-parameter gradients into tensors the caller keeps, written or
//!   added into ([`Network::loss_and_gradients_into`], [`GradSlot`]).
//! - [`Layer`] — `forward` plus one [`backward`](Layer::backward) that
//!   puts every parameter gradient into the caller's slots and returns
//!   the input gradient only when asked. Dense, batch-norm, ReLU, conv and
//!   pooling layers implement it, and so does [`Residual`], the one
//!   identity-shortcut wrapper both [`models::residual_mlp`] and
//!   [`models::conv_resnet`] build their blocks from. The one loss is
//!   [`softmax_cross_entropy`].
//! - [`SgdMomentum`] — TensorFlow `MomentumOptimizer` semantics plus weight
//!   decay.
//! - [`LrSchedule`] — cosine decay without restarts (Loshchilov & Hutter),
//!   as in the paper's training configuration.
//! - [`SyntheticImages`] — a procedurally generated image classification
//!   dataset with the same augmentations the paper applies (random crop and
//!   horizontal flip).
//!
//! ```
//! use threelc_learning::{models, Batch, LrSchedule, SgdMomentum, SyntheticImages};
//!
//! let data = SyntheticImages::standard(42);
//! let mut net = models::residual_mlp(&data.spec(), 16, 1, 7);
//! let mut opt = SgdMomentum::new(0.9, 1e-4);
//! let schedule = LrSchedule::cosine(0.1, 0.001, 100);
//! let mut rng = threelc_tensor::rng(0);
//! for step in 0..3 {
//!     let batch = data.sample_train_batch(&mut rng, 8);
//!     let (loss, grads) = net.loss_and_gradients(&batch);
//!     assert!(loss.is_finite());
//!     opt.apply(&mut net, &grads, schedule.lr_at(step));
//! }
//! ```

#![forbid(unsafe_code)]

pub mod data;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod models;
pub mod network;
pub mod optim;
pub mod schedule;

pub use data::{Batch, DataSpec, SyntheticImages};
pub use layers::{
    BatchNormLayer, Conv2dLayer, DenseLayer, GlobalAvgPoolLayer, GradSlot, Layer, LayerCache,
    ReluLayer, Residual,
};
pub use loss::softmax_cross_entropy;
pub use metrics::{accuracy, Evaluation};
pub use network::Network;
pub use optim::{SgdMomentum, TensorStep};
pub use schedule::LrSchedule;
