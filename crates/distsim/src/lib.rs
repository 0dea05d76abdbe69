//! Parameter-server cluster simulator for the 3LC reproduction.
//!
//! The paper evaluates 3LC on a 10-GPU cluster running TensorFlow's
//! `SyncReplicasOptimizer` with Linux Traffic Control emulating 10 Mbps /
//! 100 Mbps / 1 Gbps links (§5.2). This crate is the from-scratch stand-in
//! for its *learning dynamics*: an in-process bulk-synchronous parameter
//! server in which real gradients flow through real compression contexts
//! on both the push and pull paths, bit-identical to the networked
//! runtime (`threelc-net`). It keeps no clock: training time is measured
//! by running that runtime through a paced link (`threelc-bench`'s
//! `link` module).
//!
//! The architecture mirrors the paper's Figures 1 and 2:
//!
//! - each of `N` workers holds a local model replica and a per-tensor
//!   **push** compression context for its gradients;
//! - the server averages decompressed gradients, applies SGD-with-momentum
//!   to the global model, and compresses each tensor's **model delta**
//!   once (shared pull compression, Fig. 2b) for all workers to pull;
//! - small tensors (biases — the analog of the paper's batch-normalization
//!   layers) bypass compression, per §5.1.
//!
//! Because training dynamics do not depend on link speed, one run's
//! [`TrainingTrace`] of per-step traffic serves every bandwidth.

#![forbid(unsafe_code)]

pub mod cluster;
pub mod config;
pub mod engine;
pub mod experiment;
pub mod netmodel;
pub mod trace;

pub use cluster::Cluster;
pub use config::ExperimentConfig;
pub use engine::{
    base_sparsity, EngineError, Problem, ServerCore, StepAccount, TensorPayload, WorkerPush,
    WorkerReplica,
};
pub use experiment::{run_experiment, ExperimentResult};
pub use netmodel::NetworkModel;
pub use threelc_policy::{PolicySpec, PolicyTrace};
pub use trace::{EvalRecord, StepRecord, TensorTraffic, TrainingTrace};
