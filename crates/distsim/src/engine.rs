//! The shared parameter-server step engine.
//!
//! Extracted from [`Cluster`](crate::Cluster) so the in-process simulator
//! and the TCP runtime in `threelc-net` execute the *same* arithmetic: the
//! same seeds, the same compression contexts, the same worker-order
//! aggregation, the same optimizer updates. A networked run and a simulated
//! run of one configuration therefore produce bit-identical models.
//!
//! The split follows the deployment boundary:
//!
//! - [`Problem`] — everything both sides derive deterministically from the
//!   configuration (dataset, test batch, initial model, tensor shapes,
//!   compression eligibility);
//! - [`WorkerReplica`] — one worker's state: a model replica, its
//!   data-sampling RNG, its per-tensor push compression contexts and
//!   decode-only mirrors of the pull contexts;
//! - [`ServerCore`] — the server's state: the global model, the optimizer,
//!   per-worker push *decode* contexts, and the shared pull contexts.
//!
//! The server decodes pushes, and the workers pulls, with their own mirror
//! contexts rather than the encoder's. That is sound because every
//! scheme's `decompress` is a pure function of the payload and the tensor
//! shape: compression state (error-accumulation buffers, RNG draws) only
//! affects `compress`.
//!
//! Every model-sized buffer of a step has one owner that lives as long as
//! the run (DESIGN.md §18): after the first step neither side allocates
//! anything proportional to the model, only the payloads it sends.

use crate::config::ExperimentConfig;
use crate::trace::{StepRecord, TensorTraffic};
use std::fmt;
use std::ops::Range;
use std::time::Instant;
use threelc::kernels::{self, DequantOp};
use threelc::{sizing, CompressionStats, Compressor, DecodeError, SparsityMultiplier};
use threelc_baselines::{build_compressor, SchemeKind};
use threelc_learning::{
    models, Batch, Evaluation, GradSlot, LrSchedule, Network, SgdMomentum, SyntheticImages,
    TensorStep,
};
use threelc_obs::{trace, WorkerDelta};
use threelc_policy::{Decision, Feedback, PolicyRecord, TensorObs};
use threelc_tensor::{add_max_abs, Rng, Shape, Tensor};

/// Seed of the synthetic dataset (shared by every node).
fn data_seed(config: &ExperimentConfig) -> u64 {
    config.seed.wrapping_mul(31).wrapping_add(7)
}

/// Seed of worker `w`'s data-sampling RNG.
fn worker_rng_seed(config: &ExperimentConfig, w: usize) -> u64 {
    config.seed.wrapping_add(1000 + w as u64)
}

/// Seed of worker `w`'s push compression context for tensor `i`.
fn push_ctx_seed(config: &ExperimentConfig, w: usize, i: usize) -> u64 {
    config.seed ^ (w as u64) << 32 ^ i as u64
}

/// Seed of the shared pull compression context for tensor `i`.
fn pull_ctx_seed(config: &ExperimentConfig, i: usize) -> u64 {
    config.seed ^ 0x5055_4C4C_0000_0000 ^ i as u64
}

/// The scheme's own sparsity multiplier — what a `static` policy keeps.
pub fn base_sparsity(config: &ExperimentConfig) -> SparsityMultiplier {
    match config.scheme {
        SchemeKind::ThreeLc { sparsity, .. } => {
            SparsityMultiplier::new(sparsity).unwrap_or_default()
        }
        _ => SparsityMultiplier::default(),
    }
}

/// The deterministic problem instance every node derives from the
/// configuration: dataset, held-out test batch, initial model, and the
/// per-tensor compression plan.
pub struct Problem {
    /// The configuration this problem was built from.
    pub config: ExperimentConfig,
    /// The synthetic training dataset.
    pub data: SyntheticImages,
    /// The held-out evaluation batch, moved out of `data`: the dataset's
    /// test split lives here and only here.
    pub test: Batch,
    /// The initial model (server global and every replica start here).
    pub init: Network,
    /// Parameter tensor shapes, in parameter order.
    pub shapes: Vec<Shape>,
    /// Whether each tensor meets the compression threshold (§5.1's
    /// small-layer exclusion).
    pub compressible: Vec<bool>,
}

impl Problem {
    /// Derives the problem instance from a configuration.
    pub fn build(config: &ExperimentConfig) -> Self {
        let mut data = SyntheticImages::standard(data_seed(config));
        let spec = data.spec();
        let init =
            models::residual_mlp(&spec, config.model_width, config.model_blocks, config.seed);
        let shapes: Vec<_> = init.params().iter().map(|p| p.shape().clone()).collect();
        let compressible: Vec<bool> = init
            .params()
            .iter()
            .map(|p| p.len() >= config.compress_threshold)
            .collect();
        let test = data.take_test_batch();
        Problem {
            config: *config,
            data,
            test,
            init,
            shapes,
            compressible,
        }
    }

    /// Number of parameter tensors.
    pub fn num_tensors(&self) -> usize {
        self.shapes.len()
    }

    /// Drops the initial model, leaving an empty network in its place. A
    /// node that has built its [`WorkerReplica`] or [`ServerCore`] — each
    /// holds its own copy — needs only the data, the test batch and the
    /// shapes for the rest of the run, and the model is the largest thing
    /// here (17.7 MB at width 1024).
    pub fn release_init(&mut self) {
        self.init = Network::new(0, Vec::new());
    }

    /// Drops the test batch, leaving an empty one in its place: a worker
    /// never evaluates, and the batch is 786 KB of inputs.
    pub fn release_test(&mut self) {
        self.test = Batch {
            inputs: Tensor::zeros([0, self.test.inputs.shape().dim(1)]),
            labels: Vec::new(),
        };
    }

    /// Number of values covered by compression (per direction per worker).
    pub fn compressible_values(&self) -> u64 {
        self.shapes
            .iter()
            .zip(&self.compressible)
            .filter(|(_, &c)| c)
            .map(|(s, _)| s.num_elements() as u64)
            .sum()
    }

    /// Builds worker `w`'s per-tensor push compression contexts.
    pub fn push_ctxs(&self, w: usize) -> Vec<Option<Box<dyn Compressor>>> {
        self.ctxs(|i| push_ctx_seed(&self.config, w, i))
    }

    /// Builds the per-tensor pull compression contexts (shared across
    /// workers, Fig. 2b). Decode-only users may build these too: decoding
    /// never consumes context state.
    pub fn pull_ctxs(&self) -> Vec<Option<Box<dyn Compressor>>> {
        self.ctxs(|i| pull_ctx_seed(&self.config, i))
    }

    fn ctxs(&self, seed: impl Fn(usize) -> u64) -> Vec<Option<Box<dyn Compressor>>> {
        self.shapes
            .iter()
            .zip(&self.compressible)
            .enumerate()
            .map(|(i, (shape, &c))| {
                c.then(|| build_compressor(&self.config.scheme, shape.clone(), seed(i)))
            })
            .collect()
    }
}

/// A typed server-step failure ([`ServerCore::apply_step`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// Every worker's push was rejected this step, leaving nothing to
    /// aggregate. A BSP step of a validated config
    /// ([`ExperimentConfig::validate`]) that pushes from every worker never
    /// hits this; runtimes that drop payloads on validation failures (the
    /// networked server under fault injection) surface it as a named run
    /// error instead of a panic.
    NoAcceptedPushes {
        /// The step that had no accepted pushes.
        step: u64,
    },
    /// An accepted worker's compressed payload does not decode. Frame
    /// CRCs prove transport, not content: a well-framed push can still
    /// carry a truncated body, a lying length field or an out-of-range
    /// quartic byte, and the networked server hands such bodies to
    /// [`ServerCore::apply_step`] as they arrived.
    UndecodablePush {
        /// The step being aggregated.
        step: u64,
        /// The worker whose payload failed.
        worker: usize,
        /// The parameter tensor the payload was for.
        tensor: usize,
        /// What the decoder rejected.
        source: DecodeError,
    },
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::NoAcceptedPushes { step } => write!(
                f,
                "step {step}: every worker's push was rejected; nothing to aggregate"
            ),
            EngineError::UndecodablePush {
                step,
                worker,
                tensor,
                source,
            } => write!(
                f,
                "step {step}: worker {worker}'s push of tensor {tensor} does not decode: {source}"
            ),
        }
    }
}

impl std::error::Error for EngineError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            EngineError::NoAcceptedPushes { .. } => None,
            EngineError::UndecodablePush { source, .. } => Some(source),
        }
    }
}

/// A per-tensor state-change payload: compressed wire bytes, or the raw
/// tensor for small layers excluded from compression.
pub enum TensorPayload {
    /// Output of a compression context.
    Compressed(Vec<u8>),
    /// An uncompressed tensor (transferred as little-endian `f32`s).
    Raw(Tensor),
}

impl TensorPayload {
    /// Bytes this payload occupies on the wire.
    pub fn wire_len(&self) -> u64 {
        match self {
            TensorPayload::Compressed(wire) => wire.len() as u64,
            TensorPayload::Raw(t) => t.len() as u64 * 4,
        }
    }
}

/// The result of compressing one worker's gradients.
pub struct EncodedPush {
    /// One payload per parameter tensor, in parameter order.
    pub payloads: Vec<TensorPayload>,
    /// Measured compression CPU seconds. The done fields at the head of a
    /// worker's push carry it and no runtime reads it back; it stays
    /// because the step ledger (`ledger/`) writes it into its own
    /// `PushDone`, until ROADMAP 1(h).
    pub codec_seconds: f64,
}

/// One worker's state: a local model replica, a data-sampling RNG, a
/// push compression context per compressible tensor, and what decoding a
/// pull needs.
pub struct WorkerReplica {
    model: Network,
    rng: Rng,
    push_ctxs: Vec<Option<Box<dyn Compressor>>>,
    /// Decode-only mirrors of the server's pull contexts.
    pull_ctxs: Vec<Option<Box<dyn Compressor>>>,
    /// Per tensor, from `compute` to `encode_push`: the largest magnitude
    /// in an accumulator `compute` handed out, 0.0 for a written gradient.
    lent: Vec<f32>,
}

impl WorkerReplica {
    /// Builds worker `w`'s replica from the shared problem instance.
    pub fn new(problem: &Problem, w: usize) -> Self {
        WorkerReplica {
            model: problem.init.clone(),
            rng: threelc_tensor::rng(worker_rng_seed(&problem.config, w)),
            push_ctxs: problem.push_ctxs(w),
            pull_ctxs: problem.pull_ctxs(),
            lent: vec![0.0; problem.num_tensors()],
        }
    }

    /// The local model replica.
    pub fn model(&self) -> &Network {
        &self.model
    }

    /// Consumes the replica, returning its final model.
    pub fn into_model(self) -> Network {
        self.model
    }

    /// Samples a minibatch and computes the local loss and gradients.
    ///
    /// A compressed tensor's gradient lands in the buffer its push context
    /// lends ([`Compressor::take_accumulator`]): added by the backward pass
    /// into an error-accumulation buffer ([`GradSlot::Add`]), whose entry
    /// in the returned list is then residual plus gradient, or written
    /// over a scratch ([`GradSlot::Write`]). [`Self::encode_push`] hands
    /// the buffer back to the context. A raw tensor's entry is its
    /// gradient.
    pub fn compute(
        &mut self,
        data: &SyntheticImages,
        batch_per_worker: usize,
    ) -> (f32, Vec<Tensor>) {
        let batch = data.sample_train_batch(&mut self.rng, batch_per_worker);
        let params = self.model.params();
        let mut slots: Vec<GradSlot> = params
            .iter()
            .zip(&mut self.push_ctxs)
            .map(
                |(param, ctx)| match ctx.as_mut().map(|ctx| ctx.take_accumulator()) {
                    Some((buffer, DequantOp::Add)) => GradSlot::Add {
                        buffer,
                        max_abs: 0.0,
                    },
                    Some((scratch, _)) => GradSlot::Write(scratch),
                    None => GradSlot::Write(Tensor::zeros(param.shape().clone())),
                },
            )
            .collect();
        let loss = self.model.loss_and_gradients_into(&batch, &mut slots);
        let grads = slots
            .into_iter()
            .zip(&mut self.lent)
            .map(|(slot, lent)| {
                *lent = match slot {
                    GradSlot::Add { max_abs, .. } => max_abs,
                    GradSlot::Write(_) => 0.0,
                };
                slot.into_tensor()
            })
            .collect();
        (loss, grads)
    }

    /// Runs each gradient through its push compression context (or passes
    /// it through raw), measuring codec CPU time: the buffer
    /// [`Self::compute`] handed out goes back to its context to be encoded
    /// ([`Compressor::compress_accumulator`]); a raw gradient is its
    /// payload. Under a trace scope a codec call that records no spans of
    /// its own ([`Compressor::records_spans`]) runs inside an `encode` span,
    /// and every span the call records is tagged with its tensor
    /// ([`trace::set_tensor`]).
    ///
    /// # Panics
    ///
    /// Panics, naming the tensor and the codec's error, if a context
    /// rejects its gradient: a shape that is not the model's, or — what a
    /// diverged model produces — a non-finite value.
    pub fn encode_push(&mut self, grads: Vec<Tensor>) -> EncodedPush {
        let mut payloads = Vec::with_capacity(grads.len());
        let mut codec_seconds = 0.0f64;
        for (i, grad) in grads.into_iter().enumerate() {
            match &mut self.push_ctxs[i] {
                Some(ctx) => {
                    let t0 = Instant::now();
                    trace::set_tensor(i as i64);
                    let span = (!ctx.records_spans()).then(|| trace::TraceSpan::start("encode"));
                    let wire = ctx
                        .compress_accumulator(grad, self.lent[i])
                        .unwrap_or_else(|e| {
                            panic!("cannot compress the gradient of tensor {i}: {e}")
                        });
                    drop(span);
                    trace::set_tensor(trace::NO_TENSOR);
                    codec_seconds += t0.elapsed().as_secs_f64();
                    payloads.push(TensorPayload::Compressed(wire));
                }
                // A sub-threshold tensor: the gradient is what is sent.
                None => payloads.push(TensorPayload::Raw(grad)),
            }
        }
        EncodedPush {
            payloads,
            codec_seconds,
        }
    }

    /// Applies per-tensor policy decisions to this replica's push
    /// compression contexts, effective from the next `encode_push`.
    /// Decisions always come from the server (directly in the simulator,
    /// over the wire in the networked runtime) — replicas never evaluate
    /// the policy themselves, so they cannot drift.
    pub fn apply_policy(&mut self, decisions: &[Decision]) {
        for (ctx, d) in self.push_ctxs.iter_mut().zip(decisions) {
            if let Some(ctx) = ctx {
                ctx.set_sparsity(d.s);
            }
        }
    }

    /// The L2 norm of this replica's error-accumulation residual over its
    /// push compression contexts (0.0 for stateless schemes). A pass over
    /// every residual value that neither runtime's step takes: only the
    /// step ledger's replay (`ledger/`) still calls it.
    pub fn residual_l2(&self) -> f64 {
        (self.push_ctxs.iter().flatten())
            .filter_map(|ctx| ctx.residual())
            .map(|r| kernels::sum_squares(r.as_slice()))
            .sum::<f64>()
            .sqrt()
    }

    /// Applies one step's pull batch to the local replica: each compressed
    /// payload goes from wire bytes to `param += delta` in one fused pass
    /// ([`Compressor::decode_into`] under [`DequantOp::Add`]) — the product
    /// `decompress` would have stored in a dense tensor and the `+=`
    /// [`Self::apply_deltas`] would have applied to it, without the tensor
    /// (or, for 3LC, the symbols) in between. Raw tensors add as they are.
    ///
    /// # Errors
    ///
    /// Returns the index of the first tensor whose payload does not decode
    /// (or is compressed where the model sends raw floats) with the
    /// decoder's error. Tensors before it have been applied: the caller
    /// must abandon the replica.
    ///
    /// # Panics
    ///
    /// Panics if the payload count or a raw tensor's shape disagrees with
    /// the model.
    pub fn apply_pulls(&mut self, pulls: &[TensorPayload]) -> Result<(), (usize, DecodeError)> {
        let mut params = self.model.params_mut();
        assert_eq!(params.len(), pulls.len(), "pull count mismatch");
        for (i, (param, pull)) in params.iter_mut().zip(pulls).enumerate() {
            match pull {
                TensorPayload::Compressed(wire) => decode_ctx(&self.pull_ctxs, i)?
                    .decode_into(wire, DequantOp::Add, param.as_mut_slice())
                    .map_err(|e| (i, e))?,
                TensorPayload::Raw(delta) => param.add_assign(delta).expect("same shapes"),
            }
        }
        Ok(())
    }

    /// Applies decoded model deltas to the local replica: the dense
    /// reference [`Self::apply_pulls`] is tested against (and what the
    /// step ledger's replay still times).
    ///
    /// # Panics
    ///
    /// Panics if the delta shapes do not match the model's parameters.
    pub fn apply_deltas(&mut self, deltas: &[Tensor]) {
        for (i, delta) in deltas.iter().enumerate() {
            self.model.params_mut()[i]
                .add_assign(delta)
                .expect("same shapes");
        }
    }
}

/// The output of one server step: what the workers pull.
pub struct ServerStepOutput {
    /// Learning rate used this step (warmup-scaled cosine schedule).
    pub lr: f32,
    /// Per-tensor pull payloads (one shared payload per tensor). Every
    /// worker applies them with [`WorkerReplica::apply_pulls`]; decoding is
    /// pure, so all replicas move identically.
    pub pulls: Vec<TensorPayload>,
    /// The policy decisions that governed **this** step, resolved against
    /// the step's observed telemetry (empty when the policy is static).
    pub policy_records: Vec<PolicyRecord>,
    /// The decisions for the **next** step. The caller must deliver these
    /// to every worker replica (the networked runtime broadcasts them with
    /// the pull batch) so pushes stay bit-identical across runtimes. Empty
    /// when the policy is static.
    pub next_decisions: Vec<Decision>,
}

/// The server's state: the global model, optimizer, decode contexts for
/// every worker's pushes, and the shared pull compression contexts.
pub struct ServerCore {
    config: ExperimentConfig,
    global: Network,
    /// Per-*tensor*, per-worker push decode contexts (mirrors of the
    /// workers' compression contexts; decode is pure, so mirrors decode
    /// identically). Tensor-major so sharded aggregation can hand each
    /// shard a disjoint `&mut` block of tensor rows.
    decode_ctxs: Vec<Vec<Option<Box<dyn Compressor>>>>,
    pull_ctxs: Vec<Option<Box<dyn Compressor>>>,
    optimizer: SgdMomentum,
    schedule: LrSchedule,
    shapes: Vec<Shape>,
    /// [`Problem::compressible_values`], for the step's accounting.
    compressible_values: u64,
    /// Per tensor, the run's push and pull payloads: the one traffic
    /// count every other view sums ([`Self::push_stats`], the policy's
    /// [`TensorObs`], the run's per-tensor table).
    traffic: Vec<TensorTraffic>,
    /// The feedback controller, if the config asks for one. Evaluated
    /// *only* here — workers receive decisions, never compute them — so
    /// the decision sequence is a pure function of prior telemetry and the
    /// simulator and networked runtime cannot diverge.
    policy: Option<Feedback>,
    /// Decisions governing the upcoming step (empty when static).
    current_decisions: Vec<Decision>,
    step: u64,
    /// The contiguous tensor range each shard of [`Self::apply_step`]
    /// owns, balanced by element count ([`split_ranges`]); one range runs
    /// the step inline.
    shards: Vec<Range<usize>>,
}

/// Quartic bytes per strip of the fused sweep: 10 240 values, 40 KiB of
/// `f32`, which stays in L2 from the pushes' unpack through the
/// optimizer to the fold into the lent buffer.
const STRIP_BYTES: usize = 2048;

/// The fewest model values a shard is worth spawning for. A server step
/// costs about 4 ns per value and a scoped spawn tens of microseconds
/// (three per step, one per phase), so at 256 Ki values a shard has about
/// a millisecond of work to set against them; below that the step runs
/// inline.
const MIN_SHARD_VALUES: usize = 256 * 1024;

/// Context `w` of `ctxs` — a worker's decode context in a tensor's row, a
/// tensor's pull context — or, with `w`, the error a compressed payload
/// for a tensor sent raw earns.
fn decode_ctx(
    ctxs: &[Option<Box<dyn Compressor>>],
    w: usize,
) -> Result<&dyn Compressor, (usize, DecodeError)> {
    ctxs[w].as_deref().ok_or_else(|| {
        let reason = "compressed payload for a tensor sent uncompressed".into();
        (w, DecodeError::Malformed { reason })
    })
}

/// The stage half of a tensor's aggregation: every accepted compressed
/// payload of tensor `i`, in worker-id order, checked whole and staged in
/// its decode context ([`Compressor::stage`]) for [`sweep_tensor`]; a raw
/// one is only held to the tensor's `n` values. Returns the payloads'
/// traffic. A payload that does not stage fails the tensor with the
/// worker's id and the decoder's error, and nothing but the decode
/// contexts' scratch is written.
fn stage_tensor(
    ctx_row: &[Option<Box<dyn Compressor>>],
    payloads: &[Vec<TensorPayload>],
    ops: &[Option<DequantOp>],
    i: usize,
    n: usize,
) -> Result<CompressionStats, (usize, DecodeError)> {
    let mut stats = CompressionStats::new();
    for (w, (worker_payloads, op)) in payloads.iter().zip(ops).enumerate() {
        if op.is_none() {
            continue;
        }
        let payload = &worker_payloads[i];
        match payload {
            TensorPayload::Compressed(wire) => {
                decode_ctx(ctx_row, w)?.stage(wire).map_err(|e| (w, e))?
            }
            TensorPayload::Raw(grad) => assert_eq!(grad.len(), n, "raw push of tensor {i}"),
        }
        stats.record(n, payload.wire_len() as usize);
    }
    Ok(stats)
}

/// The fused sweep over one tensor, whose pushes [`stage_tensor`] staged:
/// for each strip of [`STRIP_BYTES`] quartic bytes, in order, every
/// accepted push's values land in `strip` in worker-id order under its op
/// ([`Compressor::decode_strip`]; a raw push through [`DequantOp::apply`]),
/// the optimizer turns the averaged gradient there into the delta
/// ([`TensorStep::apply`]), and the delta lands in `buffer`, which the pull
/// context lent, under its `fold` — added into an error-accumulation buffer
/// ([`threelc_tensor::add_max_abs`]), written over a scratch or a raw
/// pull. Returns an added buffer's largest magnitude, or a non-finite
/// value if it holds one; 0.0 for a written one.
///
/// Per element that is the worker-order sum with the average folded into
/// the last op, `step`, then the fold, in that order: the strips only keep
/// the sum and the delta out of DRAM.
#[allow(clippy::too_many_arguments)]
fn sweep_tensor(
    step: &mut TensorStep<'_>,
    buffer: &mut Tensor,
    fold: DequantOp,
    ctx_row: &[Option<Box<dyn Compressor>>],
    payloads: &[Vec<TensorPayload>],
    ops: &[Option<DequantOp>],
    i: usize,
    strip: &mut [f32],
    lr: f32,
) -> f32 {
    let n = buffer.len();
    let len = sizing::quartic_len(n);
    let acc = buffer.as_mut_slice();
    let mut max_bits = 0u32;
    for start in (0..len).step_by(STRIP_BYTES) {
        let bytes = start..(start + STRIP_BYTES).min(len);
        let ranges = sizing::strip_planes(n, bytes.clone());
        let mut rest = &mut *strip;
        let mut planes = ranges.clone().map(|r| {
            let (plane, tail) = std::mem::take(&mut rest).split_at_mut(r.len());
            rest = tail;
            plane
        });
        for (w, (worker_payloads, op)) in payloads.iter().zip(ops).enumerate() {
            let Some(op) = *op else { continue };
            match &worker_payloads[i] {
                TensorPayload::Compressed(wire) => ctx_row[w]
                    .as_ref()
                    .expect("a staged payload has a context")
                    .decode_strip(wire, bytes.clone(), op, &mut planes),
                TensorPayload::Raw(grad) => {
                    for (plane, r) in planes.iter_mut().zip(&ranges) {
                        op.apply(grad.as_slice()[r.clone()].iter().copied(), plane);
                    }
                }
            }
        }
        for (plane, r) in planes.iter_mut().zip(ranges.clone()) {
            step.apply(r, plane, lr);
        }
        for (plane, r) in planes.into_iter().zip(ranges) {
            match fold {
                DequantOp::Add => {
                    max_bits = max_bits.max(add_max_abs(&mut acc[r], plane).to_bits())
                }
                _ => fold.apply(plane.iter().copied(), &mut acc[r]),
            }
        }
    }
    f32::from_bits(max_bits)
}

/// What each worker's payloads do to the accumulators this step: `None`
/// for a rejected push (an empty payload list); of the accepted ones
/// the first assigns, the rest add, and the last also multiplies by
/// `1 / accepted_count` — `(acc + v) · k` is the add, then the multiply,
/// a separate averaging sweep would have performed. Assigning first keeps
/// a `-0.0` term exactly as moving the first decoded tensor into a sum
/// does, and makes the strip's previous contents irrelevant.
fn accumulate_ops(
    payloads: &[Vec<TensorPayload>],
    accepted_count: usize,
) -> Vec<Option<DequantOp>> {
    let k = 1.0 / accepted_count as f32;
    let first = payloads.iter().position(|p| !p.is_empty());
    let last = payloads.iter().rposition(|p| !p.is_empty());
    payloads
        .iter()
        .enumerate()
        .map(|(w, push)| {
            (!push.is_empty()).then(|| match (Some(w) == first, Some(w) == last) {
                (true, true) => DequantOp::AssignScaled(k),
                (true, false) => DequantOp::Assign,
                (false, true) => DequantOp::AddScaled(k),
                (false, false) => DequantOp::Add,
            })
        })
        .collect()
}

/// Splits tensors of the given `sizes` (element counts) into
/// `min(parts, sizes.len())` contiguous, ascending, non-empty index ranges
/// of about equal element totals: range `k` ends at the tensor boundary
/// nearest to `(k + 1) / parts` of all elements that still leaves a tensor
/// for every range after it. No tensors (or `parts == 0`) yield one range,
/// empty for no tensors.
fn split_ranges(sizes: &[usize], parts: usize) -> Vec<Range<usize>> {
    let n = sizes.len();
    let parts = parts.clamp(1, n.max(1));
    // ends[i]: elements in tensors `0..=i`.
    let ends: Vec<usize> = sizes
        .iter()
        .scan(0, |sum, &size| {
            *sum += size;
            Some(*sum)
        })
        .collect();
    let total = ends.last().copied().unwrap_or(0);
    let mut out = Vec::with_capacity(parts);
    let mut start = 0;
    for k in 1..parts {
        let target = total * k / parts;
        let cut = (start + 1..=n - (parts - k))
            .min_by_key(|&cut| ends[cut - 1].abs_diff(target))
            .expect("parts <= n leaves a tensor for every range");
        out.push(start..cut);
        start = cut;
    }
    out.push(start..n);
    out
}

/// Splits a mutable slice into disjoint sub-slices described by `ranges`,
/// which must be ascending and non-overlapping (gaps are allowed and
/// skipped). Empty ranges yield empty sub-slices.
///
/// # Panics
///
/// Panics if the ranges are not ascending or exceed the slice length.
fn split_off_ranges<'a, T>(mut slice: &'a mut [T], ranges: &[Range<usize>]) -> Vec<&'a mut [T]> {
    let mut out = Vec::with_capacity(ranges.len());
    let mut pos = 0;
    for r in ranges {
        assert!(
            r.start >= pos && r.end >= r.start,
            "ranges must be ascending and non-overlapping"
        );
        let (_gap, rest) = slice.split_at_mut(r.start - pos);
        let (take, rest) = rest.split_at_mut(r.end - r.start);
        out.push(take);
        slice = rest;
        pos = r.end;
    }
    out
}

/// Runs `f(task)` for every task, each on its own scoped thread (the
/// first task runs on the calling thread), and returns the results in
/// task order. With zero or one task no thread is spawned.
///
/// Panics in a shard propagate to the caller.
fn run_tasks<I: Send, T: Send>(tasks: Vec<I>, f: impl Fn(I) -> T + Sync) -> Vec<T> {
    if tasks.len() <= 1 {
        return tasks.into_iter().map(f).collect();
    }
    std::thread::scope(|scope| {
        let mut iter = tasks.into_iter();
        let first = iter.next().expect("len > 1");
        let handles: Vec<_> = iter
            .map(|task| {
                let f = &f;
                scope.spawn(move || f(task))
            })
            .collect();
        let mut out = Vec::with_capacity(handles.len() + 1);
        out.push(f(first));
        for h in handles {
            out.push(h.join().expect("aggregation shard panicked"));
        }
        out
    })
}

/// Runs one server phase, one shard per entry of `ranges` (contiguous,
/// ascending, covering `rows`): `body` gets its tensor index range, that
/// range's exclusive slice of the per-tensor `rows`. A single range runs
/// inline on the calling thread, so one shard and many execute the same
/// body; tensors are independent and keep their worker-id order inside
/// `body`, so the shard count never changes a result. The per-shard
/// outputs come back in range order.
fn run_shards<C: Send, T: Send>(
    rows: &mut [C],
    ranges: &[Range<usize>],
    body: impl Fn(Range<usize>, &mut [C]) -> T + Sync,
) -> Vec<T> {
    let chunks = split_off_ranges(rows, ranges);
    let tasks: Vec<_> = ranges.iter().cloned().zip(chunks).collect();
    run_tasks(tasks, |(range, chunk)| body(range, chunk))
}

impl ServerCore {
    /// Builds the server state from the shared problem instance.
    pub fn new(problem: &Problem) -> Self {
        let config = problem.config;
        // Build per-worker context rows, then transpose to tensor-major.
        let mut by_worker: Vec<Vec<Option<Box<dyn Compressor>>>> =
            (0..config.workers).map(|w| problem.push_ctxs(w)).collect();
        let mut decode_ctxs: Vec<Vec<Option<Box<dyn Compressor>>>> = (0..problem.num_tensors())
            .map(|_| Vec::with_capacity(config.workers))
            .collect();
        for row in by_worker.drain(..) {
            for (i, ctx) in row.into_iter().enumerate() {
                decode_ctxs[i].push(ctx);
            }
        }
        // The same construction workers run locally at step 0
        // (`Feedback::initial_decisions`): both sides derive the initial
        // multipliers from the config alone, so no wire round-trip is
        // needed before the first push.
        let policy = config.policy.controller(problem.num_tensors());
        let current_decisions = policy
            .as_ref()
            .map_or_else(Vec::new, Feedback::initial_decisions);
        let traffic = (problem.shapes.iter().zip(&problem.compressible))
            .map(|(shape, &compressed)| TensorTraffic {
                values: shape.num_elements() as u64,
                raw: !compressed,
                ..TensorTraffic::default()
            })
            .collect();
        let mut core = ServerCore {
            global: problem.init.clone(),
            decode_ctxs,
            pull_ctxs: problem.pull_ctxs(),
            optimizer: SgdMomentum::new(config.momentum, config.weight_decay),
            schedule: LrSchedule::cosine(config.lr_max, config.lr_min, config.total_steps),
            shapes: problem.shapes.clone(),
            compressible_values: problem.compressible_values(),
            traffic,
            policy,
            current_decisions,
            step: 0,
            shards: Vec::new(),
            config,
        };
        // As many shards as the host has cores and the model has
        // `MIN_SHARD_VALUES`-sized shares of work (and, inside
        // `split_ranges`, tensors to hand out).
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        let values: usize = problem.shapes.iter().map(Shape::num_elements).sum();
        core.set_threads(cores.min(values / MIN_SHARD_VALUES));
        core
    }

    /// The decisions governing the *next* step's encodes (empty when the
    /// policy is static). Right after construction these are the step-0
    /// decisions, which every worker must apply before its first push —
    /// [`crate::Cluster::new`] does it directly; the networked worker
    /// derives the same vector locally via
    /// `Feedback::initial_decisions`.
    pub fn current_decisions(&self) -> &[Decision] {
        &self.current_decisions
    }

    /// Opens the upcoming step's books ([`StepAccount`]). Must be called
    /// before [`Self::apply_step`], which advances the step the record
    /// is numbered by.
    pub fn begin_step(&self) -> StepAccount {
        StepAccount {
            record: StepRecord {
                step: self.step,
                lr: 0.0,
                loss: 0.0,
                push_bytes: 0,
                pull_bytes: 0,
                raw_bytes: 0,
                compressible_values: self.compressible_values,
            },
            workers: self.config.workers,
            next_worker: 0,
            deltas: Vec::with_capacity(self.config.workers),
            loss_sum: 0.0,
        }
    }

    /// Forces [`Self::apply_step`] onto up to `threads` shards instead of
    /// the count [`Self::new`] derived from the host and the model. A test
    /// hook, like `ThreeLcCompressor::with_codec_impl`: the step is
    /// bit-identical at every count (each shard owns a disjoint tensor
    /// range, and per-tensor arithmetic keeps worker-id order), and the
    /// tests that say so need counts the host would not pick.
    #[doc(hidden)]
    pub fn set_threads(&mut self, threads: usize) {
        let sizes: Vec<usize> = self.shapes.iter().map(Shape::num_elements).collect();
        self.shards = split_ranges(&sizes, threads);
    }

    /// The server's full-precision global model.
    pub fn global(&self) -> &Network {
        &self.global
    }

    /// Scores the global model on `test` — the paper's dedicated evaluation
    /// node reading a model snapshot (§5.2).
    pub fn evaluate(&self, test: &Batch) -> Evaluation {
        Evaluation::of(&self.global, test)
    }

    /// Steps applied so far.
    pub fn step_number(&self) -> u64 {
        self.step
    }

    /// The learning rate the *next* step will use: the cosine schedule with
    /// linear warmup (Goyal et al.) over the first `warmup_steps` steps.
    pub fn lr(&self) -> f32 {
        let config = &self.config;
        let warmup = if config.warmup_steps > 0 && self.step < config.warmup_steps {
            (self.step + 1) as f32 / config.warmup_steps as f32
        } else {
            1.0
        };
        self.schedule.lr_at(self.step) * warmup
    }

    /// Cumulative gradient-push traffic of the compressed tensors: the sum
    /// of their [`Self::tensor_traffic`] rows.
    pub fn push_stats(&self) -> CompressionStats {
        self.compressed_sum(|t| &t.push)
    }

    /// Cumulative model-delta-pull traffic of the compressed tensors.
    pub fn pull_stats(&self) -> CompressionStats {
        self.compressed_sum(|t| &t.pull)
    }

    fn compressed_sum(
        &self,
        side: impl Fn(&TensorTraffic) -> &CompressionStats,
    ) -> CompressionStats {
        let mut sum = CompressionStats::new();
        for t in self.traffic.iter().filter(|t| !t.raw) {
            sum.merge(side(t));
        }
        sum
    }

    /// Cumulative push and pull traffic per tensor, in parameter order.
    pub fn tensor_traffic(&self) -> &[TensorTraffic] {
        &self.traffic
    }

    /// Executes one server step: decodes and averages the accepted pushes
    /// (in worker-id order — float addition is not associative, so order
    /// is part of the contract), applies SGD-with-momentum to the global
    /// model, and compresses the resulting model delta for the pull path —
    /// three phases, each over the same per-shard tensor ranges, each
    /// finished on every shard before the next starts:
    ///
    /// 1. **stage** (`server-decode`): every accepted push is checked
    ///    whole and staged in its decode context ([`Compressor::stage`]).
    /// 2. **fused sweep** (`aggregate`): every tensor goes strip by strip
    ///    from the staged pushes through the optimizer into the buffer its
    ///    pull context lends ([`Compressor::take_accumulator`],
    ///    [`Compressor::decode_strip`], [`TensorStep::apply`]) — or, for a
    ///    raw tensor, into the tensor its pull sends.
    /// 3. **re-encode** (`re-encode`): each lent buffer goes back to its
    ///    context to be encoded ([`Compressor::compress_accumulator`]); a
    ///    raw delta is sent as it is.
    ///
    /// `payloads` holds one entry per worker in worker-id order; an empty
    /// vector marks a rejected push, which is not aggregated.
    ///
    /// The third argument is not read: it is kept only because the step
    /// ledger (`ledger/`) passes a residual norm there. Both runtimes pass
    /// `0.0`.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::NoAcceptedPushes`] when every worker's
    /// payload list is empty (or `accepted_count` is zero): an all-rejected
    /// step has nothing to aggregate. Returns
    /// [`EngineError::UndecodablePush`] — naming the lowest tensor, then
    /// the lowest worker, that fails — when an accepted compressed payload
    /// does not decode: the networked runtime validates a push's framing
    /// (step, order, count, CRC) but not its 3LC body, so this is where a
    /// hostile or corrupted body is caught. The model, optimizer, traffic
    /// statistics and step counter are untouched on error.
    ///
    /// # Panics
    ///
    /// Panics if payload counts or raw tensor shapes disagree with the
    /// model (both runtimes build them from the model's own shapes).
    pub fn apply_step(
        &mut self,
        payloads: &[Vec<TensorPayload>],
        accepted_count: usize,
        _residual_l2: f64,
    ) -> Result<ServerStepOutput, EngineError> {
        if accepted_count == 0 || payloads.iter().all(|p| p.is_empty()) {
            return Err(EngineError::NoAcceptedPushes { step: self.step });
        }
        let lr = self.lr();
        let ops = accumulate_ops(payloads, accepted_count);

        // The decisions governing this step also apply to the pull side:
        // the server re-encodes model deltas at the same multiplier the
        // workers used for their pushes.
        if !self.current_decisions.is_empty() {
            for (ctx, d) in self.pull_ctxs.iter_mut().zip(&self.current_decisions) {
                if let Some(ctx) = ctx {
                    ctx.set_sparsity(d.s);
                }
            }
        }

        // Trace the three server phases by measured boundaries rather than
        // RAII guards: shards may run on pool threads that carry no trace
        // scope, so the spans are recorded here on the calling thread (a
        // no-op unless a `TraceScope` is active).
        let tracing = trace::scope_active();
        let t_decode = if tracing { trace::now_ns() } else { 0 };
        let pushed = self.stage(payloads, &ops)?;
        let t_aggregate = if tracing {
            let t = trace::now_ns();
            trace::record_span("server-decode", t_decode, t);
            t
        } else {
            0
        };
        // Every payload of every tensor has been checked: only now may the
        // model move.
        let deltas = self.sweep(payloads, &ops, lr);
        let t_reencode = if tracing {
            let t = trace::now_ns();
            trace::record_span("aggregate", t_aggregate, t);
            t
        } else {
            0
        };
        // Compress model deltas (shared pull contexts, Fig. 2b).
        let pulls = self.compress_pulls(deltas);
        if tracing {
            trace::record_span("re-encode", t_reencode, trace::now_ns());
        }
        let step = self.step;
        self.step += 1;

        // Resolve this step's decisions against what the step actually
        // measured, then ask the controller for the next step's decisions.
        // Every input is an integer byte count — wall-clock timings are
        // deliberately excluded so the sequence replays bit-identically.
        let (policy_records, next_decisions) = match self.policy.as_mut() {
            Some(policy) => {
                let obs: Vec<TensorObs> = (self.traffic.iter().zip(&pushed))
                    .map(|(t, step)| TensorObs {
                        values: t.values as usize,
                        wire_bytes: step.wire_bytes as usize,
                        payloads: step.payloads as usize,
                    })
                    .collect();
                let records: Vec<PolicyRecord> = self
                    .current_decisions
                    .iter()
                    .zip(&obs)
                    .enumerate()
                    .map(|(i, (d, o))| PolicyRecord {
                        step,
                        tensor: i as u16,
                        s: d.s.value(),
                        reason: d.reason,
                        achieved_ratio: o.achieved_ratio(),
                    })
                    .collect();
                let next = policy.decide(&obs);
                self.current_decisions = next.clone();
                (records, next)
            }
            None => (Vec::new(), Vec::new()),
        };

        Ok(ServerStepOutput {
            lr,
            pulls,
            policy_records,
            next_decisions,
        })
    }

    /// The stage phase: every tensor's accepted pushes, in worker-id order
    /// within the tensor, over one tensor range per shard ([`run_shards`]),
    /// staged for the fused sweep ([`stage_tensor`]). Returns the step's
    /// push traffic per tensor. The model, optimizer and traffic
    /// statistics do not change unless every payload stages.
    fn stage(
        &mut self,
        payloads: &[Vec<TensorPayload>],
        ops: &[Option<DequantOp>],
    ) -> Result<Vec<CompressionStats>, EngineError> {
        let step = self.step;
        let shapes = &self.shapes;
        let outs = run_shards(&mut self.decode_ctxs, &self.shards, |range, rows| {
            (rows.iter().zip(range))
                .map(|(ctx_row, i)| {
                    let n = shapes[i].num_elements();
                    stage_tensor(ctx_row, payloads, ops, i, n).map_err(|(worker, source)| {
                        EngineError::UndecodablePush {
                            step,
                            worker,
                            tensor: i,
                            source,
                        }
                    })
                })
                .collect::<Result<Vec<_>, _>>()
        });
        // Shards come back in range order: the first error is the lowest
        // tensor's.
        let pushed: Vec<CompressionStats> = outs
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?
            .into_iter()
            .flatten()
            .collect();
        for (t, step) in self.traffic.iter_mut().zip(&pushed) {
            t.push.merge(step);
        }
        Ok(pushed)
    }

    /// The fused sweep, over one tensor range per shard ([`run_shards`]):
    /// each tensor's delta lands strip by strip ([`sweep_tensor`]), in the
    /// shard's strip buffer, in the buffer its pull context lends — a raw
    /// tensor's in a fresh tensor, which its pull sends. Returns each
    /// tensor's buffer with its largest magnitude, in tensor order.
    /// Nothing snapshots the model.
    fn sweep(
        &mut self,
        payloads: &[Vec<TensorPayload>],
        ops: &[Option<DequantOp>],
        lr: f32,
    ) -> Vec<(Tensor, f32)> {
        let shapes = &self.shapes;
        let steps = self.optimizer.steps(&mut self.global);
        let mut rows: Vec<_> = steps
            .into_iter()
            .zip(&mut self.decode_ctxs)
            .zip(&mut self.pull_ctxs)
            .collect();
        let outs = run_shards(&mut rows, &self.shards, |range, rows| {
            // Where a strip of the pushes is summed, stepped and left
            // as the delta: 40 KiB, which stays in L2.
            let mut strip = [0f32; 5 * STRIP_BYTES];
            rows.iter_mut()
                .zip(range)
                .map(|(((step, ctx_row), pull), i)| {
                    let (mut delta, fold) = match pull {
                        Some(ctx) => ctx.take_accumulator(),
                        None => (Tensor::zeros(shapes[i].clone()), DequantOp::Assign),
                    };
                    let max_abs = sweep_tensor(
                        step, &mut delta, fold, ctx_row, payloads, ops, i, &mut strip, lr,
                    );
                    (delta, max_abs)
                })
                .collect::<Vec<_>>()
        });
        outs.into_iter().flatten().collect()
    }

    /// Re-encode: compresses this step's model deltas through the shared
    /// pull contexts (Fig. 2b), over one tensor range per shard
    /// ([`run_shards`]) — each lent buffer goes back to its context to be
    /// encoded; a raw tensor's delta is its pull. Pull contexts are per
    /// tensor, so compression state never crosses a shard boundary. Every
    /// worker pulls each payload, so each counts `workers` times.
    fn compress_pulls(&mut self, deltas: Vec<(Tensor, f32)>) -> Vec<TensorPayload> {
        let mut rows: Vec<_> = self
            .pull_ctxs
            .iter_mut()
            .zip(deltas.into_iter().map(Some))
            .collect();
        let outs = run_shards(&mut rows, &self.shards, |range, rows| {
            let mut pulls = Vec::with_capacity(range.len());
            for (ctx, delta) in rows.iter_mut() {
                let (delta, max_abs) = delta.take().expect("one delta per tensor");
                pulls.push(match ctx {
                    Some(ctx) => TensorPayload::Compressed(
                        ctx.compress_accumulator(delta, max_abs)
                            .expect("delta shape matches context"),
                    ),
                    None => TensorPayload::Raw(delta),
                });
            }
            pulls
        });
        let pulls: Vec<TensorPayload> = outs.into_iter().flatten().collect();
        let workers = self.config.workers;
        for (t, pull) in self.traffic.iter_mut().zip(&pulls) {
            t.pull.record(
                t.values as usize * workers,
                pull.wire_len() as usize * workers,
            );
        }
        pulls
    }
}

/// One worker's push as the step's accountant sees it
/// ([`StepAccount::push`]).
pub struct WorkerPush<'a> {
    /// The push batch, one payload per tensor in parameter order.
    pub payloads: &'a [TensorPayload],
    /// The worker's local training loss.
    pub loss: f32,
    /// Wall-clock seconds from compute to the finished push.
    pub step_seconds: f64,
    /// How long the push arrived after the step's first (0 in-process).
    pub barrier_wait_seconds: f64,
    /// Cumulative rejoins of this worker (0 in-process).
    pub rejoins: u64,
}

/// The one accountant of a BSP step, shared by the simulator
/// ([`Cluster::step`](crate::Cluster::step)) and the networked server so
/// their [`StepRecord`]s and per-worker deltas cannot drift apart: opened
/// by [`ServerCore::begin_step`], fed every worker's push in worker-id
/// order, read for the [`WorkerDelta`]s and [`ServerCore::apply_step`]'s
/// inputs, and closed over the step's pulls by [`Self::finish`].
///
/// Traffic is the payloads' wire length — frame headers, each segment's
/// length, a push's done fields and a pull's policy tail are transport,
/// not state change, and are counted by neither runtime.
pub struct StepAccount {
    /// The record being built: traffic accumulates in its own fields.
    record: StepRecord,
    /// Pull fan-out: every worker pulls.
    workers: usize,
    next_worker: usize,
    deltas: Vec<WorkerDelta>,
    loss_sum: f64,
}

impl StepAccount {
    /// Books the next worker's push.
    pub fn push(&mut self, push: WorkerPush<'_>) {
        let worker = self.next_worker;
        self.next_worker += 1;
        let rec = &mut self.record;
        self.loss_sum += f64::from(push.loss);
        let (mut wire, mut compressed) = (0u64, 0u64);
        for payload in push.payloads {
            let bytes = payload.wire_len();
            wire += bytes;
            match payload {
                TensorPayload::Compressed(_) => compressed += bytes,
                TensorPayload::Raw(_) => rec.raw_bytes += bytes,
            }
        }
        rec.push_bytes += compressed;
        self.deltas.push(WorkerDelta {
            worker,
            wire_bytes: wire,
            ratio: if compressed > 0 {
                (rec.compressible_values as f64 * 32.0) / (compressed as f64 * 8.0)
            } else {
                0.0
            },
            loss: f64::from(push.loss),
            rejoins: push.rejoins,
            step_seconds: push.step_seconds,
            barrier_wait_seconds: push.barrier_wait_seconds,
        });
    }

    /// One delta per accepted worker, in worker-id order — this step's
    /// row of the run's `RecentSteps` ring.
    pub fn deltas(&self) -> &[WorkerDelta] {
        &self.deltas
    }

    /// Pushes accepted so far ([`ServerCore::apply_step`]'s divisor).
    pub fn accepted(&self) -> usize {
        self.deltas.len()
    }

    /// Closes the books over the step's outcome. Pull bytes are one shared
    /// payload times every worker.
    pub fn finish(mut self, out: &ServerStepOutput) -> StepRecord {
        let rec = &mut self.record;
        for payload in &out.pulls {
            let bytes = payload.wire_len() * self.workers as u64;
            match payload {
                TensorPayload::Compressed(_) => rec.pull_bytes += bytes,
                TensorPayload::Raw(_) => rec.raw_bytes += bytes,
            }
        }
        rec.lr = out.lr;
        rec.loss = (self.loss_sum / self.deltas.len() as f64) as f32;
        self.record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threelc_baselines::SchemeKind;

    fn tiny(scheme: SchemeKind) -> ExperimentConfig {
        ExperimentConfig {
            scheme,
            workers: 2,
            batch_per_worker: 8,
            total_steps: 6,
            model_width: 16,
            model_blocks: 1,
            seed: 11,
            ..Default::default()
        }
    }

    #[test]
    #[should_panic(
        expected = "cannot compress the gradient of tensor 4: input tensor contains a non-finite value"
    )]
    fn encode_push_names_the_tensor_and_the_codec_error() {
        let problem = Problem::build(&ExperimentConfig {
            model_width: 32,
            ..tiny(SchemeKind::three_lc(1.0))
        });
        let mut worker = WorkerReplica::new(&problem, 0);
        let (_, mut grads) = worker.compute(&problem.data, 8);
        // What a diverged model hands the codec. Tensor 4 is the first
        // block's fc1 weight (32 × 32, above the compression threshold).
        assert!(problem.compressible[4]);
        grads[4].as_mut_slice()[0] = f32::NAN;
        worker.encode_push(grads);
    }

    /// Drives one BSP step directly through the engine types, the way the
    /// networked runtime does.
    fn engine_step(
        problem: &Problem,
        workers: &mut [WorkerReplica],
        server: &mut ServerCore,
    ) -> ServerStepOutput {
        let mut payloads = Vec::with_capacity(workers.len());
        for w in workers.iter_mut() {
            let (_loss, grads) = w.compute(&problem.data, problem.config.batch_per_worker);
            payloads.push(w.encode_push(grads).payloads);
        }
        let out = server
            .apply_step(&payloads, workers.len(), 0.0)
            .expect("every worker accepted in engine tests");
        for w in workers.iter_mut() {
            w.apply_pulls(&out.pulls).expect("the server's own pulls");
            w.apply_policy(&out.next_decisions);
        }
        out
    }

    #[test]
    fn engine_matches_cluster_bit_for_bit() {
        for scheme in [SchemeKind::Float32, SchemeKind::three_lc(1.5)] {
            let config = tiny(scheme);
            let mut cluster = crate::Cluster::new(config);
            let problem = Problem::build(&config);
            let mut workers: Vec<WorkerReplica> = (0..config.workers)
                .map(|w| WorkerReplica::new(&problem, w))
                .collect();
            let mut server = ServerCore::new(&problem);
            for _ in 0..4 {
                cluster.step();
                engine_step(&problem, &mut workers, &mut server);
            }
            assert_eq!(
                server.global().snapshot(),
                cluster.global_model().snapshot(),
                "global model diverged under {scheme}"
            );
            for (w, replica) in workers.iter().enumerate() {
                assert_eq!(
                    replica.model().snapshot(),
                    cluster.worker_model(w).snapshot(),
                    "worker {w} replica diverged under {scheme}"
                );
                // The ledger's residual readout: 3LC's error buffers hold
                // something, float32 keeps none.
                let l2 = replica.residual_l2();
                let accumulates = matches!(scheme, SchemeKind::ThreeLc { .. });
                assert!(
                    l2.is_finite() && (l2 > 0.0) == accumulates,
                    "{scheme}: {l2}"
                );
            }
        }
    }

    #[test]
    fn a_node_that_released_the_initial_model_runs_and_scores_the_same() {
        let config = tiny(SchemeKind::three_lc(1.5));
        let kept = Problem::build(&config);
        let mut released = Problem::build(&config);
        let nodes = |problem: &Problem| {
            let workers: Vec<_> = (0..config.workers)
                .map(|w| WorkerReplica::new(problem, w))
                .collect();
            (workers, ServerCore::new(problem))
        };
        let (mut workers_a, mut server_a) = nodes(&kept);
        let (mut workers_b, mut server_b) = nodes(&released);
        released.release_init();
        assert_eq!(released.init.num_params(), 0);
        for _ in 0..3 {
            engine_step(&kept, &mut workers_a, &mut server_a);
            engine_step(&released, &mut workers_b, &mut server_b);
        }
        assert_eq!(server_a.global().snapshot(), server_b.global().snapshot());

        let eval = server_b.evaluate(&released.test);
        let want = Evaluation::of(server_a.global(), &kept.test);
        assert_eq!(eval.loss.to_bits(), want.loss.to_bits());
        assert_eq!(eval.accuracy, want.accuracy);
    }

    #[test]
    fn the_test_batch_is_the_datasets_split_moved_out_of_it() {
        let config = tiny(SchemeKind::three_lc(1.5));
        let mut problem = Problem::build(&config);
        let fresh = SyntheticImages::standard(data_seed(&config)).test_batch();
        let bits = |t: &Tensor| t.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(problem.test.inputs.shape(), fresh.inputs.shape());
        assert_eq!(bits(&problem.test.inputs), bits(&fresh.inputs));
        assert_eq!(problem.test.labels, fresh.labels);
        // One copy per node: the dataset no longer holds the split.
        assert_eq!(problem.data.test_len(), 0);
        // A worker drops the batch too.
        problem.release_test();
        assert!(problem.test.inputs.is_empty() && problem.test.labels.is_empty());
    }

    #[test]
    fn sharded_server_matches_serial_bit_for_bit() {
        for scheme in [SchemeKind::three_lc(1.5), SchemeKind::Float32] {
            let config = tiny(scheme);
            let problem = Problem::build(&config);
            let mut serial_workers: Vec<WorkerReplica> = (0..config.workers)
                .map(|w| WorkerReplica::new(&problem, w))
                .collect();
            let mut serial = ServerCore::new(&problem);
            let mut sharded_workers: Vec<WorkerReplica> = (0..config.workers)
                .map(|w| WorkerReplica::new(&problem, w))
                .collect();
            let mut sharded = ServerCore::new(&problem);
            sharded.set_threads(4);
            for step in 0..4 {
                let a = engine_step(&problem, &mut serial_workers, &mut serial);
                let b = engine_step(&problem, &mut sharded_workers, &mut sharded);
                assert_eq!(a.pulls.len(), b.pulls.len());
                for (i, (x, y)) in a.pulls.iter().zip(&b.pulls).enumerate() {
                    match (x, y) {
                        (TensorPayload::Compressed(wa), TensorPayload::Compressed(wb)) => {
                            assert_eq!(wa, wb, "pull wire diverged: step={step} tensor={i}");
                        }
                        (TensorPayload::Raw(ta), TensorPayload::Raw(tb)) => {
                            assert_eq!(ta, tb, "raw pull diverged: step={step} tensor={i}");
                        }
                        _ => panic!("payload kind diverged: step={step} tensor={i}"),
                    }
                }
            }
            assert_eq!(
                serial.global().snapshot(),
                sharded.global().snapshot(),
                "global model diverged under {scheme}"
            );
            // What the pulls decode to, four steps of it.
            for (a, b) in serial_workers.iter().zip(&sharded_workers) {
                assert_eq!(
                    a.model().snapshot(),
                    b.model().snapshot(),
                    "replicas diverged under {scheme}"
                );
            }
            assert_eq!(serial.tensor_traffic(), sharded.tensor_traffic());
        }
    }

    #[test]
    fn rejoin_replay_against_a_sharded_server_matches_serial_bit_for_bit() {
        // The networked runtime's disconnect fault, with the shard count
        // forced (a `serve` derives its own: one on a model this small or
        // on a 1-core host). Worker 0 is lost before step 3 and comes back
        // as a fresh replica that re-runs the completed steps against the
        // server's retained pull history — compute and encode for their
        // state (RNG draws, residual), the payloads going nowhere — then
        // trains live. On 1 shard and on 4, the history, the global model
        // and both replicas must equal an undisturbed one-shard run's.
        const FAULT_STEP: u64 = 3;
        for scheme in [SchemeKind::three_lc(1.0), SchemeKind::Float32] {
            let config = tiny(scheme);
            let problem = Problem::build(&config);
            let replicas = || -> Vec<WorkerReplica> {
                (0..config.workers)
                    .map(|w| WorkerReplica::new(&problem, w))
                    .collect()
            };
            let mut truth_workers = replicas();
            let mut truth = ServerCore::new(&problem);
            truth.set_threads(1);
            let truth_history: Vec<ServerStepOutput> = (0..config.total_steps)
                .map(|_| engine_step(&problem, &mut truth_workers, &mut truth))
                .collect();

            for threads in [1, 4] {
                let mut workers = replicas();
                let mut server = ServerCore::new(&problem);
                server.set_threads(threads);
                let mut history: Vec<ServerStepOutput> = Vec::new();
                for step in 0..config.total_steps {
                    if step == FAULT_STEP {
                        let mut rejoined = WorkerReplica::new(&problem, 0);
                        for done in &history {
                            let (_loss, grads) =
                                rejoined.compute(&problem.data, config.batch_per_worker);
                            let _ = rejoined.encode_push(grads);
                            rejoined.apply_pulls(&done.pulls).expect("replayed pulls");
                            rejoined.apply_policy(&done.next_decisions);
                        }
                        workers[0] = rejoined;
                    }
                    history.push(engine_step(&problem, &mut workers, &mut server));
                }
                for (step, (a, b)) in truth_history.iter().zip(&history).enumerate() {
                    for (i, (x, y)) in a.pulls.iter().zip(&b.pulls).enumerate() {
                        let same = match (x, y) {
                            (TensorPayload::Compressed(x), TensorPayload::Compressed(y)) => x == y,
                            (TensorPayload::Raw(x), TensorPayload::Raw(y)) => x == y,
                            _ => false,
                        };
                        assert!(
                            same,
                            "pull diverged: shards={threads} step={step} tensor={i}"
                        );
                    }
                }
                assert_eq!(
                    server.global().snapshot(),
                    truth.global().snapshot(),
                    "global model diverged under {scheme} on {threads} shard(s)"
                );
                for (w, (a, b)) in truth_workers.iter().zip(&workers).enumerate() {
                    assert_eq!(
                        a.model().snapshot(),
                        b.model().snapshot(),
                        "worker {w} diverged under {scheme} on {threads} shard(s)"
                    );
                }
                assert_eq!(server.tensor_traffic(), truth.tensor_traffic());
            }
        }
    }

    #[test]
    fn all_rejected_step_is_a_typed_error_not_a_panic() {
        // One shard or several, aggregation must refuse an all-rejected
        // step with `NoAcceptedPushes` and leave the server
        // untouched, so the very next valid step behaves like step 0.
        for threads in [1usize, 4] {
            let config = tiny(SchemeKind::three_lc(1.5));
            let problem = Problem::build(&config);
            let mut server = ServerCore::new(&problem);
            server.set_threads(threads);
            let before = server.global().snapshot();

            let empty: Vec<Vec<TensorPayload>> = (0..config.workers).map(|_| Vec::new()).collect();
            assert_eq!(
                server.apply_step(&empty, config.workers, 0.0).err(),
                Some(EngineError::NoAcceptedPushes { step: 0 }),
                "threads={threads}: every-payload-empty step must error"
            );
            assert_eq!(
                server.apply_step(&empty, 0, 0.0).err(),
                Some(EngineError::NoAcceptedPushes { step: 0 }),
                "threads={threads}: accepted_count=0 must error"
            );
            assert_eq!(
                server.global().snapshot(),
                before,
                "threads={threads}: a rejected step must not touch the model"
            );

            // The failed attempts consumed no step: a fresh server fed the
            // same pushes produces bit-identical output.
            let mut workers: Vec<WorkerReplica> = (0..config.workers)
                .map(|w| WorkerReplica::new(&problem, w))
                .collect();
            let mut fresh_workers: Vec<WorkerReplica> = (0..config.workers)
                .map(|w| WorkerReplica::new(&problem, w))
                .collect();
            let mut fresh = ServerCore::new(&problem);
            fresh.set_threads(threads);
            engine_step(&problem, &mut workers, &mut server);
            engine_step(&problem, &mut fresh_workers, &mut fresh);
            assert_eq!(
                server.global().snapshot(),
                fresh.global().snapshot(),
                "threads={threads}: errored attempts must not advance the step"
            );
        }
    }

    #[test]
    fn undecodable_push_is_a_typed_error_naming_worker_and_tensor() {
        // Zero-run encoding off, so a byte above 242 is an invalid quartic
        // byte rather than a zero-run token.
        let config = tiny(SchemeKind::ThreeLc {
            sparsity: 1.5,
            zero_run_encoding: false,
            error_accumulation: true,
        });
        let problem = Problem::build(&config);
        let tensor = problem
            .compressible
            .iter()
            .rposition(|&c| c)
            .expect("a compressible tensor");
        let raw_tensor = problem
            .compressible
            .iter()
            .position(|&c| !c)
            .expect("an uncompressed tensor");
        // (tensor to corrupt, corruption, the decoder's verdict as the
        // error text must report it)
        type Corruption = (usize, fn(&mut Vec<u8>), &'static str);
        let corruptions: [Corruption; 4] = [
            (
                tensor,
                |wire| wire.truncate(4),
                "payload truncated: 4 bytes",
            ),
            // Byte 5 is the low byte of the element-count field.
            (tensor, |wire| wire[5] ^= 1, "payload element count"),
            (
                tensor,
                |wire| *wire.last_mut().expect("a body") = 250,
                "invalid quartic byte 250",
            ),
            // A compressed body where the model sends raw floats.
            (raw_tensor, |_| {}, "sent uncompressed"),
        ];
        let push = |workers: &mut [WorkerReplica]| -> Vec<Vec<TensorPayload>> {
            workers
                .iter_mut()
                .map(|w| {
                    let (_, grads) = w.compute(&problem.data, config.batch_per_worker);
                    w.encode_push(grads).payloads
                })
                .collect()
        };
        for threads in [1usize, 4] {
            for (case, &(target, corrupt, expected)) in corruptions.iter().enumerate() {
                let mut workers: Vec<WorkerReplica> = (0..config.workers)
                    .map(|w| WorkerReplica::new(&problem, w))
                    .collect();
                // The twin never sees the corrupt step.
                let mut server = ServerCore::new(&problem);
                let mut twin = ServerCore::new(&problem);
                server.set_threads(threads);
                twin.set_threads(threads);
                let first = push(&mut workers);
                twin.apply_step(&first, config.workers, 0.0).expect("clean");
                let out = server.apply_step(&first, config.workers, 0.0);
                for w in &mut workers {
                    w.apply_pulls(&out.as_ref().expect("clean").pulls)
                        .expect("the server's own pulls");
                }
                let before = server.global().snapshot();
                let traffic_before = server.tensor_traffic().to_vec();

                let mut payloads = push(&mut workers);
                let mut wire = match &payloads[1][tensor] {
                    TensorPayload::Compressed(wire) => wire.clone(),
                    TensorPayload::Raw(_) => unreachable!("tensor is compressible"),
                };
                corrupt(&mut wire);
                let clean =
                    std::mem::replace(&mut payloads[1][target], TensorPayload::Compressed(wire));

                let label = format!("threads={threads} case={case}");
                let err = server
                    .apply_step(&payloads, config.workers, 0.0)
                    .err()
                    .unwrap_or_else(|| panic!("{label}: a corrupt payload must fail the step"));
                assert!(
                    matches!(
                        err,
                        EngineError::UndecodablePush { step: 1, worker: 1, tensor: t, .. }
                            if t == target
                    ),
                    "{label}: wrong error {err:?}"
                );
                let text = err.to_string();
                assert!(
                    text.contains("worker 1")
                        && text.contains(&format!("tensor {target}"))
                        && text.contains(expected),
                    "{label}: error text must name the worker, the tensor and `{expected}`: {text}"
                );
                assert_eq!(server.step_number(), 1, "{label}: step counter moved");
                assert_eq!(server.global().snapshot(), before, "{label}: model moved");
                assert_eq!(
                    server.tensor_traffic(),
                    traffic_before,
                    "{label}: stats moved"
                );

                // The optimizer phase never ran: fed the clean step, the
                // server lands where the twin does (a touched velocity
                // would carry into this update).
                payloads[1][target] = clean;
                for core in [&mut server, &mut twin] {
                    core.apply_step(&payloads, config.workers, 0.0)
                        .expect("clean");
                }
                assert_eq!(
                    server.global().snapshot(),
                    twin.global().snapshot(),
                    "{label}: the failed step left something behind"
                );
                assert_eq!(
                    server.tensor_traffic(),
                    twin.tensor_traffic(),
                    "{label}: stats"
                );
            }

            // Several bad payloads: the lowest tensor is named, then the
            // lowest worker — whichever shard met its error first.
            let (low, high) = (0, problem.num_tensors() - 1);
            for (bad, (want_worker, want_tensor)) in [
                (&[(0, high), (1, low)][..], (1, low)),
                (&[(1, low), (0, low), (0, high)], (0, low)),
            ] {
                let mut workers: Vec<WorkerReplica> = (0..config.workers)
                    .map(|w| WorkerReplica::new(&problem, w))
                    .collect();
                let mut server = ServerCore::new(&problem);
                server.set_threads(threads);
                let mut payloads = push(&mut workers);
                for &(w, t) in bad {
                    payloads[w][t] = TensorPayload::Compressed(vec![0; 4]);
                }
                let err = server.apply_step(&payloads, config.workers, 0.0).err();
                assert!(
                    matches!(
                        err,
                        Some(EngineError::UndecodablePush { step: 0, worker, tensor: t, .. })
                            if (worker, t) == (want_worker, want_tensor)
                    ),
                    "threads={threads} bad={bad:?}: wrong error {err:?}"
                );
                assert_eq!(server.global().snapshot(), problem.init.snapshot());
            }
        }
    }

    #[test]
    fn split_ranges_is_balanced_and_exhaustive() {
        // Equal tensors: contiguous, non-empty, sizes within one of each
        // other — and never more ranges than tensors.
        for len in 0..40usize {
            for parts in 1..9usize {
                let ranges = split_ranges(&vec![7; len], parts);
                assert_eq!(
                    ranges.len(),
                    parts.min(len).max(1),
                    "len={len} parts={parts}"
                );
                assert_eq!(ranges[0].start, 0);
                assert_eq!(ranges.last().unwrap().end, len);
                for w in ranges.windows(2) {
                    assert_eq!(w[0].end, w[1].start);
                }
                let sizes: Vec<usize> = ranges.iter().map(|r| r.end - r.start).collect();
                let min = sizes.iter().min().unwrap();
                let max = sizes.iter().max().unwrap();
                assert!(max - min <= 1, "len={len} parts={parts}: {sizes:?}");
                assert!(len == 0 || *min > 0, "len={len} parts={parts}: {sizes:?}");
            }
        }
    }

    #[test]
    fn split_ranges_balances_by_element_count() {
        // One giant tensor among small ones gets a shard to itself, the
        // small ones share — by tensor count this would be 0..3 | 3..6.
        assert_eq!(
            split_ranges(&[1000, 10, 10, 10, 10, 10], 2),
            vec![0..1, 1..6]
        );
        assert_eq!(
            split_ranges(&[10, 1000, 10, 10, 10, 10], 3),
            vec![0..1, 1..2, 2..6]
        );
        // The residual MLP at width 1024 (stem, two blocks of bn-fc-bn-fc,
        // head; 4.4 M values): split inside the first block's last layer,
        // 2.30 M to 2.11 M.
        let block = [1024, 1024, 1_048_576, 1024, 1024, 1024, 1_048_576, 1024];
        let mlp = [&[196_608, 1024][..], &block, &block, &[10_240, 10]].concat();
        assert_eq!(split_ranges(&mlp, 2), vec![0..9, 9..20]);
        // More shards than tensors: one tensor each, no empty shard.
        assert_eq!(split_ranges(&[5, 5, 5], 8), vec![0..1, 1..2, 2..3]);
        // Zero tensors: one empty range, so a phase still runs (inline).
        assert_eq!(split_ranges(&[], 4), vec![0..0]);
        // Empty tensors only: still exhaustive and non-overlapping.
        assert_eq!(split_ranges(&[0, 0, 0], 2), vec![0..1, 1..3]);
    }

    #[test]
    fn split_off_ranges_gives_disjoint_views() {
        let mut data: Vec<u32> = (0..10).collect();
        let ranges = vec![0..3, 3..3, 5..10];
        let chunks = split_off_ranges(&mut data, &ranges);
        assert_eq!(chunks.len(), 3);
        assert_eq!(chunks[0], &[0, 1, 2]);
        assert!(chunks[1].is_empty());
        assert_eq!(chunks[2], &[5, 6, 7, 8, 9]);
    }

    #[test]
    #[should_panic(expected = "ascending")]
    fn split_off_ranges_rejects_overlap() {
        let mut data = [0u8; 4];
        split_off_ranges(&mut data, &[0..2, 1..3]);
    }

    #[test]
    fn run_tasks_preserves_order_over_disjoint_chunks() {
        let mut data = vec![0u8; 100];
        let ranges = split_ranges(&[1; 100], 4);
        let chunks = split_off_ranges(&mut data, &ranges);
        let tasks: Vec<_> = chunks.into_iter().enumerate().collect();
        let out = run_tasks(tasks, |(k, chunk)| {
            chunk.fill(k as u8 + 1);
            k * 10
        });
        assert_eq!(out, vec![0, 10, 20, 30]);
        assert_eq!((data[0], data[99]), (1, 4));
    }

    #[test]
    #[should_panic(expected = "shard panicked")]
    fn shard_panics_propagate() {
        run_tasks(vec![0usize, 1], |t| {
            if t == 1 {
                panic!("boom");
            }
        });
    }

    #[test]
    fn shard_count_is_derived_from_the_host_and_the_model() {
        let cores = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        // 8.6 k values: far below one shard's worth, whatever the host.
        let small = ServerCore::new(&Problem::build(&tiny(SchemeKind::Float32)));
        assert_eq!(small.shards.len(), 1);
        // Width 512: 1.16 M values in 20 tensors, four shards' worth.
        let problem = Problem::build(&ExperimentConfig {
            model_width: 512,
            model_blocks: 2,
            ..tiny(SchemeKind::Float32)
        });
        let values: usize = problem.shapes.iter().map(Shape::num_elements).sum();
        assert_eq!(values / MIN_SHARD_VALUES, 4);
        let mut server = ServerCore::new(&problem);
        assert_eq!(server.shards.len(), cores.min(4));
        assert_eq!(server.shards.last().unwrap().end, problem.num_tensors());
        // The test hook overrides it.
        server.set_threads(3);
        assert_eq!(server.shards.len(), 3);
        server.set_threads(0);
        assert_eq!(server.shards.len(), 1);
    }

    #[test]
    fn a_worker_step_is_loss_and_gradients_then_compress() {
        let bits =
            |t: Option<&Tensor>| t.map(|t| t.iter().map(|x| x.to_bits()).collect::<Vec<_>>());
        let no_ea = SchemeKind::ThreeLc {
            sparsity: 1.5,
            zero_run_encoding: true,
            error_accumulation: false,
        };
        // Every design's gradient lands in the buffer its context lends:
        // added into a residual or written over a scratch.
        let designs = SchemeKind::tokens().map(|t| SchemeKind::parse(t, 1.5).expect("listed"));
        for scheme in designs.chain([no_ea]) {
            let config = ExperimentConfig {
                workers: 1,
                model_width: 32,
                ..tiny(scheme)
            };
            let problem = Problem::build(&config);
            let mut worker = WorkerReplica::new(&problem, 0);
            let mut server = ServerCore::new(&problem);
            // The twin: the same sampling RNG and push contexts, on the
            // worker's own model, through the plain entry points.
            let mut twin_rng = threelc_tensor::rng(worker_rng_seed(&config, 0));
            let mut twin_ctxs = problem.push_ctxs(0);
            let mut twin_slots = Vec::new();
            for step in 0..4 {
                let what = format!("{scheme}, step {step}");
                let batch = problem
                    .data
                    .sample_train_batch(&mut twin_rng, config.batch_per_worker);
                let want_loss = worker
                    .model()
                    .loss_and_gradients_into(&batch, &mut twin_slots);
                let (loss, grads) = worker.compute(&problem.data, config.batch_per_worker);
                assert_eq!(loss.to_bits(), want_loss.to_bits(), "{what}");
                let pushed = worker.encode_push(grads).payloads;
                for (i, payload) in pushed.iter().enumerate() {
                    let grad = twin_slots[i].tensor();
                    match (payload, &mut twin_ctxs[i]) {
                        (TensorPayload::Compressed(wire), Some(twin)) => {
                            let want = twin.compress(grad).expect("finite gradient");
                            assert_eq!(wire, &want, "{what}: tensor {i}");
                            let ctx = worker.push_ctxs[i].as_ref().expect("compressed");
                            assert_eq!(bits(ctx.residual()), bits(twin.residual()), "{what}");
                        }
                        (TensorPayload::Raw(raw), None) => {
                            assert_eq!(bits(Some(raw)), bits(Some(grad)), "{what}: tensor {i}")
                        }
                        _ => panic!("{what}: tensor {i} took another path than its twin"),
                    }
                }
                // Move the model, so every step has gradients of its own.
                let out = server.apply_step(&[pushed], 1, 0.0).expect("accepted");
                worker
                    .apply_pulls(&out.pulls)
                    .expect("the server's own pulls");
            }
        }
    }

    #[test]
    fn decode_contexts_mirror_compress_contexts() {
        // A fresh decode-side context must reproduce exactly what the
        // (stateful) compress-side context decodes, even after several
        // steps of error accumulation.
        let config = tiny(SchemeKind::three_lc(1.0));
        let problem = Problem::build(&config);
        let mut worker = WorkerReplica::new(&problem, 0);
        let mirror = problem.push_ctxs(0);
        for _ in 0..3 {
            let (_, grads) = worker.compute(&problem.data, 8);
            for (i, payload) in worker.encode_push(grads).payloads.iter().enumerate() {
                if let TensorPayload::Compressed(wire) = payload {
                    let a = worker.push_ctxs[i]
                        .as_ref()
                        .expect("compressed implies context")
                        .decompress(wire)
                        .expect("valid payload");
                    let b = mirror[i]
                        .as_ref()
                        .expect("same compression plan")
                        .decompress(wire)
                        .expect("valid payload");
                    assert_eq!(a, b, "decode depends on context state");
                }
            }
        }
    }

    #[test]
    fn problem_exposes_compression_plan() {
        let config = tiny(SchemeKind::three_lc(1.0));
        let problem = Problem::build(&config);
        assert_eq!(problem.num_tensors(), problem.compressible.len());
        assert!(problem.compressible_values() > 0);
        // Biases fall below the default threshold.
        assert!(problem.compressible.iter().any(|&c| !c));
        let ctxs = problem.pull_ctxs();
        for (ctx, &c) in ctxs.iter().zip(&problem.compressible) {
            assert_eq!(ctx.is_some(), c);
        }
    }

    #[test]
    fn wire_len_counts_raw_as_four_bytes_per_value() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0], [3]);
        assert_eq!(TensorPayload::Raw(t).wire_len(), 12);
        assert_eq!(TensorPayload::Compressed(vec![0; 5]).wire_len(), 5);
    }

    #[test]
    fn step_account_folds_hand_built_pushes_and_pulls() {
        // Two workers; tensor 1 is raw.
        let config = tiny(SchemeKind::three_lc(1.0));
        let problem = Problem::build(&config);
        let server = ServerCore::new(&problem);
        let values = problem.compressible_values();
        let raw = |n: usize| TensorPayload::Raw(Tensor::from_vec(vec![0.5; n], [n]));
        let wire = |n: usize| TensorPayload::Compressed(vec![0; n]);
        let push0 = [wire(100), raw(4), wire(50)];
        let push1 = [wire(0), raw(4), wire(0)];
        let worker_push = |payloads, loss| WorkerPush {
            payloads,
            loss,
            step_seconds: 0.25,
            barrier_wait_seconds: 0.5,
            rejoins: 2,
        };

        let mut account = server.begin_step();
        account.push(worker_push(&push0[..], 1.0));
        account.push(worker_push(&push1[..], 2.0));
        assert_eq!(account.accepted(), 2);
        let deltas = account.deltas().to_vec();
        let out = ServerStepOutput {
            lr: 0.125,
            pulls: vec![wire(10), raw(4), wire(30)],
            policy_records: Vec::new(),
            next_decisions: Vec::new(),
        };
        let rec = account.finish(&out);

        // One delta per worker, under its own id.
        assert_eq!(deltas.len(), 2);
        assert_eq!((deltas[0].worker, deltas[1].worker), (0, 1));
        assert_eq!(deltas[0].wire_bytes, 166);
        assert_eq!(deltas[0].ratio, values as f64 * 32.0 / (150.0 * 8.0));
        assert_eq!(deltas[0].loss, 1.0);
        assert_eq!(deltas[0].rejoins, 2);
        assert_eq!(deltas[0].step_seconds, 0.25);
        assert_eq!(deltas[0].barrier_wait_seconds, 0.5);
        // Zero compressed bytes: the ratio is "unknown", not infinite.
        assert_eq!(deltas[1].wire_bytes, 16);
        assert_eq!(deltas[1].ratio, 0.0);

        assert_eq!(rec.step, 0);
        assert_eq!(rec.lr, 0.125);
        assert_eq!(rec.loss, 1.5, "mean over the workers");
        assert_eq!(rec.push_bytes, 150);
        // Pulls fan out to both workers.
        assert_eq!(rec.pull_bytes, 40 * 2);
        assert_eq!(rec.raw_bytes, 16 + 16 + 16 * 2);
        assert_eq!(rec.compressible_values, values);
    }
}
