//! Property tests holding the server's fused aggregation to a dense f32
//! reference: **taking every accepted payload from wire bytes to the
//! accumulator in one pass, the average folded into the last, is
//! bit-identical to decoding every accepted payload to a
//! tensor, summing those in worker order, and dividing** — same pull
//! wires, same decoded pulls, same global model bit patterns — across
//! thread counts and adversarial inputs (all-zero tensors, denormal
//! scales, ±0.0, single-worker steps, and payloads rejected mid-step) —
//! for every design a command line can name ([`SchemeKind::tokens`]),
//! since every design's server stages its pushes and sweeps them strip by
//! strip into the buffer its pull context lends.
//!
//! The pull side is held to its dense reference the same way: **adding
//! a pull straight from its wire bytes into the parameters
//! ([`WorkerReplica::apply_pulls`]) is bit-identical to decoding every
//! pull to a tensor and adding that** (`decompress` + `apply_deltas`) —
//! over the same generators and designs, and through [`Cluster`].
//!
//! The reference is [`oracle_average`], the whole of the old f32 path that
//! is worth keeping. Its average reaches a second, identically built
//! [`ServerCore`] as one worker's *raw* push: aggregating a single raw
//! payload is `x · (1.0 / 1)`, exact, so that server's optimizer and
//! re-encode run on the oracle's numbers and every output must match the
//! server under test bit for bit.
//!
//! This suite runs on the process-wide active codec tier. The tiers are
//! held to each other one level down — `dispatch_identity.rs` in
//! `threelc` compares the fused decode on scalar / SWAR / SIMD by bit
//! pattern for every op this file's cases select — and ci.sh's codec
//! matrix re-runs this suite and the networked loopback suite under each
//! forced tier.
//!
//! Bit patterns are compared directly (`f32::to_bits`), which is strictly
//! stronger than the CRC32 comparison the networked loopback tests use.

use proptest::prelude::*;
use threelc_baselines::SchemeKind;
use threelc_distsim::engine::ServerStepOutput;
use threelc_distsim::{
    Cluster, ExperimentConfig, Problem, ServerCore, TensorPayload, WorkerReplica,
};
use threelc_tensor::Tensor;

const THREAD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Every design a command line can name, 3LC at s=1.50: each one's server
/// runs the same stage → strip sweep → re-encode, through its own codec.
fn designs() -> Vec<SchemeKind> {
    SchemeKind::tokens()
        .map(|token| SchemeKind::parse(token, 1.5).expect("a listed token"))
        .collect()
}

/// One of [`designs`], drawn evenly.
fn any_design() -> impl Strategy<Value = SchemeKind> {
    let designs = designs();
    (0..designs.len()).prop_map(move |i| designs[i])
}

fn config(workers: usize, scheme: SchemeKind) -> ExperimentConfig {
    ExperimentConfig {
        scheme,
        workers,
        batch_per_worker: 8,
        total_steps: 8,
        model_width: 16,
        model_blocks: 1,
        seed: 11,
        ..Default::default()
    }
}

/// The f32 reference: decode every accepted payload of every tensor with
/// `Compressor::decompress`, sum the tensors in worker order, divide by
/// the accepted count. Returned as worker 0's all-raw push for a
/// one-accepted-worker step (see the module docs).
fn oracle_average(
    problem: &Problem,
    decode_ctxs: &[Vec<Option<Box<dyn threelc::Compressor>>>],
    payloads: &[Vec<TensorPayload>],
    accepted: usize,
) -> Vec<Vec<TensorPayload>> {
    let average = (0..problem.num_tensors()).map(|i| {
        let mut sum: Option<Tensor> = None;
        for (w, push) in payloads.iter().enumerate().filter(|(_, p)| !p.is_empty()) {
            let grad = match &push[i] {
                TensorPayload::Compressed(wire) => decode_ctxs[w][i]
                    .as_ref()
                    .expect("compressed payload implies a context")
                    .decompress(wire)
                    .expect("payload produced by a matching context"),
                TensorPayload::Raw(grad) => grad.clone(),
            };
            match &mut sum {
                Some(s) => s.add_assign(&grad).expect("same shapes"),
                None => sum = Some(grad),
            }
        }
        let mut avg = sum.expect("at least one accepted worker");
        avg.scale_inplace(1.0 / accepted as f32);
        TensorPayload::Raw(avg)
    });
    let mut as_push = vec![average.collect()];
    as_push.resize_with(payloads.len(), Vec::new);
    as_push
}

/// Bit patterns of a model snapshot (or any tensor list).
fn bits(ts: &[Tensor]) -> Vec<Vec<u32>> {
    ts.iter()
        .map(|t| t.as_slice().iter().map(|x| x.to_bits()).collect())
        .collect()
}

/// The dense pull decode: every payload through a decode-only mirror of
/// the pull contexts, as `decompress` returns it.
fn decode_pulls(problem: &Problem, pulls: &[TensorPayload]) -> Vec<Tensor> {
    let ctxs = problem.pull_ctxs();
    pulls
        .iter()
        .zip(&ctxs)
        .map(|(pull, ctx)| match pull {
            TensorPayload::Compressed(wire) => ctx
                .as_ref()
                .expect("compressed payload implies a context")
                .decompress(wire)
                .expect("payload produced by a matching context"),
            TensorPayload::Raw(delta) => delta.clone(),
        })
        .collect()
}

fn assert_outputs_identical(
    problem: &Problem,
    a: &ServerStepOutput,
    b: &ServerStepOutput,
    label: &str,
) -> Result<(), TestCaseError> {
    prop_assert!(
        bits(&decode_pulls(problem, &a.pulls)) == bits(&decode_pulls(problem, &b.pulls)),
        "{label}: decoded pulls diverged"
    );
    prop_assert!(a.pulls.len() == b.pulls.len(), "{label}: pull count");
    for (i, (x, y)) in a.pulls.iter().zip(&b.pulls).enumerate() {
        match (x, y) {
            (TensorPayload::Compressed(wa), TensorPayload::Compressed(wb)) => {
                prop_assert!(wa == wb, "{label}: pull wire diverged, tensor {i}");
            }
            (TensorPayload::Raw(ta), TensorPayload::Raw(tb)) => {
                prop_assert!(
                    bits(std::slice::from_ref(ta)) == bits(std::slice::from_ref(tb)),
                    "{label}: raw pull diverged, tensor {i}"
                );
            }
            _ => prop_assert!(false, "{label}: payload kind diverged, tensor {i}"),
        }
    }
    Ok(())
}

/// Deterministic adversarial fill for one tensor. `kind` selects the
/// pathology; `seed` varies the pattern between workers and steps.
fn fill(kind: u8, seed: u64, n: usize) -> Vec<f32> {
    match kind % 4 {
        // All-zero gradient, in both signs of zero: 3LC's scale collapses
        // to 0.0, and raw small layers must carry `-0.0` through the sum.
        0 => (0..n)
            .map(|i| {
                if (i as u64 + seed).is_multiple_of(2) {
                    0.0
                } else {
                    -0.0
                }
            })
            .collect(),
        // Subnormal magnitudes: the wire scale itself goes denormal.
        1 => (0..n)
            .map(|i| {
                if (i as u64 + seed).is_multiple_of(3) {
                    1.0e-41
                } else {
                    -1.0e-41
                }
            })
            .collect(),
        // Pseudo-random small values (the common case).
        2 => (0..n)
            .map(|i| {
                let x = (i as u64)
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(seed)
                    >> 33;
                ((x % 2001) as f32 - 1000.0) / 500.0
            })
            .collect(),
        // Sparse with exact zeros mixed among quantized-looking values.
        _ => (0..n)
            .map(|i| {
                if (i as u64 + seed).is_multiple_of(7) {
                    0.0
                } else {
                    ((i % 13) as f32 - 6.0) * 0.25
                }
            })
            .collect(),
    }
}

/// Compresses one crafted gradient set through worker `w`'s contexts,
/// keeping `ctxs` stateful across steps (error accumulation feeds back).
fn crafted_push(
    problem: &Problem,
    ctxs: &mut [Option<Box<dyn threelc::Compressor>>],
    kind: u8,
    seed: u64,
) -> Vec<TensorPayload> {
    problem
        .shapes
        .iter()
        .enumerate()
        .map(|(i, shape)| {
            let t = Tensor::from_vec(
                fill(kind, seed ^ (i as u64) << 8, shape.num_elements()),
                shape.clone(),
            );
            match ctxs[i].as_mut() {
                Some(ctx) => TensorPayload::Compressed(
                    ctx.compress(&t)
                        .expect("finite adversarial values compress"),
                ),
                None => TensorPayload::Raw(t),
            }
        })
        .collect()
}

proptest! {
    /// Feeds the server crafted payload bytes — adversarial value
    /// patterns, per-step rejection masks (a payload dropped mid-step,
    /// exactly what the networked server does on a CRC failure),
    /// single-worker steps — and demands output bitwise equal to the
    /// oracle's.
    #[test]
    fn symbol_aggregation_matches_the_f32_oracle_on_adversarial_pushes(
        scheme in any_design(),
        workers in 1usize..5,
        threads_idx in 0usize..4,
        kinds in prop::collection::vec(0u8..4, 4..5),
        masks in prop::collection::vec(0u32..16, 2..3),
        seed in any::<u64>(),
    ) {
        let threads = THREAD_COUNTS[threads_idx];
        let problem = Problem::build(&config(workers, scheme));
        let mut server = ServerCore::new(&problem);
        let mut reference = ServerCore::new(&problem);
        server.set_threads(threads);
        reference.set_threads(threads);
        // One stateful context set per worker: it compresses the crafted
        // gradients and, decode being pure, decodes them for the oracle.
        let mut ctxs: Vec<_> = (0..workers).map(|w| problem.push_ctxs(w)).collect();

        for (step, &mask) in masks.iter().enumerate() {
            let rejected = |w: usize| w != 0 && (mask >> w) & 1 == 1;
            let mut payloads: Vec<Vec<TensorPayload>> = Vec::with_capacity(workers);
            let mut accepted = 0usize;
            for w in 0..workers {
                // A rejected worker still compressed (its residual state
                // advances) — the server just never sees the bytes.
                let push = crafted_push(
                    &problem,
                    &mut ctxs[w],
                    kinds[w % kinds.len()].wrapping_add(step as u8),
                    seed ^ (w as u64) << 32 ^ step as u64,
                );
                if rejected(w) {
                    payloads.push(Vec::new());
                } else {
                    payloads.push(push);
                    accepted += 1;
                }
            }
            let out = server
                .apply_step(&payloads, accepted, 0.0)
                .expect("worker 0 always accepted");
            let want = reference
                .apply_step(&oracle_average(&problem, &ctxs, &payloads, accepted), 1, 0.0)
                .expect("the oracle's push is accepted");
            assert_outputs_identical(&problem, &want, &out, &format!("{scheme}, step {step}"))?;
        }
        prop_assert!(
            bits(&reference.global().snapshot()) == bits(&server.global().snapshot()),
            "{scheme}: global model diverged"
        );
    }

    /// Full training loop (real gradients, error accumulation in every
    /// worker that has it) with one worker's push rejected at a random
    /// step: pull wires and the final model must stay bit-identical to the
    /// oracle's, for every design.
    #[test]
    fn symbol_aggregation_matches_the_f32_oracle_through_training(
        scheme in any_design(),
        threads_idx in 0usize..4,
        drop_step in 0usize..4,
        drop_worker in 0usize..2,
    ) {
        let threads = THREAD_COUNTS[threads_idx];
        let workers = 2usize;
        let problem = Problem::build(&config(workers, scheme));
        let mut replicas: Vec<WorkerReplica> = (0..workers)
            .map(|w| WorkerReplica::new(&problem, w))
            .collect();
        let mut server = ServerCore::new(&problem);
        let mut reference = ServerCore::new(&problem);
        server.set_threads(threads);
        reference.set_threads(threads);
        let decode_ctxs: Vec<_> = (0..workers).map(|w| problem.push_ctxs(w)).collect();

        for step in 0..4usize {
            let mut payloads = Vec::with_capacity(workers);
            for w in replicas.iter_mut() {
                let (_loss, grads) = w.compute(&problem.data, problem.config.batch_per_worker);
                payloads.push(w.encode_push(grads).payloads);
            }
            let mut accepted = workers;
            if step == drop_step {
                // The networked server rejects this worker's frame (bad
                // CRC); the worker itself is none the wiser.
                payloads[drop_worker].clear();
                accepted -= 1;
            }
            let out = server
                .apply_step(&payloads, accepted, 0.0)
                .expect("at most one worker rejected");
            let want = reference
                .apply_step(
                    &oracle_average(&problem, &decode_ctxs, &payloads, accepted),
                    1,
                    0.0,
                )
                .expect("the oracle's push is accepted");
            assert_outputs_identical(&problem, &want, &out, &format!("step {step}"))?;
            for w in replicas.iter_mut() {
                w.apply_pulls(&out.pulls).expect("the server's own pulls");
                w.apply_policy(&out.next_decisions);
            }
        }
        prop_assert!(
            bits(&reference.global().snapshot()) == bits(&server.global().snapshot()),
            "global model diverged"
        );
    }

    /// The fused pull-apply against its dense reference, on crafted pull
    /// batches: two replicas start equal, one applies each batch with
    /// `apply_pulls`, the other decodes it with `decompress` and adds the
    /// tensors with `apply_deltas`; their models must agree bit for bit
    /// after every batch, for every design.
    #[test]
    fn fused_pull_apply_matches_decompress_then_apply_deltas(
        scheme in any_design(),
        kinds in prop::collection::vec(0u8..4, 3..6),
        seed in any::<u64>(),
    ) {
        let problem = Problem::build(&config(1, scheme));
        let mut fused = WorkerReplica::new(&problem, 0);
        let mut dense = WorkerReplica::new(&problem, 0);
        // The server's side of the pull: stateful, so later batches carry
        // the error-accumulation history of earlier ones.
        let mut encode_ctxs = problem.pull_ctxs();
        for (step, &kind) in kinds.iter().enumerate() {
            let pulls = crafted_push(&problem, &mut encode_ctxs, kind, seed ^ step as u64);
            fused.apply_pulls(&pulls).expect("own payloads decode");
            dense.apply_deltas(&decode_pulls(&problem, &pulls));
            prop_assert!(
                bits(&fused.model().snapshot()) == bits(&dense.model().snapshot()),
                "replica diverged at batch {step} (kind {kind})"
            );
        }
    }
}

/// Which accepted worker assigns, which ones add and which one carries the
/// average is decided from the accepted subset, so every shape of subset
/// is held to the oracle: one of three accepted (the first is also the
/// last), the first worker dropped, the last dropped, a gap in the middle,
/// nobody dropped. Every step's small tensors travel raw, so a raw tensor
/// is the last payload of its row in each case.
#[test]
fn accepted_subsets_pin_the_op_selection() {
    let workers = 3usize;
    let subsets: [[bool; 3]; 7] = [
        [false, true, false],
        [false, false, true],
        [true, false, false],
        [false, true, true],
        [true, true, false],
        [true, false, true],
        [true, true, true],
    ];
    for (scheme, threads) in designs().into_iter().flat_map(|s| [(s, 1usize), (s, 4)]) {
        let problem = Problem::build(&config(workers, scheme));
        assert!(problem.compressible.iter().any(|&c| c));
        assert!(problem.compressible.iter().any(|&c| !c));
        let mut server = ServerCore::new(&problem);
        let mut reference = ServerCore::new(&problem);
        server.set_threads(threads);
        reference.set_threads(threads);
        let mut ctxs: Vec<_> = (0..workers).map(|w| problem.push_ctxs(w)).collect();
        for (step, subset) in subsets.iter().enumerate() {
            let payloads: Vec<Vec<TensorPayload>> = (0..workers)
                .map(|w| {
                    let kind = (w + step) as u8;
                    let push = crafted_push(&problem, &mut ctxs[w], kind, (w * 31 + step) as u64);
                    if subset[w] {
                        push
                    } else {
                        Vec::new()
                    }
                })
                .collect();
            let accepted = subset.iter().filter(|&&a| a).count();
            let out = server
                .apply_step(&payloads, accepted, 0.0)
                .expect("someone is accepted");
            let want = reference
                .apply_step(
                    &oracle_average(&problem, &ctxs, &payloads, accepted),
                    1,
                    0.0,
                )
                .expect("the oracle's push is accepted");
            let label = format!("{scheme}, threads={threads} accepted={subset:?}");
            assert_outputs_identical(&problem, &want, &out, &label).expect("identical outputs");
            assert_eq!(
                bits(&reference.global().snapshot()),
                bits(&server.global().snapshot()),
                "global model diverged: {label}"
            );
        }
    }
}

/// `Cluster` applies pulls through `apply_pulls`. A hand-driven engine
/// that decodes every pull densely and adds it with `apply_deltas` must
/// end on the same replicas and the same global model, for every design.
#[test]
fn cluster_pulls_match_the_dense_reference() {
    for scheme in designs() {
        let config = config(2, scheme);
        let mut cluster = Cluster::new(config);
        let problem = Problem::build(&config);
        let mut replicas: Vec<WorkerReplica> = (0..config.workers)
            .map(|w| WorkerReplica::new(&problem, w))
            .collect();
        let mut server = ServerCore::new(&problem);
        for _ in 0..6 {
            cluster.step();
            let mut payloads = Vec::new();
            for w in replicas.iter_mut() {
                let (_loss, grads) = w.compute(&problem.data, config.batch_per_worker);
                payloads.push(w.encode_push(grads).payloads);
            }
            let out = server
                .apply_step(&payloads, config.workers, 0.0)
                .expect("every worker accepted");
            let deltas = decode_pulls(&problem, &out.pulls);
            for w in replicas.iter_mut() {
                w.apply_deltas(&deltas);
            }
        }
        assert_eq!(
            bits(&cluster.global_model().snapshot()),
            bits(&server.global().snapshot()),
            "global model diverged: {scheme}"
        );
        for (w, replica) in replicas.iter().enumerate() {
            assert_eq!(
                bits(&cluster.worker_model(w).snapshot()),
                bits(&replica.model().snapshot()),
                "worker {w} diverged: {scheme}"
            );
        }
    }
}
