//! Pins the final model of short fixed-seed training runs by CRC-32.
//!
//! The repository's spine is bit-identity: the same seed must train the
//! same model whatever happens to the kernels underneath. These constants
//! were captured before the GEMM kernels were blocked (PR 12) and must
//! never change without a stated reason; a change that reorders a single
//! floating-point add inside `threelc-tensor` or a layer's backward pass
//! moves the `Float32` hashes, whose every gradient bit reaches the model.
//!
//! The CRC is `threelc_net::model_crc32`, the number `threelc simulate` and
//! `threelc serve` print as `final model crc32`.

use threelc_baselines::{build_compressor, SchemeKind};
use threelc_distsim::{
    run_experiment, Cluster, ExperimentConfig, Problem, ServerCore, WorkerReplica,
};
use threelc_learning::data::SyntheticConfig;
use threelc_learning::{models, Evaluation, SgdMomentum, SyntheticImages};
use threelc_net::crc32::crc32;
use threelc_net::model_crc32;

const STEPS: u64 = 3;

/// Width 40 and batch 9 are multiples of no GEMM tile, so the ragged edges
/// of every kernel run; the final evaluation is the `m = 1024` forward.
fn dense_config(scheme: SchemeKind) -> ExperimentConfig {
    ExperimentConfig {
        scheme,
        workers: 2,
        batch_per_worker: 9,
        total_steps: STEPS,
        warmup_steps: 0,
        model_width: 40,
        model_blocks: 1,
        seed: 7,
        ..Default::default()
    }
}

/// `"<final model crc32> <final test loss bits>"`, both in hex, of the
/// simulator's `residual_mlp` run.
fn dense_run(scheme: SchemeKind) -> String {
    let config = dense_config(scheme);
    let mut cluster = Cluster::new(config);
    for _ in 0..STEPS {
        cluster.step();
    }
    let result = run_experiment(&config);
    assert_eq!(
        result.final_eval,
        cluster.evaluate(),
        "run_experiment drives the same cluster"
    );
    format!(
        "{:08x} {:08x}",
        model_crc32(cluster.global_model()),
        result.final_eval.loss.to_bits()
    )
}

/// [`dense_run`] with the server forced onto `shards` aggregation shards
/// (this model is far too small for the server to derive more than one):
/// the same steps through the engine's own types, the way the networked
/// runtime drives them.
fn dense_run_on_shards(scheme: SchemeKind, shards: usize) -> String {
    let config = dense_config(scheme);
    let problem = Problem::build(&config);
    let mut workers: Vec<WorkerReplica> = (0..config.workers)
        .map(|w| WorkerReplica::new(&problem, w))
        .collect();
    let mut server = ServerCore::new(&problem);
    server.set_threads(shards);
    for _ in 0..STEPS {
        let payloads: Vec<_> = workers
            .iter_mut()
            .map(|w| {
                let (_, grads) = w.compute(&problem.data, config.batch_per_worker);
                w.encode_push(grads).payloads
            })
            .collect();
        let out = server
            .apply_step(&payloads, config.workers, 0.0)
            .expect("every push accepted");
        for w in &mut workers {
            w.apply_pulls(&out.pulls).expect("the server's own pulls");
        }
    }
    format!(
        "{:08x} {:08x}",
        model_crc32(server.global()),
        Evaluation::of(server.global(), &problem.test)
            .loss
            .to_bits()
    )
}

/// Three single-node SGD steps of the convolutional ResNet, every gradient
/// passed through `scheme`'s compression context first (the experiment
/// harness only builds `residual_mlp`, so the conv layers are driven here).
fn conv_run(scheme: SchemeKind) -> String {
    let data = SyntheticImages::standard(11);
    let mut net = models::conv_resnet(&data.spec(), 3, 1, 5);
    let mut ctxs: Vec<_> = net
        .params()
        .iter()
        .enumerate()
        .map(|(i, p)| build_compressor(&scheme, p.shape().clone(), i as u64))
        .collect();
    let mut rng = threelc_tensor::rng(13);
    let mut optimizer = SgdMomentum::paper_defaults();
    for _ in 0..STEPS {
        let batch = data.sample_train_batch(&mut rng, 3);
        let (loss, grads) = net.loss_and_gradients(&batch);
        assert!(loss.is_finite());
        let decoded: Vec<_> = grads
            .iter()
            .zip(&mut ctxs)
            .map(|(g, ctx)| {
                let wire = ctx.compress(g).expect("gradient matches its context");
                ctx.decompress(&wire).expect("own payload decodes")
            })
            .collect();
        optimizer.apply(&mut net, &decoded, 0.05);
    }
    format!("{:08x}", model_crc32(&net))
}

/// Every design a command line can name (`SchemeKind::tokens`, 3LC at
/// s=1.00), plus 3LC without error accumulation, with the final model
/// its server trains. Each design's pushes, server sweep and pulls run
/// through its own codec, so a change to any one design's decode, fold
/// or re-encode moves its row.
const DESIGN_PINS: &[(&str, &str)] = &[
    ("float32", "ccef37b4 405122a2"),
    ("int8", "396595d1 40512404"),
    ("ternary", "e62a3c14 4051e86f"),
    ("onebit", "05c3e2aa 405382d8"),
    ("sparse25", "a103b971 40518936"),
    ("sparse5", "daab16d8 40531df4"),
    ("local2", "17939336 40538c2f"),
    ("3lc", "f50c5d02 40531939"),
    ("3lc-nozre", "f50c5d02 40531939"),
];

#[test]
fn every_design_model_is_pinned() {
    let tokens: Vec<&str> = SchemeKind::tokens().collect();
    let pinned: Vec<&str> = DESIGN_PINS.iter().map(|&(token, _)| token).collect();
    assert_eq!(pinned, tokens, "one pin per design, in table order");
    for &(token, want) in DESIGN_PINS {
        let scheme = SchemeKind::parse(token, 1.0).expect("a listed token");
        assert_eq!(dense_run(scheme), want, "{token}");
    }
    let no_ea = SchemeKind::ThreeLc {
        sparsity: 1.0,
        zero_run_encoding: true,
        error_accumulation: false,
    };
    assert_eq!(dense_run(no_ea), "d1224d3c 4053b276", "3lc no-EA");
}

/// The server's shard count must not move any design's model.
#[test]
fn every_design_model_is_pinned_on_four_threads() {
    for &(token, want) in DESIGN_PINS {
        let scheme = SchemeKind::parse(token, 1.0).expect("a listed token");
        assert_eq!(dense_run_on_shards(scheme, 4), want, "{token}");
    }
}

#[test]
fn dense_float32_model_is_pinned() {
    assert_eq!(dense_run(SchemeKind::Float32), "ccef37b4 405122a2");
}

#[test]
fn dense_three_lc_model_is_pinned() {
    assert_eq!(dense_run(SchemeKind::three_lc(1.0)), "f50c5d02 40531939");
}

/// One shard and four run the same per-tensor server code, so the thread
/// count must not move the model.
#[test]
fn dense_three_lc_model_is_pinned_on_four_threads() {
    assert_eq!(
        dense_run_on_shards(SchemeKind::three_lc(1.0), 4),
        "f50c5d02 40531939"
    );
}

#[test]
fn conv_float32_model_is_pinned() {
    assert_eq!(conv_run(SchemeKind::Float32), "ea01a13a");
}

#[test]
fn conv_three_lc_model_is_pinned() {
    assert_eq!(conv_run(SchemeKind::three_lc(1.0)), "557a1d00");
}

/// The initial model of the ledger's `mlp1024-*` workloads at seed 42, as
/// `Problem::build` makes it on every node: 4.4 M He-normal draws, every
/// weight fill large enough to be split over the host's cores (the width-40
/// runs above are drawn on one thread). Captured before the split.
#[test]
fn wide_initial_model_is_pinned() {
    let spec = SyntheticConfig::default().spec;
    let init = models::residual_mlp(&spec, 1024, 2, 42);
    assert_eq!(format!("{:08x}", model_crc32(&init)), "2a0d1172");
}

/// The dataset of every seed-42 run (`Problem::build` seeds it with
/// `42·31 + 7`): the training split's 786 Ki noise draws, then the test
/// split's 197 Ki from where they ended. The test batch pins both the test
/// values and that position; a sampled training batch pins training images.
/// Captured before the split.
#[test]
fn standard_dataset_is_pinned() {
    let data = SyntheticImages::standard(42 * 31 + 7);
    let test = crc32(&data.test_batch().inputs.to_le_bytes());
    let train = data.sample_train_batch(&mut threelc_tensor::rng(1), 64);
    let train = crc32(&train.inputs.to_le_bytes());
    assert_eq!(format!("{test:08x} {train:08x}"), "ace078d1 eabbccae");
}
