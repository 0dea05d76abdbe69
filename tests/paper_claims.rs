//! The paper's traffic claims as assertions, at a fixed seed on the
//! scaled standard configuration, fast enough for a debug build.
//!
//! - **Fig. 9:** at s = 1.00 a pulled model delta costs at least as many
//!   bits per value as a pushed gradient — over the run and for every
//!   compressed tensor. The paper's reason: a pull aggregates every
//!   worker's push, so it has more variance and fewer zeros.
//! - **§3.3:** on quantized gradients at s = 1.00, zero-run encoding
//!   compresses the quartic stream below Huffman coding, and quartic
//!   encoding alone is 1.6 bits per value (five ternary values a byte).
//!   `crates/bench`'s `ablation_encoding` measures the same tensor.

use threelc::{huffman, quartic, zrle, CompressionStats, SparsityMultiplier, TernaryTensor};
use threelc_baselines::SchemeKind;
use threelc_distsim::{run_experiment, ExperimentConfig};
use threelc_tensor::Initializer;

#[test]
fn fig9_a_pull_costs_at_least_a_push_at_s_1() {
    let result = run_experiment(&ExperimentConfig {
        total_steps: 20,
        ..ExperimentConfig::for_scheme(SchemeKind::three_lc(1.0))
    });
    let steps = &result.trace.steps;
    let push: u64 = steps.iter().map(|s| s.push_bytes).sum();
    let pull: u64 = steps.iter().map(|s| s.pull_bytes).sum();
    assert!(pull >= push, "run: pull {pull} B < push {push} B");
    let (mut pushed, mut pulled) = (CompressionStats::new(), CompressionStats::new());
    let compressed: Vec<_> = result.trace.tensors.iter().filter(|t| !t.raw).collect();
    assert!(compressed.len() > 1, "the model has compressed tensors");
    for (i, t) in compressed.iter().enumerate() {
        let (push, pull) = (t.push.bits_per_value(), t.pull.bits_per_value());
        assert!(
            pull >= push,
            "compressed tensor {i}: pull {pull} < push {push} bits/value"
        );
        pushed.merge(&t.push);
        pulled.merge(&t.pull);
    }
    assert_eq!(pushed.wire_bytes, push);
    assert_eq!(pulled.wire_bytes, pull);
    assert!(pulled.bits_per_value() >= pushed.bits_per_value());
}

#[test]
fn zero_run_encoding_beats_huffman_and_quartic_alone_is_1_6_bits() {
    const N: usize = 1 << 20;
    let input = Initializer::Normal {
        mean: 0.0,
        std_dev: 0.02,
    }
    .init(&mut threelc_tensor::rng(11), [N]);
    let s = SparsityMultiplier::new(1.0).expect("valid");
    let q = TernaryTensor::quantize(&input, s).expect("finite");
    let quartic_bytes = quartic::encode(q.values());
    let bits = |bytes: usize| bytes as f64 * 8.0 / N as f64;
    let quartic = bits(quartic_bytes.len());
    assert!(
        (quartic - 1.6).abs() < 1e-4,
        "quartic alone: {quartic} bits/value"
    );
    let zre = bits(zrle::encode(&quartic_bytes).expect("valid").len());
    let huffman = bits(huffman::encode(&quartic_bytes).len());
    assert!(zre < huffman, "ZRE {zre} >= Huffman {huffman} bits/value");
}
