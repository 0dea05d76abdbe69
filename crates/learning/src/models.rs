//! Standard model constructors for the reproduction experiments.

use crate::data::DataSpec;
use crate::layers::{BatchNormLayer, DenseLayer, Layer, ReluLayer, Residual};
use crate::network::Network;
use threelc_tensor::Rng;

/// Builds the reproduction's stand-in for ResNet-110: an input projection,
/// `blocks` residual blocks of width `width`, and a logit head.
///
/// Like the ResNet the paper trains, most parameters live in square
/// (`width × width`-ish) weight tensors inside identity-mapped blocks, and
/// the small bias tensors mirror the "small layers" (batch normalization)
/// that the paper excludes from compression.
///
/// ```
/// use threelc_learning::{models, DataSpec};
/// let spec = DataSpec { channels: 3, height: 8, width: 8, classes: 10 };
/// let net = models::residual_mlp(&spec, 64, 3, 0);
/// assert_eq!(net.input_dim(), 192);
/// assert_eq!(net.output_dim(), 10);
/// ```
pub fn residual_mlp(spec: &DataSpec, width: usize, blocks: usize, seed: u64) -> Network {
    let mut rng = threelc_tensor::rng(seed);
    let mut layers: Vec<Box<dyn Layer>> = Vec::with_capacity(blocks + 3);
    layers.push(Box::new(DenseLayer::new(
        "stem",
        spec.feature_dim(),
        width,
        &mut rng,
    )));
    for b in 0..blocks {
        layers.push(Box::new(dense_block(
            &format!("block{b}"),
            width,
            width,
            &mut rng,
        )));
    }
    layers.push(Box::new(ReluLayer::new()));
    layers.push(Box::new(DenseLayer::new_xavier(
        "head",
        width,
        spec.classes,
        &mut rng,
    )));
    Network::new(spec.feature_dim(), layers)
}

/// A pre-activation residual block over `dim` features with a `hidden`-wide
/// transform path: `y = x + W₂·relu(bn₂(W₁·relu(bn₁(x))))`.
pub(crate) fn dense_block(name: &str, dim: usize, hidden: usize, rng: &mut Rng) -> Residual {
    Residual::new(vec![
        Box::new(BatchNormLayer::new(format!("{name}/bn1"), dim)),
        Box::new(ReluLayer::new()),
        Box::new(DenseLayer::new(format!("{name}/fc1"), dim, hidden, rng)),
        Box::new(BatchNormLayer::new(format!("{name}/bn2"), hidden)),
        Box::new(ReluLayer::new()),
        Box::new(DenseLayer::new(format!("{name}/fc2"), hidden, dim, rng)),
    ])
}

/// A plain multilayer perceptron (no residual connections), for tests and
/// the quickstart example.
pub fn mlp(spec: &DataSpec, hidden: &[usize], seed: u64) -> Network {
    let mut rng = threelc_tensor::rng(seed);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    let mut dim = spec.feature_dim();
    for (i, &h) in hidden.iter().enumerate() {
        layers.push(Box::new(DenseLayer::new(
            format!("fc{i}"),
            dim,
            h,
            &mut rng,
        )));
        layers.push(Box::new(ReluLayer::new()));
        dim = h;
    }
    layers.push(Box::new(DenseLayer::new_xavier(
        "head",
        dim,
        spec.classes,
        &mut rng,
    )));
    Network::new(spec.feature_dim(), layers)
}

/// A small convolutional ResNet in the style of the paper's workload:
/// a conv stem, `blocks` residual conv blocks (BN → ReLU → conv, twice),
/// global average pooling, and a dense head.
///
/// Convolution on a single CPU core is much slower than the dense model,
/// so this model backs fidelity spot-checks and tests rather than the
/// default experiment grid.
pub fn conv_resnet(spec: &DataSpec, channels: usize, blocks: usize, seed: u64) -> Network {
    use crate::layers::{Conv2dLayer, GlobalAvgPoolLayer};
    let mut rng = threelc_tensor::rng(seed);
    let (h, w) = (spec.height, spec.width);
    let mut layers: Vec<Box<dyn Layer>> = Vec::new();
    layers.push(Box::new(Conv2dLayer::new(
        "stem",
        spec.channels,
        channels,
        h,
        w,
        3,
        &mut rng,
    )));
    for b in 0..blocks {
        let name = format!("block{b}");
        layers.push(Box::new(Residual::new(vec![
            Box::new(BatchNormLayer::new(format!("{name}/bn1"), channels * h * w)),
            Box::new(ReluLayer::new()),
            Box::new(Conv2dLayer::new(
                format!("{name}/conv1"),
                channels,
                channels,
                h,
                w,
                3,
                &mut rng,
            )),
            Box::new(BatchNormLayer::new(format!("{name}/bn2"), channels * h * w)),
            Box::new(ReluLayer::new()),
            Box::new(Conv2dLayer::new(
                format!("{name}/conv2"),
                channels,
                channels,
                h,
                w,
                3,
                &mut rng,
            )),
        ])));
    }
    layers.push(Box::new(ReluLayer::new()));
    layers.push(Box::new(GlobalAvgPoolLayer::new(channels, h, w)));
    layers.push(Box::new(DenseLayer::new_xavier(
        "head",
        channels,
        spec.classes,
        &mut rng,
    )));
    Network::new(spec.feature_dim(), layers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::SyntheticImages;
    use crate::metrics::Evaluation;
    use crate::optim::SgdMomentum;
    use crate::schedule::LrSchedule;

    fn spec() -> DataSpec {
        DataSpec {
            channels: 3,
            height: 8,
            width: 8,
            classes: 10,
        }
    }

    #[test]
    fn residual_mlp_dims() {
        let net = residual_mlp(&spec(), 32, 2, 0);
        assert_eq!(net.input_dim(), 192);
        assert_eq!(net.output_dim(), 10);
        // stem (w+b) + 2 blocks × (2 BN + 2 dense) × 2 tensors + head (w+b).
        assert_eq!(net.params().len(), 2 + 2 * 8 + 2);
    }

    #[test]
    fn mlp_dims() {
        let net = mlp(&spec(), &[64, 32], 0);
        assert_eq!(net.output_dim(), 10);
        assert_eq!(net.params().len(), 6);
    }

    #[test]
    fn deterministic_construction() {
        let a = residual_mlp(&spec(), 16, 1, 7);
        let b = residual_mlp(&spec(), 16, 1, 7);
        assert_eq!(a.snapshot(), b.snapshot());
    }

    #[test]
    fn conv_resnet_dims_and_gradient_flow() {
        let net = conv_resnet(&spec(), 8, 1, 0);
        assert_eq!(net.input_dim(), 192);
        assert_eq!(net.output_dim(), 10);
        // stem conv (w+b) + block (2 BN + 2 conv = 8) + head (w+b).
        assert_eq!(net.params().len(), 12);
        let data = SyntheticImages::generate(
            crate::data::SyntheticConfig {
                train_examples: 64,
                test_examples: 16,
                ..Default::default()
            },
            1,
        );
        let mut rng = threelc_tensor::rng(2);
        let batch = data.sample_train_batch(&mut rng, 4);
        let (loss, grads) = net.loss_and_gradients(&batch);
        assert!(loss.is_finite());
        assert_eq!(grads.len(), net.params().len());
        assert!(
            grads.iter().any(|g| g.max_abs() > 0.0),
            "gradients must flow through the conv stack"
        );
    }

    #[test]
    fn gradient_slots_keep_their_storage_across_steps() {
        // Every layer writes into the tensors it is handed: a second step
        // over the same `grads` reallocates none of them.
        let data = SyntheticImages::generate(
            crate::data::SyntheticConfig {
                train_examples: 64,
                test_examples: 16,
                ..Default::default()
            },
            1,
        );
        let mut rng = threelc_tensor::rng(2);
        for net in [
            residual_mlp(&data.spec(), 16, 1, 0),
            conv_resnet(&data.spec(), 4, 1, 0),
        ] {
            let mut grads = Vec::new();
            net.loss_and_gradients_into(&data.sample_train_batch(&mut rng, 4), &mut grads);
            let before: Vec<_> = grads
                .iter()
                .map(|g| g.tensor().as_slice().as_ptr())
                .collect();
            net.loss_and_gradients_into(&data.sample_train_batch(&mut rng, 4), &mut grads);
            let after: Vec<_> = grads
                .iter()
                .map(|g| g.tensor().as_slice().as_ptr())
                .collect();
            assert_eq!(before, after, "{:?}", net.param_names());
        }
    }

    #[test]
    fn conv_resnet_learns_on_tiny_task() {
        let data = SyntheticImages::generate(
            crate::data::SyntheticConfig {
                train_examples: 256,
                test_examples: 64,
                noise: 0.5,
                ..Default::default()
            },
            7,
        );
        let mut net = conv_resnet(&data.spec(), 6, 1, 3);
        let mut opt = SgdMomentum::paper_defaults();
        let steps = 250;
        let schedule = LrSchedule::paper_default(steps);
        let mut rng = threelc_tensor::rng(5);
        for t in 0..steps {
            let batch = data.sample_train_batch(&mut rng, 16);
            let (_, grads) = net.loss_and_gradients(&batch);
            opt.apply(&mut net, &grads, schedule.lr_at(t));
        }
        let eval = Evaluation::of(&net, &data.test_batch());
        assert!(
            eval.accuracy > 0.3,
            "conv net should beat chance, got {}",
            eval.accuracy
        );
    }

    #[test]
    fn training_reduces_loss_and_beats_chance() {
        // Single-node smoke test: a small model on a small dataset should
        // learn well past the 10% chance level within a few hundred steps.
        let data = SyntheticImages::standard(11);
        let mut net = residual_mlp(&data.spec(), 48, 1, 3);
        let mut opt = SgdMomentum::paper_defaults();
        let steps = 300;
        let schedule = LrSchedule::paper_default(steps);
        let mut rng = threelc_tensor::rng(5);
        let test = data.test_batch();
        let initial = Evaluation::of(&net, &test);
        for t in 0..steps {
            let batch = data.sample_train_batch(&mut rng, 32);
            let (_, grads) = net.loss_and_gradients(&batch);
            opt.apply(&mut net, &grads, schedule.lr_at(t));
        }
        let fin = Evaluation::of(&net, &test);
        assert!(
            fin.loss < initial.loss,
            "loss should drop: {} → {}",
            initial.loss,
            fin.loss
        );
        assert!(
            fin.accuracy > 0.5,
            "accuracy {} should beat chance by a wide margin",
            fin.accuracy
        );
    }
}
