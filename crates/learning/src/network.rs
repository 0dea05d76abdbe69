//! The [`Network`] type: an ordered layer stack with named parameters.

use crate::data::Batch;
use crate::layers::{backward_stack, forward_stack, GradSlot, Layer};
use crate::loss::softmax_cross_entropy;
use threelc_tensor::Tensor;

/// A feedforward network: an ordered stack of [`Layer`]s ending in logits.
///
/// The parameter list is the flattened, ordered concatenation of every
/// layer's parameters; gradients from
/// [`loss_and_gradients`](Network::loss_and_gradients) use the same order.
/// This flat, named view is exactly what the parameter-server simulator
/// partitions across compression contexts.
#[derive(Clone)]
pub struct Network {
    layers: Vec<Box<dyn Layer>>,
    input_dim: usize,
}

impl std::fmt::Debug for Network {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Network")
            .field("input_dim", &self.input_dim)
            .field(
                "layers",
                &self.layers.iter().map(|l| l.kind()).collect::<Vec<_>>(),
            )
            .field("num_params", &self.num_params())
            .finish()
    }
}

impl Network {
    /// Creates a network from a layer stack.
    ///
    /// # Panics
    ///
    /// Panics if consecutive layer dimensions are incompatible (checked by
    /// threading `input_dim` through every layer's `output_dim`).
    pub fn new(input_dim: usize, layers: Vec<Box<dyn Layer>>) -> Self {
        let mut dim = input_dim;
        for layer in &layers {
            dim = layer.output_dim(dim);
        }
        Network { layers, input_dim }
    }

    /// The expected input feature count.
    pub fn input_dim(&self) -> usize {
        self.input_dim
    }

    /// The output (logit) dimensionality.
    pub fn output_dim(&self) -> usize {
        self.layers
            .iter()
            .fold(self.input_dim, |d, l| l.output_dim(d))
    }

    /// Runs the forward pass, returning logits.
    pub fn forward(&self, input: &Tensor) -> Tensor {
        let Some((first, rest)) = self.layers.split_first() else {
            return input.clone();
        };
        rest.iter()
            .fold(first.forward(input).0, |h, layer| layer.forward(&h).0)
    }

    /// Computes mean cross-entropy loss and per-parameter gradients for a
    /// batch. Gradient order matches [`param_names`](Network::param_names).
    pub fn loss_and_gradients(&self, batch: &Batch) -> (f32, Vec<Tensor>) {
        let mut slots = Vec::new();
        let loss = self.loss_and_gradients_into(batch, &mut slots);
        (loss, slots.into_iter().map(GradSlot::into_tensor).collect())
    }

    /// [`loss_and_gradients`](Network::loss_and_gradients) into slots the
    /// caller keeps: `slots` comes back holding one gradient per parameter,
    /// and handed in again — as a training loop does every step — its
    /// tensors are overwritten in place instead of reallocated, or, for a
    /// [`GradSlot::Add`], added into ([`Layer::backward`]). Anything else in
    /// `slots` (nothing, or tensors of other shapes) is replaced by
    /// [`GradSlot::Write`]s.
    pub fn loss_and_gradients_into(&self, batch: &Batch, slots: &mut Vec<GradSlot>) -> f32 {
        // One slot per parameter, of its shape.
        let params = self.params();
        let reusable = slots.len() == params.len()
            && slots
                .iter()
                .zip(&params)
                .all(|(g, p)| g.tensor().shape() == p.shape());
        if !reusable {
            *slots = params
                .iter()
                .map(|p| GradSlot::Write(Tensor::zeros(p.shape().clone())))
                .collect();
        }
        let (logits, caches) = forward_stack(&self.layers, &batch.inputs);
        let (loss, grad) = softmax_cross_entropy(&logits, &batch.labels);
        // Nothing reads the bottom layer's input gradient.
        backward_stack(&self.layers, &caches, &grad, slots, false);
        loss
    }

    /// Argmax class predictions for a batch of inputs.
    pub fn predict(&self, inputs: &Tensor) -> Vec<usize> {
        argmax_rows(&self.forward(inputs))
    }

    /// Immutable views of all parameters, in network order.
    pub fn params(&self) -> Vec<&Tensor> {
        self.layers.iter().flat_map(|l| l.params()).collect()
    }

    /// Mutable views of all parameters, in network order.
    pub fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Names of all parameters, in network order.
    pub fn param_names(&self) -> Vec<String> {
        self.layers.iter().flat_map(|l| l.param_names()).collect()
    }

    /// Clones all parameter tensors (a model snapshot).
    pub fn snapshot(&self) -> Vec<Tensor> {
        self.params().into_iter().cloned().collect()
    }

    /// Overwrites all parameters from a snapshot.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match the parameter count or shapes.
    pub fn restore(&mut self, values: &[Tensor]) {
        let mut params = self.params_mut();
        assert_eq!(params.len(), values.len(), "parameter count mismatch");
        for (p, v) in params.iter_mut().zip(values) {
            assert_eq!(p.shape(), v.shape(), "parameter shape mismatch");
            **p = v.clone();
        }
    }

    /// Total number of scalar parameters.
    pub fn num_params(&self) -> usize {
        self.params().iter().map(|p| p.len()).sum()
    }
}

/// The index of the largest value in every row of `[batch, classes]`
/// logits (the last one among equals).
pub(crate) fn argmax_rows(logits: &Tensor) -> Vec<usize> {
    let classes = logits.shape().dim(1);
    logits
        .as_slice()
        .chunks_exact(classes)
        .map(|row| {
            row.iter()
                .enumerate()
                .max_by(|a, b| a.1.partial_cmp(b.1).expect("logits are finite"))
                .map(|(i, _)| i)
                .expect("at least one class")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{DenseLayer, ReluLayer};
    use crate::models::dense_block;

    fn tiny_net(seed: u64) -> Network {
        let mut rng = threelc_tensor::rng(seed);
        Network::new(
            4,
            vec![
                Box::new(DenseLayer::new("fc0", 4, 8, &mut rng)),
                Box::new(ReluLayer::new()),
                Box::new(dense_block("blk0", 8, 8, &mut rng)),
                Box::new(DenseLayer::new_xavier("out", 8, 3, &mut rng)),
            ],
        )
    }

    /// Mean loss on a batch, no gradients.
    fn loss(net: &Network, batch: &Batch) -> f32 {
        crate::Evaluation::of(net, batch).loss
    }

    fn tiny_batch(seed: u64) -> Batch {
        let mut rng = threelc_tensor::rng(seed);
        Batch {
            inputs: threelc_tensor::Initializer::Normal {
                mean: 0.0,
                std_dev: 1.0,
            }
            .init(&mut rng, [6, 4]),
            labels: vec![0, 1, 2, 0, 1, 2],
        }
    }

    #[test]
    fn dims_and_param_bookkeeping() {
        let net = tiny_net(0);
        assert_eq!(net.input_dim(), 4);
        assert_eq!(net.output_dim(), 3);
        assert_eq!(net.params().len(), net.param_names().len());
        // stem (w+b) + residual block (2 BN pairs + 2 dense) + head (w+b).
        assert_eq!(
            net.num_params(),
            (4 * 8 + 8) + (2 * 8 + 2 * 8) + (8 * 8 + 8) * 2 + (8 * 3 + 3)
        );
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn incompatible_layers_panic() {
        let mut rng = threelc_tensor::rng(0);
        Network::new(
            4,
            vec![
                Box::new(DenseLayer::new("a", 4, 8, &mut rng)),
                Box::new(DenseLayer::new("b", 9, 3, &mut rng)), // wrong input dim
            ],
        );
    }

    #[test]
    fn gradients_into_reused_buffers_match_fresh_ones_bit_for_bit() {
        use crate::layers::gradcheck::{bits, tensors};
        let net = tiny_net(1);
        // Starts empty, is then reused across different batches, and
        // recovers from tensors that are not the model's.
        let mut slots = Vec::new();
        for seed in [2, 3, 4] {
            let batch = tiny_batch(seed);
            let (want_loss, want) = net.loss_and_gradients(&batch);
            let loss = net.loss_and_gradients_into(&batch, &mut slots);
            assert_eq!(loss.to_bits(), want_loss.to_bits(), "loss, batch {seed}");
            assert_eq!(
                bits(&tensors(slots.clone())),
                bits(&want),
                "gradients, batch {seed}"
            );
            if seed == 3 {
                slots[0] = GradSlot::Write(Tensor::zeros([2, 2]));
            }
        }
    }

    #[test]
    fn gradients_match_finite_differences_through_loss() {
        let net = tiny_net(1);
        let batch = tiny_batch(2);
        let (_, grads) = net.loss_and_gradients(&batch);
        let eps = 3e-3f32;
        // Spot-check a handful of parameters in each tensor.
        let mut net_mut = net.clone();
        for (pi, g) in grads.iter().enumerate() {
            for i in (0..g.len()).step_by((g.len() / 3).max(1)) {
                let orig = net_mut.params()[pi].as_slice()[i];
                net_mut.params_mut()[pi].as_mut_slice()[i] = orig + eps;
                let lp = loss(&net_mut, &batch);
                net_mut.params_mut()[pi].as_mut_slice()[i] = orig - eps;
                let lm = loss(&net_mut, &batch);
                net_mut.params_mut()[pi].as_mut_slice()[i] = orig;
                let num = (lp - lm) / (2.0 * eps);
                let ana = g.as_slice()[i];
                // Loose tolerance: f32 arithmetic plus ReLU kinks crossed
                // by the finite-difference step add O(eps) noise.
                assert!(
                    (num - ana).abs() < 6e-2 * (1.0 + num.abs()),
                    "param {pi}[{i}]: numeric {num} vs analytic {ana}"
                );
            }
        }
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let net = tiny_net(3);
        let snap = net.snapshot();
        let mut other = tiny_net(99); // different init
        other.restore(&snap);
        let batch = tiny_batch(4);
        assert_eq!(loss(&net, &batch), loss(&other, &batch));
    }

    #[test]
    fn clone_is_independent() {
        let net = tiny_net(5);
        let mut copy = net.clone();
        copy.params_mut()[0].map_inplace(|_| 0.0);
        assert_ne!(
            net.params()[0].as_slice(),
            copy.params()[0].as_slice(),
            "clone must not share storage"
        );
    }

    #[test]
    fn predict_returns_valid_classes() {
        let net = tiny_net(6);
        let batch = tiny_batch(7);
        let preds = net.predict(&batch.inputs);
        assert_eq!(preds.len(), 6);
        assert!(preds.iter().all(|&c| c < 3));
    }

    #[test]
    fn debug_output_is_informative() {
        let s = format!("{:?}", tiny_net(0));
        assert!(s.contains("dense"));
        assert!(s.contains("num_params"));
    }
}
