//! Network layers with manual backpropagation.
//!
//! Every layer implements [`Layer`]: a pure `forward` that returns the
//! output plus a [`LayerCache`] of whatever intermediate tensors `backward`
//! needs, and a `backward` that consumes the cache and the upstream
//! gradient to produce the input gradient and per-parameter gradients.
//! Keeping the cache explicit (instead of hiding state in the layer) makes
//! layers `&self` during the forward/backward pair, which is what lets the
//! cluster simulator run several logical workers over clones of one
//! network without interior mutability.

mod batchnorm;
mod conv;
mod dense;
mod relu;
mod residual;
mod residual_any;

pub use batchnorm::BatchNormLayer;
pub use conv::{Conv2dLayer, GlobalAvgPoolLayer};
pub use dense::DenseLayer;
pub use relu::ReluLayer;
pub use residual::ResidualBlock;
pub use residual_any::Residual;

use threelc_tensor::Tensor;

/// Intermediate tensors saved by a forward pass for use in backward.
///
/// The contents are layer-specific; a layer's `backward` must be given the
/// cache produced by its own `forward`.
#[derive(Debug, Clone, Default)]
pub struct LayerCache {
    /// Saved tensors, in layer-defined order.
    pub tensors: Vec<Tensor>,
    /// Caches of nested layers (used by composite layers like
    /// [`ResidualBlock`]).
    pub children: Vec<LayerCache>,
}

impl LayerCache {
    /// An empty cache (for parameterless pass-through layers).
    pub fn empty() -> Self {
        LayerCache::default()
    }
}

/// Result of a layer's backward pass.
#[derive(Debug, Clone)]
pub struct LayerBackward {
    /// Gradient of the loss with respect to the layer's input.
    pub grad_input: Tensor,
    /// Gradients for each parameter, in the same order as
    /// [`Layer::params`].
    pub param_grads: Vec<Tensor>,
}

/// A differentiable network layer.
///
/// Layers operate on rank-2 activations `[batch, features]`.
pub trait Layer: Send {
    /// A short human-readable layer type name (e.g. `"dense"`).
    fn kind(&self) -> &'static str;

    /// Computes the layer output and the cache `backward` will need.
    fn forward(&self, input: &Tensor) -> (Tensor, LayerCache);

    /// Computes input and parameter gradients from the upstream gradient.
    ///
    /// # Panics
    ///
    /// May panic if `cache` was not produced by this layer's `forward` on a
    /// compatible input.
    fn backward(&self, cache: &LayerCache, grad_output: &Tensor) -> LayerBackward;

    /// The `param_grads` of [`backward`](Layer::backward) alone, for the
    /// bottom layer of a network, whose input gradient nobody reads. Layers
    /// whose input gradient costs a GEMM override this to skip it; the
    /// parameter gradients are bit-identical either way.
    fn backward_params(&self, cache: &LayerCache, grad_output: &Tensor) -> Vec<Tensor> {
        self.backward(cache, grad_output).param_grads
    }

    /// [`backward`](Layer::backward) with the parameter gradients written
    /// into `param_grads` — one tensor per parameter, of the parameter's
    /// shape, whatever it held before — and the input gradient returned. A
    /// training loop hands the same tensors in every step. The default
    /// moves `backward`'s fresh tensors into the slots; layers whose
    /// parameter gradients are as large as the model overwrite the slots in
    /// place instead. The values are bit-identical either way.
    fn backward_into(
        &self,
        cache: &LayerCache,
        grad_output: &Tensor,
        param_grads: &mut [Tensor],
    ) -> Tensor {
        let back = self.backward(cache, grad_output);
        for (slot, grad) in param_grads.iter_mut().zip(back.param_grads) {
            *slot = grad;
        }
        back.grad_input
    }

    /// [`backward_params`](Layer::backward_params) into `param_grads`, as
    /// [`backward_into`](Layer::backward_into) is to `backward`.
    fn backward_params_into(
        &self,
        cache: &LayerCache,
        grad_output: &Tensor,
        param_grads: &mut [Tensor],
    ) {
        for (slot, grad) in param_grads
            .iter_mut()
            .zip(self.backward_params(cache, grad_output))
        {
            *slot = grad;
        }
    }

    /// Immutable views of the layer's parameter tensors.
    fn params(&self) -> Vec<&Tensor>;

    /// Mutable views of the layer's parameter tensors, in the same order.
    fn params_mut(&mut self) -> Vec<&mut Tensor>;

    /// Names for each parameter (used to key per-tensor compression
    /// contexts), in the same order as [`Layer::params`].
    fn param_names(&self) -> Vec<String>;

    /// Number of output features given `input_dim` input features.
    fn output_dim(&self, input_dim: usize) -> usize;

    /// Clones the layer behind a box (lets [`Network`](crate::Network)
    /// implement `Clone` over `Box<dyn Layer>` stacks — each simulated
    /// worker holds its own copy of the model).
    fn clone_box(&self) -> Box<dyn Layer>;
}

/// Splits `param_grads` — one slot per parameter of `layers`, in order —
/// into each layer's own slots, for [`Layer::backward_into`].
pub(crate) fn split_slots<'a, 'l>(
    layers: impl IntoIterator<Item = &'l dyn Layer>,
    mut param_grads: &'a mut [Tensor],
) -> Vec<&'a mut [Tensor]> {
    let mut slots = Vec::new();
    for layer in layers {
        let (mine, rest) = param_grads.split_at_mut(layer.params().len());
        slots.push(mine);
        param_grads = rest;
    }
    slots
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
pub(crate) mod gradcheck {
    //! Finite-difference gradient checking shared by layer tests.

    use super::*;

    /// Bit patterns of a tensor list, for exact comparisons.
    pub fn bits(ts: &[Tensor]) -> Vec<Vec<u32>> {
        ts.iter()
            .map(|t| t.as_slice().iter().map(|x| x.to_bits()).collect())
            .collect()
    }

    /// Verifies `backward` against central finite differences through a
    /// scalar loss `sum(output * probe)`.
    ///
    /// `probe` makes the upstream gradient non-uniform, catching transposed
    /// or mis-indexed gradients that a constant probe would miss.
    pub fn check_layer(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let (out, cache) = layer.forward(input);
        let probe = Tensor::from_fn(out.shape().clone(), |i| ((i % 7) as f32 - 3.0) * 0.25);
        let back = layer.backward(&cache, &probe);
        assert_eq!(
            layer.backward_params(&cache, &probe),
            back.param_grads,
            "skipping the input gradient must not change a parameter gradient"
        );
        // The reusing variants, over slots that hold something else.
        let stale = || -> Vec<Tensor> {
            let params = layer.params();
            params
                .iter()
                .map(|p| Tensor::full(p.shape().clone(), f32::NAN))
                .collect()
        };
        let mut slots = stale();
        let grad_input = layer.backward_into(&cache, &probe, &mut slots);
        assert_eq!(bits(&slots), bits(&back.param_grads), "backward_into");
        assert_eq!(
            bits(std::slice::from_ref(&grad_input)),
            bits(std::slice::from_ref(&back.grad_input)),
            "backward_into's input gradient"
        );
        let mut slots = stale();
        layer.backward_params_into(&cache, &probe, &mut slots);
        assert_eq!(
            bits(&slots),
            bits(&back.param_grads),
            "backward_params_into"
        );

        let eps = 1e-3f32;
        // Input gradient.
        for i in 0..input.len() {
            let mut plus = input.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = input.clone();
            minus.as_mut_slice()[i] -= eps;
            let (op, _) = layer.forward(&plus);
            let (om, _) = layer.forward(&minus);
            let num = (op.dot(&probe).unwrap() - om.dot(&probe).unwrap()) / (2.0 * eps);
            let ana = back.grad_input.as_slice()[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "input grad [{i}]: numeric {num} vs analytic {ana}"
            );
        }
        // Parameter gradients.
        let n_params = layer.params().len();
        for p in 0..n_params {
            let plen = layer.params()[p].len();
            for i in 0..plen {
                let orig = layer.params()[p].as_slice()[i];
                layer.params_mut()[p].as_mut_slice()[i] = orig + eps;
                let (op, _) = layer.forward(input);
                layer.params_mut()[p].as_mut_slice()[i] = orig - eps;
                let (om, _) = layer.forward(input);
                layer.params_mut()[p].as_mut_slice()[i] = orig;
                let num = (op.dot(&probe).unwrap() - om.dot(&probe).unwrap()) / (2.0 * eps);
                let ana = back.param_grads[p].as_slice()[i];
                assert!(
                    (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                    "param {p} grad [{i}]: numeric {num} vs analytic {ana}"
                );
            }
        }
    }
}
