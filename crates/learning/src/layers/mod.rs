//! Network layers with manual backpropagation.
//!
//! Every layer implements [`Layer`]: a pure `forward` that returns the
//! output plus a [`LayerCache`] of whatever intermediate tensors `backward`
//! needs, and one `backward` that takes the cache and the upstream
//! gradient, puts the per-parameter gradients into [`GradSlot`]s the caller
//! keeps and returns the input gradient if it is asked for.
//! Keeping the cache explicit (instead of hiding state in the layer) makes
//! layers `&self` during the forward/backward pair, which is what lets the
//! cluster simulator run several logical workers over clones of one
//! network without interior mutability.

mod batchnorm;
mod conv;
mod dense;
mod relu;
mod residual_any;

pub use batchnorm::BatchNormLayer;
pub use conv::{Conv2dLayer, GlobalAvgPoolLayer};
pub use dense::DenseLayer;
pub use relu::ReluLayer;
pub use residual_any::Residual;

use threelc_tensor::Tensor;

/// Where [`Layer::backward`] puts one parameter's gradient: a tensor of the
/// parameter's shape, and whether the gradient replaces what it holds or
/// is added to it.
///
/// Either way every element of the gradient is formed as it always is —
/// a sum from `+0.0` over the batch in ascending order — and lands once:
/// an [`Add`](GradSlot::Add) slot ends holding exactly the values a
/// [`Write`](GradSlot::Write) slot would, added to what it held, one IEEE
/// add per element.
#[derive(Debug, Clone)]
pub enum GradSlot {
    /// The gradient overwrites the tensor.
    Write(Tensor),
    /// The gradient is added into `buffer` — a compression context's
    /// error-accumulation buffer (paper §3.1), lent for the step — and
    /// `max_abs` is left holding the largest magnitude in `buffer`
    /// afterwards: a non-finite value if any element is infinite or NaN.
    Add {
        /// The tensor the gradient is added into.
        buffer: Tensor,
        /// Set by the layer when the gradient lands.
        max_abs: f32,
    },
}

impl GradSlot {
    /// The slot's tensor.
    pub fn tensor(&self) -> &Tensor {
        match self {
            GradSlot::Write(t) | GradSlot::Add { buffer: t, .. } => t,
        }
    }

    /// The slot's tensor, given up.
    pub fn into_tensor(self) -> Tensor {
        match self {
            GradSlot::Write(t) | GradSlot::Add { buffer: t, .. } => t,
        }
    }

    /// Lands a gradient formed elsewhere: copies it into a write slot, adds
    /// it into an add slot.
    ///
    /// # Panics
    ///
    /// Panics if `grad` is not one value per element of the slot.
    pub fn put(&mut self, grad: &[f32]) {
        match self {
            GradSlot::Write(t) => t.as_mut_slice().copy_from_slice(grad),
            GradSlot::Add { buffer, max_abs } => {
                *max_abs = threelc_tensor::add_max_abs(buffer.as_mut_slice(), grad);
            }
        }
    }

    /// Lands the weight gradient `xᵀ · dy` without storing it anywhere
    /// else: [`Tensor::matmul_tn_into`] a write slot,
    /// [`Tensor::matmul_tn_add_into`] an add slot.
    ///
    /// # Panics
    ///
    /// Panics if the operands' batch sizes differ or the slot is not
    /// `[x columns, dy columns]`.
    pub fn put_matmul_tn(&mut self, x: &Tensor, dy: &Tensor) {
        const SHAPES: &str = "grad dims match and the slot has the weight's shape";
        match self {
            GradSlot::Write(t) => x.matmul_tn_into(dy, t).expect(SHAPES),
            GradSlot::Add { buffer, max_abs } => {
                *max_abs = x.matmul_tn_add_into(dy, buffer).expect(SHAPES);
            }
        }
    }
}

/// Intermediate tensors saved by a forward pass for use in backward.
///
/// The contents are layer-specific; a layer's `backward` must be given the
/// cache produced by its own `forward`.
#[derive(Debug, Clone, Default)]
pub struct LayerCache {
    /// Saved tensors, in layer-defined order.
    pub tensors: Vec<Tensor>,
    /// Caches of nested layers (used by composite layers like
    /// [`Residual`]).
    pub children: Vec<LayerCache>,
}

impl LayerCache {
    /// An empty cache (for parameterless pass-through layers).
    pub fn empty() -> Self {
        LayerCache::default()
    }
}

/// A differentiable network layer.
///
/// Layers operate on rank-2 activations `[batch, features]`.
pub trait Layer: Send {
    /// A short human-readable layer type name (e.g. `"dense"`).
    fn kind(&self) -> &'static str;

    /// Computes the layer output and the cache `backward` will need.
    fn forward(&self, input: &Tensor) -> (Tensor, LayerCache);

    /// Puts the gradient of every parameter into `param_grads` — one slot
    /// per parameter, in [`params`](Layer::params) order and of the
    /// parameter's shape — overwriting a [`GradSlot::Write`] whatever it
    /// held before and adding into a [`GradSlot::Add`], so a training loop
    /// hands the same tensors in every step. Returns the gradient with
    /// respect to the layer's input if `need_input`, and `None` otherwise:
    /// nobody reads the input gradient of a network's bottom layer, and
    /// where it costs a GEMM it is skipped. The parameter gradients are
    /// bit-identical either way.
    ///
    /// # Panics
    ///
    /// Panics if `param_grads` is not one slot of the right shape per
    /// parameter, and may panic if `cache` was not produced by this
    /// layer's `forward` on a compatible input.
    fn backward(
        &self,
        cache: &LayerCache,
        grad_output: &Tensor,
        param_grads: &mut [GradSlot],
        need_input: bool,
    ) -> Option<Tensor>;

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

/// Runs `input` up a stack of layers, keeping each layer's cache.
pub(crate) fn forward_stack(
    layers: &[Box<dyn Layer>],
    input: &Tensor,
) -> (Tensor, Vec<LayerCache>) {
    let mut caches = Vec::with_capacity(layers.len());
    let mut h = None;
    for layer in layers {
        let (out, cache) = layer.forward(h.as_ref().unwrap_or(input));
        caches.push(cache);
        h = Some(out);
    }
    (h.unwrap_or_else(|| input.clone()), caches)
}

/// [`Layer::backward`] down a stack of layers: `param_grads` holds one slot
/// per parameter of `layers`, in order, and every layer but the bottom one
/// is asked for its input gradient whether or not the caller wants the
/// stack's. `None` also for an empty stack, whose input gradient is
/// `grad_output` itself.
pub(crate) fn backward_stack(
    layers: &[Box<dyn Layer>],
    caches: &[LayerCache],
    grad_output: &Tensor,
    mut param_grads: &mut [GradSlot],
    need_input: bool,
) -> Option<Tensor> {
    let mut grad = None;
    for (i, (layer, cache)) in layers.iter().zip(caches).enumerate().rev() {
        let slots = param_grads
            .split_off_mut(param_grads.len() - layer.params().len()..)
            .expect("the range ends where the slots do");
        let upstream = grad.as_ref().unwrap_or(grad_output);
        grad = layer.backward(cache, upstream, slots, need_input || i > 0);
    }
    grad
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

    /// The slots' tensors, given up.
    pub fn tensors(slots: Vec<GradSlot>) -> Vec<Tensor> {
        slots.into_iter().map(GradSlot::into_tensor).collect()
    }

    /// Verifies `backward` against central finite differences through a
    /// scalar loss `sum(output * probe)`.
    ///
    /// `probe` makes the upstream gradient non-uniform, catching transposed
    /// or mis-indexed gradients that a constant probe would miss.
    pub fn check_layer(layer: &mut dyn Layer, input: &Tensor, tol: f32) {
        let (out, cache) = layer.forward(input);
        let probe = Tensor::from_fn(out.shape().clone(), |i| ((i % 7) as f32 - 3.0) * 0.25);
        // Slots that hold something else: every element must be written.
        let stale = || -> Vec<GradSlot> {
            let params = layer.params();
            params
                .iter()
                .map(|p| GradSlot::Write(Tensor::full(p.shape().clone(), f32::NAN)))
                .collect()
        };
        let mut slots = stale();
        let grad_input = layer
            .backward(&cache, &probe, &mut slots, true)
            .expect("the input gradient was asked for");
        let param_grads = tensors(slots);
        let mut params_only = stale();
        assert!(
            layer
                .backward(&cache, &probe, &mut params_only, false)
                .is_none(),
            "the input gradient was not asked for"
        );
        assert_eq!(
            bits(&tensors(params_only)),
            bits(&param_grads),
            "skipping the input gradient must not change a parameter gradient"
        );
        // Add slots end at what they held plus the written gradient, one
        // add per element, with the largest magnitude left beside them.
        let held: Vec<Tensor> = param_grads
            .iter()
            .map(|g| Tensor::from_fn(g.shape().clone(), |i| ((i % 5) as f32 - 2.0) * 0.125))
            .collect();
        let mut added: Vec<GradSlot> = held
            .iter()
            .map(|h| GradSlot::Add {
                buffer: h.clone(),
                max_abs: f32::NAN,
            })
            .collect();
        layer.backward(&cache, &probe, &mut added, true);
        for ((slot, h), g) in added.iter().zip(&held).zip(&param_grads) {
            let want = h.add(g).unwrap();
            let GradSlot::Add { buffer, max_abs } = slot else {
                unreachable!("built as add slots")
            };
            assert_eq!(
                bits(std::slice::from_ref(buffer)),
                bits(std::slice::from_ref(&want))
            );
            assert_eq!(max_abs.to_bits(), want.max_abs().to_bits());
        }

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
            let ana = grad_input.as_slice()[i];
            assert!(
                (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                "input grad [{i}]: numeric {num} vs analytic {ana}"
            );
        }
        // Parameter gradients.
        for (p, param_grad) in param_grads.iter().enumerate() {
            for i in 0..param_grad.len() {
                let orig = layer.params()[p].as_slice()[i];
                layer.params_mut()[p].as_mut_slice()[i] = orig + eps;
                let (op, _) = layer.forward(input);
                layer.params_mut()[p].as_mut_slice()[i] = orig - eps;
                let (om, _) = layer.forward(input);
                layer.params_mut()[p].as_mut_slice()[i] = orig;
                let num = (op.dot(&probe).unwrap() - om.dot(&probe).unwrap()) / (2.0 * eps);
                let ana = param_grad.as_slice()[i];
                assert!(
                    (num - ana).abs() <= tol * (1.0 + num.abs().max(ana.abs())),
                    "param {p} grad [{i}]: numeric {num} vs analytic {ana}"
                );
            }
        }
    }
}

/// [`Residual`] over the dense pre-activation path `residual_mlp` builds.
/// (The module is named for the test ids these checks have always had.)
#[cfg(test)]
mod residual {
    mod tests {
        use crate::layers::{gradcheck::check_layer, GradSlot, Layer};
        use crate::models::dense_block;
        use threelc_tensor::{Initializer, Tensor};

        #[test]
        fn identity_preserved_with_zero_weights() {
            let mut rng = threelc_tensor::rng(0);
            let mut block = dense_block("r", 3, 5, &mut rng);
            for p in block.params_mut() {
                p.map_inplace(|_| 0.0);
            }
            let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], [1, 3]);
            let (y, _) = block.forward(&x);
            assert_eq!(y, x, "zero transform path must reduce to identity");
        }

        #[test]
        fn gradients_match_finite_differences() {
            let mut rng = threelc_tensor::rng(3);
            let mut block = dense_block("r", 3, 4, &mut rng);
            let x = Initializer::Normal {
                mean: 0.5,
                std_dev: 1.0,
            }
            .init(&mut rng, [2, 3]);
            check_layer(&mut block, &x, 3e-2);
        }

        #[test]
        fn shortcut_always_passes_gradient() {
            // Even with all-zero weights (transform path dead), the input
            // gradient equals the output gradient through the shortcut.
            let mut rng = threelc_tensor::rng(1);
            let mut block = dense_block("r", 2, 2, &mut rng);
            for p in block.params_mut() {
                p.map_inplace(|_| 0.0);
            }
            let x = Tensor::from_vec(vec![1.0, 1.0], [1, 2]);
            let (_, cache) = block.forward(&x);
            let g = Tensor::from_vec(vec![0.3, -0.7], [1, 2]);
            let mut param_grads: Vec<GradSlot> = block
                .params()
                .into_iter()
                .map(|p| GradSlot::Write(p.clone()))
                .collect();
            let grad_input = block.backward(&cache, &g, &mut param_grads, true);
            assert_eq!(grad_input, Some(g));
        }

        #[test]
        fn param_bookkeeping() {
            let block = dense_block("blk0", 4, 8, &mut threelc_tensor::rng(0));
            assert_eq!(block.params().len(), 8);
            assert_eq!(
                block.param_names(),
                vec![
                    "blk0/bn1/gamma",
                    "blk0/bn1/beta",
                    "blk0/fc1/weight",
                    "blk0/fc1/bias",
                    "blk0/bn2/gamma",
                    "blk0/bn2/beta",
                    "blk0/fc2/weight",
                    "blk0/fc2/bias"
                ]
            );
            assert_eq!(block.output_dim(4), 4);
        }
    }
}
