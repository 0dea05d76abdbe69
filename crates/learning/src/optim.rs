//! SGD with momentum and weight decay.

use crate::network::Network;
use std::ops::Range;
use threelc_tensor::Tensor;

/// TensorFlow `MomentumOptimizer` semantics with decoupled weight decay
/// added to the gradient, matching the paper's training configuration
/// (momentum 0.9, weight decay 1e-4 — §5.2):
///
/// ```text
/// g ← grad + weight_decay · param
/// v ← momentum · v + g
/// param ← param − lr · v
/// ```
#[derive(Debug, Clone)]
pub struct SgdMomentum {
    momentum: f32,
    weight_decay: f32,
    velocity: Vec<Tensor>,
}

impl SgdMomentum {
    /// Creates an optimizer with the given momentum and weight decay.
    pub fn new(momentum: f32, weight_decay: f32) -> Self {
        SgdMomentum {
            momentum,
            weight_decay,
            velocity: Vec::new(),
        }
    }

    /// The paper's configuration: momentum 0.9, weight decay 1e-4.
    pub fn paper_defaults() -> Self {
        SgdMomentum::new(0.9, 1e-4)
    }

    /// Applies one update step to `net` with learning rate `lr`.
    ///
    /// # Panics
    ///
    /// Panics if `grads` does not match the network's parameter list (count
    /// or shapes), or differs from the shapes seen on the first call.
    pub fn apply(&mut self, net: &mut Network, grads: &[Tensor], lr: f32) {
        let mut params = net.params_mut();
        self.check(&params, grads);
        let (momentum, weight_decay) = (self.momentum, self.weight_decay);
        for ((p, g), v) in params.iter_mut().zip(grads).zip(&mut self.velocity) {
            let (pd, gd, vd) = (p.as_mut_slice(), g.as_slice(), v.as_mut_slice());
            for i in 0..pd.len() {
                step(&mut pd[i], gd[i], &mut vd[i], momentum, weight_decay, lr);
            }
        }
    }

    /// [`apply`](Self::apply) taken apart by tensor: one [`TensorStep`] per
    /// parameter, in parameter order, each applied to any element range of
    /// its parameter with that range's gradient — which it leaves holding
    /// the change it caused, `param_after − param_before`: the f32
    /// subtraction a before/after snapshot pair would perform, from inside
    /// the same sweep and without the two model copies. Stepping every
    /// element once, in any ranges and any order, ends on `apply`'s
    /// parameters and velocity bit for bit. No element's update reads
    /// another's, so a caller may step tensors on as many threads as it
    /// likes (the parameter server runs them under its aggregation shards)
    /// and a tensor strip by strip, each while its gradient is in cache.
    pub fn steps<'a>(&'a mut self, net: &'a mut Network) -> Vec<TensorStep<'a>> {
        let params = net.params_mut();
        self.ensure_velocity(&params);
        let (momentum, weight_decay) = (self.momentum, self.weight_decay);
        params
            .into_iter()
            .zip(&mut self.velocity)
            .map(|(param, velocity)| TensorStep {
                param,
                velocity,
                momentum,
                weight_decay,
            })
            .collect()
    }

    /// Holds `grads` to the parameter list and, on the first call, creates
    /// the velocity.
    fn check(&mut self, params: &[&mut Tensor], grads: &[Tensor]) {
        assert_eq!(params.len(), grads.len(), "gradient count mismatch");
        self.ensure_velocity(params);
        for (p, g) in params.iter().zip(grads) {
            assert_eq!(p.shape(), g.shape(), "gradient shape mismatch");
        }
    }

    /// Creates the velocity, zeros shaped like `params`, on the first call
    /// and holds it to the parameter count on every later one.
    fn ensure_velocity(&mut self, params: &[&mut Tensor]) {
        if self.velocity.is_empty() {
            self.velocity = params
                .iter()
                .map(|p| Tensor::zeros(p.shape().clone()))
                .collect();
        }
        assert_eq!(self.velocity.len(), params.len(), "velocity count mismatch");
    }

    /// Resets accumulated momentum (e.g. when restarting training).
    pub fn reset(&mut self) {
        self.velocity.clear();
    }

    /// The configured momentum coefficient.
    pub fn momentum(&self) -> f32 {
        self.momentum
    }

    /// The configured weight decay.
    pub fn weight_decay(&self) -> f32 {
        self.weight_decay
    }
}

/// One tensor's share of an optimizer step: its parameter and its
/// velocity ([`SgdMomentum::steps`]).
#[derive(Debug)]
pub struct TensorStep<'a> {
    param: &'a mut Tensor,
    velocity: &'a mut Tensor,
    momentum: f32,
    weight_decay: f32,
}

impl TensorStep<'_> {
    /// Updates the parameter's and velocity's elements `range` with
    /// learning rate `lr` and their gradient `grad`, and leaves each
    /// element's change in its gradient's place.
    ///
    /// # Panics
    ///
    /// Panics if `range` is outside the parameter or `grad` is not as long
    /// as `range`.
    pub fn apply(&mut self, range: Range<usize>, grad: &mut [f32], lr: f32) {
        assert_eq!(range.len(), grad.len(), "one gradient per element");
        let (momentum, weight_decay) = (self.momentum, self.weight_decay);
        let params = self.param.as_mut_slice()[range.clone()].iter_mut();
        let velocity = self.velocity.as_mut_slice()[range].iter_mut();
        for ((p, g), v) in params.zip(grad).zip(velocity) {
            *g = step(p, *g, v, momentum, weight_decay, lr);
        }
    }
}

/// One element's update — what [`SgdMomentum::apply`] and
/// [`TensorStep::apply`] both do to it — returning the parameter's change
/// `after − before`.
#[inline(always)]
fn step(p: &mut f32, grad: f32, v: &mut f32, momentum: f32, weight_decay: f32, lr: f32) -> f32 {
    let before = *p;
    *v = momentum * *v + (grad + weight_decay * before);
    *p = before - lr * *v;
    *p - before
}

/// Applies a raw delta to every parameter: `param += delta`.
///
/// The parameter-server simulator uses this to apply aggregated,
/// (de)compressed model deltas to a worker's local model.
///
/// # Panics
///
/// Panics if `deltas` does not match the network's parameters.
pub fn apply_deltas(net: &mut Network, deltas: &[Tensor]) {
    let mut params = net.params_mut();
    assert_eq!(params.len(), deltas.len(), "delta count mismatch");
    for (p, d) in params.iter_mut().zip(deltas) {
        p.add_assign(d).expect("delta shape matches parameter");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{DenseLayer, Layer};

    fn one_param_net() -> Network {
        let mut rng = threelc_tensor::rng(0);
        let mut layer = DenseLayer::new("d", 1, 1, &mut rng);
        layer.params_mut()[0].as_mut_slice()[0] = 1.0;
        Network::new(1, vec![Box::new(layer)])
    }

    fn grads_of(net: &Network, w: f32, b: f32) -> Vec<Tensor> {
        let _ = net;
        vec![
            Tensor::from_vec(vec![w], [1, 1]),
            Tensor::from_vec(vec![b], [1, 1]),
        ]
    }

    #[test]
    fn plain_sgd_step() {
        let mut net = one_param_net();
        let mut opt = SgdMomentum::new(0.0, 0.0);
        let g = grads_of(&net, 0.5, 0.0);
        opt.apply(&mut net, &g, 0.1);
        assert!((net.params()[0].as_slice()[0] - 0.95).abs() < 1e-7);
    }

    #[test]
    fn momentum_accumulates() {
        let mut net = one_param_net();
        let mut opt = SgdMomentum::new(0.9, 0.0);
        let g = grads_of(&net, 1.0, 0.0);
        opt.apply(&mut net, &g, 0.1); // v=1.0, p = 1 - 0.1
        opt.apply(&mut net, &g, 0.1); // v=1.9, p = 0.9 - 0.19
        let p = net.params()[0].as_slice()[0];
        assert!((p - (1.0 - 0.1 - 0.19)).abs() < 1e-6, "p = {p}");
    }

    #[test]
    fn weight_decay_pulls_towards_zero() {
        let mut net = one_param_net();
        let mut opt = SgdMomentum::new(0.0, 0.1);
        let g = grads_of(&net, 0.0, 0.0);
        opt.apply(&mut net, &g, 1.0);
        // p = 1 − 1.0 · (0 + 0.1·1) = 0.9
        assert!((net.params()[0].as_slice()[0] - 0.9).abs() < 1e-7);
    }

    #[test]
    fn apply_with_delta_matches_apply_and_a_snapshot_difference_bit_for_bit() {
        use crate::layers::{gradcheck::bits, ReluLayer};
        let net = || {
            let mut rng = threelc_tensor::rng(5);
            Network::new(
                7,
                vec![
                    Box::new(DenseLayer::new("a", 7, 9, &mut rng)) as Box<dyn Layer>,
                    Box::new(ReluLayer::new()),
                    Box::new(DenseLayer::new("b", 9, 3, &mut rng)),
                ],
            )
        };
        let (mut plain, mut fused) = (net(), net());
        let mut plain_opt = SgdMomentum::new(0.9, 1e-2);
        let mut fused_opt = plain_opt.clone();
        let mut rng = threelc_tensor::rng(6);
        let normal = threelc_tensor::Initializer::Normal {
            mean: 0.0,
            std_dev: 0.3,
        };
        for step in 0..4 {
            let grads: Vec<Tensor> = plain
                .params()
                .iter()
                .map(|p| normal.init(&mut rng, p.shape().clone()))
                .collect();
            let before = plain.snapshot();
            plain_opt.apply(&mut plain, &grads, 0.05);
            let want: Vec<Tensor> = plain
                .snapshot()
                .iter()
                .zip(&before)
                .map(|(now, was)| now.sub(was).unwrap())
                .collect();
            // Stepped strip by strip, the strips out of order.
            let mut deltas = grads.clone();
            for (tensor_step, delta) in fused_opt.steps(&mut fused).iter_mut().zip(&mut deltas) {
                let n = delta.len();
                let cut = n / 3;
                let d = delta.as_mut_slice();
                let (head, tail) = d.split_at_mut(cut);
                tensor_step.apply(cut..n, tail, 0.05);
                tensor_step.apply(0..cut, head, 0.05);
            }
            assert_eq!(
                bits(&fused.snapshot()),
                bits(&plain.snapshot()),
                "params, step {step}"
            );
            assert_eq!(
                bits(&fused_opt.velocity),
                bits(&plain_opt.velocity),
                "velocity, step {step}"
            );
            assert_eq!(bits(&deltas), bits(&want), "delta, step {step}");
            assert!(want.iter().any(|d| d.max_abs() > 0.0), "a vacuous step");
        }
    }

    #[test]
    fn reset_clears_momentum() {
        let mut net = one_param_net();
        let mut opt = SgdMomentum::new(0.9, 0.0);
        let g = grads_of(&net, 1.0, 0.0);
        opt.apply(&mut net, &g, 0.1);
        opt.reset();
        let before = net.params()[0].as_slice()[0];
        opt.apply(&mut net, &g, 0.1);
        let after = net.params()[0].as_slice()[0];
        // Without the old velocity the step is exactly lr · g.
        assert!((before - after - 0.1).abs() < 1e-6);
    }

    #[test]
    fn apply_deltas_adds() {
        let mut net = one_param_net();
        let deltas = grads_of(&net, 0.25, -0.5);
        apply_deltas(&mut net, &deltas);
        assert!((net.params()[0].as_slice()[0] - 1.25).abs() < 1e-7);
        assert!((net.params()[1].as_slice()[0] + 0.5).abs() < 1e-7);
    }

    #[test]
    #[should_panic(expected = "count mismatch")]
    fn wrong_grad_count_panics() {
        let mut net = one_param_net();
        SgdMomentum::new(0.9, 0.0).apply(&mut net, &[], 0.1);
    }

    #[test]
    fn paper_defaults() {
        let opt = SgdMomentum::paper_defaults();
        assert_eq!(opt.momentum(), 0.9);
        assert_eq!(opt.weight_decay(), 1e-4);
    }
}
