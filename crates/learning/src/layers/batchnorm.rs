//! Batch normalization (Ioffe & Szegedy), the paper's canonical
//! "small layer" excluded from compression (§5.1).

use super::{GradSlot, Layer, LayerCache};
use threelc_tensor::Tensor;

const EPS: f32 = 1e-5;

/// Batch normalization over the batch dimension of `[batch, features]`
/// activations: `y = γ·(x − μ)/√(σ² + ε) + β` with per-feature statistics
/// computed from the current batch.
///
/// The trainable `γ`/`β` tensors are small (2 × features), so — exactly as
/// in the paper's evaluation — the cluster simulator transmits them
/// uncompressed. Normalization always uses the current batch's statistics
/// (evaluation feeds the full test set as one batch, whose statistics are
/// population-accurate), which keeps `forward` a pure function.
#[derive(Debug, Clone)]
pub struct BatchNormLayer {
    name: String,
    gamma: Tensor,
    beta: Tensor,
}

impl BatchNormLayer {
    /// Creates a batch-norm layer over `features` features (γ = 1, β = 0).
    pub fn new(name: impl Into<String>, features: usize) -> Self {
        BatchNormLayer {
            name: name.into(),
            gamma: Tensor::ones([1, features]),
            beta: Tensor::zeros([1, features]),
        }
    }

    /// Number of normalized features.
    pub fn features(&self) -> usize {
        self.gamma.len()
    }
}

impl Layer for BatchNormLayer {
    fn kind(&self) -> &'static str {
        "batchnorm"
    }

    fn forward(&self, input: &Tensor) -> (Tensor, LayerCache) {
        let (b, f) = (input.shape().dim(0), input.shape().dim(1));
        assert!(b > 0, "batch norm needs a nonempty batch");
        let x = input.as_slice();
        let mut mean = vec![0.0f32; f];
        for r in 0..b {
            for (j, m) in mean.iter_mut().enumerate() {
                *m += x[r * f + j];
            }
        }
        for m in &mut mean {
            *m /= b as f32;
        }
        let mut var = vec![0.0f32; f];
        for r in 0..b {
            for (j, v) in var.iter_mut().enumerate() {
                let d = x[r * f + j] - mean[j];
                *v += d * d;
            }
        }
        for v in &mut var {
            *v /= b as f32;
        }
        let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();

        let gamma = self.gamma.as_slice();
        let beta = self.beta.as_slice();
        let mut x_hat = vec![0.0f32; b * f];
        let mut out = vec![0.0f32; b * f];
        for r in 0..b {
            for j in 0..f {
                let h = (x[r * f + j] - mean[j]) * inv_std[j];
                x_hat[r * f + j] = h;
                out[r * f + j] = gamma[j] * h + beta[j];
            }
        }
        (
            Tensor::from_vec(out, input.shape().clone()),
            LayerCache {
                tensors: vec![
                    Tensor::from_vec(x_hat, input.shape().clone()),
                    Tensor::from_vec(inv_std, [1, f]),
                ],
                children: Vec::new(),
            },
        )
    }

    fn backward(
        &self,
        cache: &LayerCache,
        grad_output: &Tensor,
        param_grads: &mut [GradSlot],
        need_input: bool,
    ) -> Option<Tensor> {
        let [grad_gamma, grad_beta] = param_grads else {
            panic!("a batch-norm layer has two parameters");
        };
        let x_hat = &cache.tensors[0];
        let inv_std = cache.tensors[1].as_slice();
        let (b, f) = (grad_output.shape().dim(0), grad_output.shape().dim(1));
        let dy = grad_output.as_slice();
        let xh = x_hat.as_slice();
        let gamma = self.gamma.as_slice();

        // Per-feature reductions: dγ = Σ dy·x̂ and dβ = Σ dy.
        let mut sum_dy_xhat = vec![0.0f32; f];
        let mut sum_dy = vec![0.0f32; f];
        for r in 0..b {
            for j in 0..f {
                sum_dy[j] += dy[r * f + j];
                sum_dy_xhat[j] += dy[r * f + j] * xh[r * f + j];
            }
        }
        grad_gamma.put(&sum_dy_xhat);
        grad_beta.put(&sum_dy);
        if !need_input {
            return None;
        }

        // dx = γ/σ · (dy − mean(dy) − x̂ · mean(dy·x̂))
        let inv_b = 1.0 / b as f32;
        let mut dx = vec![0.0f32; b * f];
        for r in 0..b {
            for j in 0..f {
                let term =
                    dy[r * f + j] - sum_dy[j] * inv_b - xh[r * f + j] * sum_dy_xhat[j] * inv_b;
                dx[r * f + j] = gamma[j] * inv_std[j] * term;
            }
        }
        Some(Tensor::from_vec(dx, grad_output.shape().clone()))
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.gamma, &self.beta]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.gamma, &mut self.beta]
    }

    fn param_names(&self) -> Vec<String> {
        vec![
            format!("{}/gamma", self.name),
            format!("{}/beta", self.name),
        ]
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        assert_eq!(input_dim, self.features(), "batch norm feature mismatch");
        input_dim
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::gradcheck::check_layer;
    use threelc_tensor::Initializer;

    #[test]
    fn output_is_normalized() {
        let bn = BatchNormLayer::new("bn", 2);
        let x = Tensor::from_vec(vec![1.0, 10.0, 3.0, 20.0, 5.0, 30.0], [3, 2]);
        let (y, _) = bn.forward(&x);
        // Each feature column has mean ≈ 0 and unit variance.
        for j in 0..2 {
            let col: Vec<f32> = (0..3).map(|r| y.as_slice()[r * 2 + j]).collect();
            let mean: f32 = col.iter().sum::<f32>() / 3.0;
            let var: f32 = col.iter().map(|v| (v - mean).powi(2)).sum::<f32>() / 3.0;
            assert!(mean.abs() < 1e-5, "feature {j} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "feature {j} var {var}");
        }
    }

    #[test]
    fn gamma_beta_scale_and_shift() {
        let mut bn = BatchNormLayer::new("bn", 1);
        bn.params_mut()[0].as_mut_slice()[0] = 2.0;
        bn.params_mut()[1].as_mut_slice()[0] = 5.0;
        let x = Tensor::from_vec(vec![-1.0, 1.0], [2, 1]);
        let (y, _) = bn.forward(&x);
        // x̂ = ±1 (var = 1) → y = ±2 + 5.
        assert!((y.as_slice()[0] - 3.0).abs() < 1e-3);
        assert!((y.as_slice()[1] - 7.0).abs() < 1e-3);
    }

    #[test]
    fn scale_invariance() {
        // Scaling the input must not change the output (the property that
        // makes networks robust to weight-scale blowup).
        let bn = BatchNormLayer::new("bn", 3);
        let mut rng = threelc_tensor::rng(0);
        let x = Initializer::Normal {
            mean: 1.0,
            std_dev: 2.0,
        }
        .init(&mut rng, [8, 3]);
        let (y1, _) = bn.forward(&x);
        let (y2, _) = bn.forward(&x.scale(100.0));
        assert!(y1.approx_eq(&y2, 1e-2), "batch norm must absorb scale");
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = threelc_tensor::rng(1);
        let mut bn = BatchNormLayer::new("bn", 3);
        // Non-trivial gamma/beta.
        bn.params_mut()[0]
            .as_mut_slice()
            .copy_from_slice(&[1.5, 0.5, 2.0]);
        bn.params_mut()[1]
            .as_mut_slice()
            .copy_from_slice(&[0.1, -0.2, 0.3]);
        let x = Initializer::Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
        .init(&mut rng, [5, 3]);
        check_layer(&mut bn, &x, 5e-2);
    }

    #[test]
    fn param_bookkeeping() {
        let bn = BatchNormLayer::new("blk/bn1", 7);
        assert_eq!(bn.param_names(), vec!["blk/bn1/gamma", "blk/bn1/beta"]);
        assert_eq!(bn.params().len(), 2);
        assert_eq!(bn.output_dim(7), 7);
        assert_eq!(bn.features(), 7);
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_batch_panics() {
        BatchNormLayer::new("bn", 2).forward(&Tensor::zeros([0, 2]));
    }
}
