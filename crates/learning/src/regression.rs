//! A synthetic regression workload.
//!
//! 3LC is "a point-to-point tensor compression scheme" that works for any
//! state-change tensors, not just image-classifier gradients (§3, §6 —
//! unlike sufficient-factor or momentum-modified schemes it does not
//! assume layer types or loss functions). This module provides a second,
//! structurally different task — nonlinear scalar regression under mean
//! squared error — used by integration tests to demonstrate that
//! generality end-to-end.

use crate::network::Network;
use rand::Rng as _;
use threelc_tensor::init::sample_standard_normal;
use threelc_tensor::{Rng, Tensor};

/// A regression minibatch: inputs `[batch, features]` and scalar targets
/// `[batch, 1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct RegressionBatch {
    /// Input features.
    pub inputs: Tensor,
    /// Regression targets, one per row.
    pub targets: Tensor,
}

/// Mean squared error loss: `mean((pred − target)²)` with its gradient
/// with respect to the predictions.
///
/// # Panics
///
/// Panics if shapes differ or the batch is empty.
///
/// ```
/// use threelc_learning::regression::mse_loss;
/// use threelc_tensor::Tensor;
/// let pred = Tensor::from_vec(vec![1.0, 2.0], &[2, 1]);
/// let target = Tensor::from_vec(vec![1.0, 0.0], &[2, 1]);
/// let (loss, _grad) = mse_loss(&pred, &target);
/// assert_eq!(loss, 2.0); // (0² + 2²) / 2
/// ```
pub fn mse_loss(predictions: &Tensor, targets: &Tensor) -> (f32, Tensor) {
    assert_eq!(
        predictions.shape(),
        targets.shape(),
        "prediction/target shape mismatch"
    );
    let n = predictions.len();
    assert!(n > 0, "cannot score an empty batch");
    let mut loss = 0.0f64;
    let mut grad = Vec::with_capacity(n);
    for (&p, &t) in predictions.iter().zip(targets.iter()) {
        let d = p - t;
        loss += (d * d) as f64;
        grad.push(2.0 * d / n as f32);
    }
    (
        (loss / n as f64) as f32,
        Tensor::from_vec(grad, predictions.shape().clone()),
    )
}

/// A synthetic nonlinear regression dataset:
/// `y = sin(w₁·x) + 0.5·(w₂·x)² + ε`.
#[derive(Debug, Clone)]
pub struct SyntheticRegression {
    features: usize,
    w1: Vec<f32>,
    w2: Vec<f32>,
    noise: f32,
}

impl SyntheticRegression {
    /// Creates a generator over `features`-dimensional inputs with
    /// Gaussian label noise of the given standard deviation.
    ///
    /// # Panics
    ///
    /// Panics if `features == 0`.
    pub fn new(features: usize, noise: f32, seed: u64) -> Self {
        assert!(features > 0, "need at least one feature");
        let mut rng = threelc_tensor::rng(seed);
        let scale = 1.0 / (features as f32).sqrt();
        let w1 = (0..features)
            .map(|_| scale * sample_standard_normal(&mut rng))
            .collect();
        let w2 = (0..features)
            .map(|_| scale * sample_standard_normal(&mut rng))
            .collect();
        SyntheticRegression {
            features,
            w1,
            w2,
            noise,
        }
    }

    /// Input dimensionality.
    pub fn features(&self) -> usize {
        self.features
    }

    /// Samples a batch.
    ///
    /// # Panics
    ///
    /// Panics if `batch_size == 0`.
    pub fn sample(&self, rng: &mut Rng, batch_size: usize) -> RegressionBatch {
        assert!(batch_size > 0, "batch size must be positive");
        let mut inputs = Vec::with_capacity(batch_size * self.features);
        let mut targets = Vec::with_capacity(batch_size);
        for _ in 0..batch_size {
            let x: Vec<f32> = (0..self.features)
                .map(|_| sample_standard_normal(rng))
                .collect();
            let a: f32 = x.iter().zip(&self.w1).map(|(xi, wi)| xi * wi).sum();
            let b: f32 = x.iter().zip(&self.w2).map(|(xi, wi)| xi * wi).sum();
            let y = a.sin() + 0.5 * b * b + self.noise * sample_standard_normal(rng);
            let _ = rng.gen::<u8>(); // decorrelate successive rows cheaply
            inputs.extend_from_slice(&x);
            targets.push(y);
        }
        RegressionBatch {
            inputs: Tensor::from_vec(inputs, [batch_size, self.features]),
            targets: Tensor::from_vec(targets, [batch_size, 1]),
        }
    }
}

/// Computes MSE loss and parameter gradients of a network on a regression
/// batch (the regression analog of
/// [`Network::loss_and_gradients`]).
pub fn regression_loss_and_gradients(net: &Network, batch: &RegressionBatch) -> (f32, Vec<Tensor>) {
    // Manual forward with caches (mirrors Network::loss_and_gradients but
    // swaps the loss function).
    net.loss_and_gradients_with(&batch.inputs, |logits| mse_loss(logits, &batch.targets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{DenseLayer, ReluLayer};
    use crate::optim::SgdMomentum;

    #[test]
    fn mse_known_values() {
        let p = Tensor::from_vec(vec![3.0], [1, 1]);
        let t = Tensor::from_vec(vec![1.0], [1, 1]);
        let (loss, grad) = mse_loss(&p, &t);
        assert_eq!(loss, 4.0);
        assert_eq!(grad.as_slice(), &[4.0]); // 2·(3−1)/1
    }

    #[test]
    fn mse_gradient_matches_finite_differences() {
        let p = Tensor::from_vec(vec![0.3, -0.7, 1.2], [3, 1]);
        let t = Tensor::from_vec(vec![0.0, 0.5, 1.0], [3, 1]);
        let (_, grad) = mse_loss(&p, &t);
        let eps = 1e-3;
        for i in 0..3 {
            let mut plus = p.clone();
            plus.as_mut_slice()[i] += eps;
            let mut minus = p.clone();
            minus.as_mut_slice()[i] -= eps;
            let num = (mse_loss(&plus, &t).0 - mse_loss(&minus, &t).0) / (2.0 * eps);
            assert!((num - grad.as_slice()[i]).abs() < 1e-3);
        }
    }

    #[test]
    fn dataset_is_deterministic_and_shaped() {
        let d = SyntheticRegression::new(8, 0.05, 3);
        let mut r1 = threelc_tensor::rng(0);
        let mut r2 = threelc_tensor::rng(0);
        let a = d.sample(&mut r1, 16);
        let b = d.sample(&mut r2, 16);
        assert_eq!(a, b);
        assert_eq!(a.inputs.shape().dims(), &[16, 8]);
        assert_eq!(a.targets.shape().dims(), &[16, 1]);
    }

    #[test]
    fn network_learns_the_function() {
        let data = SyntheticRegression::new(6, 0.02, 7);
        let mut rng = threelc_tensor::rng(1);
        let mut init_rng = threelc_tensor::rng(2);
        let mut net = Network::new(
            6,
            vec![
                Box::new(DenseLayer::new("fc0", 6, 32, &mut init_rng)),
                Box::new(ReluLayer::new()),
                Box::new(DenseLayer::new("fc1", 32, 16, &mut init_rng)),
                Box::new(ReluLayer::new()),
                Box::new(DenseLayer::new_xavier("head", 16, 1, &mut init_rng)),
            ],
        );
        let mut opt = SgdMomentum::new(0.9, 1e-4);
        let eval = |net: &Network, rng: &mut threelc_tensor::Rng| {
            let batch = data.sample(rng, 256);
            mse_loss(&net.forward(&batch.inputs), &batch.targets).0
        };
        let before = eval(&net, &mut rng);
        for _ in 0..400 {
            let batch = data.sample(&mut rng, 32);
            let (_, grads) = regression_loss_and_gradients(&net, &batch);
            opt.apply(&mut net, &grads, 0.01);
        }
        let after = eval(&net, &mut rng);
        assert!(
            after < before * 0.5,
            "regression loss should halve: {before} → {after}"
        );
    }

    #[test]
    #[should_panic(expected = "shape mismatch")]
    fn mse_shape_mismatch_panics() {
        mse_loss(&Tensor::zeros([2, 1]), &Tensor::zeros([3, 1]));
    }
}
