//! Rectified linear unit activation.

use super::{GradSlot, Layer, LayerCache};
use threelc_tensor::Tensor;

/// Elementwise `max(0, x)` activation. Parameterless.
#[derive(Debug, Clone, Default)]
pub struct ReluLayer;

impl ReluLayer {
    /// Creates a ReLU layer.
    pub fn new() -> Self {
        ReluLayer
    }
}

impl Layer for ReluLayer {
    fn kind(&self) -> &'static str {
        "relu"
    }

    fn forward(&self, input: &Tensor) -> (Tensor, LayerCache) {
        let out = input.map(|x| x.max(0.0));
        (
            out,
            LayerCache {
                tensors: vec![input.clone()],
                children: Vec::new(),
            },
        )
    }

    fn backward(
        &self,
        cache: &LayerCache,
        grad_output: &Tensor,
        _param_grads: &mut [GradSlot],
        need_input: bool,
    ) -> Option<Tensor> {
        need_input.then(|| {
            cache.tensors[0]
                .zip_with(grad_output, |x, g| if x > 0.0 { g } else { 0.0 })
                .expect("cache input matches grad shape")
        })
    }

    fn params(&self) -> Vec<&Tensor> {
        Vec::new()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        Vec::new()
    }

    fn param_names(&self) -> Vec<String> {
        Vec::new()
    }

    fn output_dim(&self, input_dim: usize) -> usize {
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

    #[test]
    fn forward_clamps_negatives() {
        let (y, _) =
            ReluLayer::new().forward(&Tensor::from_vec(vec![-1.0, 0.0, 2.0, -0.5], [2, 2]));
        assert_eq!(y.as_slice(), &[0.0, 0.0, 2.0, 0.0]);
    }

    #[test]
    fn backward_masks_gradient() {
        let relu = ReluLayer::new();
        let x = Tensor::from_vec(vec![-1.0, 3.0], [1, 2]);
        let (_, cache) = relu.forward(&x);
        let grad = Tensor::from_vec(vec![5.0, 7.0], [1, 2]);
        let grad_input = relu.backward(&cache, &grad, &mut [], true);
        assert_eq!(grad_input.unwrap().as_slice(), &[0.0, 7.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        // Keep inputs away from the kink at 0 for a clean check.
        let x = Tensor::from_vec(vec![-1.0, 2.0, -0.6, 0.7, 1.4, -2.0], [2, 3]);
        check_layer(&mut ReluLayer::new(), &x, 1e-2);
    }

    #[test]
    fn no_params() {
        let relu = ReluLayer::new();
        assert!(relu.params().is_empty());
        assert!(relu.param_names().is_empty());
        assert_eq!(relu.output_dim(17), 17);
    }
}
