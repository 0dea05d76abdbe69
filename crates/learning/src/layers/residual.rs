//! Residual (identity-mapping) blocks.

use super::{split_slots, BatchNormLayer, DenseLayer, Layer, LayerBackward, LayerCache, ReluLayer};
use threelc_tensor::{Rng, Tensor};

/// A pre-activation residual block:
/// `y = x + W₂·relu(bn₂(W₁·relu(bn₁(x))))`.
///
/// The paper deliberately evaluates on ResNet because identity mappings are
/// the common building block of modern high-accuracy architectures and
/// their small parameter-to-computation ratio stresses communication
/// reduction (§5.2). This block carries the same structural property into
/// the substitute workload: the gradient flows both through the shortcut
/// and the transform path.
#[derive(Debug, Clone)]
pub struct ResidualBlock {
    bn1: BatchNormLayer,
    relu1: ReluLayer,
    dense1: DenseLayer,
    bn2: BatchNormLayer,
    relu2: ReluLayer,
    dense2: DenseLayer,
}

impl ResidualBlock {
    /// Creates a residual block over `dim` features with a `hidden`-wide
    /// transform path.
    pub fn new(name: &str, dim: usize, hidden: usize, rng: &mut Rng) -> Self {
        ResidualBlock {
            bn1: BatchNormLayer::new(format!("{name}/bn1"), dim),
            relu1: ReluLayer::new(),
            dense1: DenseLayer::new(format!("{name}/fc1"), dim, hidden, rng),
            bn2: BatchNormLayer::new(format!("{name}/bn2"), hidden),
            relu2: ReluLayer::new(),
            dense2: DenseLayer::new(format!("{name}/fc2"), hidden, dim, rng),
        }
    }

    fn path(&self) -> [&dyn Layer; 6] {
        [
            &self.bn1,
            &self.relu1,
            &self.dense1,
            &self.bn2,
            &self.relu2,
            &self.dense2,
        ]
    }
}

impl Layer for ResidualBlock {
    fn kind(&self) -> &'static str {
        "residual"
    }

    fn forward(&self, input: &Tensor) -> (Tensor, LayerCache) {
        let mut children = Vec::with_capacity(6);
        let mut h = None;
        for layer in self.path() {
            let (out, cache) = layer.forward(h.as_ref().unwrap_or(input));
            children.push(cache);
            h = Some(out);
        }
        let h = h.expect("the path has six layers");
        let out = input.add(&h).expect("residual path preserves shape");
        (
            out,
            LayerCache {
                tensors: Vec::new(),
                children,
            },
        )
    }

    fn backward(&self, cache: &LayerCache, grad_output: &Tensor) -> LayerBackward {
        let mut param_grads: Vec<Tensor> = self
            .params()
            .iter()
            .map(|p| Tensor::zeros(p.shape().clone()))
            .collect();
        let grad_input = self.backward_into(cache, grad_output, &mut param_grads);
        LayerBackward {
            grad_input,
            param_grads,
        }
    }

    fn backward_into(
        &self,
        cache: &LayerCache,
        grad_output: &Tensor,
        param_grads: &mut [Tensor],
    ) -> Tensor {
        let path = self.path();
        let slots = split_slots(path, param_grads);
        // Backprop through the transform path in reverse.
        let mut grad = None;
        for ((layer, cache), slots) in path.iter().zip(&cache.children).zip(slots).rev() {
            grad = Some(layer.backward_into(cache, grad.as_ref().unwrap_or(grad_output), slots));
        }
        // Shortcut: the identity contributes grad_output directly.
        let grad = grad.expect("the path has six layers");
        grad.add(grad_output).expect("shapes match")
    }

    fn params(&self) -> Vec<&Tensor> {
        let mut p = self.bn1.params();
        p.extend(self.dense1.params());
        p.extend(self.bn2.params());
        p.extend(self.dense2.params());
        p
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        let mut p = self.bn1.params_mut();
        p.extend(self.dense1.params_mut());
        p.extend(self.bn2.params_mut());
        p.extend(self.dense2.params_mut());
        p
    }

    fn param_names(&self) -> Vec<String> {
        let mut n = self.bn1.param_names();
        n.extend(self.dense1.param_names());
        n.extend(self.bn2.param_names());
        n.extend(self.dense2.param_names());
        n
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        assert_eq!(
            input_dim,
            self.dense1.in_dim(),
            "residual block input dim mismatch"
        );
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
    fn identity_preserved_with_zero_weights() {
        let mut rng = threelc_tensor::rng(0);
        let mut block = ResidualBlock::new("r", 3, 5, &mut rng);
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
        let mut block = ResidualBlock::new("r", 3, 4, &mut rng);
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
        let mut block = ResidualBlock::new("r", 2, 2, &mut rng);
        for p in block.params_mut() {
            p.map_inplace(|_| 0.0);
        }
        let x = Tensor::from_vec(vec![1.0, 1.0], [1, 2]);
        let (_, cache) = block.forward(&x);
        let g = Tensor::from_vec(vec![0.3, -0.7], [1, 2]);
        let back = block.backward(&cache, &g);
        assert_eq!(back.grad_input, g);
    }

    #[test]
    fn param_bookkeeping() {
        let block = ResidualBlock::new("blk0", 4, 8, &mut threelc_tensor::rng(0));
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
