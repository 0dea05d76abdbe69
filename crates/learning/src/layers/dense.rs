//! Fully-connected (dense) layers.

use super::{GradSlot, Layer, LayerCache};
use threelc_tensor::{Initializer, Rng, Tensor};

/// A fully-connected layer: `y = x · W + b`.
///
/// `W` has shape `[in, out]` and `b` shape `[1, out]`. The weight tensor is
/// the kind of large 2-D state-change tensor the paper's compression
/// contexts operate on; the bias plays the role of the "small layers"
/// (batch normalization in the paper) that 3LC's evaluation excludes from
/// compression.
#[derive(Debug, Clone)]
pub struct DenseLayer {
    name: String,
    weight: Tensor,
    bias: Tensor,
}

impl DenseLayer {
    /// Creates a dense layer with He-normal weights and zero bias.
    pub fn new(name: impl Into<String>, in_dim: usize, out_dim: usize, rng: &mut Rng) -> Self {
        DenseLayer {
            name: name.into(),
            weight: Initializer::HeNormal { fan_in: in_dim }.init(rng, [in_dim, out_dim]),
            bias: Tensor::zeros([1, out_dim]),
        }
    }

    /// Creates a dense layer with Xavier-uniform weights (for the final
    /// logit layer, which is not followed by a ReLU).
    pub fn new_xavier(
        name: impl Into<String>,
        in_dim: usize,
        out_dim: usize,
        rng: &mut Rng,
    ) -> Self {
        DenseLayer {
            name: name.into(),
            weight: Initializer::XavierUniform {
                fan_in: in_dim,
                fan_out: out_dim,
            }
            .init(rng, [in_dim, out_dim]),
            bias: Tensor::zeros([1, out_dim]),
        }
    }

    /// Input feature count.
    pub fn in_dim(&self) -> usize {
        self.weight.shape().dim(0)
    }

    /// Output feature count.
    pub fn out_dim(&self) -> usize {
        self.weight.shape().dim(1)
    }
}

impl Layer for DenseLayer {
    fn kind(&self) -> &'static str {
        "dense"
    }

    fn forward(&self, input: &Tensor) -> (Tensor, LayerCache) {
        let mut out = input.matmul(&self.weight).expect("input dims match weight");
        let (batch, out_dim) = (out.shape().dim(0), out.shape().dim(1));
        let bias = self.bias.as_slice();
        let data = out.as_mut_slice();
        for r in 0..batch {
            for c in 0..out_dim {
                data[r * out_dim + c] += bias[c];
            }
        }
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
        param_grads: &mut [GradSlot],
        need_input: bool,
    ) -> Option<Tensor> {
        let [grad_weight, grad_bias] = param_grads else {
            panic!("a dense layer has two parameters");
        };
        let input = &cache.tensors[0];
        // dW = Xᵀ · dY ; db = column-sum(dY).
        grad_weight.put_matmul_tn(input, grad_output);
        let (batch, out_dim) = (grad_output.shape().dim(0), grad_output.shape().dim(1));
        let mut sums = vec![0.0f32; out_dim];
        let g = grad_output.as_slice();
        for r in 0..batch {
            for c in 0..out_dim {
                sums[c] += g[r * out_dim + c];
            }
        }
        grad_bias.put(&sums);
        // dX = dY · Wᵀ
        need_input.then(|| {
            grad_output
                .matmul_nt(&self.weight)
                .expect("grad dims match")
        })
    }

    fn params(&self) -> Vec<&Tensor> {
        vec![&self.weight, &self.bias]
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn param_names(&self) -> Vec<String> {
        vec![
            format!("{}/weight", self.name),
            format!("{}/bias", self.name),
        ]
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        assert_eq!(input_dim, self.in_dim(), "dense layer input dim mismatch");
        self.out_dim()
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
    fn forward_known_values() {
        let mut layer = DenseLayer::new("d", 2, 2, &mut threelc_tensor::rng(0));
        // Overwrite with known weights.
        layer.params_mut()[0]
            .as_mut_slice()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]);
        layer.params_mut()[1]
            .as_mut_slice()
            .copy_from_slice(&[0.5, -0.5]);
        let x = Tensor::from_vec(vec![1.0, 1.0], [1, 2]);
        let (y, _) = layer.forward(&x);
        // [1,1]·[[1,2],[3,4]] + [0.5,-0.5] = [4.5, 5.5]
        assert_eq!(y.as_slice(), &[4.5, 5.5]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = threelc_tensor::rng(1);
        let mut layer = DenseLayer::new("d", 3, 4, &mut rng);
        let x = Initializer::Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
        .init(&mut rng, [2, 3]);
        check_layer(&mut layer, &x, 2e-2);
    }

    #[test]
    fn param_names_and_shapes() {
        let layer = DenseLayer::new("fc1", 8, 4, &mut threelc_tensor::rng(0));
        assert_eq!(layer.param_names(), vec!["fc1/weight", "fc1/bias"]);
        assert_eq!(layer.params()[0].shape().dims(), &[8, 4]);
        assert_eq!(layer.params()[1].shape().dims(), &[1, 4]);
        assert_eq!(layer.output_dim(8), 4);
    }

    #[test]
    fn xavier_constructor_bounds() {
        let layer = DenseLayer::new_xavier("out", 10, 5, &mut threelc_tensor::rng(2));
        let a = (6.0f32 / 15.0).sqrt();
        assert!(layer.params()[0].iter().all(|&x| x.abs() < a));
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn output_dim_validates_input() {
        DenseLayer::new("d", 3, 4, &mut threelc_tensor::rng(0)).output_dim(5);
    }
}
