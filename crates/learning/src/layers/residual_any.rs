//! The residual (identity-mapping) wrapper around a layer path.

use super::{backward_stack, forward_stack, GradSlot, Layer, LayerCache};
use threelc_tensor::Tensor;

/// Wraps any stack of layers in an identity shortcut: `y = x + path(x)`.
///
/// The paper deliberately evaluates on ResNet because identity mappings are
/// the common building block of modern high-accuracy architectures and
/// their small parameter-to-computation ratio stresses communication
/// reduction (§5.2). This wrapper carries the same structural property
/// into the substitute workloads — the gradient flows both through the
/// shortcut and through the path — over a dense pre-activation path in
/// [`residual_mlp`](crate::models::residual_mlp) and a convolutional one in
/// [`conv_resnet`](crate::models::conv_resnet). The path must preserve
/// dimensionality.
pub struct Residual {
    path: Vec<Box<dyn Layer>>,
}

impl Residual {
    /// Wraps `path` in a shortcut.
    ///
    /// # Panics
    ///
    /// Dimension preservation is validated lazily by
    /// [`Layer::output_dim`] when the network is assembled.
    pub fn new(path: Vec<Box<dyn Layer>>) -> Self {
        Residual { path }
    }
}

impl Clone for Residual {
    fn clone(&self) -> Self {
        Residual {
            path: self.path.clone(),
        }
    }
}

impl std::fmt::Debug for Residual {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Residual")
            .field(
                "path",
                &self.path.iter().map(|l| l.kind()).collect::<Vec<_>>(),
            )
            .finish()
    }
}

impl Layer for Residual {
    fn kind(&self) -> &'static str {
        "residual"
    }

    fn forward(&self, input: &Tensor) -> (Tensor, LayerCache) {
        let (h, children) = forward_stack(&self.path, input);
        let out = input.add(&h).expect("residual path preserves shape");
        (
            out,
            LayerCache {
                tensors: Vec::new(),
                children,
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
        let grad = backward_stack(
            &self.path,
            &cache.children,
            grad_output,
            param_grads,
            need_input,
        );
        // Shortcut: the identity contributes grad_output directly.
        need_input.then(|| {
            grad.as_ref()
                .unwrap_or(grad_output)
                .add(grad_output)
                .expect("shapes match")
        })
    }

    fn params(&self) -> Vec<&Tensor> {
        self.path.iter().flat_map(|l| l.params()).collect()
    }

    fn params_mut(&mut self) -> Vec<&mut Tensor> {
        self.path.iter_mut().flat_map(|l| l.params_mut()).collect()
    }

    fn param_names(&self) -> Vec<String> {
        self.path.iter().flat_map(|l| l.param_names()).collect()
    }

    fn output_dim(&self, input_dim: usize) -> usize {
        let out = self.path.iter().fold(input_dim, |d, l| l.output_dim(d));
        assert_eq!(out, input_dim, "residual path must preserve dimension");
        input_dim
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{
        gradcheck::check_layer, BatchNormLayer, Conv2dLayer, DenseLayer, ReluLayer,
    };
    use threelc_tensor::Initializer;

    fn block(seed: u64) -> Residual {
        let mut rng = threelc_tensor::rng(seed);
        Residual::new(vec![
            Box::new(ReluLayer::new()),
            Box::new(DenseLayer::new("p/fc", 3, 3, &mut rng)),
        ])
    }

    #[test]
    fn identity_with_zero_path() {
        let mut r = block(0);
        for p in r.params_mut() {
            p.map_inplace(|_| 0.0);
        }
        let x = Tensor::from_vec(vec![1.0, -2.0, 3.0], [1, 3]);
        let (y, _) = r.forward(&x);
        assert_eq!(y, x);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut r = block(1);
        let mut rng = threelc_tensor::rng(2);
        let x = Initializer::Normal {
            mean: 0.3,
            std_dev: 1.0,
        }
        .init(&mut rng, [2, 3]);
        check_layer(&mut r, &x, 3e-2);

        // And over a convolutional path, as `conv_resnet` wraps one.
        let mut r = Residual::new(vec![
            Box::new(BatchNormLayer::new("p/bn", 18)),
            Box::new(ReluLayer::new()),
            Box::new(Conv2dLayer::new("p/conv", 2, 2, 3, 3, 3, &mut rng)),
        ]);
        let x = Initializer::Normal {
            mean: 0.3,
            std_dev: 1.0,
        }
        .init(&mut rng, [3, 18]);
        check_layer(&mut r, &x, 3e-2);
    }

    #[test]
    #[should_panic(expected = "preserve dimension")]
    fn dimension_changing_path_rejected() {
        let mut rng = threelc_tensor::rng(0);
        let r = Residual::new(vec![Box::new(DenseLayer::new("p", 3, 4, &mut rng))]);
        r.output_dim(3);
    }

    #[test]
    fn param_passthrough() {
        let r = block(3);
        assert_eq!(r.params().len(), 2);
        assert_eq!(r.param_names(), vec!["p/fc/weight", "p/fc/bias"]);
        assert!(format!("{r:?}").contains("dense"));
    }
}
