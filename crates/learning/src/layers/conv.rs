//! 2-D convolution over flattened `[batch, C·H·W]` activations.

use super::{GradSlot, Layer, LayerCache};
use threelc_tensor::{Initializer, Rng, Tensor};

/// A same-padded 3×3-style 2-D convolution with stride 1.
///
/// Activations stay rank-2 (`[batch, channels·height·width]` row-major by
/// channel, then row, then column) so convolution composes with the other
/// layers; the layer carries its own spatial metadata. The weight tensor
/// `[C·K·K, O]` is the large state-change tensor the compression contexts
/// see — exactly the shape of the paper's convolutional workloads, where
/// most parameters sit in many medium-sized conv kernels.
///
/// Forward/backward use im2col: patches are gathered into a
/// `[H·W, C·K·K]` matrix per example so both passes reduce to matrix
/// multiplies.
#[derive(Debug, Clone)]
pub struct Conv2dLayer {
    name: String,
    in_channels: usize,
    out_channels: usize,
    height: usize,
    width: usize,
    kernel: usize,
    weight: Tensor,
    bias: Tensor,
}

impl Conv2dLayer {
    /// Creates a convolution layer with He-normal kernels and zero bias.
    ///
    /// # Panics
    ///
    /// Panics if `kernel` is even (same-padding needs an odd kernel) or
    /// any dimension is zero.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        height: usize,
        width: usize,
        kernel: usize,
        rng: &mut Rng,
    ) -> Self {
        assert!(kernel % 2 == 1, "same padding requires an odd kernel");
        assert!(
            in_channels * out_channels * height * width > 0,
            "dimensions must be positive"
        );
        let fan_in = in_channels * kernel * kernel;
        Conv2dLayer {
            name: name.into(),
            in_channels,
            out_channels,
            height,
            width,
            kernel,
            weight: Initializer::HeNormal { fan_in }.init(rng, [fan_in, out_channels]),
            bias: Tensor::zeros([1, out_channels]),
        }
    }

    /// Gathers input patches into a `[H·W, C·K·K]` matrix (im2col) for one
    /// example, padding out-of-range pixels with zero.
    fn im2col(&self, x: &[f32]) -> Tensor {
        let (c, h, w, k) = (self.in_channels, self.height, self.width, self.kernel);
        let half = (k / 2) as isize;
        let mut col = vec![0.0f32; h * w * c * k * k];
        let row_len = c * k * k;
        for y in 0..h as isize {
            for xx in 0..w as isize {
                let out_base = (y as usize * w + xx as usize) * row_len;
                for ci in 0..c {
                    for ky in -half..=half {
                        for kx in -half..=half {
                            let sy = y + ky;
                            let sx = xx + kx;
                            let col_idx = out_base
                                + ci * k * k
                                + ((ky + half) as usize) * k
                                + (kx + half) as usize;
                            if sy >= 0 && sy < h as isize && sx >= 0 && sx < w as isize {
                                col[col_idx] = x[ci * h * w + sy as usize * w + sx as usize];
                            }
                        }
                    }
                }
            }
        }
        Tensor::from_vec(col, [h * w, row_len])
    }

    /// Scatters a `[H·W, C·K·K]` patch-gradient matrix back onto the input
    /// image (col2im), accumulating overlaps.
    fn col2im(&self, col: &Tensor) -> Vec<f32> {
        let (c, h, w, k) = (self.in_channels, self.height, self.width, self.kernel);
        let half = (k / 2) as isize;
        let data = col.as_slice();
        let row_len = c * k * k;
        let mut out = vec![0.0f32; c * h * w];
        for y in 0..h as isize {
            for xx in 0..w as isize {
                let in_base = (y as usize * w + xx as usize) * row_len;
                for ci in 0..c {
                    for ky in -half..=half {
                        for kx in -half..=half {
                            let sy = y + ky;
                            let sx = xx + kx;
                            if sy >= 0 && sy < h as isize && sx >= 0 && sx < w as isize {
                                let col_idx = in_base
                                    + ci * k * k
                                    + ((ky + half) as usize) * k
                                    + (kx + half) as usize;
                                out[ci * h * w + sy as usize * w + sx as usize] += data[col_idx];
                            }
                        }
                    }
                }
            }
        }
        out
    }

    fn in_dim(&self) -> usize {
        self.in_channels * self.height * self.width
    }

    fn out_dim_len(&self) -> usize {
        self.out_channels * self.height * self.width
    }
}

impl Layer for Conv2dLayer {
    fn kind(&self) -> &'static str {
        "conv2d"
    }

    fn forward(&self, input: &Tensor) -> (Tensor, LayerCache) {
        let batch = input.shape().dim(0);
        assert_eq!(input.shape().dim(1), self.in_dim(), "conv input dim");
        let (h, w, o) = (self.height, self.width, self.out_channels);
        let mut out = vec![0.0f32; batch * self.out_dim_len()];
        let mut cols = Vec::with_capacity(batch);
        let bias = self.bias.as_slice();
        for b in 0..batch {
            let x = &input.as_slice()[b * self.in_dim()..(b + 1) * self.in_dim()];
            let col = self.im2col(x);
            // [H·W, CKK] × [CKK, O] = [H·W, O]
            let prod = col.matmul(&self.weight).expect("im2col dims match");
            let p = prod.as_slice();
            let out_b = &mut out[b * self.out_dim_len()..(b + 1) * self.out_dim_len()];
            for pix in 0..h * w {
                for oc in 0..o {
                    out_b[oc * h * w + pix] = p[pix * o + oc] + bias[oc];
                }
            }
            cols.push(col);
        }
        let mut cache_tensors = vec![];
        cache_tensors.extend(cols);
        (
            Tensor::from_vec(out, [batch, self.out_dim_len()]),
            LayerCache {
                tensors: cache_tensors,
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
        let [weight_slot, bias_slot] = param_grads else {
            panic!("a conv2d layer has two parameters");
        };
        let batch = grad_output.shape().dim(0);
        let (h, w, o) = (self.height, self.width, self.out_channels);
        let row_len = self.in_channels * self.kernel * self.kernel;
        // Both gradients are sums over the batch, formed from +0.0 and
        // landed once: dW in place in a write slot, and in a scratch that
        // is added once complete into an add slot.
        let mut scratch = None;
        let grad_weight = match weight_slot {
            GradSlot::Write(t) => {
                t.as_mut_slice().fill(0.0);
                t
            }
            GradSlot::Add { .. } => scratch.insert(Tensor::zeros(self.weight.shape().clone())),
        };
        let mut grad_bias = vec![0.0f32; o];
        // The input gradient costs a GEMM and a col2im per example.
        let mut grad_input = need_input.then(|| vec![0.0f32; batch * self.in_dim()]);
        for b in 0..batch {
            let col = &cache.tensors[b];
            let go = &grad_output.as_slice()[b * self.out_dim_len()..(b + 1) * self.out_dim_len()];
            // Reassemble dY as [H·W, O].
            let mut dy = vec![0.0f32; h * w * o];
            for pix in 0..h * w {
                for oc in 0..o {
                    let g = go[oc * h * w + pix];
                    dy[pix * o + oc] = g;
                    grad_bias[oc] += g;
                }
            }
            let dy = Tensor::from_vec(dy, [h * w, o]);
            // dW += colᵀ · dY, each product element added once, unstored.
            col.matmul_tn_add_into(&dy, grad_weight)
                .expect("dims match and dW has the weight's shape");
            if let Some(grad_input) = &mut grad_input {
                // dcol = dY · Wᵀ, then scatter back.
                let dcol = dy.matmul_nt(&self.weight).expect("dims match");
                debug_assert_eq!(dcol.shape().dims(), &[h * w, row_len]);
                let dx = self.col2im(&dcol);
                grad_input[b * self.in_dim()..(b + 1) * self.in_dim()].copy_from_slice(&dx);
            }
        }
        if let Some(grad_weight) = scratch {
            weight_slot.put(grad_weight.as_slice());
        }
        bias_slot.put(&grad_bias);
        grad_input.map(|g| Tensor::from_vec(g, [batch, self.in_dim()]))
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
        assert_eq!(input_dim, self.in_dim(), "conv2d input dim mismatch");
        self.out_dim_len()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }
}

/// Global average pooling: `[batch, C·H·W]` → `[batch, C]`.
#[derive(Debug, Clone)]
pub struct GlobalAvgPoolLayer {
    channels: usize,
    spatial: usize,
}

impl GlobalAvgPoolLayer {
    /// Creates a pooling layer over `channels` maps of `height × width`.
    pub fn new(channels: usize, height: usize, width: usize) -> Self {
        GlobalAvgPoolLayer {
            channels,
            spatial: height * width,
        }
    }
}

impl Layer for GlobalAvgPoolLayer {
    fn kind(&self) -> &'static str {
        "gap"
    }

    fn forward(&self, input: &Tensor) -> (Tensor, LayerCache) {
        let batch = input.shape().dim(0);
        let (c, s) = (self.channels, self.spatial);
        let x = input.as_slice();
        let mut out = vec![0.0f32; batch * c];
        for b in 0..batch {
            for ci in 0..c {
                let base = b * c * s + ci * s;
                out[b * c + ci] = x[base..base + s].iter().sum::<f32>() / s as f32;
            }
        }
        (Tensor::from_vec(out, [batch, c]), LayerCache::empty())
    }

    fn backward(
        &self,
        _cache: &LayerCache,
        grad_output: &Tensor,
        _param_grads: &mut [GradSlot],
        need_input: bool,
    ) -> Option<Tensor> {
        if !need_input {
            return None;
        }
        let batch = grad_output.shape().dim(0);
        let (c, s) = (self.channels, self.spatial);
        let dy = grad_output.as_slice();
        let mut dx = vec![0.0f32; batch * c * s];
        for b in 0..batch {
            for ci in 0..c {
                let g = dy[b * c + ci] / s as f32;
                let base = b * c * s + ci * s;
                for v in &mut dx[base..base + s] {
                    *v = g;
                }
            }
        }
        Some(Tensor::from_vec(dx, [batch, c * s]))
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
        assert_eq!(
            input_dim,
            self.channels * self.spatial,
            "gap input dim mismatch"
        );
        self.channels
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
    fn identity_kernel_preserves_input() {
        // 1×1 "kernel" with weight 1 on a single channel = identity.
        let mut rng = threelc_tensor::rng(0);
        let mut conv = Conv2dLayer::new("c", 1, 1, 3, 3, 1, &mut rng);
        conv.params_mut()[0].as_mut_slice()[0] = 1.0;
        let x = Tensor::from_fn([1, 9], |i| i as f32);
        let (y, _) = conv.forward(&x);
        assert_eq!(y.as_slice(), x.as_slice());
    }

    #[test]
    fn known_3x3_convolution() {
        // A 3×3 all-ones kernel on a uniform image sums the neighborhood:
        // interior pixels see 9 ones, corners 4, edges 6.
        let mut rng = threelc_tensor::rng(0);
        let mut conv = Conv2dLayer::new("c", 1, 1, 3, 3, 3, &mut rng);
        for v in conv.params_mut()[0].as_mut_slice() {
            *v = 1.0;
        }
        let x = Tensor::ones([1, 9]);
        let (y, _) = conv.forward(&x);
        assert_eq!(y.as_slice(), &[4.0, 6.0, 4.0, 6.0, 9.0, 6.0, 4.0, 6.0, 4.0]);
    }

    #[test]
    fn bias_broadcasts_per_channel() {
        let mut rng = threelc_tensor::rng(0);
        let mut conv = Conv2dLayer::new("c", 1, 2, 2, 2, 1, &mut rng);
        for v in conv.params_mut()[0].as_mut_slice() {
            *v = 0.0;
        }
        conv.params_mut()[1]
            .as_mut_slice()
            .copy_from_slice(&[1.0, -1.0]);
        let x = Tensor::zeros([1, 4]);
        let (y, _) = conv.forward(&x);
        assert_eq!(y.as_slice(), &[1.0, 1.0, 1.0, 1.0, -1.0, -1.0, -1.0, -1.0]);
    }

    #[test]
    fn gradients_match_finite_differences() {
        let mut rng = threelc_tensor::rng(1);
        let mut conv = Conv2dLayer::new("c", 2, 2, 3, 3, 3, &mut rng);
        let x = Initializer::Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
        .init(&mut rng, [2, 18]);
        check_layer(&mut conv, &x, 3e-2);
    }

    #[test]
    fn gap_averages_each_channel() {
        let gap = GlobalAvgPoolLayer::new(2, 2, 2);
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0], [1, 8]);
        let (y, _) = gap.forward(&x);
        assert_eq!(y.as_slice(), &[2.5, 25.0]);
        assert_eq!(gap.output_dim(8), 2);
    }

    #[test]
    fn gap_gradients_match_finite_differences() {
        let mut rng = threelc_tensor::rng(2);
        let x = Initializer::Normal {
            mean: 0.0,
            std_dev: 1.0,
        }
        .init(&mut rng, [2, 12]);
        check_layer(&mut GlobalAvgPoolLayer::new(3, 2, 2), &x, 1e-2);
    }

    #[test]
    fn param_bookkeeping() {
        let conv = Conv2dLayer::new("conv1", 3, 16, 8, 8, 3, &mut threelc_tensor::rng(0));
        assert_eq!(conv.params()[0].shape().dims(), &[27, 16]);
        assert_eq!(conv.params()[1].shape().dims(), &[1, 16]);
        assert_eq!(conv.param_names(), vec!["conv1/weight", "conv1/bias"]);
        assert_eq!(conv.output_dim(3 * 64), 16 * 64);
    }

    #[test]
    #[should_panic(expected = "odd kernel")]
    fn even_kernel_panics() {
        Conv2dLayer::new("c", 1, 1, 3, 3, 2, &mut threelc_tensor::rng(0));
    }
}
