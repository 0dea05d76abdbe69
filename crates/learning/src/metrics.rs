//! Evaluation metrics.

use crate::data::Batch;
use crate::loss::softmax_cross_entropy;
use crate::network::{argmax_rows, Network};
use serde::{Deserialize, Serialize};

/// Fraction of predictions matching labels (top-1 accuracy).
///
/// # Panics
///
/// Panics if the slices have different lengths or are empty.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    assert!(!labels.is_empty(), "cannot score an empty batch");
    let correct = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    correct as f64 / labels.len() as f64
}

/// A model evaluation snapshot: loss and top-1 test accuracy.
///
/// The paper's "dedicated node \[that\] reads the snapshot of the global
/// model and calculates the top-1 score" (§5.2) corresponds to calling
/// [`Evaluation::of`] on the server's global model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Evaluation {
    /// Mean cross-entropy loss over the batch.
    pub loss: f32,
    /// Top-1 accuracy in `[0, 1]`.
    pub accuracy: f64,
}

impl Evaluation {
    /// Evaluates a network on a batch (typically the full test set): one
    /// forward pass, both numbers from its logits.
    pub fn of(net: &Network, batch: &Batch) -> Self {
        let logits = net.forward(&batch.inputs);
        Evaluation {
            loss: softmax_cross_entropy(&logits, &batch.labels).0,
            accuracy: accuracy(&argmax_rows(&logits), &batch.labels),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threelc_tensor::Tensor;

    #[test]
    fn accuracy_counts_matches() {
        assert_eq!(accuracy(&[1, 2, 3], &[1, 2, 0]), 2.0 / 3.0);
        assert_eq!(accuracy(&[0], &[0]), 1.0);
        assert_eq!(accuracy(&[1], &[0]), 0.0);
    }

    /// What `Evaluation::of` was before it kept its logits: the loss from
    /// one forward pass, the predictions from a second, the argmax spelled
    /// out here.
    fn two_pass(net: &Network, batch: &Batch) -> Evaluation {
        let loss = softmax_cross_entropy(&net.forward(&batch.inputs), &batch.labels).0;
        let logits = net.forward(&batch.inputs);
        let classes = logits.shape().dim(1);
        let preds: Vec<usize> = (0..batch.labels.len())
            .map(|r| {
                let row = &logits.as_slice()[r * classes..(r + 1) * classes];
                (0..classes).fold(0, |best, c| if row[c] >= row[best] { c } else { best })
            })
            .collect();
        Evaluation {
            loss,
            accuracy: accuracy(&preds, &batch.labels),
        }
    }

    #[test]
    fn one_forward_pass_gives_the_two_pass_numbers_bit_for_bit() {
        use crate::models::{conv_resnet, residual_mlp};
        let data = crate::SyntheticImages::standard(3);
        let test = data.test_batch();
        for net in [
            residual_mlp(&data.spec(), 16, 1, 0),
            conv_resnet(&data.spec(), 4, 1, 0),
        ] {
            let (got, want) = (Evaluation::of(&net, &test), two_pass(&net, &test));
            assert_eq!(got.loss.to_bits(), want.loss.to_bits());
            assert_eq!(got.accuracy.to_bits(), want.accuracy.to_bits());
            // `predict` is the same argmax over the same logits.
            assert_eq!(
                accuracy(&net.predict(&test.inputs), &test.labels),
                got.accuracy
            );
        }
    }

    /// A pass-through layer that counts its forward passes.
    #[derive(Clone)]
    struct Counting(std::sync::Arc<std::sync::atomic::AtomicUsize>);

    impl crate::Layer for Counting {
        fn kind(&self) -> &'static str {
            "counting"
        }
        fn forward(&self, input: &Tensor) -> (Tensor, crate::LayerCache) {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            (input.clone(), crate::LayerCache::empty())
        }
        fn backward(
            &self,
            _: &crate::LayerCache,
            grad_output: &Tensor,
            _: &mut [crate::GradSlot],
            need_input: bool,
        ) -> Option<Tensor> {
            need_input.then(|| grad_output.clone())
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
        fn clone_box(&self) -> Box<dyn crate::Layer> {
            Box::new(self.clone())
        }
    }

    #[test]
    fn an_evaluation_runs_the_network_once() {
        let passes = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let mut rng = threelc_tensor::rng(1);
        let net = Network::new(
            4,
            vec![
                Box::new(Counting(passes.clone())),
                Box::new(crate::DenseLayer::new("out", 4, 3, &mut rng)),
            ],
        );
        let batch = Batch {
            inputs: Tensor::from_vec((0..24).map(|v| v as f32 * 0.1).collect(), [6, 4]),
            labels: vec![0, 1, 2, 0, 1, 2],
        };
        let eval = Evaluation::of(&net, &batch);
        assert!(eval.loss.is_finite());
        assert_eq!(passes.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        accuracy(&[1], &[1, 2]);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_panics() {
        accuracy(&[], &[]);
    }
}
