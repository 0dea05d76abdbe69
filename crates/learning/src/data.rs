//! Synthetic CIFAR-like image classification data.
//!
//! The paper trains on CIFAR-10 (50k train / 10k test images, 10 classes)
//! with random-crop and horizontal-flip augmentation. This module generates
//! a procedural stand-in: each class has a smooth random prototype image
//! and samples are prototypes plus Gaussian pixel noise, so the task is
//! learnable but not trivially separable. Training batches get the same
//! augmentations (random shift — the crop analog — and horizontal flip);
//! test data is clean and fixed.
//!
//! What matters for reproducing 3LC's evaluation is not the images
//! themselves but that training produces gradient/model-delta tensors whose
//! variance shrinks as the model converges — which this dataset induces
//! exactly as a real one does (see `DESIGN.md` §3).

use rand::Rng as _;
use threelc_tensor::init::fill_standard_normal;
use threelc_tensor::{Rng, Tensor};

/// Shape metadata for an image dataset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataSpec {
    /// Color channels.
    pub channels: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Image width in pixels.
    pub width: usize,
    /// Number of classes.
    pub classes: usize,
}

impl DataSpec {
    /// Flattened feature dimensionality (`channels · height · width`).
    pub fn feature_dim(&self) -> usize {
        self.channels * self.height * self.width
    }
}

/// A minibatch: row-major inputs `[batch, features]` plus class labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// Input features, one row per example.
    pub inputs: Tensor,
    /// Class label per row.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Number of examples in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Configuration for [`SyntheticImages`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SyntheticConfig {
    /// Dataset shape.
    pub spec: DataSpec,
    /// Training examples to generate.
    pub train_examples: usize,
    /// Test examples to generate.
    pub test_examples: usize,
    /// Prototype signal amplitude (class separation).
    pub signal: f32,
    /// Per-pixel Gaussian noise standard deviation.
    pub noise: f32,
}

impl Default for SyntheticConfig {
    fn default() -> Self {
        SyntheticConfig {
            spec: DataSpec {
                channels: 3,
                height: 8,
                width: 8,
                classes: 10,
            },
            train_examples: 4096,
            test_examples: 1024,
            signal: 0.4,
            noise: 1.0,
        }
    }
}

/// A procedurally generated image classification dataset.
#[derive(Debug, Clone)]
pub struct SyntheticImages {
    config: SyntheticConfig,
    /// Row-major `[train examples, feature_dim]`.
    train_images: Vec<f32>,
    train_labels: Vec<usize>,
    /// Row-major `[test examples, feature_dim]`: the test batch's inputs.
    test_images: Vec<f32>,
    test_labels: Vec<usize>,
}

impl SyntheticImages {
    /// Generates a dataset with the default configuration and a seed.
    pub fn standard(seed: u64) -> Self {
        Self::generate(SyntheticConfig::default(), seed)
    }

    /// Generates a dataset from an explicit configuration.
    ///
    /// # Panics
    ///
    /// Panics if the config has zero classes, examples, or pixels.
    pub fn generate(config: SyntheticConfig, seed: u64) -> Self {
        assert!(config.spec.classes > 0, "need at least one class");
        assert!(config.spec.feature_dim() > 0, "need at least one pixel");
        assert!(
            config.train_examples > 0 && config.test_examples > 0,
            "need nonempty splits"
        );
        let mut rng = threelc_tensor::rng(seed);
        let dim = config.spec.feature_dim();

        // Smooth class prototypes: a sum of a few random sinusoids per
        // channel keeps prototypes spatially coherent (so shifts are mild
        // perturbations, as crops are for natural images).
        let prototypes: Vec<Vec<f32>> = (0..config.spec.classes)
            .map(|_| smooth_prototype(&config.spec, config.signal, &mut rng))
            .collect();

        // Example `i` is class `i % classes`'s prototype plus pixel noise,
        // the noise drawn for every example of the split in one fill and
        // the prototype added after it (IEEE addition commutes, so these
        // are the bits of `prototype + noise`).
        let gen_split = |count: usize, rng: &mut Rng| {
            let mut images = vec![0.0f32; count * dim];
            fill_standard_normal(rng, &mut images, |z| config.noise * z);
            let labels: Vec<usize> = (0..count).map(|i| i % config.spec.classes).collect();
            for (img, &label) in images.chunks_exact_mut(dim).zip(&labels) {
                for (px, &p) in img.iter_mut().zip(&prototypes[label]) {
                    *px += p;
                }
            }
            (images, labels)
        };
        let (train_images, train_labels) = gen_split(config.train_examples, &mut rng);
        let (test_images, test_labels) = gen_split(config.test_examples, &mut rng);
        SyntheticImages {
            config,
            train_images,
            train_labels,
            test_images,
            test_labels,
        }
    }

    /// The dataset's shape metadata.
    pub fn spec(&self) -> DataSpec {
        self.config.spec
    }

    /// Number of test examples.
    pub fn test_len(&self) -> usize {
        self.test_labels.len()
    }

    /// Samples an augmented training batch (random shift + horizontal
    /// flip, the analog of the paper's crop + flip augmentation).
    pub fn sample_train_batch(&self, rng: &mut Rng, batch_size: usize) -> Batch {
        assert!(batch_size > 0, "batch size must be positive");
        let dim = self.config.spec.feature_dim();
        let mut inputs = Vec::with_capacity(batch_size * dim);
        let mut labels = Vec::with_capacity(batch_size);
        for _ in 0..batch_size {
            let idx = rng.gen_range(0..self.train_labels.len());
            let dx = rng.gen_range(-1isize..=1);
            let dy = rng.gen_range(-1isize..=1);
            let flip = rng.gen::<bool>();
            let img = &self.train_images[idx * dim..][..dim];
            let img = augment(img, &self.config.spec, dx, dy, flip);
            inputs.extend_from_slice(&img);
            labels.push(self.train_labels[idx]);
        }
        Batch {
            inputs: Tensor::from_vec(inputs, [batch_size, dim]),
            labels,
        }
    }

    /// The full, unaugmented test set as one batch.
    pub fn test_batch(&self) -> Batch {
        let dim = self.config.spec.feature_dim();
        Batch {
            inputs: Tensor::from_vec(self.test_images.clone(), [self.test_len(), dim]),
            labels: self.test_labels.clone(),
        }
    }

    /// [`Self::test_batch`] without the copy: the test split is moved out,
    /// and this dataset keeps only its training examples (`test_len` is 0).
    pub fn take_test_batch(&mut self) -> Batch {
        let dim = self.config.spec.feature_dim();
        let labels = std::mem::take(&mut self.test_labels);
        let images = std::mem::take(&mut self.test_images);
        Batch {
            inputs: Tensor::from_vec(images, [labels.len(), dim]),
            labels,
        }
    }
}

/// Builds one smooth prototype image as a sum of random sinusoids.
fn smooth_prototype(spec: &DataSpec, amplitude: f32, rng: &mut Rng) -> Vec<f32> {
    let mut img = vec![0.0f32; spec.feature_dim()];
    for c in 0..spec.channels {
        // Three random plane waves per channel.
        for _ in 0..3 {
            let fx = rng.gen_range(0.5..2.0) * std::f32::consts::PI / spec.width as f32;
            let fy = rng.gen_range(0.5..2.0) * std::f32::consts::PI / spec.height as f32;
            let phase = rng.gen_range(0.0..std::f32::consts::TAU);
            let amp = amplitude * rng.gen_range(0.5..1.0);
            for y in 0..spec.height {
                for x in 0..spec.width {
                    let i = (c * spec.height + y) * spec.width + x;
                    img[i] += amp * (fx * x as f32 + fy * y as f32 + phase).sin();
                }
            }
        }
    }
    img
}

/// Shifts by `(dx, dy)` with zero fill and optionally flips horizontally.
fn augment(img: &[f32], spec: &DataSpec, dx: isize, dy: isize, flip: bool) -> Vec<f32> {
    let (h, w) = (spec.height as isize, spec.width as isize);
    let mut out = vec![0.0f32; img.len()];
    for c in 0..spec.channels as isize {
        for y in 0..h {
            for x in 0..w {
                let sx = if flip { w - 1 - x } else { x } - dx;
                let sy = y - dy;
                if sx >= 0 && sx < w && sy >= 0 && sy < h {
                    out[((c * h + y) * w + x) as usize] = img[((c * h + sy) * w + sx) as usize];
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_dataset_shapes() {
        let d = SyntheticImages::standard(1);
        assert_eq!(d.spec().feature_dim(), 192);
        assert_eq!(d.train_labels.len(), 4096);
        assert_eq!(d.train_images.len(), 4096 * 192);
        assert_eq!(d.test_len(), 1024);
        let t = d.test_batch();
        assert_eq!(t.inputs.shape().dims(), &[1024, 192]);
        assert_eq!(t.labels.len(), 1024);
    }

    #[test]
    fn labels_are_balanced() {
        let d = SyntheticImages::standard(2);
        let mut counts = vec![0usize; 10];
        for &l in &d.test_batch().labels {
            counts[l] += 1;
        }
        for c in counts {
            assert!((c as i64 - 102).abs() <= 2, "class count {c}");
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let a = SyntheticImages::standard(3);
        let b = SyntheticImages::standard(3);
        assert_eq!(a.test_batch(), b.test_batch());
        let mut r1 = threelc_tensor::rng(9);
        let mut r2 = threelc_tensor::rng(9);
        assert_eq!(
            a.sample_train_batch(&mut r1, 8),
            b.sample_train_batch(&mut r2, 8)
        );
    }

    #[test]
    fn train_batches_have_requested_size() {
        let d = SyntheticImages::standard(4);
        let mut rng = threelc_tensor::rng(0);
        let b = d.sample_train_batch(&mut rng, 32);
        assert_eq!(b.len(), 32);
        assert_eq!(b.inputs.shape().dims(), &[32, 192]);
        assert!(b.labels.iter().all(|&l| l < 10));
    }

    #[test]
    fn augment_flip_is_involution() {
        let spec = DataSpec {
            channels: 1,
            height: 2,
            width: 3,
            classes: 1,
        };
        let img = vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0];
        let flipped = augment(&img, &spec, 0, 0, true);
        assert_eq!(flipped, vec![3.0, 2.0, 1.0, 6.0, 5.0, 4.0]);
        assert_eq!(augment(&flipped, &spec, 0, 0, true), img);
    }

    #[test]
    fn augment_shift_pads_with_zeros() {
        let spec = DataSpec {
            channels: 1,
            height: 2,
            width: 2,
            classes: 1,
        };
        let img = vec![1.0, 2.0, 3.0, 4.0];
        // Shift right by one: first column becomes zero.
        let shifted = augment(&img, &spec, 1, 0, false);
        assert_eq!(shifted, vec![0.0, 1.0, 0.0, 3.0]);
    }

    #[test]
    fn classes_are_distinguishable() {
        // A nearest-prototype classifier on clean test data should beat
        // chance by a wide margin (the task is learnable).
        let d = SyntheticImages::generate(
            SyntheticConfig {
                noise: 0.5,
                ..Default::default()
            },
            5,
        );
        // Estimate per-class means from training data, classify test data.
        let dim = d.spec().feature_dim();
        let mut means = vec![vec![0.0f64; dim]; 10];
        let mut counts = vec![0usize; 10];
        for (img, &l) in d.train_images.chunks_exact(dim).zip(&d.train_labels) {
            for (m, &v) in means[l].iter_mut().zip(img) {
                *m += v as f64;
            }
            counts[l] += 1;
        }
        for (m, &c) in means.iter_mut().zip(&counts) {
            for v in m.iter_mut() {
                *v /= c as f64;
            }
        }
        let mut correct = 0;
        for (img, &l) in d.test_images.chunks_exact(dim).zip(&d.test_labels) {
            let best = (0..10)
                .min_by(|&a, &b| {
                    let da: f64 = means[a]
                        .iter()
                        .zip(img)
                        .map(|(m, &v)| (m - v as f64).powi(2))
                        .sum();
                    let db: f64 = means[b]
                        .iter()
                        .zip(img)
                        .map(|(m, &v)| (m - v as f64).powi(2))
                        .sum();
                    da.partial_cmp(&db).unwrap()
                })
                .unwrap();
            if best == l {
                correct += 1;
            }
        }
        let acc = correct as f64 / d.test_len() as f64;
        assert!(acc > 0.5, "nearest-prototype accuracy {acc} too low");
    }

    #[test]
    #[should_panic(expected = "batch size")]
    fn zero_batch_panics() {
        let d = SyntheticImages::standard(0);
        let mut rng = threelc_tensor::rng(0);
        d.sample_train_batch(&mut rng, 0);
    }
}
