//! Elementwise, reduction, and linear-algebra operations on [`Tensor`].

use crate::{Tensor, TensorError};

impl Tensor {
    /// Elementwise sum of two tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a + b)
    }

    /// Elementwise difference `self - other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn sub(&self, other: &Tensor) -> Result<Tensor, TensorError> {
        self.zip_with(other, |a, b| a - b)
    }

    /// Applies `f` elementwise over two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn zip_with(
        &self,
        other: &Tensor,
        f: impl Fn(f32, f32) -> f32,
    ) -> Result<Tensor, TensorError> {
        self.check_same_shape(other)?;
        Ok(Tensor::from_vec(
            self.as_slice()
                .iter()
                .zip(other.as_slice())
                .map(|(&a, &b)| f(a, b))
                .collect(),
            self.shape().clone(),
        ))
    }

    /// In-place `self += other`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn add_assign(&mut self, other: &Tensor) -> Result<(), TensorError> {
        self.check_same_shape(other)?;
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += b;
        }
        Ok(())
    }

    /// In-place `self += alpha * other` (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) -> Result<(), TensorError> {
        self.check_same_shape(other)?;
        for (a, &b) in self.as_mut_slice().iter_mut().zip(other.as_slice()) {
            *a += alpha * b;
        }
        Ok(())
    }

    /// Multiplies every element by `s`, returning a new tensor.
    pub fn scale(&self, s: f32) -> Tensor {
        self.map(|x| x * s)
    }

    /// Multiplies every element by `s` in place.
    pub fn scale_inplace(&mut self, s: f32) {
        self.map_inplace(|x| x * s);
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Arithmetic mean of all elements; 0 for an empty tensor.
    pub fn mean(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Maximum absolute value of any element; 0 for an empty tensor.
    ///
    /// This is the `max(|T_in|)` reduction from the paper's Equation 1.
    pub fn max_abs(&self) -> f32 {
        self.as_slice().iter().fold(0.0f32, |m, &x| m.max(x.abs()))
    }

    /// Minimum element; `+inf` for an empty tensor.
    pub fn min(&self) -> f32 {
        self.as_slice().iter().fold(f32::INFINITY, |m, &x| m.min(x))
    }

    /// Maximum element; `-inf` for an empty tensor.
    pub fn max(&self) -> f32 {
        self.as_slice()
            .iter()
            .fold(f32::NEG_INFINITY, |m, &x| m.max(x))
    }

    /// Sum of squared elements.
    pub fn sum_squares(&self) -> f32 {
        self.as_slice().iter().map(|&x| x * x).sum()
    }

    /// Euclidean (L2) norm.
    pub fn l2_norm(&self) -> f32 {
        self.sum_squares().sqrt()
    }

    /// Population variance of elements; 0 for an empty tensor.
    pub fn variance(&self) -> f32 {
        if self.is_empty() {
            return 0.0;
        }
        let mean = self.mean();
        self.as_slice()
            .iter()
            .map(|&x| {
                let d = x - mean;
                d * d
            })
            .sum::<f32>()
            / self.len() as f32
    }

    /// Dot product of two same-shaped tensors (flattened).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when shapes differ.
    pub fn dot(&self, other: &Tensor) -> Result<f32, TensorError> {
        self.check_same_shape(other)?;
        Ok(self
            .as_slice()
            .iter()
            .zip(other.as_slice())
            .map(|(&a, &b)| a * b)
            .sum())
    }

    /// Transpose of a rank-2 tensor.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::RankMismatch`] if the tensor is not rank 2.
    pub fn transpose(&self) -> Result<Tensor, TensorError> {
        if self.shape().rank() != 2 {
            return Err(TensorError::RankMismatch {
                expected: 2,
                actual: self.shape().rank(),
            });
        }
        let (m, n) = (self.shape().dim(0), self.shape().dim(1));
        let a = self.as_slice();
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for j in 0..n {
                out[j * m + i] = a[i * n + j];
            }
        }
        Ok(Tensor::from_vec(out, [n, m]))
    }

    /// Number of elements exactly equal to zero.
    pub fn count_zeros(&self) -> usize {
        self.as_slice().iter().filter(|&&x| x == 0.0).count()
    }

    /// Fraction of elements exactly equal to zero; 0 for an empty tensor.
    pub fn sparsity(&self) -> f64 {
        if self.is_empty() {
            0.0
        } else {
            self.count_zeros() as f64 / self.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(v: &[f32]) -> Tensor {
        Tensor::from_slice(v)
    }

    #[test]
    fn add_sub_mul() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[10.0, 20.0, 30.0]);
        assert_eq!(a.add(&b).unwrap().as_slice(), &[11.0, 22.0, 33.0]);
        assert_eq!(b.sub(&a).unwrap().as_slice(), &[9.0, 18.0, 27.0]);
    }

    #[test]
    fn shape_mismatch_errors() {
        let a = t(&[1.0, 2.0]);
        let b = Tensor::zeros([3]);
        assert!(a.add(&b).is_err());
        assert!(a.dot(&b).is_err());
        let mut a2 = a.clone();
        assert!(a2.add_assign(&b).is_err());
    }

    #[test]
    fn inplace_ops() {
        let mut a = t(&[1.0, 2.0]);
        a.add_assign(&t(&[1.0, 1.0])).unwrap();
        assert_eq!(a.as_slice(), &[2.0, 3.0]);
        a.axpy(2.0, &t(&[1.0, 10.0])).unwrap();
        assert_eq!(a.as_slice(), &[4.0, 23.0]);
        a.scale_inplace(0.5);
        assert_eq!(a.as_slice(), &[2.0, 11.5]);
    }

    #[test]
    fn reductions() {
        let a = t(&[1.0, -4.0, 3.0]);
        assert_eq!(a.sum(), 0.0);
        assert_eq!(a.mean(), 0.0);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(a.min(), -4.0);
        assert_eq!(a.max(), 3.0);
        assert_eq!(a.sum_squares(), 26.0);
        assert!((a.l2_norm() - 26.0f32.sqrt()).abs() < 1e-6);
    }

    #[test]
    fn variance_of_constant_is_zero() {
        let a = Tensor::full([100], 3.5);
        assert_eq!(a.variance(), 0.0);
    }

    #[test]
    fn variance_known_value() {
        let a = t(&[1.0, 3.0]);
        assert_eq!(a.variance(), 1.0);
    }

    #[test]
    fn empty_reductions() {
        let e = Tensor::zeros([0]);
        assert_eq!(e.sum(), 0.0);
        assert_eq!(e.mean(), 0.0);
        assert_eq!(e.max_abs(), 0.0);
        assert_eq!(e.variance(), 0.0);
        assert_eq!(e.sparsity(), 0.0);
    }

    #[test]
    fn dot_product() {
        let a = t(&[1.0, 2.0, 3.0]);
        let b = t(&[4.0, 5.0, 6.0]);
        assert_eq!(a.dot(&b).unwrap(), 32.0);
    }

    #[test]
    fn transpose_roundtrip() {
        let a = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let tt = a.transpose().unwrap().transpose().unwrap();
        assert_eq!(tt, a);
        let at = a.transpose().unwrap();
        assert_eq!(at.at(&[2, 1]), a.at(&[1, 2]));
    }

    #[test]
    fn sparsity_counts() {
        let a = t(&[0.0, 1.0, 0.0, 0.0]);
        assert_eq!(a.count_zeros(), 3);
        assert_eq!(a.sparsity(), 0.75);
    }
}
