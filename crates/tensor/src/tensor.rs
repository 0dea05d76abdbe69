//! The dense row-major `f32` tensor type.

use crate::{Shape, TensorError};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A dense, row-major tensor of `f32` values.
///
/// Tensors are the unit of compression in 3LC: one tensor holds the
/// gradients or model deltas of one neural-network layer. The data is always
/// materialized as a contiguous `Vec<f32>` — the paper's 3-value
/// quantization deliberately works on *dense* arrays (§3.1) because dense
/// operations vectorize well.
///
/// ```
/// use threelc_tensor::Tensor;
/// let t = Tensor::zeros(&[3, 4]);
/// assert_eq!(t.len(), 12);
/// assert_eq!(t.shape().dims(), &[3, 4]);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
}

impl Tensor {
    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![0.0; n],
        }
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: impl Into<Shape>) -> Self {
        Tensor::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: impl Into<Shape>, value: f32) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: vec![value; n],
        }
    }

    /// Creates a tensor from a flat data vector and a shape.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` does not equal the shape's element count.
    pub fn from_vec(data: Vec<f32>, shape: impl Into<Shape>) -> Self {
        let shape = shape.into();
        assert_eq!(
            data.len(),
            shape.num_elements(),
            "data length {} does not match shape {} ({} elements)",
            data.len(),
            shape,
            shape.num_elements()
        );
        Tensor { shape, data }
    }

    /// Creates a rank-1 tensor from a slice.
    pub fn from_slice(data: &[f32]) -> Self {
        Tensor {
            shape: Shape::new(&[data.len()]),
            data: data.to_vec(),
        }
    }

    /// Creates a tensor whose element at flat offset `i` is `f(i)`.
    pub fn from_fn(shape: impl Into<Shape>, f: impl FnMut(usize) -> f32) -> Self {
        let shape = shape.into();
        let n = shape.num_elements();
        Tensor {
            shape,
            data: (0..n).map(f).collect(),
        }
    }

    /// The tensor's shape.
    pub fn shape(&self) -> &Shape {
        &self.shape
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the tensor has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The underlying data as a slice, in row-major order.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// The underlying data as a mutable slice, in row-major order.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn at(&self, index: &[usize]) -> f32 {
        self.data[self.shape.flat_index(index)]
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds or has the wrong rank.
    pub fn set(&mut self, index: &[usize], value: f32) {
        let i = self.shape.flat_index(index);
        self.data[i] = value;
    }

    /// Returns a tensor with the same data and a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ElementCountMismatch`] if the new shape has a
    /// different element count.
    pub fn reshape(&self, shape: impl Into<Shape>) -> Result<Tensor, TensorError> {
        let shape = shape.into();
        if shape.num_elements() != self.data.len() {
            return Err(TensorError::ElementCountMismatch {
                have: self.data.len(),
                want: shape.num_elements(),
            });
        }
        Ok(Tensor {
            shape,
            data: self.data.clone(),
        })
    }

    /// Applies `f` to every element, producing a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            shape: self.shape.clone(),
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, f: impl Fn(f32) -> f32) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Iterates over elements in row-major order.
    pub fn iter(&self) -> std::slice::Iter<'_, f32> {
        self.data.iter()
    }

    /// The elements as little-endian `f32`s, 4 bytes each in row-major
    /// order: the raw wire image of a tensor. One buffer sized up front and
    /// filled in one pass, a third of the time of appending value by value.
    pub fn to_le_bytes(&self) -> Vec<u8> {
        let mut out = vec![0u8; self.data.len() * 4];
        self.write_le_bytes(&mut out);
        out
    }

    /// Writes [`Tensor::to_le_bytes`]'s image into `out`, for a payload that
    /// carries it after a header of its own.
    ///
    /// # Panics
    ///
    /// Panics if `out` is not exactly 4 bytes per element.
    pub fn write_le_bytes(&self, out: &mut [u8]) {
        assert_eq!(out.len(), self.data.len() * 4, "wire image length");
        for (bytes, x) in out.chunks_exact_mut(4).zip(&self.data) {
            bytes.copy_from_slice(&x.to_le_bytes());
        }
    }

    /// Checks that two tensors have identical shapes.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn check_same_shape(&self, other: &Tensor) -> Result<(), TensorError> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
            });
        }
        Ok(())
    }

    /// Whether all pairwise element differences are within `tol`.
    ///
    /// Returns `false` when shapes differ.
    pub fn approx_eq(&self, other: &Tensor, tol: f32) -> bool {
        self.shape == other.shape
            && self
                .data
                .iter()
                .zip(&other.data)
                .all(|(&a, &b)| (a - b).abs() <= tol)
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const MAX_SHOWN: usize = 8;
        write!(f, "Tensor{} [", self.shape)?;
        for (i, x) in self.data.iter().take(MAX_SHOWN).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{x}")?;
        }
        if self.data.len() > MAX_SHOWN {
            write!(f, ", …")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_ones_full() {
        assert!(Tensor::zeros([2, 2]).iter().all(|&x| x == 0.0));
        assert!(Tensor::ones([4]).iter().all(|&x| x == 1.0));
        assert!(Tensor::full([3], 2.5).iter().all(|&x| x == 2.5));
    }

    #[test]
    fn from_vec_and_accessors() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], [2, 2]);
        assert_eq!(t.at(&[0, 1]), 2.0);
        assert_eq!(t.at(&[1, 0]), 3.0);
        let mut t = t;
        t.set(&[1, 1], 9.0);
        assert_eq!(t.at(&[1, 1]), 9.0);
    }

    #[test]
    #[should_panic(expected = "does not match shape")]
    fn from_vec_wrong_len_panics() {
        Tensor::from_vec(vec![1.0, 2.0], [3]);
    }

    #[test]
    fn reshape_preserves_data() {
        let t = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], [2, 3]);
        let r = t.reshape([3, 2]).unwrap();
        assert_eq!(r.as_slice(), t.as_slice());
        assert_eq!(r.shape().dims(), &[3, 2]);
    }

    #[test]
    fn reshape_wrong_count_errors() {
        let t = Tensor::zeros([2, 3]);
        let err = t.reshape([4]).unwrap_err();
        assert_eq!(err, TensorError::ElementCountMismatch { have: 6, want: 4 });
    }

    #[test]
    fn map_and_map_inplace() {
        let t = Tensor::from_slice(&[1.0, -2.0]);
        let m = t.map(|x| x.abs());
        assert_eq!(m.as_slice(), &[1.0, 2.0]);
        let mut t = t;
        t.map_inplace(|x| x * 10.0);
        assert_eq!(t.as_slice(), &[10.0, -20.0]);
    }

    #[test]
    fn approx_eq_tolerance() {
        let a = Tensor::from_slice(&[1.0, 2.0]);
        let b = Tensor::from_slice(&[1.0005, 2.0]);
        assert!(a.approx_eq(&b, 1e-3));
        assert!(!a.approx_eq(&b, 1e-4));
        let c = Tensor::zeros([3]);
        assert!(!a.approx_eq(&c, 1.0));
    }

    #[test]
    fn display_truncates() {
        let t = Tensor::zeros([20]);
        let s = t.to_string();
        assert!(s.contains('…'));
        assert!(s.starts_with("Tensor[20]"));
    }

    #[test]
    fn from_fn_indexing() {
        let t = Tensor::from_fn([4], |i| i as f32);
        assert_eq!(t.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn empty_tensor() {
        let t = Tensor::zeros([0]);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert!(t.to_le_bytes().is_empty());
    }

    #[test]
    fn le_bytes_are_the_per_value_encoding() {
        let t = Tensor::from_slice(&[
            0.0,
            -0.0,
            f32::from_bits(0x7fc0_1234),
            f32::from_bits(0xffa0_0001),
            f32::from_bits(1),
            -f32::from_bits(0x007f_ffff),
            f32::MAX,
            f32::MIN,
            1.5,
        ]);
        let mut want = Vec::new();
        for x in t.iter() {
            want.extend_from_slice(&x.to_le_bytes());
        }
        assert_eq!(t.to_le_bytes(), want);
    }
}
