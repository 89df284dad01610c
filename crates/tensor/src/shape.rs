//! Shape handling for row-major dense tensors.

use crate::{Result, TensorError};
use std::fmt;

/// The shape of a dense, row-major tensor.
///
/// A shape is an ordered list of dimension extents. The empty shape `[]`
/// denotes a scalar with exactly one element.
///
/// # Example
///
/// ```
/// use falvolt_tensor::Shape;
///
/// let s = Shape::new(vec![2, 3, 4]);
/// assert_eq!(s.len(), 24);
/// assert_eq!(s.ndim(), 3);
/// assert_eq!(s.strides(), vec![12, 4, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Shape {
    dims: Vec<usize>,
}

impl Shape {
    /// Creates a shape from dimension extents.
    pub fn new(dims: Vec<usize>) -> Self {
        Self { dims }
    }

    /// Returns the dimension extents as a slice.
    pub fn dims(&self) -> &[usize] {
        &self.dims
    }

    /// Returns the number of dimensions.
    pub fn ndim(&self) -> usize {
        self.dims.len()
    }

    /// Returns the total number of elements.
    pub fn len(&self) -> usize {
        self.dims.iter().product()
    }

    /// Returns `true` if the shape contains zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the row-major strides of the shape.
    pub fn strides(&self) -> Vec<usize> {
        let mut strides = vec![1usize; self.dims.len()];
        for i in (0..self.dims.len().saturating_sub(1)).rev() {
            strides[i] = strides[i + 1] * self.dims[i + 1];
        }
        strides
    }

    /// Converts a multi-dimensional index into a flat row-major offset.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the index rank or any
    /// coordinate exceeds the shape.
    pub fn offset(&self, index: &[usize]) -> Result<usize> {
        if index.len() != self.dims.len() {
            return Err(TensorError::IndexOutOfBounds {
                index: index.to_vec(),
                shape: self.dims.clone(),
            });
        }
        let mut offset = 0usize;
        let strides = self.strides();
        for ((&i, &d), &s) in index.iter().zip(&self.dims).zip(&strides) {
            if i >= d {
                return Err(TensorError::IndexOutOfBounds {
                    index: index.to_vec(),
                    shape: self.dims.clone(),
                });
            }
            offset += i * s;
        }
        Ok(offset)
    }

    /// Returns the extent of dimension `axis`.
    ///
    /// # Panics
    ///
    /// Panics if `axis >= self.ndim()`.
    pub fn dim(&self, axis: usize) -> usize {
        self.dims[axis]
    }
}

impl From<Vec<usize>> for Shape {
    fn from(dims: Vec<usize>) -> Self {
        Shape::new(dims)
    }
}

impl From<&[usize]> for Shape {
    fn from(dims: &[usize]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl<const N: usize> From<[usize; N]> for Shape {
    fn from(dims: [usize; N]) -> Self {
        Shape::new(dims.to_vec())
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.dims)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn len_and_ndim() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.len(), 24);
        assert_eq!(s.ndim(), 3);
        assert!(!s.is_empty());
    }

    #[test]
    fn scalar_shape_has_one_element() {
        let s = Shape::new(vec![]);
        assert_eq!(s.len(), 1);
        assert_eq!(s.ndim(), 0);
    }

    #[test]
    fn zero_extent_dim_is_empty() {
        let s = Shape::new(vec![3, 0, 2]);
        assert_eq!(s.len(), 0);
        assert!(s.is_empty());
    }

    #[test]
    fn strides_are_row_major() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.strides(), vec![12, 4, 1]);
        let s = Shape::new(vec![5]);
        assert_eq!(s.strides(), vec![1]);
    }

    #[test]
    fn offset_computes_row_major_position() {
        let s = Shape::new(vec![2, 3, 4]);
        assert_eq!(s.offset(&[0, 0, 0]).unwrap(), 0);
        assert_eq!(s.offset(&[1, 2, 3]).unwrap(), 23);
        assert_eq!(s.offset(&[0, 1, 2]).unwrap(), 6);
    }

    #[test]
    fn offset_rejects_out_of_bounds() {
        let s = Shape::new(vec![2, 3]);
        assert!(s.offset(&[2, 0]).is_err());
        assert!(s.offset(&[0, 3]).is_err());
        assert!(s.offset(&[0]).is_err());
        assert!(s.offset(&[0, 0, 0]).is_err());
    }

    #[test]
    fn conversion_from_arrays_and_slices() {
        let a: Shape = [2, 3].into();
        let b: Shape = vec![2, 3].into();
        let c: Shape = (&[2usize, 3][..]).into();
        assert_eq!(a, b);
        assert_eq!(b, c);
    }

    #[test]
    fn display_shows_dims() {
        let s = Shape::new(vec![4, 5]);
        assert_eq!(s.to_string(), "[4, 5]");
    }
}
