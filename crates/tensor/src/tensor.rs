//! The dense, owned, row-major [`Tensor`] type.

use crate::spikes::SpikeIndex;
use crate::{Result, Shape, TensorError};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Global content-id source. Ids are handed out once and never reused, so
/// `a.content_id() == b.content_id()` implies the two tensors hold the same
/// data bytes (the reverse does not hold — equal content may carry different
/// ids, which costs a cache miss, never a wrong hit).
static NEXT_CONTENT_ID: AtomicU64 = AtomicU64::new(1);

fn fresh_content_id() -> u64 {
    NEXT_CONTENT_ID.fetch_add(1, Ordering::Relaxed)
}

/// A dense, owned, row-major `f32` tensor with a dynamic shape.
///
/// `Tensor` is the workhorse value type of the FalVolt workspace: SNN layer
/// activations, weights, gradients, spike trains and dataset samples are all
/// `Tensor`s.
///
/// # Example
///
/// ```
/// use falvolt_tensor::Tensor;
///
/// # fn main() -> Result<(), falvolt_tensor::TensorError> {
/// let x = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0])?;
/// let y = x.map(|v| v * 2.0);
/// assert_eq!(y.data(), &[2.0, 4.0, 6.0, 8.0]);
/// # Ok(())
/// # }
/// ```
/// # Content ids and spike indexes
///
/// Every tensor carries a **generation-tagged content id**: a token that is
/// minted once per distinct data buffer and re-minted by every mutable data
/// access, so two tensors with the same id are guaranteed to hold identical
/// bytes. Caches key on the id instead of hashing operand contents per
/// consult (O(1) vs O(len)); clones keep the id (their content is identical)
/// and mutation re-mints it, so a stale key can never alias new content.
///
/// Binary spike tensors may additionally carry a [`SpikeIndex`] — a CSR view
/// of their nonzero positions that event-driven consumers walk instead of
/// re-scanning the dense buffer. Any mutable data access drops the index.
/// Neither the id nor the index participates in equality.
#[derive(Debug)]
pub struct Tensor {
    shape: Shape,
    data: Vec<f32>,
    // Private, and no decoder exists: every id is minted by
    // `NEXT_CONTENT_ID`, so it can never collide with a live tensor's and
    // certify a false content equality to the id-keyed caches.
    content_id: u64,
    // Private for the same reason: an index must only ever be attached
    // through `attach_spike_index`, which validates it against the data.
    spike_index: Option<Arc<SpikeIndex>>,
}

impl Clone for Tensor {
    fn clone(&self) -> Self {
        // A clone holds the same bytes: it keeps the content id (and the
        // spike index); only mutation re-mints.
        Self {
            shape: self.shape.clone(),
            data: self.data.clone(),
            content_id: self.content_id,
            spike_index: self.spike_index.clone(),
        }
    }
}

impl PartialEq for Tensor {
    fn eq(&self, other: &Self) -> bool {
        // Equality is shape + content; the id is a cache token and the index
        // is derived structure, neither is state.
        self.shape == other.shape && self.data == other.data
    }
}

impl Tensor {
    /// Internal constructor: every new buffer gets a fresh content id and no
    /// spike index.
    fn from_shape_data(shape: Shape, data: Vec<f32>) -> Self {
        Self {
            shape,
            data,
            content_id: fresh_content_id(),
            spike_index: None,
        }
    }

    /// Re-mints the content id and drops the spike index — called by every
    /// mutable data access, so a previously issued id (or index) can never
    /// describe the new contents.
    fn invalidate_content(&mut self) {
        self.content_id = fresh_content_id();
        self.spike_index = None;
    }

    // ------------------------------------------------------------------
    // Content id and spike index
    // ------------------------------------------------------------------

    /// The tensor's generation-tagged content id. Two tensors with the same
    /// id hold identical data bytes (clones keep the id; any mutable data
    /// access re-mints it), so caches can key products on ids instead of
    /// hashing operands per consult. Ids say nothing about shape — key dims
    /// separately.
    pub fn content_id(&self) -> u64 {
        // Observe the id at the moment it escapes to a cache: the audit
        // registry panics if this id ever certified different bytes.
        #[cfg(feature = "audit")]
        crate::audit::observe(self.content_id, &self.data);
        self.content_id
    }

    /// The attached CSR spike index, if any (see [`SpikeIndex`]).
    pub fn spike_index(&self) -> Option<&Arc<SpikeIndex>> {
        self.spike_index.as_ref()
    }

    /// Attaches a CSR spike index describing this tensor's nonzero structure
    /// (metadata only — the content id is untouched).
    ///
    /// # Panics
    ///
    /// Panics when the index geometry does not match the tensor (`cols` must
    /// be the last dimension, `rows * cols` the element count). Debug builds
    /// additionally verify the listed positions against the data.
    pub fn attach_spike_index(&mut self, index: Arc<SpikeIndex>) {
        assert_eq!(
            index.len(),
            self.data.len(),
            "spike index covers {} elements, tensor has {}",
            index.len(),
            self.data.len()
        );
        let last_dim = self.shape.dims().last().copied().unwrap_or(1);
        assert_eq!(
            index.cols(),
            last_dim.max(1),
            "spike index rows must span the tensor's last dimension"
        );
        debug_assert!(
            index.matches_dense(&self.data),
            "spike index diverges from the tensor contents"
        );
        self.spike_index = Some(index);
    }

    /// Builder-style [`Tensor::attach_spike_index`].
    #[must_use]
    pub fn with_spike_index(mut self, index: Arc<SpikeIndex>) -> Self {
        self.attach_spike_index(index);
        self
    }

    // ------------------------------------------------------------------
    // Constructors
    // ------------------------------------------------------------------

    /// Creates a tensor filled with zeros.
    pub fn zeros(shape: &[usize]) -> Self {
        let shape = Shape::from(shape);
        let len = shape.len();
        Self::from_shape_data(shape, vec![0.0; len])
    }

    /// Creates a tensor filled with ones.
    pub fn ones(shape: &[usize]) -> Self {
        Self::full(shape, 1.0)
    }

    /// Creates a tensor filled with `value`.
    pub fn full(shape: &[usize], value: f32) -> Self {
        let shape = Shape::from(shape);
        let len = shape.len();
        Self::from_shape_data(shape, vec![value; len])
    }

    /// Creates a rank-0 tensor holding a single scalar.
    pub fn scalar(value: f32) -> Self {
        Self::from_shape_data(Shape::new(vec![]), vec![value])
    }

    /// Creates a tensor from a shape and a flat row-major data vector.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::DataLengthMismatch`] when `data.len()` differs
    /// from the element count implied by `shape`.
    pub fn from_vec(shape: Vec<usize>, data: Vec<f32>) -> Result<Self> {
        let shape = Shape::new(shape);
        if shape.len() != data.len() {
            return Err(TensorError::DataLengthMismatch {
                expected: shape.len(),
                actual: data.len(),
            });
        }
        Ok(Self::from_shape_data(shape, data))
    }

    /// Creates a tensor by calling `f` with the flat index of every element.
    pub fn from_fn(shape: &[usize], mut f: impl FnMut(usize) -> f32) -> Self {
        let shape = Shape::from(shape);
        let len = shape.len();
        let data = (0..len).map(&mut f).collect();
        Self::from_shape_data(shape, data)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Returns the dimension extents.
    pub fn shape(&self) -> &[usize] {
        self.shape.dims()
    }

    /// Returns the shape object (with stride helpers).
    pub fn shape_obj(&self) -> &Shape {
        &self.shape
    }

    /// Returns the number of dimensions.
    pub fn ndim(&self) -> usize {
        self.shape.ndim()
    }

    /// Returns the total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Returns `true` when the tensor holds no elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Returns the flat row-major data.
    pub fn data(&self) -> &[f32] {
        &self.data
    }

    /// Returns the flat row-major data mutably. Re-mints the content id and
    /// drops any spike index — the caller may write anything.
    pub fn data_mut(&mut self) -> &mut [f32] {
        self.invalidate_content();
        &mut self.data
    }

    /// Consumes the tensor, returning its flat row-major data.
    pub fn into_data(self) -> Vec<f32> {
        self.data
    }

    /// Returns the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds. Use [`Tensor::try_get`] for a
    /// fallible variant.
    pub fn get(&self, index: &[usize]) -> f32 {
        self.try_get(index).expect("tensor index out of bounds")
    }

    /// Returns the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the index is invalid.
    pub fn try_get(&self, index: &[usize]) -> Result<f32> {
        let offset = self.shape.offset(index)?;
        Ok(self.data[offset])
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds. Use [`Tensor::try_set`] for a
    /// fallible variant.
    pub fn set(&mut self, index: &[usize], value: f32) {
        self.try_set(index, value)
            .expect("tensor index out of bounds");
    }

    /// Sets the element at a multi-dimensional index.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::IndexOutOfBounds`] when the index is invalid.
    pub fn try_set(&mut self, index: &[usize], value: f32) -> Result<()> {
        let offset = self.shape.offset(index)?;
        self.invalidate_content();
        self.data[offset] = value;
        Ok(())
    }

    // ------------------------------------------------------------------
    // Shape manipulation
    // ------------------------------------------------------------------

    /// Returns a copy of the tensor with a new shape.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] when the element counts
    /// differ.
    pub fn reshape(&self, shape: &[usize]) -> Result<Self> {
        self.clone().into_reshaped(shape)
    }

    /// Consumes the tensor, returning it with a new shape (no copy of data).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ReshapeMismatch`] when the element counts
    /// differ.
    pub fn into_reshaped(self, shape: &[usize]) -> Result<Self> {
        let new_shape = Shape::from(shape);
        if new_shape.len() != self.data.len() {
            return Err(TensorError::ReshapeMismatch {
                from: self.data.len(),
                to: new_shape.len(),
            });
        }
        Ok(Self {
            shape: new_shape,
            data: self.data,
            // The bytes are untouched: a reshape keeps the content id (keys
            // that must distinguish shapes absorb dims separately). The
            // index describes last-dimension rows, which a reshape changes,
            // so it does not survive.
            content_id: self.content_id,
            spike_index: None,
        })
    }

    /// Returns a copy flattened to one dimension.
    pub fn flatten(&self) -> Self {
        Self {
            shape: Shape::new(vec![self.data.len()]),
            data: self.data.clone(),
            content_id: self.content_id,
            spike_index: None,
        }
    }

    // ------------------------------------------------------------------
    // Element-wise maps and arithmetic
    // ------------------------------------------------------------------

    /// Returns a new tensor with `f` applied to every element.
    pub fn map(&self, mut f: impl FnMut(f32) -> f32) -> Self {
        Self::from_shape_data(
            self.shape.clone(),
            self.data.iter().map(|&v| f(v)).collect(),
        )
    }

    /// Applies `f` to every element in place.
    pub fn map_inplace(&mut self, mut f: impl FnMut(f32) -> f32) {
        self.invalidate_content();
        for v in &mut self.data {
            *v = f(*v);
        }
    }

    /// Combines two same-shaped tensors element-wise through `f`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn zip_map(&self, other: &Self, mut f: impl FnMut(f32, f32) -> f32) -> Result<Self> {
        self.check_same_shape(other)?;
        Ok(Self::from_shape_data(
            self.shape.clone(),
            self.data
                .iter()
                .zip(&other.data)
                .map(|(&a, &b)| f(a, b))
                .collect(),
        ))
    }

    /// Element-wise sum of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add(&self, other: &Self) -> Result<Self> {
        self.zip_map(other, |a, b| a + b)
    }

    /// Element-wise difference of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn sub(&self, other: &Self) -> Result<Self> {
        self.zip_map(other, |a, b| a - b)
    }

    /// Element-wise (Hadamard) product of two same-shaped tensors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn mul(&self, other: &Self) -> Result<Self> {
        self.zip_map(other, |a, b| a * b)
    }

    /// Adds `other` into `self` in place.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add_assign(&mut self, other: &Self) -> Result<()> {
        self.check_same_shape(other)?;
        self.invalidate_content();
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += b;
        }
        Ok(())
    }

    /// Adds `scale * other` into `self` in place (axpy).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add_scaled_assign(&mut self, other: &Self, scale: f32) -> Result<()> {
        self.check_same_shape(other)?;
        self.invalidate_content();
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += scale * b;
        }
        Ok(())
    }

    /// Returns `self + scalar`.
    pub fn add_scalar(&self, scalar: f32) -> Self {
        self.map(|v| v + scalar)
    }

    /// Returns `self * scalar`.
    pub fn mul_scalar(&self, scalar: f32) -> Self {
        self.map(|v| v * scalar)
    }

    /// Multiplies every element by `scalar` in place.
    pub fn scale_inplace(&mut self, scalar: f32) {
        self.invalidate_content();
        for v in &mut self.data {
            *v *= scalar;
        }
    }

    /// Fills the tensor with `value`.
    pub fn fill(&mut self, value: f32) {
        self.invalidate_content();
        for v in &mut self.data {
            *v = value;
        }
    }

    // ------------------------------------------------------------------
    // Batch (axis-0) helpers
    // ------------------------------------------------------------------

    /// Returns the sub-tensor `self[start..end]` along the first axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for scalars or when
    /// `start > end` or `end` exceeds the first-axis extent.
    pub fn slice_axis0(&self, start: usize, end: usize) -> Result<Self> {
        if self.ndim() == 0 {
            return Err(TensorError::InvalidArgument {
                reason: "cannot slice a scalar tensor".into(),
            });
        }
        let dim0 = self.shape.dim(0);
        if start > end || end > dim0 {
            return Err(TensorError::InvalidArgument {
                reason: format!("slice range {start}..{end} out of bounds for axis of size {dim0}"),
            });
        }
        let inner: usize = self.shape.dims()[1..].iter().product();
        let mut dims = self.shape.dims().to_vec();
        dims[0] = end - start;
        let data = self.data[start * inner..end * inner].to_vec();
        Ok(Self::from_shape_data(Shape::new(dims), data))
    }

    /// Returns the `i`-th sub-tensor along the first axis (with that axis
    /// removed).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for scalars or out-of-range
    /// indices.
    pub fn index_axis0(&self, i: usize) -> Result<Self> {
        let sliced = self.slice_axis0(i, i + 1)?;
        let dims = self.shape.dims()[1..].to_vec();
        sliced.into_reshaped(&dims)
    }

    /// Stacks same-shaped tensors along a new leading axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when `items` is empty and
    /// [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn stack_axis0(items: &[Self]) -> Result<Self> {
        let first = items.first().ok_or_else(|| TensorError::InvalidArgument {
            reason: "cannot stack an empty list of tensors".into(),
        })?;
        let mut data = Vec::with_capacity(first.len() * items.len());
        for item in items {
            first.check_same_shape(item)?;
            data.extend_from_slice(&item.data);
        }
        let mut dims = vec![items.len()];
        dims.extend_from_slice(first.shape());
        Ok(Self::from_shape_data(Shape::new(dims), data))
    }

    /// Concatenates tensors along the existing first axis.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] when `items` is empty or the
    /// trailing dimensions disagree.
    pub fn concat_axis0(items: &[Self]) -> Result<Self> {
        let first = items.first().ok_or_else(|| TensorError::InvalidArgument {
            reason: "cannot concatenate an empty list of tensors".into(),
        })?;
        if first.ndim() == 0 {
            return Err(TensorError::InvalidArgument {
                reason: "cannot concatenate scalar tensors".into(),
            });
        }
        let trailing = &first.shape()[1..];
        let mut dim0 = 0usize;
        let mut data = Vec::new();
        for item in items {
            if item.ndim() == 0 || &item.shape()[1..] != trailing {
                return Err(TensorError::InvalidArgument {
                    reason: format!(
                        "cannot concatenate shapes {:?} and {:?} along axis 0",
                        first.shape(),
                        item.shape()
                    ),
                });
            }
            dim0 += item.shape()[0];
            data.extend_from_slice(&item.data);
        }
        let mut dims = vec![dim0];
        dims.extend_from_slice(trailing);
        Ok(Self::from_shape_data(Shape::new(dims), data))
    }

    // ------------------------------------------------------------------
    // Internal helpers
    // ------------------------------------------------------------------

    fn check_same_shape(&self, other: &Self) -> Result<()> {
        if self.shape != other.shape {
            return Err(TensorError::ShapeMismatch {
                left: self.shape.dims().to_vec(),
                right: other.shape.dims().to_vec(),
            });
        }
        Ok(())
    }
}

impl Default for Tensor {
    /// Returns an empty rank-1 tensor with zero elements.
    fn default() -> Self {
        Self::from_shape_data(Shape::new(vec![0]), Vec::new())
    }
}

impl fmt::Display for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor(shape={}, ", self.shape)?;
        if self.data.len() <= 8 {
            write!(f, "data={:?})", self.data)
        } else {
            write!(
                f,
                "data=[{}, {}, ... {} elements ...])",
                self.data[0],
                self.data[1],
                self.data.len()
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_produce_expected_contents() {
        assert_eq!(Tensor::zeros(&[2, 2]).data(), &[0.0; 4]);
        assert_eq!(Tensor::ones(&[3]).data(), &[1.0; 3]);
        assert_eq!(Tensor::full(&[2], 2.5).data(), &[2.5, 2.5]);
        assert_eq!(Tensor::scalar(7.0).get(&[]), 7.0);
        let t = Tensor::from_fn(&[2, 2], |i| i as f32);
        assert_eq!(t.data(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Tensor::from_vec(vec![2, 2], vec![1.0; 4]).is_ok());
        assert!(matches!(
            Tensor::from_vec(vec![2, 2], vec![1.0; 3]),
            Err(TensorError::DataLengthMismatch { .. })
        ));
    }

    #[test]
    fn get_set_roundtrip() {
        let mut t = Tensor::zeros(&[2, 3]);
        t.set(&[1, 2], 5.0);
        assert_eq!(t.get(&[1, 2]), 5.0);
        assert_eq!(t.data()[5], 5.0);
        assert!(t.try_get(&[2, 0]).is_err());
        assert!(t.try_set(&[0, 3], 1.0).is_err());
    }

    #[test]
    fn reshape_preserves_data_and_validates_count() {
        let t = Tensor::from_vec(vec![2, 3], (0..6).map(|i| i as f32).collect()).unwrap();
        let r = t.reshape(&[3, 2]).unwrap();
        assert_eq!(r.shape(), &[3, 2]);
        assert_eq!(r.data(), t.data());
        assert!(t.reshape(&[4, 2]).is_err());
        assert_eq!(t.flatten().shape(), &[6]);
    }

    #[test]
    fn elementwise_arithmetic() {
        let a = Tensor::from_vec(vec![3], vec![1.0, 2.0, 3.0]).unwrap();
        let b = Tensor::from_vec(vec![3], vec![4.0, 5.0, 6.0]).unwrap();
        assert_eq!(a.add(&b).unwrap().data(), &[5.0, 7.0, 9.0]);
        assert_eq!(b.sub(&a).unwrap().data(), &[3.0, 3.0, 3.0]);
        assert_eq!(a.mul(&b).unwrap().data(), &[4.0, 10.0, 18.0]);
        assert_eq!(a.add_scalar(1.0).data(), &[2.0, 3.0, 4.0]);
        assert_eq!(a.mul_scalar(2.0).data(), &[2.0, 4.0, 6.0]);
    }

    #[test]
    fn arithmetic_rejects_shape_mismatch() {
        let a = Tensor::zeros(&[2, 2]);
        let b = Tensor::zeros(&[4]);
        assert!(matches!(a.add(&b), Err(TensorError::ShapeMismatch { .. })));
    }

    #[test]
    fn inplace_operations() {
        let mut a = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![2], vec![3.0, 4.0]).unwrap();
        a.add_assign(&b).unwrap();
        assert_eq!(a.data(), &[4.0, 6.0]);
        a.add_scaled_assign(&b, -1.0).unwrap();
        assert_eq!(a.data(), &[1.0, 2.0]);
        a.scale_inplace(3.0);
        assert_eq!(a.data(), &[3.0, 6.0]);
        a.fill(0.5);
        assert_eq!(a.data(), &[0.5, 0.5]);
        a.map_inplace(|v| v + 1.0);
        assert_eq!(a.data(), &[1.5, 1.5]);
    }

    #[test]
    fn slice_and_index_axis0() {
        let t = Tensor::from_vec(vec![3, 2], (0..6).map(|i| i as f32).collect()).unwrap();
        let s = t.slice_axis0(1, 3).unwrap();
        assert_eq!(s.shape(), &[2, 2]);
        assert_eq!(s.data(), &[2.0, 3.0, 4.0, 5.0]);
        let row = t.index_axis0(2).unwrap();
        assert_eq!(row.shape(), &[2]);
        assert_eq!(row.data(), &[4.0, 5.0]);
        assert!(t.slice_axis0(2, 5).is_err());
        assert!(Tensor::scalar(1.0).slice_axis0(0, 1).is_err());
    }

    #[test]
    fn stack_and_concat_axis0() {
        let a = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        let b = Tensor::from_vec(vec![2], vec![3.0, 4.0]).unwrap();
        let stacked = Tensor::stack_axis0(&[a.clone(), b.clone()]).unwrap();
        assert_eq!(stacked.shape(), &[2, 2]);
        assert_eq!(stacked.data(), &[1.0, 2.0, 3.0, 4.0]);

        let c = Tensor::from_vec(vec![1, 2], vec![5.0, 6.0]).unwrap();
        let cat = Tensor::concat_axis0(&[stacked, c]).unwrap();
        assert_eq!(cat.shape(), &[3, 2]);
        assert_eq!(cat.data(), &[1.0, 2.0, 3.0, 4.0, 5.0, 6.0]);

        assert!(Tensor::stack_axis0(&[]).is_err());
        let d = Tensor::zeros(&[3]);
        assert!(Tensor::stack_axis0(&[a, d]).is_err());
    }

    #[test]
    fn display_is_nonempty() {
        let t = Tensor::zeros(&[2, 2]);
        assert!(t.to_string().contains("shape"));
        let big = Tensor::zeros(&[100]);
        assert!(big.to_string().contains("elements"));
    }
}
