//! Compressed spike-structure index (CSR) for binary tensors.
//!
//! Activations downstream of a spiking layer are `{0, 1}` tensors that are
//! overwhelmingly zero. The engine previously recovered that structure by
//! *probing*: every consumer re-scanned the dense buffer (the density probe in
//! the convolution layers, the per-row nonzero scratch lists in the systolic
//! executor — rebuilt once per fault scenario). A [`SpikeIndex`] makes the
//! event stream first-class instead: the layer that fires the spikes records
//! their positions once, in CSR form, and every consumer walks the index.
//!
//! # Representation rules
//!
//! * The index is a **companion view** of a dense [`crate::Tensor`], not a
//!   replacement: the dense buffer stays the single source of truth, which is
//!   what keeps every dense fallback (engine-off baselines, layers that
//!   never learned about spikes) bit-identical for free. A training step
//!   may keep the index alone once the dense buffer is no longer read (the
//!   conv weight gradient needs only the events).
//! * The matrix view is *rows of the last dimension*: a `[m, k]` activation
//!   matrix indexes as `m` rows of width `k`, and an `[N, C, H, W]` spike
//!   frame as `N*C*H` pixel rows of width `W` — exactly the row walks the
//!   matmul and im2col consumers perform.
//! * An index is only ever attached to **binary** tensors (every nonzero is
//!   exactly `1.0`), so consumers may treat a listed position as "add the
//!   weight row" with no multiplication, and the index alone determines the
//!   tensor's nonzero content.
//! * Any mutable access to the tensor's data drops the index
//!   (see [`crate::Tensor::data_mut`]); a stale index cannot survive a write.

use std::sync::Arc;

/// CSR-style row index of the nonzero (spike) positions of a binary tensor.
///
/// # Example
///
/// ```
/// use falvolt_tensor::SpikeIndex;
///
/// let data = [0.0, 1.0, 0.0, 1.0, 1.0, 0.0];
/// let index = SpikeIndex::from_dense(&data, 3).unwrap();
/// assert_eq!(index.rows(), 2);
/// assert_eq!(index.nnz(), 3);
/// assert_eq!(index.row(0), &[1]);
/// assert_eq!(index.row(1), &[0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpikeIndex {
    rows: usize,
    cols: usize,
    /// `rows + 1` offsets into `col_idx`.
    row_ptr: Vec<u32>,
    /// Column of every nonzero, sorted ascending within each row.
    col_idx: Vec<u32>,
}

impl SpikeIndex {
    /// Builds the index by scanning a dense row-major buffer of `rows x cols`
    /// (`rows` inferred from the length). Returns `None` when any nonzero is
    /// not exactly `1.0` — only genuinely binary tensors may carry an index.
    ///
    /// # Panics
    ///
    /// Panics when `cols == 0` or `data.len()` is not a multiple of `cols`.
    pub fn from_dense(data: &[f32], cols: usize) -> Option<Self> {
        assert!(cols > 0, "spike index needs a non-zero row width");
        assert_eq!(
            data.len() % cols,
            0,
            "data length {} is not a multiple of the row width {cols}",
            data.len()
        );
        let rows = data.len() / cols;
        let mut row_ptr = Vec::with_capacity(rows + 1);
        // Paper-typical spike densities are well under 25%; reserving a
        // quarter of the element count avoids regrowth in the common case.
        let mut col_idx = Vec::with_capacity(data.len() / 4 + 8);
        row_ptr.push(0u32);
        for row in data.chunks_exact(cols) {
            for (c, &v) in row.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                if v != 1.0 {
                    return None;
                }
                col_idx.push(c as u32);
            }
            row_ptr.push(col_idx.len() as u32);
        }
        Some(Self {
            rows,
            cols,
            row_ptr,
            col_idx,
        })
    }

    /// Assembles an index from raw CSR parts (used by kernels that derive one
    /// index from another, e.g. the im2col index transform).
    ///
    /// # Panics
    ///
    /// Panics when the parts are inconsistent (wrong `row_ptr` length, offsets
    /// not monotone, or columns out of range) — derived indexes are built by
    /// trusted kernels and must be exact.
    pub fn from_parts(rows: usize, cols: usize, row_ptr: Vec<u32>, col_idx: Vec<u32>) -> Self {
        assert_eq!(
            row_ptr.len(),
            rows + 1,
            "row_ptr must have rows + 1 entries"
        );
        assert_eq!(*row_ptr.first().unwrap_or(&1), 0, "row_ptr must start at 0");
        assert_eq!(
            *row_ptr.last().unwrap_or(&1) as usize,
            col_idx.len(),
            "row_ptr must end at nnz"
        );
        debug_assert!(row_ptr.windows(2).all(|w| w[0] <= w[1]));
        debug_assert!(col_idx.iter().all(|&c| (c as usize) < cols));
        Self {
            rows,
            cols,
            row_ptr,
            col_idx,
        }
    }

    /// Number of index rows (the product of every dimension but the last).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Row width (the tensor's last dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of elements of the indexed tensor.
    pub fn len(&self) -> usize {
        self.rows * self.cols
    }

    /// `true` for an index over zero elements.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total number of nonzero (spike) positions.
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// Fraction of nonzero elements, in `[0, 1]` (`1.0` for empty tensors,
    /// matching [`crate::kernels::OperandProfile::dense`]).
    pub fn density(&self) -> f32 {
        if self.is_empty() {
            return 1.0;
        }
        self.nnz() as f32 / self.len() as f32
    }

    /// The sorted nonzero columns of row `r`.
    ///
    /// # Panics
    ///
    /// Panics when `r` is out of range.
    pub fn row(&self, r: usize) -> &[u32] {
        let start = self.row_ptr[r] as usize;
        let end = self.row_ptr[r + 1] as usize;
        &self.col_idx[start..end]
    }

    /// `true` when the index lists exactly the nonzeros of `data` (and all of
    /// them are `1.0`). Used by consumers' debug assertions.
    pub fn matches_dense(&self, data: &[f32]) -> bool {
        if data.len() != self.len() {
            return false;
        }
        let mut next = 0usize;
        for (r, row) in data.chunks_exact(self.cols.max(1)).enumerate() {
            let cols = self.row(r);
            let mut ci = 0usize;
            for (c, &v) in row.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                if v != 1.0 || ci >= cols.len() || cols[ci] as usize != c {
                    return false;
                }
                ci += 1;
            }
            if ci != cols.len() {
                return false;
            }
            next += cols.len();
        }
        next == self.nnz()
    }

    /// Merges every `group` consecutive rows into one row of width
    /// `group * cols` — the index counterpart of flattening `[N, C, H, W]`
    /// into `[N, C*H*W]` (with `group = C*H`). Columns stay sorted because
    /// source rows are visited in order and offsets grow with the row.
    ///
    /// # Panics
    ///
    /// Panics when `group` is zero or does not divide the row count.
    pub fn flatten_rows(&self, group: usize) -> SpikeIndex {
        assert!(group > 0, "row group must be non-zero");
        assert_eq!(
            self.rows % group,
            0,
            "row group {group} does not divide {} rows",
            self.rows
        );
        let out_rows = self.rows / group;
        let out_cols = group * self.cols;
        let mut row_ptr = Vec::with_capacity(out_rows + 1);
        let mut col_idx = Vec::with_capacity(self.nnz());
        row_ptr.push(0u32);
        for out_row in 0..out_rows {
            for within in 0..group {
                let src = out_row * group + within;
                let offset = (within * self.cols) as u32;
                for &c in self.row(src) {
                    col_idx.push(offset + c);
                }
            }
            row_ptr.push(col_idx.len() as u32);
        }
        SpikeIndex::from_parts(out_rows, out_cols, row_ptr, col_idx)
    }
}

/// Shared handle to a spike index, the form [`crate::Tensor`] carries.
pub type SharedSpikeIndex = Arc<SpikeIndex>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_dense_indexes_binary_rows() {
        let data = [1.0, 0.0, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0];
        let idx = SpikeIndex::from_dense(&data, 4).unwrap();
        assert_eq!(idx.rows(), 2);
        assert_eq!(idx.cols(), 4);
        assert_eq!(idx.nnz(), 4);
        assert_eq!(idx.row(0), &[0]);
        assert_eq!(idx.row(1), &[1, 2, 3]);
        assert!((idx.density() - 0.5).abs() < 1e-6);
        assert!(idx.matches_dense(&data));
    }

    #[test]
    fn from_dense_rejects_non_binary() {
        assert!(SpikeIndex::from_dense(&[0.0, 0.5], 2).is_none());
        assert!(SpikeIndex::from_dense(&[2.0], 1).is_none());
    }

    #[test]
    fn matches_dense_detects_divergence() {
        let data = [0.0, 1.0, 1.0, 0.0];
        let idx = SpikeIndex::from_dense(&data, 2).unwrap();
        assert!(idx.matches_dense(&data));
        assert!(!idx.matches_dense(&[1.0, 1.0, 1.0, 0.0]));
        assert!(!idx.matches_dense(&[0.0, 0.0, 1.0, 0.0]));
        assert!(!idx.matches_dense(&[0.0, 1.0, 1.0]));
    }

    #[test]
    fn flatten_rows_concatenates_groups() {
        // Two samples of 2x3 rows -> two rows of width 6.
        let data = [
            0.0, 1.0, 0.0, /* | */ 1.0, 0.0, 1.0, // sample 0
            1.0, 0.0, 0.0, /* | */ 0.0, 0.0, 0.0, // sample 1
        ];
        let idx = SpikeIndex::from_dense(&data, 3).unwrap();
        let flat = idx.flatten_rows(2);
        assert_eq!(flat.rows(), 2);
        assert_eq!(flat.cols(), 6);
        assert_eq!(flat.row(0), &[1, 3, 5]);
        assert_eq!(flat.row(1), &[0]);
        assert!(flat.matches_dense(&data));
    }

    #[test]
    fn empty_rows_and_all_zero_tensors_are_fine() {
        let idx = SpikeIndex::from_dense(&[0.0; 6], 3).unwrap();
        assert_eq!(idx.nnz(), 0);
        assert_eq!(idx.row(1), &[] as &[u32]);
        assert_eq!(idx.density(), 0.0);
    }
}
