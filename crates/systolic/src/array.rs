//! Structural (PE-by-PE) simulation of the systolic array.
//!
//! [`SystolicArray`] instantiates one [`ProcessingElement`] per grid position
//! and pushes activation wavefronts through it, exactly as the block diagram
//! in the paper's Figure 1 describes: activations enter the rows, weights are
//! pre-stored in the PEs, partial sums flow down the columns. It is much
//! slower than [`crate::SystolicExecutor`] but models the hardware directly,
//! and [`SystolicArray::matmul`] is the oracle the executor is proptested
//! against bit for bit (`crates/systolic/tests/proptest_systolic.rs`).
//!
//! A whole product `activations [M, K] x weights [K, N]` runs under the
//! executor's weight-stationary tiling:
//!
//! * **Column tiles.** `N` tiles onto the grid columns mod `C`; every column
//!   tile starts its partial sums from zero.
//! * **Fold carry.** `K` folds onto the grid rows mod `R`. Within one column
//!   tile the partial sum leaving the bottom row of one fold re-enters the
//!   top row of the next, so weight row `p` always passes the accumulator of
//!   PE row `p mod R`.
//! * **Partial last fold.** The wavefront of the last fold stops at row
//!   `(K - 1) mod R`: a faulty PE in a row the product never reaches
//!   corrupts nothing.
//!
//! The bypass multiplexer of the paper's Figure 3b is modelled here and in
//! [`ProcessingElement`] only ([`SystolicArray::bypass_faulty_pes`]). It
//! equals fault-aware pruning bit for bit: the bypassed array on `Wᵀ`
//! returns what the fault-free array returns on `(mask ⊙ W)ᵀ`, with `mask`
//! from [`crate::WeightMapping::prune_mask`] (proptested in
//! `tests/proptest_systolic.rs`). The executor therefore has no bypass
//! mode; a bypassed chip runs there as the pruned weights on a fault-free
//! map.
//!
//! The array always models the quantized datapath. The executor differs in
//! one documented place: a fault map with no fault at all is treated as
//! ideal hardware and returns the float product, so comparisons between the
//! two use maps with at least one fault.

use crate::executor::matrix_dims;
use crate::{FaultMap, PeCoord, ProcessingElement, Result, SystolicConfig, SystolicError};
use falvolt_fixedpoint::Fixed;
use falvolt_tensor::{Tensor, TensorError};

/// A structural model of the weight-stationary systolic array.
///
/// # Example
///
/// ```
/// use falvolt_systolic::{FaultMap, SystolicArray, SystolicConfig};
/// use falvolt_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SystolicConfig::new(2, 2)?;
/// let mut array = SystolicArray::new(config, &FaultMap::new(config));
/// array.load_weights(&Tensor::from_vec(vec![2, 2], vec![0.5, 1.0, 0.25, 0.75])?)?;
/// let sums = array.process_spikes(&[true, true]);
/// assert!((sums[0] - 0.75).abs() < 1e-2);
/// assert!((sums[1] - 1.75).abs() < 1e-2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystolicArray {
    config: SystolicConfig,
    grid: Vec<ProcessingElement>,
}

impl SystolicArray {
    /// Builds the array and installs the fault masks from `fault_map`.
    pub fn new(config: SystolicConfig, fault_map: &FaultMap) -> Self {
        let format = config.accumulator_format();
        let mut grid = vec![ProcessingElement::new(format); config.pe_count()];
        for (idx, pe) in grid.iter_mut().enumerate() {
            let coord = PeCoord::new(idx / config.cols(), idx % config.cols());
            if let Some(masks) = fault_map.masks(coord) {
                pe.set_masks(masks);
            }
        }
        Self { config, grid }
    }

    /// The array configuration.
    pub fn config(&self) -> &SystolicConfig {
        &self.config
    }

    /// Borrow a PE for inspection.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::PeOutOfRange`] for coordinates outside the
    /// grid.
    pub fn pe(&self, coord: PeCoord) -> Result<&ProcessingElement> {
        self.index(coord).map(|i| &self.grid[i])
    }

    /// Borrow a PE mutably (e.g. to enable its bypass path).
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::PeOutOfRange`] for coordinates outside the
    /// grid.
    pub fn pe_mut(&mut self, coord: PeCoord) -> Result<&mut ProcessingElement> {
        self.index(coord).map(move |i| &mut self.grid[i])
    }

    /// Enables the bypass multiplexer of every faulty PE.
    pub fn bypass_faulty_pes(&mut self) {
        for pe in &mut self.grid {
            if pe.is_faulty() {
                pe.set_bypassed(true);
            }
        }
    }

    /// Pre-stores a weight tile of shape `[rows, cols]` (or smaller) into the
    /// grid. Weight `(r, c)` lands in PE `(r, c)`; PEs outside a smaller
    /// tile are zeroed, so no weight of an earlier tile survives.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::Tensor`] if the tile is not a matrix or is
    /// larger than the grid.
    pub fn load_weights(&mut self, tile: &Tensor) -> Result<()> {
        let (r, c) = matrix_dims(tile)?;
        if r > self.config.rows() || c > self.config.cols() {
            return Err(SystolicError::Tensor(TensorError::InvalidArgument {
                reason: format!(
                    "weight tile {r}x{c} does not fit the {}x{} grid",
                    self.config.rows(),
                    self.config.cols()
                ),
            }));
        }
        let cols = self.config.cols();
        for (idx, pe) in self.grid.iter_mut().enumerate() {
            let (row, col) = (idx / cols, idx % cols);
            pe.load_weight(if row < r && col < c {
                tile.get(&[row, col])
            } else {
                0.0
            });
        }
        Ok(())
    }

    /// Streams one spike wavefront (one spike per row) through the array and
    /// returns the per-column accumulated sums.
    ///
    /// Rows beyond `spikes.len()` contribute nothing.
    pub fn process_spikes(&mut self, spikes: &[bool]) -> Vec<f32> {
        let activations: Vec<f32> = spikes.iter().map(|&s| if s { 1.0 } else { 0.0 }).collect();
        let mut sums = vec![Fixed::zero(self.config.accumulator_format()); self.config.cols()];
        self.stream(&activations, &mut sums);
        sums.iter().map(Fixed::to_f32).collect()
    }

    /// Computes `activations [M, K] x weights [K, N]` PE by PE under the
    /// weight-stationary tiling described in the [module docs](self): for
    /// every column tile, each fold's weight tile is loaded and all `M`
    /// activation rows stream through it, each row's partial sums carried
    /// into the next fold. Multi-valued activations add the quantized
    /// product with the raw weight
    /// ([`ProcessingElement::process_activation`]); PEs bypassed with
    /// [`SystolicArray::bypass_faulty_pes`] forward their partial sums
    /// untouched.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::Tensor`] for non-matrix operands or
    /// mismatched inner dimensions.
    pub fn matmul(&mut self, activations: &Tensor, weights: &Tensor) -> Result<Tensor> {
        let (m, k) = matrix_dims(activations)?;
        let (k2, n) = matrix_dims(weights)?;
        if k != k2 {
            return Err(SystolicError::Tensor(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: k2,
            }));
        }
        let (rows, cols) = (self.config.rows(), self.config.cols());
        let zero = Fixed::zero(self.config.accumulator_format());
        let (a, w) = (activations.data(), weights.data());
        let mut out = vec![0.0f32; m * n];
        for c0 in (0..n).step_by(cols) {
            let width = cols.min(n - c0);
            // One partial sum per (activation row, tile column).
            let mut sums = vec![zero; m * width];
            for r0 in (0..k).step_by(rows) {
                let height = rows.min(k - r0);
                let tile = Tensor::from_fn(&[height, width], |i| {
                    w[(r0 + i / width) * n + c0 + i % width]
                });
                self.load_weights(&tile)?;
                for (i, row_sums) in sums.chunks_mut(width).enumerate() {
                    self.stream(&a[i * k + r0..i * k + r0 + height], row_sums);
                }
            }
            for (i, row_sums) in sums.chunks(width).enumerate() {
                for (j, sum) in row_sums.iter().enumerate() {
                    out[i * n + c0 + j] = sum.to_f32();
                }
            }
        }
        Ok(Tensor::from_vec(vec![m, n], out)?)
    }

    /// Streams one wavefront down the first `presums.len()` columns: each
    /// column's partial sum enters row 0 as `presums[col]`, passes the PEs
    /// of rows `0..activations.len()` (activation `r` driving row `r`) and
    /// leaves the last of them as the new `presums[col]`.
    fn stream(&mut self, activations: &[f32], presums: &mut [Fixed]) {
        let cols = self.config.cols();
        for (col, sum) in presums.iter_mut().enumerate() {
            for (row, &activation) in activations.iter().enumerate().take(self.config.rows()) {
                *sum = self.grid[row * cols + col].process_activation(*sum, activation);
            }
        }
    }

    /// Total number of spikes observed by all PEs since the last reset.
    pub fn total_spike_count(&self) -> u64 {
        self.grid.iter().map(ProcessingElement::spike_count).sum()
    }

    /// Resets every PE's spike counter.
    pub fn reset_spike_counts(&mut self) {
        for pe in &mut self.grid {
            pe.reset_spike_count();
        }
    }

    fn index(&self, coord: PeCoord) -> Result<usize> {
        if coord.row >= self.config.rows() || coord.col >= self.config.cols() {
            return Err(SystolicError::PeOutOfRange {
                row: coord.row,
                col: coord.col,
                rows: self.config.rows(),
                cols: self.config.cols(),
            });
        }
        Ok(coord.row * self.config.cols() + coord.col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StuckAt, SystolicExecutor};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn config() -> SystolicConfig {
        SystolicConfig::new(4, 4).unwrap()
    }

    #[test]
    fn clean_array_computes_column_sums() {
        let config = config();
        let mut array = SystolicArray::new(config, &FaultMap::new(config));
        let tile = Tensor::from_fn(&[4, 4], |i| (i % 3) as f32 * 0.5);
        array.load_weights(&tile).unwrap();
        let sums = array.process_spikes(&[true, false, true, true]);
        // Column sums of rows {0, 2, 3}.
        for (c, &sum) in sums.iter().enumerate() {
            let expected: f32 = [0usize, 2, 3].iter().map(|&r| tile.get(&[r, c])).sum();
            assert!((sum - expected).abs() < 1e-2, "column {c}");
        }
        assert_eq!(array.total_spike_count(), 3 * 4);
        array.reset_spike_counts();
        assert_eq!(array.total_spike_count(), 0);
    }

    #[test]
    fn structural_and_executor_models_agree() {
        // The executor's fast path and the structural array must compute the
        // same faulty column sums for a single tile pass.
        let config = config();
        let mut rng = StdRng::seed_from_u64(31);
        let fault_map =
            FaultMap::random_faulty_pes(&config, 3, 15, StuckAt::One, &mut rng).unwrap();
        let tile = falvolt_tensor::init::uniform(&[4, 4], -1.0, 1.0, &mut rng);
        let spikes: Vec<bool> = (0..4).map(|_| rng.gen_bool(0.5)).collect();

        let mut array = SystolicArray::new(config, &fault_map);
        array.load_weights(&tile).unwrap();
        let structural = array.process_spikes(&spikes);

        let executor = SystolicExecutor::new(config, fault_map);
        let spike_row = Tensor::from_vec(
            vec![1, 4],
            spikes.iter().map(|&s| if s { 1.0 } else { 0.0 }).collect(),
        )
        .unwrap();
        let fast = executor.matmul(&spike_row, &tile).unwrap();
        assert_eq!(structural.as_slice(), fast.data());
    }

    #[test]
    fn smaller_tile_zeroes_the_pes_outside_it() {
        // Regression: a 2x2 tile loaded after a 4x4 one must not leave the
        // old weights in the PEs outside it.
        let config = config();
        let mut array = SystolicArray::new(config, &FaultMap::new(config));
        array.load_weights(&Tensor::ones(&[4, 4])).unwrap();
        array.load_weights(&Tensor::full(&[2, 2], 0.5)).unwrap();
        assert_eq!(array.process_spikes(&[true; 4]), vec![1.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn folded_product_carries_partial_sums_across_folds() {
        // k = 6 folds twice onto 4 rows and n = 5 tiles twice onto 4
        // columns; a fault-free array sums exactly on the fixed-point
        // lattice, and the ragged last fold and tile contribute their share.
        let config = config();
        let mut array = SystolicArray::new(config, &FaultMap::new(config));
        let a = Tensor::from_fn(&[3, 6], |i| (i % 2) as f32);
        let b = Tensor::from_fn(&[6, 5], |i| (i % 4) as f32 * 0.25);
        let structural = array.matmul(&a, &b).unwrap();
        let float = falvolt_tensor::ops::matmul(&a, &b).unwrap();
        assert_eq!(structural.data(), float.data());
        assert!(array.matmul(&a, &Tensor::ones(&[5, 5])).is_err());
    }

    #[test]
    fn pe_access_validates_coordinates() {
        let config = config();
        let mut array = SystolicArray::new(config, &FaultMap::new(config));
        assert!(array.pe(PeCoord::new(0, 0)).is_ok());
        assert!(array.pe(PeCoord::new(4, 0)).is_err());
        assert!(array.pe_mut(PeCoord::new(0, 4)).is_err());
    }

    #[test]
    fn load_weights_validates_tile() {
        let config = config();
        let mut array = SystolicArray::new(config, &FaultMap::new(config));
        assert!(array.load_weights(&Tensor::ones(&[5, 4])).is_err());
        assert!(array.load_weights(&Tensor::ones(&[4])).is_err());
        assert!(array.load_weights(&Tensor::ones(&[3, 2])).is_ok());
    }
}
