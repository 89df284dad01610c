//! Weight-to-PE mapping of the weight-stationary dataflow.
//!
//! A layer's weights form a matrix `[out_dim, in_dim]` (convolutions are
//! flattened to `[out_channels, in_channels * k * k]` by the im2col lowering).
//! The array tiles that matrix: weight element `(o, i)` is pre-stored in PE
//! `(i mod rows, o mod cols)`. Because the array is reused across tiles and
//! layers, a single faulty PE touches *every* weight whose coordinates fold
//! onto it — the effect the paper highlights ("bypassing a single faulty PE
//! may result in the pruning of multiple pre-trained weights").

use crate::{FaultMap, PeCoord};
use falvolt_tensor::Tensor;

/// Weight-stationary tiling of weight matrices onto an `rows x cols` PE grid.
///
/// # Example
///
/// ```
/// use falvolt_systolic::{SystolicConfig, WeightMapping};
///
/// # fn main() -> Result<(), falvolt_systolic::SystolicError> {
/// let config = SystolicConfig::new(4, 4)?;
/// let mapping = WeightMapping::new(&config);
/// // Weight (out=5, in=2) folds onto PE (2 % 4, 5 % 4) = (2, 1).
/// let pe = mapping.pe_for(5, 2);
/// assert_eq!((pe.row, pe.col), (2, 1));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WeightMapping {
    rows: usize,
    cols: usize,
}

impl WeightMapping {
    /// Creates the mapping for a systolic configuration.
    pub fn new(config: &crate::SystolicConfig) -> Self {
        Self {
            rows: config.rows(),
            cols: config.cols(),
        }
    }

    /// Creates the mapping from explicit grid dimensions.
    pub fn from_grid(rows: usize, cols: usize) -> Self {
        Self { rows, cols }
    }

    /// Grid rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Grid columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// The PE that stores weight element `(out_idx, in_idx)`.
    pub fn pe_for(&self, out_idx: usize, in_idx: usize) -> PeCoord {
        PeCoord::new(in_idx % self.rows, out_idx % self.cols)
    }

    /// Indices `(out_idx, in_idx)` of all weights of an `[out_dim, in_dim]`
    /// matrix that map onto a faulty PE of `fault_map`.
    pub fn pruned_indices(
        &self,
        out_dim: usize,
        in_dim: usize,
        fault_map: &FaultMap,
    ) -> Vec<(usize, usize)> {
        if fault_map.is_empty() {
            return Vec::new();
        }
        let mut pruned = Vec::new();
        for out_idx in 0..out_dim {
            for in_idx in 0..in_dim {
                if fault_map.is_faulty(self.pe_for(out_idx, in_idx)) {
                    pruned.push((out_idx, in_idx));
                }
            }
        }
        pruned
    }

    /// A `[out_dim, in_dim]` mask tensor with `0.0` at weights mapped to
    /// faulty PEs and `1.0` elsewhere. Multiplying a weight matrix by this
    /// mask performs the paper's fault-aware pruning.
    pub fn prune_mask(&self, out_dim: usize, in_dim: usize, fault_map: &FaultMap) -> Tensor {
        let mut mask = Tensor::ones(&[out_dim, in_dim]);
        if fault_map.is_empty() {
            return mask;
        }
        // The fault pattern repeats with period (rows, cols); precompute one
        // period to avoid a HashMap lookup per weight on large layers.
        let mut faulty_tile = vec![false; self.rows * self.cols];
        for (idx, flag) in faulty_tile.iter_mut().enumerate() {
            let pe = PeCoord::new(idx / self.cols, idx % self.cols);
            *flag = fault_map.is_faulty(pe);
        }
        let data = mask.data_mut();
        for out_idx in 0..out_dim {
            let col = out_idx % self.cols;
            for in_idx in 0..in_dim {
                let row = in_idx % self.rows;
                if faulty_tile[row * self.cols + col] {
                    data[out_idx * in_dim + in_idx] = 0.0;
                }
            }
        }
        mask
    }

    /// Fraction of weights of an `[out_dim, in_dim]` matrix that the fault
    /// map prunes.
    pub fn pruned_fraction(&self, out_dim: usize, in_dim: usize, fault_map: &FaultMap) -> f64 {
        if out_dim == 0 || in_dim == 0 {
            return 0.0;
        }
        let mask = self.prune_mask(out_dim, in_dim, fault_map);
        let kept: f32 = mask.data().iter().sum();
        1.0 - kept as f64 / (out_dim * in_dim) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fault, StuckAt, SystolicConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config4() -> SystolicConfig {
        SystolicConfig::new(4, 4).unwrap()
    }

    #[test]
    fn mapping_folds_with_grid_period() {
        let mapping = WeightMapping::new(&config4());
        assert_eq!(mapping.pe_for(0, 0), PeCoord::new(0, 0));
        assert_eq!(mapping.pe_for(4, 4), PeCoord::new(0, 0));
        assert_eq!(mapping.pe_for(5, 2), PeCoord::new(2, 1));
        assert_eq!(mapping.rows(), 4);
        assert_eq!(mapping.cols(), 4);
    }

    #[test]
    fn one_faulty_pe_prunes_many_weights_when_array_is_reused() {
        let config = config4();
        let mapping = WeightMapping::new(&config);
        let fault_map = FaultMap::from_faults(
            config,
            vec![Fault::new(PeCoord::new(1, 2), 15, StuckAt::One)],
        )
        .unwrap();
        // An 8x8 weight matrix folds twice onto the 4x4 grid in each
        // dimension, so the single faulty PE prunes 2*2 = 4 weights.
        let pruned = mapping.pruned_indices(8, 8, &fault_map);
        assert_eq!(pruned.len(), 4);
        for (o, i) in pruned {
            assert_eq!(i % 4, 1);
            assert_eq!(o % 4, 2);
        }
    }

    #[test]
    fn prune_mask_matches_pruned_indices() {
        let config = config4();
        let mapping = WeightMapping::new(&config);
        let mut rng = StdRng::seed_from_u64(17);
        let fault_map =
            FaultMap::random_faulty_pes(&config, 5, 15, StuckAt::One, &mut rng).unwrap();
        let mask = mapping.prune_mask(10, 7, &fault_map);
        let indices = mapping.pruned_indices(10, 7, &fault_map);
        let zero_count = mask.data().iter().filter(|&&v| v == 0.0).count();
        assert_eq!(zero_count, indices.len());
        for (o, i) in indices {
            assert_eq!(mask.get(&[o, i]), 0.0);
        }
    }

    #[test]
    fn empty_fault_map_prunes_nothing() {
        let config = config4();
        let mapping = WeightMapping::new(&config);
        let fault_map = FaultMap::new(config);
        assert!(mapping.pruned_indices(16, 16, &fault_map).is_empty());
        assert_eq!(mapping.pruned_fraction(16, 16, &fault_map), 0.0);
        assert!(mapping
            .prune_mask(16, 16, &fault_map)
            .data()
            .iter()
            .all(|&v| v == 1.0));
    }

    #[test]
    fn pruned_fraction_tracks_fault_rate_for_large_layers() {
        // When the weight matrix is much larger than the array, the pruned
        // fraction approaches the PE fault rate.
        let config = SystolicConfig::new(8, 8).unwrap();
        let mapping = WeightMapping::new(&config);
        let mut rng = StdRng::seed_from_u64(23);
        let fault_map =
            FaultMap::random_faulty_pes(&config, 19, 15, StuckAt::One, &mut rng).unwrap();
        let frac = mapping.pruned_fraction(64, 64, &fault_map);
        assert!((frac - fault_map.fault_rate()).abs() < 1e-9);
    }

    #[test]
    fn small_matrix_on_large_array_prunes_at_most_once_per_weight() {
        let config = SystolicConfig::new(16, 16).unwrap();
        let mapping = WeightMapping::new(&config);
        let fault_map = FaultMap::from_faults(
            config,
            vec![Fault::new(PeCoord::new(2, 3), 15, StuckAt::One)],
        )
        .unwrap();
        // A 4x4 matrix does not even reach PE (2, 3)'s column/row fold, except
        // for the single direct hit if within range.
        let pruned = mapping.pruned_indices(4, 4, &fault_map);
        assert!(pruned.len() <= 1);
    }
}
