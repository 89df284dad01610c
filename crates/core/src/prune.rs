//! Fault-aware pruning: zero the weights that map onto faulty PEs.
//!
//! This is the first step of every mitigation strategy in the paper
//! (Algorithm 1, lines 1-2): the fault map obtained from post-fabrication
//! testing determines, through the weight-stationary mapping, which weights
//! of every convolutional and fully connected layer land on faulty PEs; those
//! weights are set to zero (equivalently, the faulty PEs are bypassed in
//! hardware, Figure 3b). Because the array is reused across layers and tiles,
//! one faulty PE generally prunes many weights.

use crate::Result;
use falvolt_snn::SpikingNetwork;
use falvolt_systolic::{FaultMap, WeightMapping};
use falvolt_tensor::Tensor;

/// Per-layer prune masks derived from one fault map.
///
/// A mask has the same `[out, in]` shape as the layer's weight matrix, with
/// `0.0` at pruned positions and `1.0` elsewhere. Keeping the masks around is
/// essential for retraining: Algorithm 1 (line 13) re-zeroes the pruned
/// weights at the end of every retraining epoch.
#[derive(Debug, Clone, PartialEq)]
pub struct PruneMasks {
    masks: Vec<(String, Tensor)>,
}

impl PruneMasks {
    /// Derives the prune masks of every prunable layer of `network` for the
    /// given fault map.
    pub fn derive(network: &mut SpikingNetwork, fault_map: &FaultMap) -> Self {
        let mapping = WeightMapping::new(fault_map.config());
        let mut masks = Vec::new();
        for (name, weight) in network.prunable_weights_mut() {
            let shape = weight.value().shape();
            let (out_dim, in_dim) = (shape[0], shape[1]);
            masks.push((name, mapping.prune_mask(out_dim, in_dim, fault_map)));
        }
        Self { masks }
    }

    /// Number of layers covered by the masks.
    pub fn len(&self) -> usize {
        self.masks.len()
    }

    /// Returns `true` when no layer is covered.
    pub fn is_empty(&self) -> bool {
        self.masks.is_empty()
    }

    /// Per-layer `(name, mask)` pairs.
    pub fn layers(&self) -> &[(String, Tensor)] {
        &self.masks
    }

    /// Multiplies every prunable weight of `network` by its mask, zeroing the
    /// weights mapped to faulty PEs. Call this once before retraining and
    /// again at the end of every retraining epoch (Algorithm 1, line 13).
    ///
    /// # Errors
    ///
    /// Returns an error when the network's layer structure no longer matches
    /// the masks (different layer count or weight shapes).
    pub fn apply(&self, network: &mut SpikingNetwork) -> Result<()> {
        let weights = network.prunable_weights_mut();
        if weights.len() != self.masks.len() {
            return Err(crate::FalvoltError::invalid_config(format!(
                "prune masks cover {} layers but the network has {} prunable layers",
                self.masks.len(),
                weights.len()
            )));
        }
        for ((name, mask), (layer_name, weight)) in self.masks.iter().zip(weights) {
            if name != &layer_name || weight.value().shape() != mask.shape() {
                return Err(crate::FalvoltError::invalid_config(format!(
                    "prune mask for layer '{name}' does not match network layer '{layer_name}'"
                )));
            }
            // `assign_value` swaps in the masked tensor without a
            // copy-on-write round trip on the (possibly shared) old buffer.
            let masked = weight.value().mul(mask)?;
            weight.assign_value(masked);
        }
        Ok(())
    }

    /// Overall fraction of weights pruned across all layers.
    pub fn pruned_fraction(&self) -> f64 {
        let mut total = 0usize;
        let mut pruned = 0usize;
        for (_, mask) in &self.masks {
            total += mask.len();
            pruned += mask.data().iter().filter(|&&v| v == 0.0).count();
        }
        if total == 0 {
            0.0
        } else {
            pruned as f64 / total as f64
        }
    }

    /// Per-layer pruned fractions, in network order.
    pub fn per_layer_fractions(&self) -> Vec<PrunedLayerReport> {
        self.masks
            .iter()
            .map(|(name, mask)| {
                let pruned = mask.data().iter().filter(|&&v| v == 0.0).count();
                PrunedLayerReport {
                    layer: name.clone(),
                    total_weights: mask.len(),
                    pruned_weights: pruned,
                }
            })
            .collect()
    }
}

/// Pruning statistics for one layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrunedLayerReport {
    /// Layer name.
    pub layer: String,
    /// Total number of weights in the layer.
    pub total_weights: usize,
    /// Number of weights zeroed by fault-aware pruning.
    pub pruned_weights: usize,
}

impl PrunedLayerReport {
    /// Pruned fraction of this layer.
    pub fn fraction(&self) -> f64 {
        if self.total_weights == 0 {
            0.0
        } else {
            self.pruned_weights as f64 / self.total_weights as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falvolt_snn::config::ArchitectureConfig;
    use falvolt_systolic::{StuckAt, SystolicConfig};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn network() -> SpikingNetwork {
        ArchitectureConfig::tiny_test().build(3).unwrap()
    }

    #[test]
    fn empty_fault_map_prunes_nothing() {
        let mut net = network();
        let config = SystolicConfig::new(8, 8).unwrap();
        let masks = PruneMasks::derive(&mut net, &FaultMap::new(config));
        assert!(!masks.is_empty());
        assert_eq!(masks.pruned_fraction(), 0.0);
        let before: Vec<f32> = net.prunable_weights_mut()[0].1.value().data().to_vec();
        masks.apply(&mut net).unwrap();
        let after: Vec<f32> = net.prunable_weights_mut()[0].1.value().data().to_vec();
        assert_eq!(before, after);
    }

    #[test]
    fn faulty_pes_zero_the_mapped_weights_everywhere() {
        let mut net = network();
        let config = SystolicConfig::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let fault_map =
            FaultMap::random_with_rate(&config, 0.30, 15, StuckAt::One, &mut rng).unwrap();
        let masks = PruneMasks::derive(&mut net, &fault_map);
        masks.apply(&mut net).unwrap();

        // The pruned fraction should be close to the PE fault rate for large
        // layers (array reuse), and every masked position must now be zero.
        let frac = masks.pruned_fraction();
        assert!(frac > 0.15 && frac < 0.45, "pruned fraction {frac}");
        for ((_, mask), (_, weight)) in masks.layers().iter().zip(net.prunable_weights_mut()) {
            for (m, w) in mask.data().iter().zip(weight.value().data()) {
                if *m == 0.0 {
                    assert_eq!(*w, 0.0);
                }
            }
        }
        // Per-layer reports are consistent with the global fraction.
        let reports = masks.per_layer_fractions();
        assert_eq!(reports.len(), masks.len());
        let total_pruned: usize = reports.iter().map(|r| r.pruned_weights).sum();
        let total: usize = reports.iter().map(|r| r.total_weights).sum();
        assert!((total_pruned as f64 / total as f64 - frac).abs() < 1e-12);
        assert!(reports.iter().all(|r| r.fraction() <= 1.0));
    }

    #[test]
    fn apply_rejects_mismatched_networks() {
        let mut tiny = network();
        let mut other = ArchitectureConfig::mnist_like().build(1).unwrap();
        let config = SystolicConfig::new(4, 4).unwrap();
        let masks = PruneMasks::derive(&mut tiny, &FaultMap::new(config));
        assert!(masks.apply(&mut other).is_err());
    }

    #[test]
    fn reapplying_masks_after_weight_updates_rezeroes_them() {
        let mut net = network();
        let config = SystolicConfig::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(9);
        let fault_map =
            FaultMap::random_with_rate(&config, 0.5, 15, StuckAt::One, &mut rng).unwrap();
        let masks = PruneMasks::derive(&mut net, &fault_map);
        masks.apply(&mut net).unwrap();
        // Simulate an optimizer step that perturbs every weight.
        for (_, weight) in net.prunable_weights_mut() {
            weight.value_mut().map_inplace(|w| w + 0.5);
        }
        masks.apply(&mut net).unwrap();
        for ((_, mask), (_, weight)) in masks.layers().iter().zip(net.prunable_weights_mut()) {
            for (m, w) in mask.data().iter().zip(weight.value().data()) {
                if *m == 0.0 {
                    assert_eq!(
                        *w, 0.0,
                        "pruned weights must stay zero after re-application"
                    );
                }
            }
        }
    }
}
