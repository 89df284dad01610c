//! The processing element (PE) of the systolicSNN.
//!
//! A PE stores one pre-loaded weight (weight-stationary dataflow), adds it to
//! the partial sum flowing down its column whenever the 1-bit spike input is
//! asserted, counts the spikes it has seen, and forwards the (possibly
//! fault-corrupted) partial sum. Multi-valued inputs (the pixels an encoder
//! layer sees) add the quantized product of the input and the raw weight.
//!
//! The bypass multiplexer of the paper's Figure 3b lets a faulty PE forward
//! the incoming partial sum untouched. It is modelled only here and in the
//! structural [`crate::SystolicArray`]: a bypassed PE computes exactly what
//! a fault-free PE holding a zero weight computes, so a chip with its faulty
//! PEs bypassed equals the fault-free chip running the fault-aware-pruned
//! weights ([`crate::WeightMapping::prune_mask`]). The fast
//! [`crate::SystolicExecutor`] has no bypass mode and runs it that way.

use crate::fault_map::PeMasks;
use falvolt_fixedpoint::{Fixed, QFormat};

/// One processing element of the weight-stationary systolic array.
///
/// # Example
///
/// ```
/// use falvolt_fixedpoint::{Fixed, QFormat};
/// use falvolt_systolic::ProcessingElement;
///
/// let format = QFormat::accumulator_default();
/// let mut pe = ProcessingElement::new(format);
/// pe.load_weight(0.5);
/// let presum = Fixed::zero(format);
/// let out = pe.process(presum, true);
/// assert!((out.to_f32() - 0.5).abs() < 1e-2);
/// assert_eq!(pe.spike_count(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ProcessingElement {
    format: QFormat,
    raw_weight: f32,
    weight: Fixed,
    masks: PeMasks,
    bypassed: bool,
    spike_count: u64,
}

impl ProcessingElement {
    /// Creates a fault-free PE with a zero weight.
    pub fn new(format: QFormat) -> Self {
        Self {
            format,
            raw_weight: 0.0,
            weight: Fixed::zero(format),
            masks: PeMasks::identity(),
            bypassed: false,
            spike_count: 0,
        }
    }

    /// Pre-stores the weight for the current layer tile. The PE keeps the
    /// raw value for multi-valued inputs next to its quantization to the
    /// accumulator format.
    pub fn load_weight(&mut self, weight: f32) {
        self.raw_weight = weight;
        self.weight = Fixed::from_f32(weight, self.format);
    }

    /// The currently loaded weight (after quantization).
    pub fn weight(&self) -> Fixed {
        self.weight
    }

    /// Installs the stuck-at fault masks of this PE.
    pub fn set_masks(&mut self, masks: PeMasks) {
        self.masks = masks;
    }

    /// The stuck-at fault masks of this PE.
    pub fn masks(&self) -> PeMasks {
        self.masks
    }

    /// Returns `true` when the PE has at least one stuck-at fault.
    pub fn is_faulty(&self) -> bool {
        !self.masks.is_identity()
    }

    /// Enables or disables the bypass multiplexer (Figure 3b of the paper).
    pub fn set_bypassed(&mut self, bypassed: bool) {
        self.bypassed = bypassed;
    }

    /// Returns `true` when the bypass path is enabled.
    pub fn is_bypassed(&self) -> bool {
        self.bypassed
    }

    /// Number of spikes this PE has processed since the last reset (the
    /// paper's internal counter used during inference).
    pub fn spike_count(&self) -> u64 {
        self.spike_count
    }

    /// Resets the internal spike counter.
    pub fn reset_spike_count(&mut self) {
        self.spike_count = 0;
    }

    /// Processes one cycle: adds the stored weight to `presum` when `spike`
    /// is asserted, applies the PE's stuck-at faults to the accumulator
    /// output, and returns the partial sum forwarded to the next PE in the
    /// column.
    ///
    /// When the bypass path is enabled the incoming partial sum is forwarded
    /// untouched (the faulty accumulator is skipped), which is exactly the
    /// hardware analogue of pruning the weights mapped to this PE.
    pub fn process(&mut self, presum: Fixed, spike: bool) -> Fixed {
        self.process_activation(presum, if spike { 1.0 } else { 0.0 })
    }

    /// [`ProcessingElement::process`] for a multi-valued input `activation`:
    /// a nonzero input adds `Fixed::from_f32(activation * w)` computed from
    /// the raw weight `w` (for a spike, `1.0 * w`, exactly the stored
    /// quantized weight) and counts as a spike; zero adds nothing. The stuck-at
    /// masks and the bypass path act as for a spike.
    pub fn process_activation(&mut self, presum: Fixed, activation: f32) -> Fixed {
        let active = activation != 0.0;
        if active {
            self.spike_count += 1;
        }
        if self.bypassed {
            return presum;
        }
        let accumulated = if active {
            presum.saturating_add(Fixed::from_f32(activation * self.raw_weight, self.format))
        } else {
            presum
        };
        self.masks.apply(accumulated)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fault, FaultMap, PeCoord, StuckAt, SystolicConfig};

    fn format() -> QFormat {
        QFormat::accumulator_default()
    }

    #[test]
    fn accumulates_only_under_spikes() {
        let mut pe = ProcessingElement::new(format());
        pe.load_weight(1.25);
        let presum = Fixed::from_f32(2.0, format());
        let with_spike = pe.process(presum, true);
        assert!((with_spike.to_f32() - 3.25).abs() < 1e-2);
        let without_spike = pe.process(presum, false);
        assert!((without_spike.to_f32() - 2.0).abs() < 1e-2);
        assert_eq!(pe.spike_count(), 1);
    }

    #[test]
    fn counts_and_resets_spikes() {
        let mut pe = ProcessingElement::new(format());
        pe.load_weight(0.1);
        let z = Fixed::zero(format());
        for _ in 0..5 {
            pe.process(z, true);
        }
        pe.process(z, false);
        assert_eq!(pe.spike_count(), 5);
        pe.reset_spike_count();
        assert_eq!(pe.spike_count(), 0);
    }

    #[test]
    fn faulty_pe_corrupts_accumulator_output() {
        let config = SystolicConfig::new(2, 2).unwrap();
        let mut map = FaultMap::new(config);
        map.insert(Fault::new(PeCoord::new(0, 0), 15, StuckAt::One))
            .unwrap();

        let mut pe = ProcessingElement::new(format());
        pe.load_weight(1.0);
        pe.set_masks(map.masks(PeCoord::new(0, 0)).unwrap());
        assert!(pe.is_faulty());
        let out = pe.process(Fixed::from_f32(1.0, format()), true);
        assert!(out.to_f32() < 0.0, "sign bit stuck at 1 flips the sum");
    }

    #[test]
    fn bypass_forwards_presum_untouched() {
        let config = SystolicConfig::new(2, 2).unwrap();
        let mut map = FaultMap::new(config);
        map.insert(Fault::new(PeCoord::new(0, 0), 15, StuckAt::One))
            .unwrap();

        let mut pe = ProcessingElement::new(format());
        pe.load_weight(1.0);
        pe.set_masks(map.masks(PeCoord::new(0, 0)).unwrap());
        pe.set_bypassed(true);
        assert!(pe.is_bypassed());
        let presum = Fixed::from_f32(2.5, format());
        let out = pe.process(presum, true);
        assert_eq!(out, presum, "bypassed PE must not alter the partial sum");
        // The spike counter still observes traffic (it sits before the mux).
        assert_eq!(pe.spike_count(), 1);
    }

    #[test]
    fn multi_valued_input_adds_the_quantized_product_of_the_raw_weight() {
        let mut pe = ProcessingElement::new(format());
        pe.load_weight(0.3);
        let presum = Fixed::from_f32(1.0, format());
        let out = pe.process_activation(presum, -0.7);
        let expected = presum.saturating_add(Fixed::from_f32(-0.7 * 0.3, format()));
        assert_eq!(out, expected);
        assert_eq!(pe.process_activation(presum, 0.0), presum);
        assert_eq!(pe.process_activation(presum, 1.0), pe.process(presum, true));
        assert_eq!(pe.spike_count(), 3);
    }

    #[test]
    fn weight_is_quantized_to_accumulator_format() {
        let mut pe = ProcessingElement::new(format());
        pe.load_weight(0.123_456);
        let q = format();
        assert!((pe.weight().to_f32() - 0.123_456).abs() <= q.resolution());
    }
}
