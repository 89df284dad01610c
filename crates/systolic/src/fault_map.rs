//! Fault maps: the set of stuck-at faults present in a fabricated chip.
//!
//! In the paper's methodology a fault map is obtained from post-fabrication
//! testing of each chip; experiments sweep randomly generated fault maps.
//! A [`FaultMap`] validates every fault against the grid and accumulator
//! format and pre-composes each PE's faults into an AND/OR mask pair that the
//! executor applies to the accumulator output on every pass.

use crate::{Fault, PeCoord, Result, StuckAt, SystolicConfig, SystolicError};
use falvolt_fixedpoint::Fixed;
use rand::seq::SliceRandom;
use rand::Rng;
use std::collections::BTreeMap;
use std::fmt;

/// The composed effect of all stuck-at faults of one PE on its accumulator
/// output word: `out = (acc & and_mask) | or_mask`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PeMasks {
    /// AND mask (stuck-at-0 faults clear their bit here).
    pub and_mask: u32,
    /// OR mask (stuck-at-1 faults set their bit here).
    pub or_mask: u32,
}

impl PeMasks {
    /// The identity masks of a fault-free PE.
    pub fn identity() -> Self {
        Self {
            and_mask: u32::MAX,
            or_mask: 0,
        }
    }

    /// Applies the masks to a fixed-point accumulator value.
    pub fn apply(&self, value: Fixed) -> Fixed {
        value.with_masks(self.and_mask, self.or_mask)
    }

    /// Returns `true` if the masks change nothing.
    pub fn is_identity(&self) -> bool {
        self.and_mask == u32::MAX && self.or_mask == 0
    }

    /// Composes two mask applications into one: `self.then(next)` applied
    /// once equals applying `self` and then `next`. Exact on the word level
    /// — `((x & a₁ | o₁) & a₂) | o₂ = (x & a₁a₂) | ((o₁ & a₂) | o₂)` — which
    /// is what lets the executor collapse the run of masks between two
    /// nonzero activations into a single pair and skip zero-activation steps
    /// in faulty columns without changing a bit. Composition is idempotent
    /// (`m.then(m) == m`), so replaying a periodic mask chain any number of
    /// times equals one composed application.
    pub fn then(&self, next: PeMasks) -> PeMasks {
        PeMasks {
            and_mask: self.and_mask & next.and_mask,
            or_mask: (self.or_mask & next.and_mask) | next.or_mask,
        }
    }
}

impl Default for PeMasks {
    fn default() -> Self {
        Self::identity()
    }
}

/// The set of permanent stuck-at faults of one fabricated systolicSNN chip.
///
/// # Example
///
/// ```
/// use falvolt_systolic::{Fault, FaultMap, PeCoord, StuckAt, SystolicConfig};
///
/// # fn main() -> Result<(), falvolt_systolic::SystolicError> {
/// let config = SystolicConfig::new(4, 4)?;
/// let mut map = FaultMap::new(config);
/// map.insert(Fault::new(PeCoord::new(1, 2), 15, StuckAt::One))?;
/// assert!(map.is_faulty(PeCoord::new(1, 2)));
/// assert_eq!(map.faulty_pe_count(), 1);
/// assert!((map.fault_rate() - 1.0 / 16.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FaultMap {
    config: SystolicConfig,
    faults: Vec<Fault>,
    masks: BTreeMap<PeCoord, PeMasks>,
}

impl FaultMap {
    /// Creates an empty (fault-free) map for the given configuration.
    pub fn new(config: SystolicConfig) -> Self {
        Self {
            config,
            faults: Vec::new(),
            masks: BTreeMap::new(),
        }
    }

    /// Creates a map from a list of faults.
    ///
    /// # Errors
    ///
    /// Returns an error if any fault references a PE or bit outside the
    /// configuration.
    pub fn from_faults(config: SystolicConfig, faults: Vec<Fault>) -> Result<Self> {
        let mut map = Self::new(config);
        for fault in faults {
            map.insert(fault)?;
        }
        Ok(map)
    }

    /// Adds a fault to the map.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::PeOutOfRange`] or a fixed-point bit-range
    /// error when the fault is invalid for the configuration.
    pub fn insert(&mut self, fault: Fault) -> Result<()> {
        if fault.pe.row >= self.config.rows() || fault.pe.col >= self.config.cols() {
            return Err(SystolicError::PeOutOfRange {
                row: fault.pe.row,
                col: fault.pe.col,
                rows: self.config.rows(),
                cols: self.config.cols(),
            });
        }
        self.config.accumulator_format().check_bit(fault.bit)?;
        let entry = self.masks.entry(fault.pe).or_insert_with(PeMasks::identity);
        match fault.kind {
            StuckAt::Zero => entry.and_mask &= !(1u32 << fault.bit),
            StuckAt::One => entry.or_mask |= 1u32 << fault.bit,
        }
        self.faults.push(fault);
        Ok(())
    }

    /// The configuration this fault map was generated for.
    pub fn config(&self) -> &SystolicConfig {
        &self.config
    }

    /// All individual faults, in insertion order.
    pub fn faults(&self) -> &[Fault] {
        &self.faults
    }

    /// Number of individual stuck-at faults.
    pub fn fault_count(&self) -> usize {
        self.faults.len()
    }

    /// Number of distinct faulty PEs.
    pub fn faulty_pe_count(&self) -> usize {
        self.masks.len()
    }

    /// Faulty PE coordinates in deterministic (row-major) order.
    pub fn faulty_pes(&self) -> Vec<PeCoord> {
        self.masks.keys().copied().collect()
    }

    /// Fraction of PEs that have at least one fault.
    pub fn fault_rate(&self) -> f64 {
        self.config.fault_rate_for(self.faulty_pe_count())
    }

    /// Returns `true` when the PE has at least one stuck-at fault.
    pub fn is_faulty(&self, pe: PeCoord) -> bool {
        self.masks.contains_key(&pe)
    }

    /// The composed masks of a PE, or `None` for fault-free PEs.
    pub fn masks(&self, pe: PeCoord) -> Option<PeMasks> {
        self.masks.get(&pe).copied()
    }

    /// Returns `true` when the map contains no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Content fingerprint of the map's *effect*: grid shape, accumulator
    /// format and the composed masks of every faulty PE (in canonical
    /// row-major order). Two maps with the same fingerprint corrupt products
    /// identically, which is what backend fingerprints (and through them the
    /// cross-call prefix cache) key on.
    pub fn fingerprint(&self) -> u64 {
        let mut fp = falvolt_tensor::Fingerprint::new();
        fp.write_str("fault-map");
        fp.write_usize(self.config.rows());
        fp.write_usize(self.config.cols());
        let format = self.config.accumulator_format();
        fp.write_usize(format.total_bits() as usize);
        fp.write_usize(format.frac_bits() as usize);
        fp.write_usize(self.masks.len());
        for (pe, masks) in &self.masks {
            fp.write_usize(pe.row);
            fp.write_usize(pe.col);
            fp.write_u64(u64::from(masks.and_mask));
            fp.write_u64(u64::from(masks.or_mask));
        }
        fp.finish() as u64
    }

    // ------------------------------------------------------------------
    // Generators used by the paper's experiments
    // ------------------------------------------------------------------

    /// Generates a fault map with `faulty_pes` distinct random PEs, each
    /// carrying one stuck-at fault of polarity `kind` at bit `bit`.
    ///
    /// This mirrors the paper's per-experiment fault maps: a fixed number of
    /// faulty PEs, faults in a chosen accumulator output bit (MSBs for the
    /// worst-case analysis), uniformly distributed over the grid.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::TooManyFaultyPes`] when more faulty PEs are
    /// requested than the grid has, or a bit-range error for invalid `bit`.
    pub fn random_faulty_pes(
        config: &SystolicConfig,
        faulty_pes: usize,
        bit: u32,
        kind: StuckAt,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        config.accumulator_format().check_bit(bit)?;
        let pes = sample_distinct_pes(config, faulty_pes, rng)?;
        let faults = pes
            .into_iter()
            .map(|pe| Fault::new(pe, bit, kind))
            .collect();
        Self::from_faults(*config, faults)
    }

    /// Generates a fault map with `faulty_pes` distinct random PEs carrying
    /// stuck-at faults of random polarity at random bit positions in the
    /// high-order half of the accumulator word (the paper's worst-case MSB
    /// region).
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::TooManyFaultyPes`] when more faulty PEs are
    /// requested than the grid has.
    pub fn random_msb_faults(
        config: &SystolicConfig,
        faulty_pes: usize,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        let format = config.accumulator_format();
        let half = format.total_bits() / 2;
        let pes = sample_distinct_pes(config, faulty_pes, rng)?;
        let faults = pes
            .into_iter()
            .map(|pe| {
                let bit = rng.gen_range(half..format.total_bits());
                let kind = if rng.gen_bool(0.5) {
                    StuckAt::One
                } else {
                    StuckAt::Zero
                };
                Fault::new(pe, bit, kind)
            })
            .collect();
        Self::from_faults(*config, faults)
    }

    /// Generates a fault map covering a *fraction* `rate` of all PEs, each
    /// with a stuck-at fault of polarity `kind` at bit `bit` — the format the
    /// mitigation experiments use (10%, 30%, 60% faulty PEs).
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::InvalidFaultRate`] for rates outside `[0, 1]`
    /// or a bit-range error for invalid `bit`.
    pub fn random_with_rate(
        config: &SystolicConfig,
        rate: f64,
        bit: u32,
        kind: StuckAt,
        rng: &mut impl Rng,
    ) -> Result<Self> {
        let faulty = config.faulty_pes_for_rate(rate)?;
        Self::random_faulty_pes(config, faulty, bit, kind, rng)
    }

    /// Generates one fault map per requested iteration, as the paper does
    /// ("each iteration uses a distinct fault map", 8 iterations per
    /// experiment).
    ///
    /// # Errors
    ///
    /// Propagates errors from [`FaultMap::random_faulty_pes`].
    pub fn random_batch(
        config: &SystolicConfig,
        faulty_pes: usize,
        bit: u32,
        kind: StuckAt,
        iterations: usize,
        rng: &mut impl Rng,
    ) -> Result<Vec<Self>> {
        (0..iterations)
            .map(|_| Self::random_faulty_pes(config, faulty_pes, bit, kind, rng))
            .collect()
    }
}

impl fmt::Display for FaultMap {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "FaultMap({} faults on {} PEs, {:.3}% of {})",
            self.fault_count(),
            self.faulty_pe_count(),
            self.fault_rate() * 100.0,
            self.config
        )
    }
}

fn sample_distinct_pes(
    config: &SystolicConfig,
    count: usize,
    rng: &mut impl Rng,
) -> Result<Vec<PeCoord>> {
    let total = config.pe_count();
    if count > total {
        return Err(SystolicError::TooManyFaultyPes {
            requested: count,
            available: total,
        });
    }
    // For small requests relative to the grid, rejection sampling avoids
    // materialising the full coordinate list (a 256x256 grid has 65k PEs).
    if count * 4 < total {
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < count {
            let row = rng.gen_range(0..config.rows());
            let col = rng.gen_range(0..config.cols());
            chosen.insert(PeCoord::new(row, col));
        }
        Ok(chosen.into_iter().collect())
    } else {
        let mut all: Vec<PeCoord> = (0..config.rows())
            .flat_map(|r| (0..config.cols()).map(move |c| PeCoord::new(r, c)))
            .collect();
        all.shuffle(rng);
        all.truncate(count);
        Ok(all)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use falvolt_fixedpoint::QFormat;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn config4() -> SystolicConfig {
        SystolicConfig::new(4, 4).unwrap()
    }

    #[test]
    fn masks_compose_multiple_faults_on_one_pe() {
        let mut map = FaultMap::new(config4());
        let pe = PeCoord::new(2, 3);
        map.insert(Fault::new(pe, 0, StuckAt::One)).unwrap();
        map.insert(Fault::new(pe, 15, StuckAt::Zero)).unwrap();
        let masks = map.masks(pe).unwrap();
        assert_eq!(masks.or_mask, 1);
        assert_eq!(masks.and_mask, !(1u32 << 15));
        assert_eq!(map.fault_count(), 2);
        assert_eq!(map.faulty_pe_count(), 1);
    }

    #[test]
    fn insert_validates_pe_and_bit() {
        let mut map = FaultMap::new(config4());
        assert!(matches!(
            map.insert(Fault::new(PeCoord::new(4, 0), 0, StuckAt::One)),
            Err(SystolicError::PeOutOfRange { .. })
        ));
        assert!(matches!(
            map.insert(Fault::new(PeCoord::new(0, 0), 16, StuckAt::One)),
            Err(SystolicError::FixedPoint(_))
        ));
        assert!(map.is_empty());
    }

    #[test]
    fn identity_masks_do_nothing() {
        let masks = PeMasks::identity();
        assert!(masks.is_identity());
        let q = QFormat::accumulator_default();
        let x = Fixed::from_f32(3.25, q);
        assert_eq!(masks.apply(x), x);
    }

    #[test]
    fn stuck_at_masks_apply_to_values() {
        let mut map = FaultMap::new(config4());
        let pe = PeCoord::new(0, 0);
        map.insert(Fault::new(pe, 15, StuckAt::One)).unwrap();
        let masks = map.masks(pe).unwrap();
        let q = QFormat::accumulator_default();
        let corrupted = masks.apply(Fixed::from_f32(1.0, q));
        assert!(corrupted.to_f32() < 0.0, "sa1 in the sign bit flips sign");
    }

    #[test]
    fn random_generator_respects_count_and_bit() {
        let config = config4();
        let mut rng = StdRng::seed_from_u64(11);
        let map = FaultMap::random_faulty_pes(&config, 5, 15, StuckAt::One, &mut rng).unwrap();
        assert_eq!(map.faulty_pe_count(), 5);
        assert!(map.faults().iter().all(|f| f.bit == 15));
        assert!(map.faulty_pes().iter().all(|pe| pe.row < 4 && pe.col < 4));
    }

    #[test]
    fn random_generator_rejects_oversubscription() {
        let config = config4();
        let mut rng = StdRng::seed_from_u64(11);
        assert!(matches!(
            FaultMap::random_faulty_pes(&config, 17, 0, StuckAt::Zero, &mut rng),
            Err(SystolicError::TooManyFaultyPes { .. })
        ));
        // Exactly the full grid is allowed.
        let map = FaultMap::random_faulty_pes(&config, 16, 0, StuckAt::Zero, &mut rng).unwrap();
        assert_eq!(map.faulty_pe_count(), 16);
        assert!((map.fault_rate() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rate_generator_matches_requested_fraction() {
        let config = SystolicConfig::new(16, 16).unwrap();
        let mut rng = StdRng::seed_from_u64(3);
        let map = FaultMap::random_with_rate(&config, 0.30, 15, StuckAt::One, &mut rng).unwrap();
        assert_eq!(map.faulty_pe_count(), 77); // round(0.30 * 256)
        assert!(FaultMap::random_with_rate(&config, 1.5, 15, StuckAt::One, &mut rng).is_err());
    }

    #[test]
    fn msb_generator_stays_in_high_half() {
        let config = SystolicConfig::new(8, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let map = FaultMap::random_msb_faults(&config, 10, &mut rng).unwrap();
        let half = config.accumulator_format().total_bits() / 2;
        assert!(map.faults().iter().all(|f| f.bit >= half));
    }

    #[test]
    fn batch_generates_distinct_maps() {
        let config = SystolicConfig::new(8, 8).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        let maps = FaultMap::random_batch(&config, 4, 15, StuckAt::One, 8, &mut rng).unwrap();
        assert_eq!(maps.len(), 8);
        // At least two of the eight maps should differ (overwhelmingly likely).
        assert!(maps.windows(2).any(|w| w[0] != w[1]));
    }

    #[test]
    fn seeded_generation_is_reproducible() {
        let config = SystolicConfig::new(8, 8).unwrap();
        let a = FaultMap::random_faulty_pes(
            &config,
            6,
            15,
            StuckAt::One,
            &mut StdRng::seed_from_u64(9),
        )
        .unwrap();
        let b = FaultMap::random_faulty_pes(
            &config,
            6,
            15,
            StuckAt::One,
            &mut StdRng::seed_from_u64(9),
        )
        .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn display_reports_rate() {
        let config = config4();
        let mut rng = StdRng::seed_from_u64(1);
        let map = FaultMap::random_faulty_pes(&config, 8, 15, StuckAt::One, &mut rng).unwrap();
        assert!(map.to_string().contains("8 faults"));
        assert!(map.to_string().contains("50.000%"));
    }
}
