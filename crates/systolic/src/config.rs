//! Configuration of the systolic-array accelerator.

use crate::{Result, SystolicError};
use falvolt_fixedpoint::QFormat;
use std::fmt;

/// Configuration of an `rows x cols` weight-stationary systolic-array SNN
/// accelerator.
///
/// The paper's reference design is a 256x256 grid whose PEs accumulate 32-bit
/// weights under 1-bit spikes; this reproduction defaults to a 16-bit
/// accumulator word (`Q7.8`) whose bit indices match the x-axis of the
/// paper's Figure 5a, and lets experiments scale the grid from 4x4 up to
/// 256x256 (Figure 5c).
///
/// # Example
///
/// ```
/// use falvolt_systolic::SystolicConfig;
///
/// # fn main() -> Result<(), falvolt_systolic::SystolicError> {
/// let config = SystolicConfig::paper_256x256();
/// assert_eq!(config.pe_count(), 65_536);
/// let small = SystolicConfig::new(8, 8)?;
/// assert_eq!(small.pe_count(), 64);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SystolicConfig {
    rows: usize,
    cols: usize,
    accumulator_format: QFormat,
}

impl SystolicConfig {
    /// Creates a configuration with the default accumulator format.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::InvalidGrid`] when either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Result<Self> {
        Self::with_accumulator(rows, cols, QFormat::accumulator_default())
    }

    /// Creates a configuration with an explicit accumulator format.
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::InvalidGrid`] when either dimension is zero.
    pub fn with_accumulator(rows: usize, cols: usize, accumulator_format: QFormat) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(SystolicError::InvalidGrid { rows, cols });
        }
        Ok(Self {
            rows,
            cols,
            accumulator_format,
        })
    }

    /// The 256x256 grid evaluated throughout the paper.
    pub fn paper_256x256() -> Self {
        Self {
            rows: 256,
            cols: 256,
            accumulator_format: QFormat::accumulator_default(),
        }
    }

    /// A square `n x n` grid, as used in the array-size sweep (Figure 5c).
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::InvalidGrid`] when `n == 0`.
    pub fn square(n: usize) -> Result<Self> {
        Self::new(n, n)
    }

    /// Number of PE rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of PE columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of PEs in the grid.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Fixed-point format of the PE accumulator output.
    pub fn accumulator_format(&self) -> QFormat {
        self.accumulator_format
    }

    /// Converts a faulty-PE count into the fault rate the paper reports
    /// (fraction of all PEs that are faulty).
    pub fn fault_rate_for(&self, faulty_pes: usize) -> f64 {
        faulty_pes as f64 / self.pe_count() as f64
    }

    /// Converts a fault rate into a number of faulty PEs (rounding to the
    /// nearest integer).
    ///
    /// # Errors
    ///
    /// Returns [`SystolicError::InvalidFaultRate`] for rates outside `[0, 1]`.
    pub fn faulty_pes_for_rate(&self, rate: f64) -> Result<usize> {
        if !(0.0..=1.0).contains(&rate) || !rate.is_finite() {
            return Err(SystolicError::InvalidFaultRate { rate });
        }
        Ok((rate * self.pe_count() as f64).round() as usize)
    }
}

impl Default for SystolicConfig {
    /// Returns the paper's 256x256 configuration.
    fn default() -> Self {
        Self::paper_256x256()
    }
}

impl fmt::Display for SystolicConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}x{} systolicSNN ({} accumulator)",
            self.rows, self.cols, self.accumulator_format
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_grid() {
        assert!(SystolicConfig::new(8, 8).is_ok());
        assert!(matches!(
            SystolicConfig::new(0, 8),
            Err(SystolicError::InvalidGrid { .. })
        ));
        assert!(SystolicConfig::square(0).is_err());
    }

    #[test]
    fn paper_preset_matches_evaluation_setup() {
        let c = SystolicConfig::paper_256x256();
        assert_eq!(c.rows(), 256);
        assert_eq!(c.cols(), 256);
        assert_eq!(c.pe_count(), 65_536);
        assert_eq!(c, SystolicConfig::default());
    }

    #[test]
    fn fault_rate_conversions_roundtrip() {
        let c = SystolicConfig::new(16, 16).unwrap();
        assert_eq!(c.faulty_pes_for_rate(0.25).unwrap(), 64);
        assert!((c.fault_rate_for(64) - 0.25).abs() < 1e-9);
        assert!(c.faulty_pes_for_rate(-0.1).is_err());
        assert!(c.faulty_pes_for_rate(1.1).is_err());
        assert!(c.faulty_pes_for_rate(f64::NAN).is_err());
    }

    #[test]
    fn paper_8_faulty_pes_is_low_rate() {
        // The paper highlights that 8 faulty PEs is only 0.012% of a 256x256
        // array yet collapses accuracy.
        let c = SystolicConfig::paper_256x256();
        let rate = c.fault_rate_for(8);
        assert!((rate - 0.000_122).abs() < 1e-5);
    }

    #[test]
    fn display_includes_grid_and_format() {
        let c = SystolicConfig::new(4, 8).unwrap();
        let s = c.to_string();
        assert!(s.contains("4x8"));
        assert!(s.contains("Q7.8"));
    }
}
