//! Q-format descriptor for signed two's-complement fixed-point words.

use crate::{FixedPointError, Result};
use std::fmt;

/// A signed two's-complement fixed-point format with `total_bits` bits of
/// which `frac_bits` are fractional.
///
/// The most significant bit (`total_bits - 1`) is the sign bit; the value of a
/// raw word `r` is `r / 2^frac_bits`.
///
/// # Example
///
/// ```
/// use falvolt_fixedpoint::QFormat;
///
/// # fn main() -> Result<(), falvolt_fixedpoint::FixedPointError> {
/// let q = QFormat::new(16, 8)?;
/// assert_eq!(q.msb(), 15);
/// assert_eq!(q.resolution(), 1.0 / 256.0);
/// assert!(q.max_value() > 127.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QFormat {
    total_bits: u32,
    frac_bits: u32,
}

impl QFormat {
    /// Creates a format with `total_bits` word width and `frac_bits`
    /// fractional bits.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::InvalidWordWidth`] for widths outside
    /// `2..=32` and [`FixedPointError::InvalidFractionalBits`] when the
    /// fractional part does not leave room for the sign bit.
    pub fn new(total_bits: u32, frac_bits: u32) -> Result<Self> {
        if !(2..=32).contains(&total_bits) {
            return Err(FixedPointError::InvalidWordWidth { total_bits });
        }
        if frac_bits >= total_bits {
            return Err(FixedPointError::InvalidFractionalBits {
                total_bits,
                frac_bits,
            });
        }
        Ok(Self {
            total_bits,
            frac_bits,
        })
    }

    /// The accumulator format used by the paper's 32-bit-weight PEs in this
    /// reproduction: a 16-bit word with 8 fractional bits (`Q7.8`), whose bit
    /// indices 0..=15 match the x-axis of the paper's Figure 5a.
    pub fn accumulator_default() -> Self {
        Self {
            total_bits: 16,
            frac_bits: 8,
        }
    }

    /// A wide 32-bit accumulator (`Q15.16`) for experiments that need more
    /// head-room.
    pub fn wide_accumulator() -> Self {
        Self {
            total_bits: 32,
            frac_bits: 16,
        }
    }

    /// Word width in bits.
    pub fn total_bits(&self) -> u32 {
        self.total_bits
    }

    /// Number of fractional bits.
    pub fn frac_bits(&self) -> u32 {
        self.frac_bits
    }

    /// Number of integer bits (excluding the sign bit).
    pub fn int_bits(&self) -> u32 {
        self.total_bits - self.frac_bits - 1
    }

    /// Index of the most significant (sign) bit.
    pub fn msb(&self) -> u32 {
        self.total_bits - 1
    }

    /// The smallest representable increment.
    pub fn resolution(&self) -> f32 {
        1.0 / (1i64 << self.frac_bits) as f32
    }

    /// Largest representable value.
    pub fn max_value(&self) -> f32 {
        self.max_raw() as f32 * self.resolution()
    }

    /// Smallest (most negative) representable value.
    pub fn min_value(&self) -> f32 {
        self.min_raw() as f32 * self.resolution()
    }

    /// Largest representable raw word.
    pub fn max_raw(&self) -> i32 {
        ((1i64 << (self.total_bits - 1)) - 1) as i32
    }

    /// Smallest representable raw word.
    pub fn min_raw(&self) -> i32 {
        (-(1i64 << (self.total_bits - 1))) as i32
    }

    /// Checks that `bit` addresses a bit inside the word.
    ///
    /// # Errors
    ///
    /// Returns [`FixedPointError::BitOutOfRange`] otherwise.
    pub fn check_bit(&self, bit: u32) -> Result<()> {
        if bit >= self.total_bits {
            return Err(FixedPointError::BitOutOfRange {
                bit,
                total_bits: self.total_bits,
            });
        }
        Ok(())
    }

    /// Quantizes an `f32` to the nearest representable raw word, saturating at
    /// the format bounds.
    pub fn quantize(&self, value: f32) -> i32 {
        let scaled = (value * (1i64 << self.frac_bits) as f32).round();
        let clamped = scaled.clamp(self.min_raw() as f32, self.max_raw() as f32);
        clamped as i32
    }

    /// Converts a raw word back to `f32`.
    pub fn dequantize(&self, raw: i32) -> f32 {
        raw as f32 * self.resolution()
    }

    /// Reinterprets the low `total_bits` of `raw` as a signed value in this
    /// format (sign-extending from the format's sign bit).
    pub fn wrap_raw(&self, raw: i64) -> i32 {
        let mask = if self.total_bits == 32 {
            u32::MAX as i64
        } else {
            (1i64 << self.total_bits) - 1
        };
        let low = raw & mask;
        let sign_bit = 1i64 << (self.total_bits - 1);
        let value = if low & sign_bit != 0 {
            low - (1i64 << self.total_bits)
        } else {
            low
        };
        value as i32
    }
}

impl Default for QFormat {
    fn default() -> Self {
        Self::accumulator_default()
    }
}

impl fmt::Display for QFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Q{}.{}", self.int_bits(), self.frac_bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_validates_ranges() {
        assert!(QFormat::new(16, 8).is_ok());
        assert!(QFormat::new(1, 0).is_err());
        assert!(QFormat::new(33, 8).is_err());
        assert!(QFormat::new(16, 16).is_err());
    }

    #[test]
    fn default_matches_paper_axis() {
        let q = QFormat::accumulator_default();
        assert_eq!(q.total_bits(), 16);
        assert_eq!(q.msb(), 15);
        assert_eq!(q.to_string(), "Q7.8");
    }

    #[test]
    fn ranges_and_resolution() {
        let q = QFormat::new(16, 8).unwrap();
        assert_eq!(q.max_raw(), 32767);
        assert_eq!(q.min_raw(), -32768);
        assert!((q.max_value() - 127.996).abs() < 0.01);
        assert!((q.min_value() + 128.0).abs() < 1e-6);
        assert_eq!(q.resolution(), 1.0 / 256.0);
        assert_eq!(q.int_bits(), 7);
    }

    #[test]
    fn quantize_rounds_and_saturates() {
        let q = QFormat::new(16, 8).unwrap();
        assert_eq!(q.quantize(1.0), 256);
        assert_eq!(q.quantize(-1.5), -384);
        assert_eq!(q.quantize(1000.0), q.max_raw());
        assert_eq!(q.quantize(-1000.0), q.min_raw());
        assert!((q.dequantize(q.quantize(3.125)) - 3.125).abs() < 1e-6);
    }

    #[test]
    fn wrap_raw_sign_extends() {
        let q = QFormat::new(8, 0).unwrap();
        assert_eq!(q.wrap_raw(0x7f), 127);
        assert_eq!(q.wrap_raw(0x80), -128);
        assert_eq!(q.wrap_raw(0x1ff), -1);
        let q32 = QFormat::new(32, 16).unwrap();
        assert_eq!(q32.wrap_raw(-1), -1);
    }

    #[test]
    fn check_bit_bounds() {
        let q = QFormat::new(16, 8).unwrap();
        assert!(q.check_bit(15).is_ok());
        assert!(q.check_bit(16).is_err());
    }

    #[test]
    fn bit32_format_does_not_overflow() {
        let q = QFormat::wide_accumulator();
        assert_eq!(q.max_raw(), i32::MAX);
        assert_eq!(q.min_raw(), i32::MIN);
        assert_eq!(q.msb(), 31);
    }
}
