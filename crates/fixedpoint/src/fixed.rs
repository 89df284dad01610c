//! A fixed-point value paired with its format.

use crate::QFormat;
use std::fmt;

/// A signed fixed-point value in a given [`QFormat`].
///
/// All arithmetic saturates at the format bounds, which is how the PE
/// accumulators in the systolic simulator behave (hardware accumulators either
/// saturate or wrap; the paper's accuracy collapse comes from stuck bits, not
/// from overflow policy, so saturation is chosen for numerical stability).
///
/// # Example
///
/// ```
/// use falvolt_fixedpoint::{Fixed, QFormat};
///
/// # fn main() -> Result<(), falvolt_fixedpoint::FixedPointError> {
/// let q = QFormat::new(16, 8)?;
/// let a = Fixed::from_f32(100.0, q);
/// let b = Fixed::from_f32(100.0, q);
/// // Saturates instead of wrapping around to a negative value.
/// assert!((a.saturating_add(b).to_f32() - q.max_value()).abs() < 1e-3);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fixed {
    raw: i32,
    format: QFormat,
}

impl Fixed {
    /// Creates a fixed-point value by quantizing `value` (saturating).
    pub fn from_f32(value: f32, format: QFormat) -> Self {
        Self {
            raw: format.quantize(value),
            format,
        }
    }

    /// Creates a fixed-point value from a raw word, clamping it into range.
    pub fn from_raw(raw: i32, format: QFormat) -> Self {
        Self {
            raw: raw.clamp(format.min_raw(), format.max_raw()),
            format,
        }
    }

    /// Zero in the given format.
    pub fn zero(format: QFormat) -> Self {
        Self { raw: 0, format }
    }

    /// The raw two's-complement word.
    pub fn raw(&self) -> i32 {
        self.raw
    }

    /// The format of this value.
    pub fn format(&self) -> QFormat {
        self.format
    }

    /// Converts back to `f32`.
    pub fn to_f32(&self) -> f32 {
        self.format.dequantize(self.raw)
    }

    /// Saturating addition.
    pub fn saturating_add(self, other: Self) -> Self {
        let sum = self.raw as i64 + other.raw as i64;
        let clamped = sum.clamp(self.format.min_raw() as i64, self.format.max_raw() as i64);
        Self {
            raw: clamped as i32,
            format: self.format,
        }
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: Self) -> Self {
        let diff = self.raw as i64 - other.raw as i64;
        let clamped = diff.clamp(self.format.min_raw() as i64, self.format.max_raw() as i64);
        Self {
            raw: clamped as i32,
            format: self.format,
        }
    }

    /// Returns the value with bit `bit` forced to `1` (stuck-at-1 fault).
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the word; fault maps validate bits at
    /// construction so this indicates a programming error.
    pub fn with_bit_set(self, bit: u32) -> Self {
        self.format
            .check_bit(bit)
            .expect("bit index validated by the fault map");
        let low = self.low_bits() | (1u32 << bit);
        self.with_low_bits(low)
    }

    /// Returns the value with bit `bit` forced to `0` (stuck-at-0 fault).
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the word (see [`Fixed::with_bit_set`]).
    pub fn with_bit_cleared(self, bit: u32) -> Self {
        self.format
            .check_bit(bit)
            .expect("bit index validated by the fault map");
        let low = self.low_bits() & !(1u32 << bit);
        self.with_low_bits(low)
    }

    /// Applies an AND mask followed by an OR mask to the word — the composed
    /// effect of a PE's set of stuck-at faults.
    pub fn with_masks(self, and_mask: u32, or_mask: u32) -> Self {
        let low = (self.low_bits() & and_mask) | or_mask;
        self.with_low_bits(low)
    }

    /// Returns bit `bit` of the word.
    ///
    /// # Panics
    ///
    /// Panics if `bit` is outside the word.
    pub fn bit(&self, bit: u32) -> bool {
        self.format
            .check_bit(bit)
            .expect("bit index validated by caller");
        self.low_bits() & (1u32 << bit) != 0
    }

    fn low_bits(&self) -> u32 {
        let mask = if self.format.total_bits() == 32 {
            u32::MAX
        } else {
            (1u32 << self.format.total_bits()) - 1
        };
        (self.raw as u32) & mask
    }

    fn with_low_bits(self, low: u32) -> Self {
        Self {
            raw: self.format.wrap_raw(low as i64),
            format: self.format,
        }
    }
}

impl fmt::Display for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({})", self.to_f32(), self.format)
    }
}

impl fmt::Binary for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let width = self.format.total_bits() as usize;
        write!(f, "{:0width$b}", self.low_bits(), width = width)
    }
}

impl fmt::LowerHex for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:x}", self.low_bits())
    }
}

impl fmt::UpperHex for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:X}", self.low_bits())
    }
}

impl fmt::Octal for Fixed {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:o}", self.low_bits())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q16() -> QFormat {
        QFormat::new(16, 8).unwrap()
    }

    #[test]
    fn f32_roundtrip_within_resolution() {
        let q = q16();
        for v in [-100.0f32, -1.25, 0.0, 0.5, 3.175, 120.0] {
            let fx = Fixed::from_f32(v, q);
            assert!((fx.to_f32() - v).abs() <= q.resolution());
        }
    }

    #[test]
    fn addition_saturates() {
        let q = q16();
        let a = Fixed::from_f32(120.0, q);
        let sum = a.saturating_add(a);
        assert_eq!(sum.raw(), q.max_raw());
        let b = Fixed::from_f32(-120.0, q);
        let diff = b.saturating_add(b);
        assert_eq!(diff.raw(), q.min_raw());
        let c = Fixed::from_f32(-120.0, q).saturating_sub(Fixed::from_f32(120.0, q));
        assert_eq!(c.raw(), q.min_raw());
    }

    #[test]
    fn stuck_at_one_in_msb_makes_positive_values_negative() {
        let q = q16();
        let x = Fixed::from_f32(5.0, q);
        let faulty = x.with_bit_set(q.msb());
        assert!(faulty.to_f32() < 0.0);
        // Stuck-at-0 in the MSB makes negative values positive.
        let y = Fixed::from_f32(-5.0, q);
        let fy = y.with_bit_cleared(q.msb());
        assert!(fy.to_f32() >= 0.0);
    }

    #[test]
    fn lsb_faults_have_bounded_effect() {
        let q = q16();
        let x = Fixed::from_f32(5.0, q);
        let faulty = x.with_bit_set(0);
        assert!((faulty.to_f32() - x.to_f32()).abs() <= q.resolution());
    }

    #[test]
    fn masks_compose_set_and_clear() {
        let q = q16();
        let x = Fixed::from_f32(1.0, q); // raw 0x0100
        let and_mask = !(1u32 << 8); // clear bit 8
        let or_mask = 1u32 << 0; // set bit 0
        let f = x.with_masks(and_mask, or_mask);
        assert!(!f.bit(8));
        assert!(f.bit(0));
    }

    #[test]
    fn bit_query_matches_binary_format() {
        let q = q16();
        let x = Fixed::from_f32(1.0, q);
        assert!(x.bit(8));
        assert!(!x.bit(0));
        assert_eq!(format!("{x:b}").len(), 16);
        assert!(!format!("{x:x}").is_empty());
        assert!(!format!("{x:X}").is_empty());
        assert!(!format!("{x:o}").is_empty());
    }

    #[test]
    fn from_raw_clamps() {
        let q = QFormat::new(8, 0).unwrap();
        let f = Fixed::from_raw(1000, q);
        assert_eq!(f.raw(), 127);
        let f = Fixed::from_raw(-1000, q);
        assert_eq!(f.raw(), -128);
    }

    #[test]
    fn display_is_informative() {
        let q = q16();
        let x = Fixed::from_f32(2.5, q);
        assert!(x.to_string().contains("2.5"));
        assert!(x.to_string().contains("Q7.8"));
    }

    #[test]
    fn works_with_32_bit_words() {
        let q = QFormat::wide_accumulator();
        let x = Fixed::from_f32(3.75, q);
        assert!((x.to_f32() - 3.75).abs() < 1e-4);
        let f = x.with_bit_set(q.msb());
        assert!(f.to_f32() < 0.0);
        let g = f.with_bit_cleared(q.msb());
        assert!((g.to_f32() - 3.75).abs() < 1e-4);
    }
}
