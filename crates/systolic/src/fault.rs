//! Stuck-at fault primitives.

use std::fmt;

/// Polarity of a permanent stuck-at fault.
///
/// The paper observes that stuck-at-1 faults in high-order accumulator bits
/// are the most damaging fault class in a systolicSNN.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StuckAt {
    /// The faulty bit always reads `0`.
    Zero,
    /// The faulty bit always reads `1`.
    One,
}

impl StuckAt {
    /// All polarity values, in the order the paper plots them.
    pub const ALL: [StuckAt; 2] = [StuckAt::Zero, StuckAt::One];
}

impl fmt::Display for StuckAt {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StuckAt::Zero => write!(f, "sa0"),
            StuckAt::One => write!(f, "sa1"),
        }
    }
}

/// Coordinate of a processing element in the systolic grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PeCoord {
    /// Row index (0-based).
    pub row: usize,
    /// Column index (0-based).
    pub col: usize,
}

impl PeCoord {
    /// Creates a PE coordinate.
    pub fn new(row: usize, col: usize) -> Self {
        Self { row, col }
    }
}

impl fmt::Display for PeCoord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PE({}, {})", self.row, self.col)
    }
}

impl From<(usize, usize)> for PeCoord {
    fn from((row, col): (usize, usize)) -> Self {
        Self { row, col }
    }
}

/// A single permanent stuck-at fault in the accumulator output of one PE.
///
/// # Example
///
/// ```
/// use falvolt_systolic::{Fault, PeCoord, StuckAt};
///
/// let fault = Fault::new(PeCoord::new(3, 7), 15, StuckAt::One);
/// assert_eq!(fault.bit, 15);
/// assert_eq!(fault.to_string(), "sa1@bit15 in PE(3, 7)");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Fault {
    /// The faulty PE.
    pub pe: PeCoord,
    /// Bit position in the accumulator output word (0 = LSB).
    pub bit: u32,
    /// Stuck-at polarity.
    pub kind: StuckAt,
}

impl Fault {
    /// Creates a fault description.
    pub fn new(pe: PeCoord, bit: u32, kind: StuckAt) -> Self {
        Self { pe, bit, kind }
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@bit{} in {}", self.kind, self.bit, self.pe)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stuck_at_displays_like_paper_legend() {
        assert_eq!(StuckAt::Zero.to_string(), "sa0");
        assert_eq!(StuckAt::One.to_string(), "sa1");
        assert_eq!(StuckAt::ALL.len(), 2);
    }

    #[test]
    fn pe_coord_conversions_and_order() {
        let a: PeCoord = (1, 2).into();
        assert_eq!(a, PeCoord::new(1, 2));
        assert!(PeCoord::new(0, 5) < PeCoord::new(1, 0));
        assert_eq!(a.to_string(), "PE(1, 2)");
    }

    #[test]
    fn fault_description_is_complete() {
        let f = Fault::new(PeCoord::new(0, 0), 3, StuckAt::Zero);
        assert!(f.to_string().contains("sa0"));
        assert!(f.to_string().contains("bit3"));
    }
}
