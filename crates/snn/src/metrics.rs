//! Evaluation metrics.

use crate::{Result, SnnError};
use falvolt_tensor::{reduce, Tensor};

/// A square confusion matrix for a `classes`-way classifier.
///
/// # Example
///
/// ```
/// use falvolt_snn::metrics::ConfusionMatrix;
///
/// # fn main() -> Result<(), falvolt_snn::SnnError> {
/// let mut cm = ConfusionMatrix::new(3);
/// cm.record(0, 0)?;
/// cm.record(1, 2)?;
/// assert_eq!(cm.total(), 2);
/// assert!((cm.accuracy() - 0.5).abs() < 1e-6);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfusionMatrix {
    classes: usize,
    counts: Vec<u64>,
}

impl ConfusionMatrix {
    /// Creates an empty confusion matrix.
    pub fn new(classes: usize) -> Self {
        Self {
            classes,
            counts: vec![0; classes * classes],
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Records one `(true label, predicted label)` observation.
    ///
    /// # Errors
    ///
    /// Returns an error when either label is out of range.
    pub fn record(&mut self, truth: usize, prediction: usize) -> Result<()> {
        if truth >= self.classes || prediction >= self.classes {
            return Err(SnnError::invalid_input(format!(
                "labels ({truth}, {prediction}) out of range for {} classes",
                self.classes
            )));
        }
        self.counts[truth * self.classes + prediction] += 1;
        Ok(())
    }

    /// Records a batch of observations.
    ///
    /// # Errors
    ///
    /// Returns an error when the slices differ in length or contain
    /// out-of-range labels.
    pub fn record_batch(&mut self, truths: &[usize], predictions: &[usize]) -> Result<()> {
        if truths.len() != predictions.len() {
            return Err(SnnError::invalid_input(
                "truth and prediction slices must have equal length".to_string(),
            ));
        }
        for (&t, &p) in truths.iter().zip(predictions) {
            self.record(t, p)?;
        }
        Ok(())
    }

    /// Count at `(truth, prediction)`.
    pub fn count(&self, truth: usize, prediction: usize) -> u64 {
        self.counts[truth * self.classes + prediction]
    }

    /// Total number of recorded observations.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Overall classification accuracy (0 when empty).
    pub fn accuracy(&self) -> f64 {
        let total = self.total();
        if total == 0 {
            return 0.0;
        }
        let correct: u64 = (0..self.classes).map(|c| self.count(c, c)).sum();
        correct as f64 / total as f64
    }

    /// Per-class recall (diagonal / row sum), `None` for classes never seen.
    pub fn recall(&self, class: usize) -> Option<f64> {
        let row: u64 = (0..self.classes).map(|p| self.count(class, p)).sum();
        if row == 0 {
            None
        } else {
            Some(self.count(class, class) as f64 / row as f64)
        }
    }
}

/// Classification accuracy of rate outputs against integer labels.
///
/// # Errors
///
/// Returns an error when the label count differs from the number of rows.
pub fn accuracy(rates: &Tensor, labels: &[usize]) -> Result<f32> {
    Ok(reduce::classification_accuracy(rates, labels)?)
}

/// Mean firing rate of a spike-rate tensor — a proxy for the energy the
/// accelerator would spend (spike counts drive accumulator activity).
pub fn mean_firing_rate(rates: &Tensor) -> f32 {
    reduce::mean(rates)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn confusion_matrix_accuracy_and_recall() {
        let mut cm = ConfusionMatrix::new(2);
        cm.record_batch(&[0, 0, 1, 1], &[0, 1, 1, 1]).unwrap();
        assert_eq!(cm.total(), 4);
        assert_eq!(cm.count(0, 1), 1);
        assert!((cm.accuracy() - 0.75).abs() < 1e-9);
        assert!((cm.recall(0).unwrap() - 0.5).abs() < 1e-9);
        assert!((cm.recall(1).unwrap() - 1.0).abs() < 1e-9);
        assert_eq!(cm.classes(), 2);
    }

    #[test]
    fn confusion_matrix_validates_input() {
        let mut cm = ConfusionMatrix::new(2);
        assert!(cm.record(2, 0).is_err());
        assert!(cm.record(0, 5).is_err());
        assert!(cm.record_batch(&[0], &[0, 1]).is_err());
        assert_eq!(cm.accuracy(), 0.0);
        assert!(cm.recall(1).is_none());
    }

    #[test]
    fn accuracy_from_rates() {
        let rates = Tensor::from_vec(vec![2, 2], vec![0.9, 0.1, 0.2, 0.8]).unwrap();
        assert_eq!(accuracy(&rates, &[0, 1]).unwrap(), 1.0);
        assert_eq!(accuracy(&rates, &[1, 0]).unwrap(), 0.0);
        assert!((mean_firing_rate(&rates) - 0.5).abs() < 1e-6);
    }
}
