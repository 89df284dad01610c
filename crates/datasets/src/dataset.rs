//! The dataset abstraction and batching utilities.

use falvolt_tensor::Tensor;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Generation parameters shared by all synthetic datasets.
///
/// # Example
///
/// ```
/// use falvolt_datasets::DatasetConfig;
///
/// let config = DatasetConfig::default_experiment();
/// assert_eq!(config.size, 16);
/// assert!(config.samples_per_class >= 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DatasetConfig {
    /// Height and width of the (square) frames.
    pub size: usize,
    /// Number of samples generated per class.
    pub samples_per_class: usize,
    /// Number of time steps for event datasets (ignored by static datasets).
    pub time_steps: usize,
    /// Probability of flipping a background/foreground pixel (label noise of
    /// the image itself, not of the label).
    pub noise: f32,
    /// Maximum absolute spatial jitter applied to each sample, in pixels.
    pub jitter: usize,
}

impl DatasetConfig {
    /// The configuration used by the reproduction experiments: 16x16 frames,
    /// 24 samples per class, mild noise.
    pub fn default_experiment() -> Self {
        Self {
            size: 16,
            samples_per_class: 24,
            time_steps: 6,
            noise: 0.05,
            jitter: 1,
        }
    }

    /// A very small configuration for unit tests.
    pub fn tiny() -> Self {
        Self {
            size: 8,
            samples_per_class: 4,
            time_steps: 3,
            noise: 0.02,
            jitter: 1,
        }
    }

    /// Builder-style override of the per-class sample count.
    pub fn with_samples_per_class(mut self, samples_per_class: usize) -> Self {
        self.samples_per_class = samples_per_class;
        self
    }

    /// Builder-style override of the frame size.
    pub fn with_size(mut self, size: usize) -> Self {
        self.size = size;
        self
    }

    /// Builder-style override of the time-step count.
    pub fn with_time_steps(mut self, time_steps: usize) -> Self {
        self.time_steps = time_steps;
        self
    }
}

impl Default for DatasetConfig {
    fn default() -> Self {
        Self::default_experiment()
    }
}

/// A labelled, in-memory dataset of tensors.
pub trait Dataset {
    /// Dataset name (used in reports).
    fn name(&self) -> &str;

    /// Number of samples.
    fn len(&self) -> usize;

    /// Returns `true` when the dataset holds no samples.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of classes.
    fn classes(&self) -> usize;

    /// Returns sample `index` as `(input, label)`. Static datasets return
    /// `[C, H, W]` inputs, event datasets `[T, C, H, W]`.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.len()`.
    fn sample(&self, index: usize) -> (Tensor, usize);
}

/// One mini-batch of stacked inputs and labels.
#[derive(Debug, Clone, PartialEq)]
pub struct LabeledBatch {
    /// Stacked inputs: `[N, C, H, W]` for static data, `[N, T, C, H, W]` for
    /// event data.
    pub input: Tensor,
    /// One label per sample.
    pub labels: Vec<usize>,
}

impl LabeledBatch {
    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Stacks a dataset into shuffled mini-batches.
///
/// The final batch may be smaller than `batch_size`. Shuffling is driven by
/// `seed` so experiment runs are reproducible.
///
/// # Panics
///
/// Panics if `batch_size == 0`.
pub fn to_batches(dataset: &dyn Dataset, batch_size: usize, seed: u64) -> Vec<LabeledBatch> {
    assert!(batch_size > 0, "batch_size must be non-zero");
    let mut indices: Vec<usize> = (0..dataset.len()).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    indices.shuffle(&mut rng);
    let mut batches = Vec::new();
    for chunk in indices.chunks(batch_size) {
        let mut inputs = Vec::with_capacity(chunk.len());
        let mut labels = Vec::with_capacity(chunk.len());
        for &i in chunk {
            let (x, y) = dataset.sample(i);
            inputs.push(x);
            labels.push(y);
        }
        let input = Tensor::stack_axis0(&inputs).expect("samples of one dataset share a shape");
        batches.push(LabeledBatch { input, labels });
    }
    batches
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SyntheticMnist;

    #[test]
    fn config_builders() {
        let c = DatasetConfig::tiny()
            .with_samples_per_class(7)
            .with_size(12)
            .with_time_steps(5);
        assert_eq!(c.samples_per_class, 7);
        assert_eq!(c.size, 12);
        assert_eq!(c.time_steps, 5);
        assert_eq!(
            DatasetConfig::default(),
            DatasetConfig::default_experiment()
        );
    }

    #[test]
    fn batching_covers_every_sample_exactly_once() {
        let data = SyntheticMnist::generate(&DatasetConfig::tiny(), 3);
        let batches = to_batches(&data, 8, 1);
        let total: usize = batches.iter().map(LabeledBatch::len).sum();
        assert_eq!(total, data.len());
        assert!(batches.iter().all(|b| !b.is_empty()));
        // Shapes: [N, 1, 8, 8].
        assert_eq!(batches[0].input.shape()[1..], [1, 8, 8]);
    }

    #[test]
    fn batching_is_reproducible_per_seed() {
        let data = SyntheticMnist::generate(&DatasetConfig::tiny(), 3);
        let a = to_batches(&data, 4, 9);
        let b = to_batches(&data, 4, 9);
        assert_eq!(a.len(), b.len());
        assert_eq!(a[0].labels, b[0].labels);
        let c = to_batches(&data, 4, 10);
        // Different seed almost surely changes the first batch's labels.
        assert!(a[0].labels != c[0].labels || a[1].labels != c[1].labels);
    }

    #[test]
    #[should_panic(expected = "batch_size")]
    fn zero_batch_size_panics() {
        let data = SyntheticMnist::generate(&DatasetConfig::tiny(), 3);
        let _ = to_batches(&data, 0, 1);
    }
}
