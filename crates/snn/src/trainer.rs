//! Mini-batch training and evaluation loops.

use crate::layers::Mode;
use crate::loss::Loss;
use crate::metrics;
use crate::network::SpikingNetwork;
use crate::optim::Optimizer;
use crate::{Result, SnnError};
use falvolt_tensor::{reduce, Tensor};

/// One mini-batch: an input tensor (static `[N, C, H, W]` or temporal
/// `[N, T, C, H, W]`) and its integer labels.
#[derive(Debug, Clone, PartialEq)]
pub struct Batch {
    /// The batched network input.
    pub input: Tensor,
    /// One class label per sample.
    pub labels: Vec<usize>,
}

impl Batch {
    /// Creates a batch, validating that the label count matches the batch
    /// dimension.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidInput`] on a count mismatch.
    pub fn new(input: Tensor, labels: Vec<usize>) -> Result<Self> {
        if input.ndim() == 0 || input.shape()[0] != labels.len() {
            return Err(SnnError::invalid_input(format!(
                "batch of {} samples got {} labels",
                if input.ndim() == 0 {
                    0
                } else {
                    input.shape()[0]
                },
                labels.len()
            )));
        }
        Ok(Self { input, labels })
    }

    /// Number of samples in the batch.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Returns `true` for an empty batch.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }
}

/// Loss and accuracy of one pass over the data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Mean loss over all batches.
    pub loss: f32,
    /// Classification accuracy over all samples.
    pub accuracy: f32,
}

/// Drives training of a [`SpikingNetwork`] with a given optimizer and loss.
///
/// # Example
///
/// ```
/// use falvolt_snn::config::ArchitectureConfig;
/// use falvolt_snn::loss::MseRateLoss;
/// use falvolt_snn::optim::Adam;
/// use falvolt_snn::trainer::{Batch, Trainer};
/// use falvolt_tensor::Tensor;
///
/// # fn main() -> Result<(), falvolt_snn::SnnError> {
/// let config = ArchitectureConfig::tiny_test();
/// let mut network = config.build(3)?;
/// let mut trainer = Trainer::new(Adam::new(1e-3), MseRateLoss::new(), config.classes);
/// let batch = Batch::new(
///     Tensor::ones(&[2, config.input_channels, config.input_size, config.input_size]),
///     vec![0, 1],
/// )?;
/// let report = trainer.train_epoch(&mut network, &[batch])?;
/// assert!(report.loss.is_finite());
/// # Ok(())
/// # }
/// ```
#[derive(Debug)]
pub struct Trainer<O, L> {
    optimizer: O,
    loss: L,
    classes: usize,
}

impl<O: Optimizer, L: Loss> Trainer<O, L> {
    /// Creates a trainer.
    pub fn new(optimizer: O, loss: L, classes: usize) -> Self {
        Self {
            optimizer,
            loss,
            classes,
        }
    }

    /// The number of output classes (used for one-hot targets).
    pub fn classes(&self) -> usize {
        self.classes
    }

    /// Mutable access to the optimizer (e.g. to decay the learning rate).
    pub fn optimizer_mut(&mut self) -> &mut O {
        &mut self.optimizer
    }

    /// Runs one optimization step on a single batch and returns `(loss,
    /// accuracy)` for that batch.
    ///
    /// # Errors
    ///
    /// Propagates forward/backward errors.
    pub fn train_batch(
        &mut self,
        network: &mut SpikingNetwork,
        batch: &Batch,
    ) -> Result<(f32, f32)> {
        let targets = reduce::one_hot(&batch.labels, self.classes)?;
        network.zero_grads();
        let rates = network.forward(&batch.input, Mode::Train)?;
        let loss_value = self.loss.forward(&rates, &targets)?;
        let grad = self.loss.backward(&rates, &targets)?;
        network.backward(&grad)?;
        self.optimizer.step(network.params_mut());
        let accuracy = metrics::accuracy(&rates, &batch.labels)?;
        Ok((loss_value, accuracy))
    }

    /// Runs one pass over all batches, updating parameters after each batch.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidInput`] for an empty batch list and
    /// propagates training errors.
    pub fn train_epoch(
        &mut self,
        network: &mut SpikingNetwork,
        batches: &[Batch],
    ) -> Result<EpochReport> {
        if batches.is_empty() {
            return Err(SnnError::invalid_input(
                "no batches to train on".to_string(),
            ));
        }
        let mut total_loss = 0.0f64;
        let mut total_correct = 0.0f64;
        let mut total_samples = 0usize;
        for batch in batches {
            let (loss, acc) = self.train_batch(network, batch)?;
            total_loss += loss as f64;
            total_correct += acc as f64 * batch.len() as f64;
            total_samples += batch.len();
        }
        Ok(EpochReport {
            loss: (total_loss / batches.len() as f64) as f32,
            accuracy: (total_correct / total_samples as f64) as f32,
        })
    }
}

/// Evaluates classification accuracy of a network over batches (evaluation
/// mode, no parameter updates).
///
/// # Errors
///
/// Returns [`SnnError::InvalidInput`] for an empty batch list and propagates
/// forward-pass errors.
pub fn evaluate(network: &mut SpikingNetwork, batches: &[Batch]) -> Result<f32> {
    let mut correct = 0usize;
    for batch in batches {
        correct += correct_predictions(network, batch)?;
    }
    accuracy_of(correct, batches)
}

/// Number of samples in `batch` that `network` classifies correctly (one
/// evaluation-mode forward pass).
///
/// # Errors
///
/// Propagates forward-pass errors.
pub fn correct_predictions(network: &mut SpikingNetwork, batch: &Batch) -> Result<usize> {
    let predictions = network.predict(&batch.input)?;
    Ok(predictions
        .iter()
        .zip(&batch.labels)
        .filter(|(p, l)| p == l)
        .count())
}

/// The accuracy [`evaluate`] reports for `correct` right answers over every
/// sample of `batches`, for drivers that tally [`correct_predictions`]
/// batch by batch themselves.
///
/// # Errors
///
/// Returns [`SnnError::InvalidInput`] for an empty batch list.
pub fn accuracy_of(correct: usize, batches: &[Batch]) -> Result<f32> {
    if batches.is_empty() {
        return Err(SnnError::invalid_input(
            "no batches to evaluate".to_string(),
        ));
    }
    let total: usize = batches.iter().map(Batch::len).sum();
    Ok(correct as f32 / total as f32)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ArchitectureConfig;
    use crate::loss::MseRateLoss;
    use crate::optim::Adam;
    use falvolt_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_batches(config: &ArchitectureConfig, n: usize, seed: u64) -> Vec<Batch> {
        // Two well-separated classes: class 0 = bright top half, class 1 =
        // bright bottom half.
        let mut rng = StdRng::seed_from_u64(seed);
        let mut batches = Vec::new();
        let half = config.input_size / 2;
        for _ in 0..n {
            let mut input = init::uniform(
                &[
                    2,
                    config.input_channels,
                    config.input_size,
                    config.input_size,
                ],
                0.0,
                0.1,
                &mut rng,
            );
            for x in 0..config.input_size {
                for y in 0..half {
                    input.set(&[0, 0, y, x], 1.0);
                    input.set(&[1, 0, y + half, x], 1.0);
                }
            }
            batches.push(Batch::new(input, vec![0, 1]).unwrap());
        }
        batches
    }

    #[test]
    fn batch_validates_label_count() {
        assert!(Batch::new(Tensor::zeros(&[2, 4]), vec![0]).is_err());
        assert!(Batch::new(Tensor::scalar(0.0), vec![]).is_err());
        let b = Batch::new(Tensor::zeros(&[2, 4]), vec![0, 1]).unwrap();
        assert_eq!(b.len(), 2);
        assert!(!b.is_empty());
    }

    #[test]
    fn training_reduces_loss_on_separable_toy_data() {
        let config = ArchitectureConfig::tiny_test();
        let mut network = config.build(11).unwrap();
        let mut trainer = Trainer::new(Adam::new(5e-3), MseRateLoss::new(), config.classes);
        let batches = toy_batches(&config, 4, 3);
        let first = trainer.train_epoch(&mut network, &batches).unwrap();
        let mut last = first;
        for _ in 0..8 {
            last = trainer.train_epoch(&mut network, &batches).unwrap();
        }
        assert!(
            last.loss < first.loss,
            "loss should decrease: first {} last {}",
            first.loss,
            last.loss
        );
        assert!(last.accuracy >= first.accuracy);
    }

    #[test]
    fn empty_inputs_are_rejected() {
        let config = ArchitectureConfig::tiny_test();
        let mut network = config.build(7).unwrap();
        let mut trainer = Trainer::new(Adam::new(1e-3), MseRateLoss::new(), config.classes);
        assert!(trainer.train_epoch(&mut network, &[]).is_err());
        assert!(evaluate(&mut network, &[]).is_err());
        assert_eq!(trainer.classes(), config.classes);
        trainer.optimizer_mut().set_learning_rate(1e-4);
    }
}
