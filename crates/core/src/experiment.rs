//! Experiment setup shared by every figure: the paper's three workloads,
//! the experiment scales, and the [`ExperimentContext`] that holds the
//! generated data and the trained fault-free baseline.
//!
//! The figures themselves are [`crate::campaign`] plans run against a
//! prepared context, one per figure in [`crate::figures`].
//! The experiments run on synthetic datasets and a scaled network, so
//! absolute accuracies differ from the paper; the *shape* of every curve is
//! what the reproduction targets.

use crate::vulnerability::SweepCaches;
use crate::Result;
use falvolt_datasets::{
    to_batches, Dataset, DatasetConfig, LabeledBatch, SyntheticDvsGesture, SyntheticMnist,
    SyntheticNMnist,
};
use falvolt_snn::config::ArchitectureConfig;
use falvolt_snn::loss::MseRateLoss;
use falvolt_snn::optim::Adam;
use falvolt_snn::trainer::{Batch, Trainer};
use falvolt_snn::SpikingNetwork;
use falvolt_systolic::SystolicConfig;
use falvolt_tensor::Tensor;

// ---------------------------------------------------------------------------
// Dataset kinds and experiment scales
// ---------------------------------------------------------------------------

/// Which of the paper's three workloads an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DatasetKind {
    /// Static MNIST-like images.
    Mnist,
    /// Neuromorphic N-MNIST-like saccade events.
    NMnist,
    /// Neuromorphic DVS-Gesture-like motion events.
    DvsGesture,
}

impl DatasetKind {
    /// All three workloads, in the order the paper lists them.
    pub const ALL: [DatasetKind; 3] = [
        DatasetKind::Mnist,
        DatasetKind::NMnist,
        DatasetKind::DvsGesture,
    ];

    /// Human-readable label.
    pub fn label(&self) -> &'static str {
        match self {
            DatasetKind::Mnist => "MNIST",
            DatasetKind::NMnist => "N-MNIST",
            DatasetKind::DvsGesture => "DVS128-Gesture",
        }
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        match self {
            DatasetKind::Mnist | DatasetKind::NMnist => 10,
            DatasetKind::DvsGesture => 11,
        }
    }

    /// The scaled network architecture for this workload.
    pub fn architecture(&self) -> ArchitectureConfig {
        match self {
            DatasetKind::Mnist => ArchitectureConfig::mnist_like(),
            DatasetKind::NMnist => ArchitectureConfig::nmnist_like(),
            DatasetKind::DvsGesture => ArchitectureConfig::dvs_gesture_like(),
        }
    }
}

/// How much compute an experiment run spends. All scales exercise identical
/// code paths; they differ only in dataset size, epochs and fault-map
/// iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentScale {
    /// The smallest scale: the tests, the figure benches and the
    /// `reproduce` binary's default.
    Tiny,
    /// More samples, epochs and fault maps than Tiny.
    Quick,
    /// Closer to the paper's sample counts and epoch budgets.
    Full,
}

impl ExperimentScale {
    /// Samples generated per class (train set; the test set uses the same).
    pub fn samples_per_class(&self) -> usize {
        match self {
            ExperimentScale::Tiny => 10,
            ExperimentScale::Quick => 16,
            ExperimentScale::Full => 24,
        }
    }

    /// Baseline (fault-free) training epochs.
    pub fn baseline_epochs(&self) -> usize {
        match self {
            ExperimentScale::Tiny => 25,
            ExperimentScale::Quick => 35,
            ExperimentScale::Full => 50,
        }
    }

    /// Retraining epochs used by FaPIT / FalVolt comparisons.
    pub fn retrain_epochs(&self) -> usize {
        match self {
            ExperimentScale::Tiny => 8,
            ExperimentScale::Quick => 15,
            ExperimentScale::Full => 30,
        }
    }

    /// Mini-batch size.
    pub fn batch_size(&self) -> usize {
        match self {
            ExperimentScale::Tiny => 16,
            ExperimentScale::Quick | ExperimentScale::Full => 16,
        }
    }

    /// Fault maps drawn (and averaged) per point of the Figure 5 sweeps.
    /// The paper uses 8.
    pub fn fault_maps_per_point(&self) -> usize {
        match self {
            ExperimentScale::Tiny => 1,
            ExperimentScale::Quick => 2,
            ExperimentScale::Full => 8,
        }
    }

    fn dataset_config(&self) -> DatasetConfig {
        DatasetConfig::default_experiment().with_samples_per_class(self.samples_per_class())
    }
}

// ---------------------------------------------------------------------------
// Experiment context: data + trained baseline
// ---------------------------------------------------------------------------

/// A prepared experiment: generated train/test data and a network trained to
/// its fault-free baseline accuracy, ready to be attacked with fault maps.
#[derive(Debug)]
pub struct ExperimentContext {
    kind: DatasetKind,
    scale: ExperimentScale,
    architecture: ArchitectureConfig,
    systolic: SystolicConfig,
    train: Vec<Batch>,
    test: Vec<Batch>,
    network: SpikingNetwork,
    baseline_state: Vec<Tensor>,
    baseline_accuracy: f32,
    seed: u64,
    /// Sweep caches keyed per prepared test set: every campaign on this
    /// context shares one pair, so Figure 5a/5b/5c reuse the encoder
    /// lowerings of the same test batches across figures instead of
    /// rebuilding them per sweep.
    caches: SweepCaches,
}

impl ExperimentContext {
    /// Generates the dataset, builds the architecture and trains the
    /// fault-free baseline.
    ///
    /// # Errors
    ///
    /// Propagates network-construction and training errors.
    pub fn prepare(kind: DatasetKind, scale: ExperimentScale, seed: u64) -> Result<Self> {
        Self::prepare_with_epochs(kind, scale, seed, scale.baseline_epochs())
    }

    /// [`ExperimentContext::prepare`] with no baseline training: the
    /// campaign unit tests exercise the sweep machinery, not the
    /// classifier, and skipping the epochs keeps them cheap.
    #[cfg(test)]
    pub(crate) fn prepare_untrained(
        kind: DatasetKind,
        scale: ExperimentScale,
        seed: u64,
    ) -> Result<Self> {
        Self::prepare_with_epochs(kind, scale, seed, 0)
    }

    fn prepare_with_epochs(
        kind: DatasetKind,
        scale: ExperimentScale,
        seed: u64,
        baseline_epochs: usize,
    ) -> Result<Self> {
        let data_config = scale.dataset_config();
        let architecture = kind.architecture();
        let (train_raw, test_raw) = generate_dataset(kind, &data_config, seed);
        let train = convert_batches(to_batches(train_raw.as_ref(), scale.batch_size(), seed))?;
        let test = convert_batches(to_batches(
            test_raw.as_ref(),
            scale.batch_size(),
            seed.wrapping_add(1),
        ))?;

        let mut network = architecture.build(seed)?;
        let mut trainer = Trainer::new(Adam::new(5e-3), MseRateLoss::new(), kind.classes());
        for _ in 0..baseline_epochs {
            trainer.train_epoch(&mut network, &train)?;
        }
        let baseline_accuracy = falvolt_snn::trainer::evaluate(&mut network, &test)?;
        let baseline_state = network.export_parameters();

        // A 16x16 grid keeps the network-to-array size ratio comparable to
        // the paper's 256x256 array serving much larger layers; Figure 5c
        // sweeps other sizes explicitly.
        let systolic = SystolicConfig::new(16, 16)?;

        Ok(Self {
            kind,
            scale,
            architecture,
            systolic,
            train,
            test,
            network,
            baseline_state,
            baseline_accuracy,
            seed,
            caches: SweepCaches::new(),
        })
    }

    /// The workload this context was prepared for.
    pub fn kind(&self) -> DatasetKind {
        self.kind
    }

    /// The experiment scale.
    pub fn scale(&self) -> ExperimentScale {
        self.scale
    }

    /// The base seed this context was prepared with (campaigns mix their
    /// per-cell seeds from it by default).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Shared access to the context's network (the trained baseline between
    /// experiments; campaign workers carve scenario views off it).
    pub fn network(&self) -> &SpikingNetwork {
        &self.network
    }

    /// The network architecture.
    pub fn architecture(&self) -> &ArchitectureConfig {
        &self.architecture
    }

    /// The systolic-array configuration experiments run against.
    pub fn systolic_config(&self) -> &SystolicConfig {
        &self.systolic
    }

    /// Number of classes.
    pub fn classes(&self) -> usize {
        self.kind.classes()
    }

    /// Training batches.
    pub fn train_batches(&self) -> &[Batch] {
        &self.train
    }

    /// Test batches.
    pub fn test_batches(&self) -> &[Batch] {
        &self.test
    }

    /// Fault-free baseline accuracy of the trained network.
    pub fn baseline_accuracy(&self) -> f32 {
        self.baseline_accuracy
    }

    /// The context-owned sweep caches (one pair per prepared test set),
    /// shared by every campaign on this context so repeated sweeps over the
    /// same data reuse lowerings and quantized-weight tables across figures.
    pub fn caches(&self) -> &SweepCaches {
        &self.caches
    }

    /// Restores the network to the trained baseline (undoing pruning,
    /// retraining and threshold changes from a previous mitigation run).
    ///
    /// # Errors
    ///
    /// Propagates parameter-import errors.
    pub fn restore_baseline(&mut self) -> Result<()> {
        self.network.import_parameters(&self.baseline_state)?;
        self.network.set_thresholds_trainable(false);
        self.network
            .set_backend(falvolt_snn::FloatBackend::shared());
        Ok(())
    }

    /// Mutable access to the context's network (restore the baseline first if
    /// the previous experiment modified it).
    pub fn network_mut(&mut self) -> &mut SpikingNetwork {
        &mut self.network
    }

    /// Hands out a copy of the baseline network. The layer structure is a
    /// scenario view of the context's network (parameters shared
    /// copy-on-write, not rebuilt from scratch) with the trained baseline
    /// state imported and thresholds frozen, so callers get the exact
    /// pre-mitigation network without an O(weights) allocation unless they
    /// go on to mutate it.
    ///
    /// # Errors
    ///
    /// Propagates parameter-import errors.
    pub fn network_clone(&self) -> Result<SpikingNetwork> {
        let mut network = self.network.scenario_view();
        network.import_parameters(&self.baseline_state)?;
        network.set_thresholds_trainable(false);
        network.set_backend(falvolt_snn::FloatBackend::shared());
        Ok(network)
    }
}

fn generate_dataset(
    kind: DatasetKind,
    config: &DatasetConfig,
    seed: u64,
) -> (Box<dyn Dataset>, Box<dyn Dataset>) {
    match kind {
        DatasetKind::Mnist => {
            let (train, test) = SyntheticMnist::train_test(config, seed);
            (Box::new(train), Box::new(test))
        }
        DatasetKind::NMnist => {
            let config = config.with_time_steps(kind.architecture().time_steps);
            let (train, test) = SyntheticNMnist::train_test(&config, seed);
            (Box::new(train), Box::new(test))
        }
        DatasetKind::DvsGesture => {
            let config = config.with_time_steps(kind.architecture().time_steps);
            let (train, test) = SyntheticDvsGesture::train_test(&config, seed);
            (Box::new(train), Box::new(test))
        }
    }
}

fn convert_batches(batches: Vec<LabeledBatch>) -> Result<Vec<Batch>> {
    batches
        .into_iter()
        .map(|b| Ok(Batch::new(b.input, b.labels)?))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dataset_kind_metadata() {
        assert_eq!(DatasetKind::ALL.len(), 3);
        assert_eq!(DatasetKind::Mnist.classes(), 10);
        assert_eq!(DatasetKind::DvsGesture.classes(), 11);
        assert_eq!(DatasetKind::NMnist.label(), "N-MNIST");
        assert_eq!(DatasetKind::Mnist.architecture().input_channels, 1);
        assert_eq!(DatasetKind::DvsGesture.architecture().conv_blocks, 5);
    }

    #[test]
    fn scales_order_their_budgets() {
        let tiny = ExperimentScale::Tiny;
        let quick = ExperimentScale::Quick;
        let full = ExperimentScale::Full;
        assert!(tiny.samples_per_class() < quick.samples_per_class());
        assert!(quick.samples_per_class() < full.samples_per_class());
        assert!(tiny.baseline_epochs() < full.baseline_epochs());
        assert!(tiny.retrain_epochs() <= quick.retrain_epochs());
        assert!(tiny.fault_maps_per_point() <= full.fault_maps_per_point());
        assert!(tiny.batch_size() > 0);
    }

    // The end-to-end experiment flow is exercised by the workspace
    // integration tests (tests/experiment_flow.rs) on the Tiny scale; unit
    // tests here stay cheap.
}
