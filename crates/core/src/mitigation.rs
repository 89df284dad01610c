//! Fault-mitigation strategies: FaP, FaPIT and FalVolt (Algorithm 1).
//!
//! All three strategies start from a pre-trained network and a chip fault
//! map:
//!
//! * **FaP** (fault-aware pruning): zero the weights mapped to faulty PEs and
//!   stop — the hardware equivalent is enabling the bypass multiplexers. The
//!   paper notes this is Algorithm 1 with zero retraining epochs.
//! * **FaPIT** (fault-aware pruning with retraining): FaP followed by
//!   retraining of the surviving weights with the threshold voltage *frozen*
//!   at its initial value (1.0 unless overridden).
//! * **FalVolt**: FaP followed by retraining in which each spiking layer's
//!   threshold voltage is a trainable parameter updated by the gradient of
//!   Eq. (4) — the paper's contribution. Pruned weights are re-zeroed at the
//!   end of every epoch (Algorithm 1, line 13).

use crate::prune::PruneMasks;
use crate::Result;
use falvolt_snn::loss::MseRateLoss;
use falvolt_snn::optim::Adam;
use falvolt_snn::trainer::{evaluate, Batch, Trainer};
use falvolt_snn::SpikingNetwork;
use falvolt_systolic::FaultMap;

/// Which mitigation strategy to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MitigationStrategy {
    /// Fault-aware pruning only (no retraining).
    FaP,
    /// Fault-aware pruning followed by retraining with a fixed threshold
    /// voltage.
    FaPIT {
        /// Number of retraining epochs.
        epochs: usize,
        /// The fixed threshold voltage used during retraining (the paper uses
        /// 1.0 for the FaPIT baseline and sweeps other values in Figure 2).
        threshold: f32,
    },
    /// Fault-aware pruning followed by retraining with per-layer learnable
    /// threshold voltages (the paper's contribution).
    FalVolt {
        /// Number of retraining epochs.
        epochs: usize,
    },
}

impl MitigationStrategy {
    /// FaPIT with the paper's default fixed threshold of 1.0.
    pub fn fapit(epochs: usize) -> Self {
        MitigationStrategy::FaPIT {
            epochs,
            threshold: 1.0,
        }
    }

    /// FalVolt with the given number of retraining epochs.
    pub fn falvolt(epochs: usize) -> Self {
        MitigationStrategy::FalVolt { epochs }
    }

    /// Short name used in reports and figures.
    pub fn label(&self) -> &'static str {
        match self {
            MitigationStrategy::FaP => "FaP",
            MitigationStrategy::FaPIT { .. } => "FaPIT",
            MitigationStrategy::FalVolt { .. } => "FalVolt",
        }
    }

    /// Number of retraining epochs this strategy uses.
    pub fn epochs(&self) -> usize {
        match self {
            MitigationStrategy::FaP => 0,
            MitigationStrategy::FaPIT { epochs, .. } | MitigationStrategy::FalVolt { epochs } => {
                *epochs
            }
        }
    }
}

/// Hyper-parameters of the retraining loop shared by FaPIT and FalVolt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetrainConfig {
    /// Adam learning rate.
    pub learning_rate: f32,
    /// Evaluate test accuracy after every epoch and record it in
    /// [`MitigationOutcome::history`] (Figure 8 reads it). Costs one
    /// test-set evaluation per epoch; without it a run evaluates once after
    /// pruning and once after its last epoch.
    pub track_history: bool,
}

impl RetrainConfig {
    /// Retraining configuration of the paper's figures: Adam at 5e-3, no
    /// per-epoch history. A campaign starts from it and tracks history only
    /// when its plan asks ([`crate::campaign::Campaign::track_history`]).
    pub fn paper_like() -> Self {
        Self {
            learning_rate: 5e-3,
            track_history: false,
        }
    }

    /// Faster configuration for tests and quick runs, with per-epoch
    /// history.
    pub fn quick() -> Self {
        Self {
            learning_rate: 1e-2,
            track_history: true,
        }
    }
}

impl Default for RetrainConfig {
    fn default() -> Self {
        Self::paper_like()
    }
}

/// Accuracy (and loss) after one retraining epoch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochPoint {
    /// Epoch index (1-based; epoch 0 is "right after pruning").
    pub epoch: usize,
    /// Mean training loss of the epoch (`None` for the pre-retraining point).
    pub train_loss: Option<f32>,
    /// Test accuracy after the epoch.
    pub test_accuracy: f32,
}

/// The result of running one mitigation strategy on one faulty chip.
#[derive(Debug, Clone, PartialEq)]
pub struct MitigationOutcome {
    /// Strategy label ("FaP", "FaPIT", "FalVolt").
    pub strategy: String,
    /// Fraction of PEs that were faulty.
    pub fault_rate: f64,
    /// Fraction of weights pruned by the fault map.
    pub pruned_weight_fraction: f64,
    /// Test accuracy immediately after pruning (before any retraining).
    pub accuracy_after_pruning: f32,
    /// Test accuracy after the full mitigation.
    pub final_accuracy: f32,
    /// Per-epoch accuracy history (empty when history tracking is disabled
    /// or for FaP).
    pub history: Vec<EpochPoint>,
    /// Threshold voltage of every spiking layer after mitigation, in network
    /// order (`(layer name, V)`), as reported in Figure 6.
    pub thresholds: Vec<(String, f32)>,
    /// Epochs actually run.
    pub epochs_run: usize,
}

impl MitigationOutcome {
    /// The first epoch at which the test accuracy reached `target`, if any —
    /// the convergence metric behind the paper's "2x faster" claim.
    pub fn epochs_to_reach(&self, target: f32) -> Option<usize> {
        epochs_to_reach(&self.history, target)
    }
}

/// The first epoch of `history` whose test accuracy reached `target`, if any
/// — the shared convergence criterion behind
/// [`MitigationOutcome::epochs_to_reach`] and the Figure 8 consumers.
pub fn epochs_to_reach(history: &[EpochPoint], target: f32) -> Option<usize> {
    history
        .iter()
        .find(|p| p.test_accuracy >= target)
        .map(|p| p.epoch)
}

/// Runs mitigation strategies against faulty chips.
///
/// See the crate-level example for typical usage.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mitigator {
    classes: usize,
    retrain: RetrainConfig,
}

impl Mitigator {
    /// Creates a mitigator for a `classes`-way classifier.
    pub fn new(classes: usize, retrain: RetrainConfig) -> Self {
        Self { classes, retrain }
    }

    /// The retraining configuration.
    pub fn retrain_config(&self) -> &RetrainConfig {
        &self.retrain
    }

    /// Runs `strategy` on `network` for the chip described by `fault_map`:
    /// prunes the network and evaluates it (Algorithm 1, lines 1-2), then
    /// retrains it as the strategy asks (lines 3-14).
    ///
    /// The network is modified in place (pruned and retrained); clone it
    /// first if the pristine weights are still needed.
    ///
    /// # Errors
    ///
    /// Returns an error when the training data is empty or a forward/backward
    /// pass fails.
    pub fn run(
        &self,
        network: &mut SpikingNetwork,
        fault_map: &FaultMap,
        train: &[Batch],
        test: &[Batch],
        strategy: MitigationStrategy,
    ) -> Result<MitigationOutcome> {
        check_data(train, test)?;
        let pruning = self.prune_and_evaluate(network, fault_map, test)?;
        self.retrain(network, &pruning, train, test, strategy)
    }

    /// Algorithm 1, lines 1-2: finds the weights `fault_map` maps to faulty
    /// PEs, zeroes them in `network` and evaluates the pruned network on
    /// `test`. Every strategy on one chip starts from this result, so a
    /// campaign computes it once per fault map and shares it.
    pub(crate) fn prune_and_evaluate(
        &self,
        network: &mut SpikingNetwork,
        fault_map: &FaultMap,
        test: &[Batch],
    ) -> Result<Pruning> {
        let masks = PruneMasks::derive(network, fault_map);
        masks.apply(network)?;
        Ok(Pruning {
            accuracy: evaluate(network, test)?,
            fault_rate: fault_map.fault_rate(),
            pruned_weight_fraction: masks.pruned_fraction(),
            masks,
        })
    }

    /// Algorithm 1, lines 3-14: applies `pruning`'s masks to `network` (a
    /// no-op when `prune_and_evaluate` just pruned it), sets the thresholds
    /// `strategy` asks for and retrains for its epochs, re-zeroing the
    /// pruned weights after each one.
    pub(crate) fn retrain(
        &self,
        network: &mut SpikingNetwork,
        pruning: &Pruning,
        train: &[Batch],
        test: &[Batch],
        strategy: MitigationStrategy,
    ) -> Result<MitigationOutcome> {
        check_data(train, test)?;
        let masks = &pruning.masks;
        masks.apply(network)?;

        // Configure the threshold voltage according to the strategy.
        match strategy {
            MitigationStrategy::FaP => {
                network.set_thresholds_trainable(false);
            }
            MitigationStrategy::FaPIT { threshold, .. } => {
                network.set_thresholds_trainable(false);
                network.set_all_thresholds(threshold);
            }
            MitigationStrategy::FalVolt { .. } => {
                // Algorithm 1, line 3: initialise the threshold parameters and
                // mark them trainable for the retraining phase.
                network.set_thresholds_trainable(true);
            }
        }

        let epochs = strategy.epochs();
        let mut history = Vec::new();
        if self.retrain.track_history && epochs > 0 {
            history.push(EpochPoint {
                epoch: 0,
                train_loss: None,
                test_accuracy: pruning.accuracy,
            });
        }

        let mut trainer = Trainer::new(
            Adam::new(self.retrain.learning_rate),
            MseRateLoss::new(),
            self.classes,
        );
        let mut final_accuracy = pruning.accuracy;

        // Algorithm 1, lines 4-14: retrain the surviving weights (and, for
        // FalVolt, the per-layer threshold voltages).
        for epoch in 1..=epochs {
            let report = trainer.train_epoch(network, train)?;
            // Algorithm 1, line 13: pruned weights stay zero.
            masks.apply(network)?;

            if self.retrain.track_history || epoch == epochs {
                final_accuracy = evaluate(network, test)?;
            }
            if self.retrain.track_history {
                history.push(EpochPoint {
                    epoch,
                    train_loss: Some(report.loss),
                    test_accuracy: final_accuracy,
                });
            }
        }

        Ok(MitigationOutcome {
            strategy: strategy.label().to_string(),
            fault_rate: pruning.fault_rate,
            pruned_weight_fraction: pruning.pruned_weight_fraction,
            accuracy_after_pruning: pruning.accuracy,
            final_accuracy,
            history,
            thresholds: network.thresholds(),
            epochs_run: epochs,
        })
    }
}

/// One chip's fault-aware pruning: the masks and what every strategy on
/// the chip reports before retraining.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Pruning {
    masks: PruneMasks,
    /// Test accuracy right after pruning.
    accuracy: f32,
    fault_rate: f64,
    pruned_weight_fraction: f64,
}

/// Rejects empty training or test sets before any work starts.
fn check_data(train: &[Batch], test: &[Batch]) -> Result<()> {
    if train.is_empty() || test.is_empty() {
        return Err(crate::FalvoltError::invalid_config(
            "mitigation needs non-empty training and test sets",
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use falvolt_snn::config::ArchitectureConfig;
    use falvolt_snn::trainer::{Batch, Trainer};
    use falvolt_snn::{loss::MseRateLoss as L, optim::Adam as A};
    use falvolt_systolic::{StuckAt, SystolicConfig};
    use falvolt_tensor::init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Builds a tiny, easily separable 4-class problem and a network trained
    /// to high accuracy on it.
    fn trained_setup() -> (SpikingNetwork, Vec<Batch>, Vec<Batch>, usize) {
        let config = ArchitectureConfig::tiny_test();
        let mut network = config.build(21).unwrap();
        let mut rng = StdRng::seed_from_u64(4);
        let make_batches = |rng: &mut StdRng| {
            let mut batches = Vec::new();
            for _ in 0..4 {
                let mut input = init::uniform(&[4, 1, 8, 8], 0.0, 0.1, rng);
                // Class c = bright quadrant c.
                for c in 0..4 {
                    let (y0, x0) = ((c / 2) * 4, (c % 2) * 4);
                    for y in y0..y0 + 4 {
                        for x in x0..x0 + 4 {
                            input.set(&[c, 0, y, x], 1.0);
                        }
                    }
                }
                batches.push(Batch::new(input, vec![0, 1, 2, 3]).unwrap());
            }
            batches
        };
        let train = make_batches(&mut rng);
        let test = make_batches(&mut rng);
        let mut trainer = Trainer::new(A::new(1e-2), L::new(), config.classes);
        for _ in 0..25 {
            trainer.train_epoch(&mut network, &train).unwrap();
        }
        (network, train, test, config.classes)
    }

    #[test]
    fn baseline_is_accurate_and_heavy_faults_degrade_fap() {
        let (mut network, train, test, classes) = trained_setup();
        let baseline = evaluate(&mut network, &test).unwrap();
        assert!(baseline >= 0.75, "baseline accuracy too low: {baseline}");

        let systolic = SystolicConfig::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(8);
        let fault_map =
            FaultMap::random_with_rate(&systolic, 0.6, 15, StuckAt::One, &mut rng).unwrap();

        let mitigator = Mitigator::new(classes, RetrainConfig::quick());
        let outcome = mitigator
            .run(
                &mut network,
                &fault_map,
                &train,
                &test,
                MitigationStrategy::FaP,
            )
            .unwrap();
        assert_eq!(outcome.strategy, "FaP");
        assert_eq!(outcome.epochs_run, 0);
        assert!(outcome.history.is_empty());
        assert!(outcome.pruned_weight_fraction > 0.3);
        assert_eq!(outcome.final_accuracy, outcome.accuracy_after_pruning);
    }

    #[test]
    fn falvolt_recovers_accuracy_and_learns_thresholds() {
        let (mut network, train, test, classes) = trained_setup();
        let baseline_state = network.export_parameters();
        let systolic = SystolicConfig::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let fault_map =
            FaultMap::random_with_rate(&systolic, 0.3, 15, StuckAt::One, &mut rng).unwrap();
        let mitigator = Mitigator::new(classes, RetrainConfig::quick());

        // FaP as the degradation reference.
        let fap = mitigator
            .run(
                &mut network,
                &fault_map,
                &train,
                &test,
                MitigationStrategy::FaP,
            )
            .unwrap();

        network.import_parameters(&baseline_state).unwrap();
        let falvolt = mitigator
            .run(
                &mut network,
                &fault_map,
                &train,
                &test,
                MitigationStrategy::falvolt(12),
            )
            .unwrap();

        assert!(
            falvolt.final_accuracy >= fap.final_accuracy,
            "FalVolt ({}) should not be worse than FaP ({})",
            falvolt.final_accuracy,
            fap.final_accuracy
        );
        assert!(
            falvolt.final_accuracy >= 0.70,
            "FalVolt accuracy {}",
            falvolt.final_accuracy
        );
        // History recorded per epoch plus the post-pruning point.
        assert_eq!(falvolt.history.len(), 13);
        assert_eq!(falvolt.epochs_run, 12);
        // At least one spiking layer should have moved its threshold away
        // from the initial 1.0.
        assert!(falvolt
            .thresholds
            .iter()
            .any(|(_, v)| (*v - 1.0).abs() > 1e-3));
        assert!(falvolt.epochs_to_reach(0.5).is_some());
    }

    #[test]
    fn history_tracking_changes_no_other_output() {
        let (mut network, train, test, classes) = trained_setup();
        let baseline_state = network.export_parameters();
        let systolic = SystolicConfig::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(13);
        let fault_map =
            FaultMap::random_with_rate(&systolic, 0.3, 15, StuckAt::One, &mut rng).unwrap();
        let mut run = |track_history: bool, strategy: MitigationStrategy| {
            network.import_parameters(&baseline_state).unwrap();
            let retrain = RetrainConfig {
                track_history,
                ..RetrainConfig::quick()
            };
            Mitigator::new(classes, retrain)
                .run(&mut network, &fault_map, &train, &test, strategy)
                .unwrap()
        };
        let bits = |o: &MitigationOutcome| {
            let thresholds: Vec<(String, u32)> = o
                .thresholds
                .iter()
                .map(|(name, v)| (name.clone(), v.to_bits()))
                .collect();
            (
                o.final_accuracy.to_bits(),
                o.accuracy_after_pruning.to_bits(),
                thresholds,
                o.pruned_weight_fraction.to_bits(),
                o.epochs_run,
            )
        };
        for strategy in [
            MitigationStrategy::FaP,
            MitigationStrategy::fapit(3),
            MitigationStrategy::falvolt(3),
        ] {
            let tracked = run(true, strategy);
            let untracked = run(false, strategy);
            assert_eq!(bits(&tracked), bits(&untracked), "{}", strategy.label());
            assert!(untracked.history.is_empty());
            let points = if strategy.epochs() > 0 { 4 } else { 0 };
            assert_eq!(tracked.history.len(), points, "{}", strategy.label());
        }
    }

    #[test]
    fn strategy_labels_and_epochs() {
        assert_eq!(MitigationStrategy::FaP.label(), "FaP");
        assert_eq!(MitigationStrategy::fapit(5).label(), "FaPIT");
        assert_eq!(MitigationStrategy::falvolt(7).label(), "FalVolt");
        assert_eq!(MitigationStrategy::FaP.epochs(), 0);
        assert_eq!(MitigationStrategy::fapit(5).epochs(), 5);
        assert_eq!(MitigationStrategy::falvolt(7).epochs(), 7);
    }

    #[test]
    fn empty_data_is_rejected() {
        let (mut network, train, _test, classes) = trained_setup();
        let systolic = SystolicConfig::new(4, 4).unwrap();
        let fault_map = FaultMap::new(systolic);
        let mitigator = Mitigator::new(classes, RetrainConfig::quick());
        assert!(mitigator
            .run(
                &mut network,
                &fault_map,
                &[],
                &train,
                MitigationStrategy::FaP
            )
            .is_err());
        assert!(mitigator
            .run(
                &mut network,
                &fault_map,
                &train,
                &[],
                MitigationStrategy::FaP
            )
            .is_err());
        assert!(mitigator.retrain_config().track_history);
    }

    #[test]
    fn fapit_keeps_thresholds_fixed_while_falvolt_moves_them() {
        let (mut network, train, test, classes) = trained_setup();
        let baseline_state = network.export_parameters();
        let systolic = SystolicConfig::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        let fault_map =
            FaultMap::random_with_rate(&systolic, 0.3, 15, StuckAt::One, &mut rng).unwrap();
        let mitigator = Mitigator::new(classes, RetrainConfig::quick());

        let fapit = mitigator
            .run(
                &mut network,
                &fault_map,
                &train,
                &test,
                MitigationStrategy::fapit(4),
            )
            .unwrap();
        assert!(
            fapit
                .thresholds
                .iter()
                .all(|(_, v)| (*v - 1.0).abs() < 1e-6),
            "FaPIT must not move thresholds"
        );

        network.import_parameters(&baseline_state).unwrap();
        let falvolt = mitigator
            .run(
                &mut network,
                &fault_map,
                &train,
                &test,
                MitigationStrategy::falvolt(4),
            )
            .unwrap();
        assert!(
            falvolt
                .thresholds
                .iter()
                .any(|(_, v)| (*v - 1.0).abs() > 1e-4),
            "FalVolt should adapt thresholds"
        );
    }
}
