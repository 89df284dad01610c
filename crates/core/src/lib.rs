//! # falvolt
//!
//! FalVolt: fault-aware threshold voltage optimization for systolic-array
//! spiking-neural-network accelerators — a from-scratch Rust reproduction of
//! *"Improving Reliability of Spiking Neural Networks through Fault Aware
//! Threshold Voltage Optimization"* (Siddique & Hoque, DATE 2023).
//!
//! The crate ties the workspace together:
//!
//! * [`SystolicBackend`] runs a trained SNN's inference through the
//!   (possibly faulty) systolic-array model ([`backend`]),
//! * [`prune`] derives fault-aware prune masks from a chip's fault map and
//!   the weight-stationary PE mapping,
//! * [`mitigation`] implements the three strategies the paper compares:
//!   fault-aware pruning (FaP), fault-aware pruning + retraining (FaPIT) and
//!   **FalVolt** — retraining with per-layer learnable threshold voltages
//!   (Algorithm 1),
//! * [`vulnerability`] holds the panic-isolated scenario fan-out that the
//!   stuck-at fault sweeps of Figure 5 (bit position, number of faulty PEs,
//!   array size) run on, and its sequential reference,
//! * [`campaign`] is the declarative sweep engine: every figure-style sweep
//!   is a [`Campaign`] plan built from typed [`Axis`] values, executed by
//!   one scheduler that owns seed mixing, fault-map pools, scenario-view
//!   fan-out, cache sharing and multi-map batching,
//! * [`experiment`] prepares what every figure runs on: the workload, the
//!   scale and an [`experiment::ExperimentContext`] holding the generated
//!   data and the trained baseline,
//! * [`figures`] defines each paper figure once: its [`campaign`] plan over
//!   that context and the table it reports (the `reproduce` binary and the
//!   figure benches run these).
//!
//! # Example: mitigate a faulty chip
//!
//! ```no_run
//! use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
//! use falvolt::mitigation::{MitigationStrategy, Mitigator, RetrainConfig};
//! use falvolt_systolic::{FaultMap, StuckAt};
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), falvolt::FalvoltError> {
//! // Train a baseline classifier on the synthetic MNIST-like workload.
//! let mut ctx = ExperimentContext::prepare(DatasetKind::Mnist, ExperimentScale::Quick, 42)?;
//!
//! // A chip with stuck-at-1 faults in the accumulator MSB of 30% of its PEs.
//! let mut rng = rand::rngs::StdRng::seed_from_u64(7);
//! let fault_map = FaultMap::random_with_rate(
//!     ctx.systolic_config(), 0.30, ctx.systolic_config().accumulator_format().msb(),
//!     StuckAt::One, &mut rng)?;
//!
//! // FalVolt: prune weights mapped to faulty PEs, retrain with learnable
//! // per-layer threshold voltages.
//! let mitigator = Mitigator::new(ctx.classes(), RetrainConfig::quick());
//! let outcome = mitigator.run(
//!     &mut ctx.network_clone()?, &fault_map, ctx.train_batches(), ctx.test_batches(),
//!     MitigationStrategy::falvolt(10))?;
//! println!("accuracy after FalVolt: {:.1}%", outcome.final_accuracy * 100.0);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod json;

pub mod backend;
pub mod campaign;
#[cfg(feature = "chaos")]
pub mod chaos;
pub mod experiment;
pub mod figures;
pub mod mitigation;
pub mod prune;
pub mod vulnerability;

pub use backend::{ScenarioProducts, SystolicBackend};
pub use campaign::{
    Axis, Campaign, CampaignCheckpoint, CampaignRun, CellResult, CellStatus, CheckpointCell,
    CheckpointSink, RetryPolicy, SkipReason,
};
pub use error::{CampaignError, CellFailure, FalvoltError};
pub use vulnerability::SweepCaches;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, FalvoltError>;
