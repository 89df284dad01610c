//! # falvolt-snn
//!
//! A from-scratch spiking-neural-network (SNN) library implementing the
//! training machinery the FalVolt paper relies on:
//!
//! * leaky integrate-and-fire (LIF) and *parametric* LIF (PLIF) neurons with
//!   learnable membrane time constants ([`neuron`]),
//! * the triangular surrogate gradient of the paper's Eq. (2)
//!   ([`surrogate`]),
//! * spiking layers with a **per-layer learnable threshold voltage** and the
//!   threshold gradient of Eq. (4) — the core mechanism behind FalVolt
//!   ([`layers::spiking`]),
//! * convolutional / batch-norm / pooling / dropout / fully-connected layers
//!   with full backpropagation-through-time ([`layers`]),
//! * a [`SpikingNetwork`] container driving multi-time-step forward and BPTT
//!   backward passes ([`network`]),
//! * rate-coded MSE loss ([`loss`]), SGD / Adam optimizers ([`optim`]), a
//!   [`Trainer`](trainer::Trainer) ([`trainer`]), metrics ([`metrics`]) and input encoders
//!   ([`encoding`]),
//! * the paper's network architectures, scaled for CPU-only experimentation
//!   ([`config`]).
//!
//! The matrix products of convolutional and fully connected layers go through
//! a pluggable [`MatmulBackend`]; the `falvolt` core crate installs the
//! systolic-array executor there to run *faulty* inference without this crate
//! depending on the hardware simulator.
//!
//! # Example
//!
//! ```
//! use falvolt_snn::config::ArchitectureConfig;
//! use falvolt_snn::{Mode, Tensor};
//!
//! # fn main() -> Result<(), falvolt_snn::SnnError> {
//! let config = ArchitectureConfig::tiny_test();
//! let mut network = config.build(7)?;
//! let input = Tensor::zeros(&[2, config.input_channels, config.input_size, config.input_size]);
//! let rates = network.forward(&input, Mode::Eval)?;
//! assert_eq!(rates.shape(), &[2, config.classes]);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod backend;
pub mod config;
pub mod encoding;
pub mod layers;
pub mod loss;
pub mod metrics;
pub mod network;
pub mod neuron;
pub mod optim;
pub mod param;
pub mod surrogate;
pub mod sweep_cache;
pub mod trainer;
mod wavefront;

pub use backend::{FloatBackend, MatmulBackend, MatmulOutput, MatmulRequest};
pub use error::SnnError;
pub use layers::{ForwardContext, Layer, Mode};
pub use network::{EnginePreset, SpikingNetwork};
pub use param::Param;
pub use sweep_cache::SweepCache;

// Re-export the tensor type (every public API in this crate speaks `Tensor`)
// and the operand-structure hint the backend trait takes.
pub use falvolt_tensor::{MatmulHint, Tensor};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, SnnError>;
