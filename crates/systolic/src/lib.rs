//! # falvolt-systolic
//!
//! Architectural simulator of a weight-stationary systolic-array SNN
//! accelerator (a *systolicSNN*) with permanent stuck-at fault injection.
//!
//! The FalVolt paper evaluates a 256x256 grid of processing elements (PEs)
//! described in VHDL. This crate reproduces the pieces of that hardware the
//! reliability study actually depends on:
//!
//! * the [`SystolicConfig`] describing the grid and the accumulator word
//!   format ([`config`]),
//! * individual [`ProcessingElement`]s that accumulate weights under binary
//!   spikes, count output spikes and optionally corrupt their accumulator
//!   output with stuck-at faults or bypass themselves entirely ([`pe`]),
//! * [`Fault`]s, [`FaultMap`]s and random fault-map generators matching the
//!   paper's methodology (faults injected into accumulator output bits,
//!   fault maps from post-fabrication test) ([`fault`], [`fault_map`]),
//! * the weight-stationary [`WeightMapping`] that decides which weights of a
//!   layer land on which PE — and therefore which weights a faulty PE
//!   corrupts ([`mapping`]),
//! * a [`SystolicExecutor`] that runs im2col-lowered matrix products through
//!   the faulty array ([`executor`]), and a structural PE-by-PE
//!   [`SystolicArray`] whose [`SystolicArray::matmul`] is the bit-exact
//!   oracle the executor is tested against ([`mod@array`]).
//!
//! # Example
//!
//! ```
//! use falvolt_systolic::{FaultMap, StuckAt, SystolicConfig, SystolicExecutor};
//! use falvolt_tensor::Tensor;
//! use rand::SeedableRng;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let config = SystolicConfig::new(8, 8)?;
//! let mut rng = rand::rngs::StdRng::seed_from_u64(1);
//! // 4 faulty PEs with stuck-at-1 faults in the accumulator MSB.
//! let fault_map = FaultMap::random_faulty_pes(
//!     &config, 4, config.accumulator_format().msb(), StuckAt::One, &mut rng)?;
//!
//! let executor = SystolicExecutor::new(config, fault_map);
//! let spikes = Tensor::ones(&[2, 8]);
//! let weights = Tensor::full(&[8, 8], 0.05);
//! let faulty = executor.matmul(&spikes, &weights)?;
//! let clean = spikes.matmul(&weights)?;
//! assert_eq!(faulty.shape(), clean.shape());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;

pub mod array;
pub mod config;
pub mod executor;
pub mod fault;
pub mod fault_map;
pub mod mapping;
pub mod pe;
pub mod product_cache;

pub use array::SystolicArray;
pub use config::SystolicConfig;
pub use error::SystolicError;
pub use executor::{FoldPlan, ScenarioMatrices, SystolicExecutor};
pub use fault::{Fault, PeCoord, StuckAt};
pub use fault_map::{FaultMap, PeMasks};
pub use mapping::WeightMapping;
pub use pe::ProcessingElement;
pub use product_cache::ProductCache;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, SystolicError>;
