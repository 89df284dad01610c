//! # falvolt-tensor
//!
//! Dense `f32` tensor and linear-algebra substrate for the FalVolt
//! systolic-array SNN reproduction.
//!
//! The crate deliberately implements only what the rest of the workspace
//! needs, from scratch and without external array libraries:
//!
//! * an owned, row-major, dynamically shaped [`Tensor`],
//! * element-wise arithmetic and mapping helpers,
//! * 2-D matrix multiplication and transposition ([`ops`]),
//! * the `im2col` lowering, its adjoint and convolution / pooling kernels
//!   used by the SNN layers ([`ops`]),
//! * reductions and classification helpers ([`reduce`]),
//! * random initializers ([`init`]),
//! * the promote-on-second-request store behind every sweep-sharing cache
//!   ([`SharedStore`]).
//!
//! # Example
//!
//! ```
//! use falvolt_tensor::Tensor;
//!
//! # fn main() -> Result<(), falvolt_tensor::TensorError> {
//! let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
//! let b = Tensor::ones(&[3, 2]);
//! let c = a.matmul(&b)?;
//! assert_eq!(c.shape(), &[2, 2]);
//! assert_eq!(c.get(&[0, 0]), 6.0);
//! # Ok(())
//! # }
//! ```

// `deny` instead of `forbid`: the `simd` module scopes an allow around the
// one unsafe pattern in the workspace — calling `#[target_feature]`
// trampolines after runtime CPU detection. Everything else stays safe.
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod shape;
mod tensor;

#[cfg(feature = "audit")]
pub mod audit;
pub mod cancel;
pub mod fingerprint;
pub mod init;
pub mod kernels;
pub mod ops;
pub mod reduce;
pub mod shared_store;
pub mod simd;
pub mod spikes;

pub use cancel::CancelToken;
pub use error::TensorError;
pub use fingerprint::Fingerprint;
pub use kernels::{MatmulHint, OperandProfile};
pub use shape::Shape;
pub use shared_store::{SharedStore, StoreDecision};
pub use spikes::{SharedSpikeIndex, SpikeIndex};
pub use tensor::Tensor;

/// The thread-budget-sharing `join` of the workspace's `rayon`, re-exported
/// so crates above this one fork work under the same budget without a
/// `rayon` dependency of their own.
pub use rayon::join;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
