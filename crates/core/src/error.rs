//! Error type of the FalVolt core crate.

use falvolt_snn::SnnError;
use falvolt_systolic::SystolicError;
use falvolt_tensor::TensorError;
use std::fmt;

/// Error returned by FalVolt experiments, mitigation and analysis routines.
#[derive(Debug, Clone, PartialEq)]
pub enum FalvoltError {
    /// An underlying SNN error (construction, forward, backward).
    Snn(SnnError),
    /// An underlying systolic-array error (fault maps, executor).
    Systolic(SystolicError),
    /// An underlying tensor error.
    Tensor(TensorError),
    /// An experiment or mitigation was configured inconsistently.
    InvalidConfig {
        /// Human-readable description of the problem.
        reason: String,
    },
    /// A campaign-level failure: plan rejection, checkpoint problems,
    /// worker panics that escaped every retry (see [`CampaignError`]).
    Campaign(CampaignError),
}

/// Typed failure domain of the campaign scheduler.
///
/// The scheduler's contract is that a failing *cell* is data — a
/// [`crate::campaign::CellStatus::Failed`] cell of the run — never a
/// process abort. `CampaignError` covers the failures that sink the *run*
/// itself: a plan that cannot be executed, a checkpoint that does not belong
/// to this plan, or a malformed checkpoint payload.
#[derive(Debug, Clone, PartialEq)]
pub enum CampaignError {
    /// The plan is not executable (zero scenarios per cell, or a scenario
    /// index outside its [`crate::ScenarioProducts`] set).
    InvalidPlan {
        /// Human-readable description of the rejected plan element.
        reason: String,
    },
    /// A checkpoint's plan fingerprint does not match the campaign it was
    /// offered to: resuming would silently mix results of different plans.
    CheckpointMismatch {
        /// Fingerprint of the plan being resumed.
        expected: u64,
        /// Fingerprint recorded in the checkpoint.
        actual: u64,
    },
    /// A checkpoint payload could not be decoded.
    CheckpointMalformed {
        /// What the decoder stumbled on.
        reason: String,
    },
    /// A scenario worker panicked on a path with no per-cell isolation
    /// ([`crate::vulnerability::scenario_accuracies`], which promises a flat
    /// `Vec<f32>` and cannot record a per-cell failure).
    WorkerPanic {
        /// The panic payload, when it was a string.
        message: String,
    },
}

impl CampaignError {
    /// Convenience constructor for plan rejections.
    pub fn invalid_plan(reason: impl Into<String>) -> Self {
        CampaignError::InvalidPlan {
            reason: reason.into(),
        }
    }

    /// Convenience constructor for malformed checkpoints.
    pub fn malformed(reason: impl Into<String>) -> Self {
        CampaignError::CheckpointMalformed {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for CampaignError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CampaignError::InvalidPlan { reason } => write!(f, "invalid plan: {reason}"),
            CampaignError::CheckpointMismatch { expected, actual } => write!(
                f,
                "checkpoint belongs to a different plan \
                 (expected fingerprint {expected:#018x}, found {actual:#018x})"
            ),
            CampaignError::CheckpointMalformed { reason } => {
                write!(f, "malformed checkpoint: {reason}")
            }
            CampaignError::WorkerPanic { message } => {
                write!(f, "scenario worker panicked: {message}")
            }
        }
    }
}

impl std::error::Error for CampaignError {}

impl From<CampaignError> for FalvoltError {
    fn from(e: CampaignError) -> Self {
        FalvoltError::Campaign(e)
    }
}

/// Why one campaign cell failed — the `cause` carried by
/// [`crate::campaign::CellStatus::Failed`].
///
/// Both variants carry the failure as a string: a failed cell is result
/// *data* (serialized into checkpoints and tables), so the cause must be
/// cloneable, comparable and encodable rather than a live error value.
#[derive(Debug, Clone, PartialEq)]
pub enum CellFailure {
    /// A worker panicked; the panic was caught at the cell boundary and the
    /// shared caches were quarantined.
    Panic {
        /// The panic payload, when it was a string.
        message: String,
    },
    /// A worker returned a typed error (forward pass, fault-map draw,
    /// mitigation).
    Error {
        /// Display form of the underlying error.
        message: String,
    },
}

impl CellFailure {
    /// The failure message, whichever variant carries it.
    pub fn message(&self) -> &str {
        match self {
            CellFailure::Panic { message } | CellFailure::Error { message } => message,
        }
    }

    /// `true` for a caught panic (as opposed to a typed error).
    pub fn is_panic(&self) -> bool {
        matches!(self, CellFailure::Panic { .. })
    }
}

impl fmt::Display for CellFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CellFailure::Panic { message } => write!(f, "panic: {message}"),
            CellFailure::Error { message } => write!(f, "error: {message}"),
        }
    }
}

impl FalvoltError {
    /// Convenience constructor for configuration errors.
    pub fn invalid_config(reason: impl Into<String>) -> Self {
        FalvoltError::InvalidConfig {
            reason: reason.into(),
        }
    }
}

impl fmt::Display for FalvoltError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FalvoltError::Snn(e) => write!(f, "snn error: {e}"),
            FalvoltError::Systolic(e) => write!(f, "systolic error: {e}"),
            FalvoltError::Tensor(e) => write!(f, "tensor error: {e}"),
            FalvoltError::InvalidConfig { reason } => write!(f, "invalid configuration: {reason}"),
            FalvoltError::Campaign(e) => write!(f, "campaign error: {e}"),
        }
    }
}

impl std::error::Error for FalvoltError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FalvoltError::Snn(e) => Some(e),
            FalvoltError::Systolic(e) => Some(e),
            FalvoltError::Tensor(e) => Some(e),
            FalvoltError::InvalidConfig { .. } => None,
            FalvoltError::Campaign(e) => Some(e),
        }
    }
}

impl From<SnnError> for FalvoltError {
    fn from(e: SnnError) -> Self {
        FalvoltError::Snn(e)
    }
}

impl From<SystolicError> for FalvoltError {
    fn from(e: SystolicError) -> Self {
        FalvoltError::Systolic(e)
    }
}

impl From<TensorError> for FalvoltError {
    fn from(e: TensorError) -> Self {
        FalvoltError::Tensor(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: FalvoltError = SnnError::invalid_config("x").into();
        assert!(matches!(e, FalvoltError::Snn(_)));
        assert!(std::error::Error::source(&e).is_some());

        let e: FalvoltError = SystolicError::InvalidGrid { rows: 0, cols: 1 }.into();
        assert!(e.to_string().contains("systolic"));

        let e: FalvoltError = TensorError::RankMismatch {
            expected: 2,
            actual: 1,
        }
        .into();
        assert!(e.to_string().contains("tensor"));

        let e = FalvoltError::invalid_config("bad scale");
        assert!(e.to_string().contains("bad scale"));
        assert!(std::error::Error::source(&e).is_none());

        let e: FalvoltError = CampaignError::invalid_plan("no axes").into();
        assert!(e.to_string().contains("invalid plan: no axes"));
        assert!(std::error::Error::source(&e).is_some());
        let e: FalvoltError = CampaignError::CheckpointMismatch {
            expected: 1,
            actual: 2,
        }
        .into();
        assert!(e.to_string().contains("different plan"));
    }

    #[test]
    fn cell_failures_carry_their_message() {
        let p = CellFailure::Panic {
            message: "boom".into(),
        };
        assert!(p.is_panic());
        assert_eq!(p.message(), "boom");
        assert_eq!(p.to_string(), "panic: boom");
        let e = CellFailure::Error {
            message: "shape".into(),
        };
        assert!(!e.is_panic());
        assert_eq!(e.to_string(), "error: shape");
    }
}
