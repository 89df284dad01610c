//! Pluggable matrix-multiplication backend.
//!
//! Convolutional (after im2col lowering) and fully connected layers perform
//! all of their arithmetic through a [`MatmulBackend`]. Training always uses
//! the plain floating-point [`FloatBackend`]; for fault-vulnerability
//! analysis the `falvolt` crate installs an adapter around the systolic-array
//! executor so that inference runs through the (possibly faulty) accelerator
//! model without this crate depending on it.

use falvolt_tensor::{ops, Fingerprint, MatmulHint, Tensor};
use std::fmt;
use std::sync::Arc;

/// One matrix-product request: the operands plus everything the caller knows
/// about them.
///
/// Layers build a request per product and hand it to
/// [`MatmulBackend::matmul_request`] — the trait's single required entry
/// point. Both knowledge channels are optimisation hints, never correctness
/// requirements: a backend that ignores them must still produce the same
/// bits.
///
/// * [`MatmulRequest::with_hint`] carries the operand-structure hint (binary
///   spikes, forced-dense for the engine-off baseline) so backends can pick
///   specialised kernels.
/// * [`MatmulRequest::scenario_shared`] marks a product whose operands are
///   **scenario invariant**: in a sweep, every worker will issue this exact
///   product (same operand contents) against its own fault scenario, so
///   sweep-batched backends may evaluate all scenarios in one pass on the
///   first request.
///
/// # Example
///
/// ```
/// use falvolt_snn::{FloatBackend, MatmulBackend, MatmulRequest};
/// use falvolt_tensor::{MatmulHint, Tensor};
///
/// # fn main() -> Result<(), falvolt_tensor::TensorError> {
/// let backend = FloatBackend::new();
/// let a = Tensor::ones(&[2, 3]);
/// let b = Tensor::ones(&[3, 4]);
/// let request = MatmulRequest::new(&a, &b).with_hint(MatmulHint::Spikes);
/// let out = backend.matmul_request(request)?.into_tensor();
/// assert_eq!(out.get(&[0, 0]), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MatmulRequest<'a> {
    a: &'a Tensor,
    b: &'a Tensor,
    hint: MatmulHint,
    scenario_shared: bool,
}

impl<'a> MatmulRequest<'a> {
    /// A plain `a @ b` request with no hint ([`MatmulHint::Auto`]) and no
    /// scenario-sharing claim.
    pub fn new(a: &'a Tensor, b: &'a Tensor) -> Self {
        Self {
            a,
            b,
            hint: MatmulHint::Auto,
            scenario_shared: false,
        }
    }

    /// Attaches an operand-structure hint for the left operand.
    pub fn with_hint(mut self, hint: MatmulHint) -> Self {
        self.hint = hint;
        self
    }

    /// Declares (or retracts) the scenario-invariance claim: every sweep
    /// worker will issue this exact product against its own fault scenario.
    pub fn scenario_shared(mut self, shared: bool) -> Self {
        self.scenario_shared = shared;
        self
    }

    /// The left operand.
    pub fn a(&self) -> &'a Tensor {
        self.a
    }

    /// The right operand.
    pub fn b(&self) -> &'a Tensor {
        self.b
    }

    /// The operand-structure hint.
    pub fn hint(&self) -> MatmulHint {
        self.hint
    }

    /// Whether the caller certified the operands scenario-invariant.
    pub fn is_scenario_shared(&self) -> bool {
        self.scenario_shared
    }
}

/// The result of one [`MatmulRequest`]: the product tensor.
///
/// A dedicated wrapper (rather than a bare [`Tensor`]) keeps the single-entry
/// contract extensible — backends can grow result metadata without another
/// trait method.
#[derive(Debug, Clone)]
pub struct MatmulOutput {
    output: Tensor,
}

impl MatmulOutput {
    /// Wraps a computed product.
    pub fn new(output: Tensor) -> Self {
        Self { output }
    }

    /// Borrows the product tensor.
    pub fn tensor(&self) -> &Tensor {
        &self.output
    }

    /// Unwraps the product tensor.
    pub fn into_tensor(self) -> Tensor {
        self.output
    }
}

impl From<Tensor> for MatmulOutput {
    fn from(output: Tensor) -> Self {
        Self::new(output)
    }
}

/// Abstraction over "how matrix products are executed".
///
/// Implementations must be deterministic for a fixed input (the fault model
/// is a deterministic corruption, not a stochastic one), and define exactly
/// one required method: [`MatmulBackend::matmul_request`]. The provided
/// [`MatmulBackend::matmul`] builds a plain [`MatmulRequest`] and delegates;
/// a caller with a hint or a scenario-sharing claim builds the request
/// itself.
pub trait MatmulBackend: fmt::Debug + Send + Sync {
    /// Computes `req.a() @ req.b()` for rank-2 tensors — the single required
    /// entry point. The request's hint and scenario-sharing claim are
    /// optimisation channels; ignoring them is always correct.
    ///
    /// # Errors
    ///
    /// Returns a tensor error for rank or inner-dimension mismatches.
    fn matmul_request(&self, req: MatmulRequest<'_>) -> falvolt_tensor::Result<MatmulOutput>;

    /// Convenience: computes `a @ b` with no hint.
    ///
    /// # Errors
    ///
    /// Returns a tensor error for rank or inner-dimension mismatches.
    fn matmul(&self, a: &Tensor, b: &Tensor) -> falvolt_tensor::Result<Tensor> {
        Ok(self.matmul_request(MatmulRequest::new(a, b))?.into_tensor())
    }

    /// Human-readable backend name for diagnostics.
    fn name(&self) -> &str {
        "backend"
    }

    /// Content fingerprint of everything that makes this backend's products
    /// differ from another backend's — the cross-call prefix cache keys
    /// cached outputs on it. The default hashes the backend name, which is
    /// correct for stateless backends like [`FloatBackend`]; backends with
    /// result-changing configuration (the systolic model's array geometry
    /// and fault map) must fold that state in too.
    fn fingerprint(&self) -> u64 {
        let mut fp = Fingerprint::new();
        fp.write_str(self.name());
        fp.finish() as u64
    }
}

/// The default floating-point backend (exact `f32` accumulation).
///
/// Products execute on the shared blocked-parallel kernel layer
/// ([`falvolt_tensor::kernels`], via [`ops::matmul`]), the same layer the
/// systolic executor uses for its clean folds.
///
/// # Example
///
/// ```
/// use falvolt_snn::{FloatBackend, MatmulBackend};
/// use falvolt_tensor::Tensor;
///
/// # fn main() -> Result<(), falvolt_tensor::TensorError> {
/// let backend = FloatBackend::new();
/// let a = Tensor::ones(&[2, 3]);
/// let b = Tensor::ones(&[3, 4]);
/// assert_eq!(backend.matmul(&a, &b)?.get(&[0, 0]), 3.0);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FloatBackend;

impl FloatBackend {
    /// Creates the floating-point backend.
    pub fn new() -> Self {
        Self
    }

    /// Convenience constructor returning the backend behind an [`Arc`], the
    /// form the network container stores.
    pub fn shared() -> Arc<dyn MatmulBackend> {
        Arc::new(Self)
    }
}

impl MatmulBackend for FloatBackend {
    fn matmul_request(&self, req: MatmulRequest<'_>) -> falvolt_tensor::Result<MatmulOutput> {
        ops::matmul_hinted(req.a(), req.b(), req.hint()).map(MatmulOutput::new)
    }

    fn name(&self) -> &str {
        "float"
    }
}

impl<B: MatmulBackend + ?Sized> MatmulBackend for Arc<B> {
    fn matmul_request(&self, req: MatmulRequest<'_>) -> falvolt_tensor::Result<MatmulOutput> {
        (**self).matmul_request(req)
    }

    fn name(&self) -> &str {
        (**self).name()
    }

    fn fingerprint(&self) -> u64 {
        (**self).fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn float_backend_matches_ops_matmul() {
        let backend = FloatBackend::new();
        let a = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let b = Tensor::from_vec(vec![2, 2], vec![5.0, 6.0, 7.0, 8.0]).unwrap();
        let via_backend = backend.matmul(&a, &b).unwrap();
        let via_ops = ops::matmul(&a, &b).unwrap();
        assert_eq!(via_backend, via_ops);
        assert_eq!(backend.name(), "float");
    }

    #[test]
    fn arc_backend_delegates() {
        let backend: Arc<dyn MatmulBackend> = FloatBackend::shared();
        let a = Tensor::ones(&[1, 2]);
        let b = Tensor::ones(&[2, 1]);
        assert_eq!(backend.matmul(&a, &b).unwrap().get(&[0, 0]), 2.0);
        assert_eq!(backend.name(), "float");
    }

    #[test]
    fn errors_propagate() {
        let backend = FloatBackend::new();
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4, 1]);
        assert!(backend.matmul(&a, &b).is_err());
    }

    #[test]
    fn convenience_methods_route_through_the_single_entry() {
        /// A backend that only implements the required entry point and
        /// records what each request claimed.
        #[derive(Debug, Default)]
        struct Probe {
            seen: std::sync::Mutex<Vec<(MatmulHint, bool)>>,
        }
        impl MatmulBackend for Probe {
            fn matmul_request(
                &self,
                req: MatmulRequest<'_>,
            ) -> falvolt_tensor::Result<MatmulOutput> {
                self.seen
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push((req.hint(), req.is_scenario_shared()));
                ops::matmul(req.a(), req.b()).map(MatmulOutput::new)
            }
        }
        let probe = Probe::default();
        let a = Tensor::ones(&[1, 2]);
        let b = Tensor::ones(&[2, 1]);
        assert_eq!(probe.matmul(&a, &b).unwrap().get(&[0, 0]), 2.0);
        probe
            .matmul_request(MatmulRequest::new(&a, &b).with_hint(MatmulHint::Spikes))
            .unwrap();
        probe
            .matmul_request(
                MatmulRequest::new(&a, &b)
                    .with_hint(MatmulHint::Dense)
                    .scenario_shared(true),
            )
            .unwrap();
        let seen = probe
            .seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        assert_eq!(
            seen,
            vec![
                (MatmulHint::Auto, false),
                (MatmulHint::Spikes, false),
                (MatmulHint::Dense, true),
            ]
        );
        assert_eq!(probe.name(), "backend");
    }

    #[test]
    fn request_builder_accessors_round_trip() {
        let a = Tensor::ones(&[2, 2]);
        let b = Tensor::ones(&[2, 2]);
        let req = MatmulRequest::new(&a, &b);
        assert_eq!(req.hint(), MatmulHint::Auto);
        assert!(!req.is_scenario_shared());
        let req = req.with_hint(MatmulHint::Spikes).scenario_shared(true);
        assert_eq!(req.hint(), MatmulHint::Spikes);
        assert!(req.is_scenario_shared());
        assert_eq!(req.a().shape(), &[2, 2]);
        assert_eq!(req.b().shape(), &[2, 2]);
        let out = MatmulOutput::from(Tensor::ones(&[1, 1]));
        assert_eq!(out.tensor().get(&[0, 0]), 1.0);
        assert_eq!(out.into_tensor().get(&[0, 0]), 1.0);
    }
}
