//! Trainable parameters.

use crate::Result;
use falvolt_tensor::Tensor;
use std::sync::Arc;

/// A trainable parameter: a value tensor, its accumulated gradient and the
/// optimizer state attached to it.
///
/// Layers expose their parameters through [`crate::Layer::params_mut`]; the
/// optimizers in [`crate::optim`] update them in place. The `trainable` flag
/// lets FalVolt freeze or un-freeze individual parameters (e.g. the threshold
/// voltage is frozen during initial training and unfrozen during fault-aware
/// retraining).
///
/// # Copy-on-write sharing
///
/// Every tensor is held behind an [`Arc`] with copy-on-write semantics:
/// cloning a `Param` (and therefore cloning a whole network into scenario
/// workers) shares the underlying buffers, and the first *mutable* access —
/// an optimizer step, a gradient accumulation, a pruning mask — transparently
/// detaches a private copy ([`Arc::make_mut`]). Evaluation-only scenario
/// sweeps thus keep the memory footprint of the weight axis at O(weights)
/// regardless of worker count, while retraining cells that genuinely diverge
/// pay for their own copies exactly when they start diverging.
///
/// # Example
///
/// ```
/// use falvolt_snn::Param;
/// use falvolt_tensor::Tensor;
///
/// let mut p = Param::new("weight", Tensor::ones(&[2, 2]));
/// assert!(p.is_trainable());
/// p.grad_mut().fill(0.5);
/// p.zero_grad();
/// assert!(p.grad().data().iter().all(|&g| g == 0.0));
/// ```
#[derive(Debug, Clone)]
pub struct Param {
    name: String,
    value: Arc<Tensor>,
    grad: Arc<Tensor>,
    trainable: bool,
    // Adam state (lazily meaningful: zeros until the first Adam step).
    adam_m: Arc<Tensor>,
    adam_v: Arc<Tensor>,
    adam_step: u64,
    // SGD momentum buffer.
    momentum: Arc<Tensor>,
    // Bumped on every mutable access to `value`. Layers key derived tensors
    // (e.g. the transposed weight matrix) on it, so evaluation reuses them
    // across calls while any mutation — optimizer step, pruning, import —
    // invalidates exactly the derivations it staled.
    version: u64,
}

impl PartialEq for Param {
    fn eq(&self, other: &Self) -> bool {
        // The version counter is an edit counter, not state: two params that
        // hold the same tensors are equal however they got there.
        self.name == other.name
            && self.value == other.value
            && self.grad == other.grad
            && self.trainable == other.trainable
            && self.adam_m == other.adam_m
            && self.adam_v == other.adam_v
            && self.adam_step == other.adam_step
            && self.momentum == other.momentum
    }
}

impl Param {
    /// Creates a trainable parameter with zeroed gradient and optimizer state.
    pub fn new(name: impl Into<String>, value: Tensor) -> Self {
        let shape = value.shape().to_vec();
        Self {
            name: name.into(),
            grad: Arc::new(Tensor::zeros(&shape)),
            adam_m: Arc::new(Tensor::zeros(&shape)),
            adam_v: Arc::new(Tensor::zeros(&shape)),
            momentum: Arc::new(Tensor::zeros(&shape)),
            adam_step: 0,
            trainable: true,
            value: Arc::new(value),
            version: 0,
        }
    }

    /// Creates a parameter that optimizers will skip.
    pub fn frozen(name: impl Into<String>, value: Tensor) -> Self {
        let mut p = Self::new(name, value);
        p.trainable = false;
        p
    }

    /// The parameter name (used in diagnostics).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The parameter value.
    pub fn value(&self) -> &Tensor {
        &self.value
    }

    /// The parameter value, mutably (detaches a private copy when the buffer
    /// is shared with scenario-worker clones).
    pub fn value_mut(&mut self) -> &mut Tensor {
        self.version += 1;
        Arc::make_mut(&mut self.value)
    }

    /// Replaces the parameter value without touching the old buffer (clones
    /// sharing it keep it; no copy-on-write round trip).
    pub fn assign_value(&mut self, value: Tensor) {
        self.version += 1;
        self.value = Arc::new(value);
    }

    /// Edit counter of the value tensor: any mutable access bumps it, so a
    /// derivation computed at version `v` is valid exactly while
    /// `version() == v`. Clones inherit the counter and diverge with their
    /// own edits, which is safe because derivations are cached next to the
    /// parameter they derive from.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// The accumulated gradient.
    pub fn grad(&self) -> &Tensor {
        &self.grad
    }

    /// The accumulated gradient, mutably (copy-on-write, see
    /// [`Param::value_mut`]).
    pub fn grad_mut(&mut self) -> &mut Tensor {
        Arc::make_mut(&mut self.grad)
    }

    /// Accumulates `grad` into the parameter's gradient.
    ///
    /// # Errors
    ///
    /// Returns a tensor error when the gradient shape differs from the value.
    pub fn accumulate_grad(&mut self, grad: &Tensor) -> Result<()> {
        Arc::make_mut(&mut self.grad).add_assign(grad)?;
        Ok(())
    }

    /// Clears the accumulated gradient.
    pub fn zero_grad(&mut self) {
        // An already-zero gradient stays shared: scenario views that never
        // train keep borrowing the (zero) buffer of the network they were
        // carved from instead of materialising a private copy.
        if self.grad.data().iter().all(|&g| g == 0.0) {
            return;
        }
        Arc::make_mut(&mut self.grad).fill(0.0);
    }

    /// Whether optimizers should update this parameter.
    pub fn is_trainable(&self) -> bool {
        self.trainable
    }

    /// Freezes or unfreezes the parameter.
    pub fn set_trainable(&mut self, trainable: bool) {
        self.trainable = trainable;
    }

    /// Number of scalar elements.
    pub fn len(&self) -> usize {
        self.value.len()
    }

    /// Returns `true` when the parameter holds no elements.
    pub fn is_empty(&self) -> bool {
        self.value.is_empty()
    }

    /// Resets all optimizer state (Adam moments, momentum buffer).
    pub fn reset_optimizer_state(&mut self) {
        self.adam_step = 0;
        for buffer in [&mut self.adam_m, &mut self.adam_v, &mut self.momentum] {
            // Same sharing-preserving fast path as `zero_grad`.
            if buffer.data().iter().all(|&x| x == 0.0) {
                continue;
            }
            Arc::make_mut(buffer).fill(0.0);
        }
    }

    /// Detaches private copies of every tensor, severing copy-on-write
    /// sharing with any clones. Used by benchmarks and equivalence tests that
    /// need the pre-CoW "deep clone" cost model; production code never needs
    /// this — mutation detaches on demand.
    pub fn unshare(&mut self) {
        for buffer in [
            &mut self.value,
            &mut self.grad,
            &mut self.adam_m,
            &mut self.adam_v,
            &mut self.momentum,
        ] {
            let _ = Arc::make_mut(buffer);
        }
    }

    /// `true` when this parameter's value buffer is shared with at least one
    /// other `Param` clone (diagnostics for the scenario-sharing tests).
    pub fn value_is_shared(&self) -> bool {
        Arc::strong_count(&self.value) > 1
    }

    pub(crate) fn adam_state_mut(&mut self) -> (&mut Tensor, &mut Tensor, &mut u64) {
        (
            Arc::make_mut(&mut self.adam_m),
            Arc::make_mut(&mut self.adam_v),
            &mut self.adam_step,
        )
    }

    pub(crate) fn momentum_mut(&mut self) -> &mut Tensor {
        Arc::make_mut(&mut self.momentum)
    }

    pub(crate) fn value_and_grad_mut(&mut self) -> (&mut Tensor, &Tensor) {
        self.version += 1;
        (Arc::make_mut(&mut self.value), &self.grad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_param_has_zero_grad_and_state() {
        let p = Param::new("w", Tensor::ones(&[3]));
        assert_eq!(p.name(), "w");
        assert_eq!(p.len(), 3);
        assert!(!p.is_empty());
        assert!(p.grad().data().iter().all(|&g| g == 0.0));
        assert!(p.is_trainable());
    }

    #[test]
    fn frozen_param_is_not_trainable() {
        let mut p = Param::frozen("vth", Tensor::scalar(1.0));
        assert!(!p.is_trainable());
        p.set_trainable(true);
        assert!(p.is_trainable());
    }

    #[test]
    fn accumulate_and_zero_grad() {
        let mut p = Param::new("w", Tensor::zeros(&[2]));
        let g = Tensor::from_vec(vec![2], vec![1.0, 2.0]).unwrap();
        p.accumulate_grad(&g).unwrap();
        p.accumulate_grad(&g).unwrap();
        assert_eq!(p.grad().data(), &[2.0, 4.0]);
        p.zero_grad();
        assert_eq!(p.grad().data(), &[0.0, 0.0]);
        assert!(p.accumulate_grad(&Tensor::zeros(&[3])).is_err());
    }

    #[test]
    fn reset_optimizer_state_clears_moments() {
        let mut p = Param::new("w", Tensor::zeros(&[2]));
        {
            let (m, v, step) = p.adam_state_mut();
            m.fill(1.0);
            v.fill(1.0);
            *step = 10;
        }
        p.momentum_mut().fill(2.0);
        p.reset_optimizer_state();
        let (m, v, step) = p.adam_state_mut();
        assert!(m.data().iter().all(|&x| x == 0.0));
        assert!(v.data().iter().all(|&x| x == 0.0));
        assert_eq!(*step, 0);
    }

    #[test]
    fn clones_share_until_mutated() {
        let mut original = Param::new("w", Tensor::ones(&[4]));
        let clone = original.clone();
        assert!(original.value_is_shared());
        assert!(clone.value_is_shared());

        // Reads keep sharing; zeroing an already-zero gradient too.
        assert_eq!(original.value().data(), clone.value().data());
        original.zero_grad();
        assert!(original.value_is_shared());

        // First mutation detaches a private copy and leaves the clone intact.
        original.value_mut().fill(7.0);
        assert!(!original.value_is_shared());
        assert_eq!(clone.value().data(), &[1.0; 4]);
        assert_eq!(original.value().data(), &[7.0; 4]);
    }

    #[test]
    fn assign_value_and_unshare_detach() {
        let mut a = Param::new("w", Tensor::ones(&[2]));
        let b = a.clone();
        a.assign_value(Tensor::zeros(&[2]));
        assert_eq!(b.value().data(), &[1.0, 1.0]);
        assert_eq!(a.value().data(), &[0.0, 0.0]);

        let mut c = b.clone();
        assert!(c.value_is_shared());
        c.unshare();
        assert!(!c.value_is_shared());
        assert_eq!(c.value().data(), b.value().data());
    }
}
