//! Neural-network layers with backpropagation-through-time support.
//!
//! Every layer processes **one time step per `forward` call**. The
//! [`crate::SpikingNetwork`] container calls `forward` once per time step and
//! then `backward` the same number of times in reverse order; layers push an
//! internal cache per forward call and pop it per backward call. Stateful
//! layers (the spiking neurons) additionally carry membrane-potential state
//! across forward calls and its gradient across backward calls.

use crate::backend::MatmulBackend;
use crate::param::Param;
use crate::sweep_cache::SweepCache;
use crate::Result;
use falvolt_tensor::{Fingerprint, Tensor};
use std::fmt;

pub mod batchnorm;
pub mod conv;
pub mod dropout;
pub mod flatten;
pub mod linear;
pub mod pool;
pub mod spiking;

pub use batchnorm::BatchNorm2d;
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use flatten::Flatten;
pub use linear::Linear;
pub use pool::{AvgPool2d, MaxPool2d};
pub use spiking::SpikingLayer;

/// Whether a forward pass is part of training (caches kept, dropout active,
/// batch-norm uses batch statistics) or evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Mode {
    /// Training: gradients will be requested, stochastic layers are active.
    Train,
    /// Evaluation/inference: no caches, deterministic behaviour.
    #[default]
    Eval,
}

impl Mode {
    /// Returns `true` in training mode.
    pub fn is_train(self) -> bool {
        matches!(self, Mode::Train)
    }
}

/// Per-time-step context handed to every layer's forward pass.
pub struct ForwardContext<'a> {
    /// Training or evaluation mode.
    pub mode: Mode,
    /// Backend executing matrix products (float or systolic-array model).
    pub backend: &'a dyn MatmulBackend,
    /// The spike-event kernel switch. On, layers may probe their
    /// activations and pass operand-structure hints to the backend, and
    /// spiking layers attach a CSR [`falvolt_tensor::SpikeIndex`] to their
    /// outputs (downstream layers propagate it), so the im2col lowering
    /// carries its own index, products walk the index instead of probing,
    /// and in training a convolution keeps only that index for its weight
    /// gradient. Off pins every product to the dense blocked kernel — the
    /// engine-off baseline.
    pub spike_hints: bool,
    /// Sweep-driver-owned cross-call cache, when the network is evaluating
    /// inside a scenario sweep. Layers may use it to share backend-independent
    /// intermediates (im2col lowerings, transposed weights) across scenario
    /// workers; `None` outside sweeps and always `None` in training mode.
    pub cache: Option<&'a SweepCache>,
    /// `true` when this context's input is scenario-invariant by
    /// construction (the stateless prefix of a sweep forward sees the raw
    /// batch, which every worker shares). Layers may then promote their
    /// input-derived cache keys on first sighting instead of waiting for a
    /// second worker to prove sharing.
    pub shareable_input: bool,
}

impl<'a> ForwardContext<'a> {
    /// Creates a context with the spike-event kernels enabled and no sweep
    /// cache.
    pub fn new(mode: Mode, backend: &'a dyn MatmulBackend) -> Self {
        Self {
            mode,
            backend,
            spike_hints: true,
            cache: None,
            shareable_input: false,
        }
    }

    /// Builder-style override of the spike-hint switch.
    pub fn with_spike_hints(mut self, enabled: bool) -> Self {
        self.spike_hints = enabled;
        self
    }

    /// Builder-style attachment of a sweep cache (ignored in training mode —
    /// training forwards mutate per-layer state and are never shared).
    pub fn with_cache(mut self, cache: Option<&'a SweepCache>) -> Self {
        self.cache = if self.mode.is_train() { None } else { cache };
        self
    }

    /// Builder-style override of the shareable-input flag.
    pub fn with_shareable_input(mut self, shareable: bool) -> Self {
        self.shareable_input = shareable;
        self
    }
}

/// Returns the transposed weight matrix, reusing the layer-local derivation
/// while the weight's edit version is unchanged and sharing the computed
/// transpose across scenario workers through the sweep cache (keyed on the
/// weight's content id — scenario views share the weight buffer, so every
/// worker resolves the same key instead of transposing its own copy).
pub(crate) fn shared_weight_transpose(
    weight: &Param,
    local: &mut Option<(u64, std::sync::Arc<Tensor>)>,
    cache: Option<&SweepCache>,
) -> Result<std::sync::Arc<Tensor>> {
    use falvolt_tensor::StoreDecision;
    use std::sync::Arc;
    if local.as_ref().map(|(v, _)| *v) != Some(weight.version()) {
        let computed: Arc<Tensor> = match cache {
            Some(cache) => {
                let mut fp = Fingerprint::new();
                fp.write_str("weight_t");
                fp.write_u64(weight.value().content_id());
                let key = fp.finish();
                // Weight transposes are always shared by construction in an
                // evaluation sweep (scenario views share the frozen weight
                // buffer), so promote on first sighting.
                match cache.lookup_lowered_eager(key) {
                    StoreDecision::Hit(hit) => hit,
                    decision => {
                        let promoted = matches!(decision, StoreDecision::Compute);
                        match falvolt_tensor::ops::transpose2d(weight.value()) {
                            Ok(t) => {
                                let t = Arc::new(t);
                                if promoted {
                                    cache.fulfill_lowered(key, Arc::clone(&t));
                                }
                                t
                            }
                            Err(e) => {
                                if promoted {
                                    cache.abandon_lowered(key);
                                }
                                return Err(e.into());
                            }
                        }
                    }
                }
            }
            None => Arc::new(falvolt_tensor::ops::transpose2d(weight.value())?),
        };
        *local = Some((weight.version(), computed));
    }
    Ok(std::sync::Arc::clone(
        &local.as_ref().expect("stored above").1,
    ))
}

impl fmt::Debug for ForwardContext<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForwardContext")
            .field("mode", &self.mode)
            .field("backend", &self.backend.name())
            .finish()
    }
}

/// A neural-network layer processing one time step per call.
///
/// The contract between [`Layer::forward`] and [`Layer::backward`] is
/// stack-like: with `T` forward calls in training mode, the container must
/// issue exactly `T` backward calls which consume the cached time steps in
/// reverse order.
/// `Send + Sync` lets whole networks be cloned into worker threads, which is
/// how the experiment layer parallelises its scenario axis (one cloned
/// network per fault map / mitigation cell).
pub trait Layer: fmt::Debug + Send + Sync {
    /// A short human-readable layer name (used in diagnostics and reports).
    fn name(&self) -> &str;

    /// Clones the layer behind a fresh box (layers are held as trait
    /// objects, so `Clone` cannot be a supertrait directly).
    fn clone_box(&self) -> Box<dyn Layer>;

    /// Processes one time step.
    ///
    /// # Errors
    ///
    /// Returns an error when the input shape is incompatible with the layer.
    fn forward(&mut self, input: &Tensor, ctx: &ForwardContext<'_>) -> Result<Tensor>;

    /// Backpropagates through the most recent un-consumed forward call and
    /// returns the gradient with respect to that call's input.
    ///
    /// # Errors
    ///
    /// Returns [`crate::SnnError::MissingForwardState`] when no cached
    /// forward state is available.
    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor>;

    /// Backpropagates like [`Layer::backward`] but only accumulates the
    /// parameter gradients: the gradient with respect to the input is not
    /// computed. The network calls this on its first layer, whose input
    /// gradient nobody reads. Overrides must leave every parameter gradient
    /// bit-equal to what [`Layer::backward`] accumulates.
    ///
    /// # Errors
    ///
    /// Returns the same errors as [`Layer::backward`].
    fn accumulate_param_grads(&mut self, grad_output: &Tensor) -> Result<()> {
        self.backward(grad_output).map(drop)
    }

    /// Clears all cached forward state and any temporal state (membrane
    /// potentials). Called by the network before every sample/batch.
    fn reset_state(&mut self);

    /// Whether a forward call in `mode` depends on (or mutates) state carried
    /// across time steps — membrane potentials, RNG draws, BPTT cache pushes,
    /// running statistics. The network's temporal prefix cache computes the
    /// maximal stateless prefix once per static input and reuses it for all
    /// `T` steps, so a layer that returns `false` here must be a pure
    /// function of its input in that mode.
    fn is_stateful(&self, mode: Mode) -> bool {
        // Conservative default: training-mode forwards push BPTT caches, so
        // only evaluation is presumed stateless.
        mode.is_train()
    }

    /// The layer's trainable parameters.
    fn params_mut(&mut self) -> Vec<&mut Param> {
        Vec::new()
    }

    /// The layer's parameters, read-only. Must yield the same parameters (in
    /// the same order) as [`Layer::params_mut`]; used for content
    /// fingerprinting by the cross-call prefix cache.
    fn params(&self) -> Vec<&Param> {
        Vec::new()
    }

    /// Absorbs everything that determines this layer's *evaluation-mode*
    /// output for a given input into `fp` — the layer name, every parameter
    /// by content, and (via overrides) any non-`Param` hyperparameter that
    /// changes the output: convolution geometry, pooling windows, batch-norm
    /// epsilon. The cross-call prefix cache keys stateless prefixes on this,
    /// so an override that forgets result-changing configuration would let
    /// two differently configured layers share a prefix output. Layers whose
    /// eval output is a pure function of input and `params()` alone
    /// (`Linear` — its geometry is the weight shape — `Flatten`, `Dropout`
    /// in eval) use this default.
    fn cache_fingerprint(&self, fp: &mut Fingerprint) {
        fp.write_str(self.name());
        let params = self.params();
        fp.write_usize(params.len());
        for param in params {
            fp.write_str(param.name());
            fp.write_dims(param.value().shape());
            fp.write_f32s(param.value().data());
        }
    }

    /// The layer's prunable weight matrix (`[out, in]` layout), if it has
    /// one. Fault-aware pruning multiplies this by the PE-derived mask.
    fn weight_mut(&mut self) -> Option<&mut Param> {
        None
    }

    /// The layer's threshold-voltage parameter, if it is a spiking layer.
    fn threshold_mut(&mut self) -> Option<&mut Param> {
        None
    }

    /// Current threshold voltage of a spiking layer.
    fn threshold(&self) -> Option<f32> {
        None
    }

    /// Enables or disables threshold-voltage learning (no-op for non-spiking
    /// layers).
    fn set_threshold_trainable(&mut self, _trainable: bool) {}
}

impl Clone for Box<dyn Layer> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FloatBackend;

    #[test]
    fn mode_helpers() {
        assert!(Mode::Train.is_train());
        assert!(!Mode::Eval.is_train());
        assert_eq!(Mode::default(), Mode::Eval);
    }

    #[test]
    fn context_debug_mentions_backend() {
        let backend = FloatBackend::new();
        let ctx = ForwardContext::new(Mode::Train, &backend);
        let debug = format!("{ctx:?}");
        assert!(debug.contains("float"));
        assert!(debug.contains("Train"));
    }
}
