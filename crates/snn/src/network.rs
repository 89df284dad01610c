//! The multi-time-step spiking network container.

use crate::backend::{FloatBackend, MatmulBackend};
use crate::layers::{ForwardContext, Layer, Mode};
use crate::param::Param;
use crate::sweep_cache::SweepCache;
use crate::wavefront;
use crate::{Result, SnnError};
use falvolt_tensor::{reduce, Fingerprint, StoreDecision, Tensor};
use std::borrow::Cow;
use std::sync::Arc;

/// The network-level execution-engine switches, threaded uniformly through
/// the network container, its scenario views and the campaign scheduler.
///
/// Both switches are execution strategies, never result state: with a
/// faulty systolic backend every preset produces bit-identical outputs, and
/// on the float backend they agree to within the kernels' re-association.
///
/// # Example
///
/// ```
/// use falvolt_snn::EnginePreset;
///
/// // A hybrid for an ablation: full engine minus the prefix cache.
/// let ablation = EnginePreset::full().with_prefix_cache(false);
/// assert!(!ablation.prefix_cache() && ablation.spike_kernels());
/// assert!(!EnginePreset::seed_equivalent().spike_kernels());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EnginePreset {
    prefix_cache: bool,
    spike_kernels: bool,
}

impl Default for EnginePreset {
    fn default() -> Self {
        Self::full()
    }
}

impl EnginePreset {
    /// Everything off: dense kernels and no prefix cache — the seed's
    /// behaviour, kept for baselines and equivalence tests.
    pub fn seed_equivalent() -> Self {
        Self {
            prefix_cache: false,
            spike_kernels: false,
        }
    }

    /// Everything on (the default): the temporal prefix cache and the
    /// spike-event kernels.
    pub fn full() -> Self {
        Self {
            prefix_cache: true,
            spike_kernels: true,
        }
    }

    /// Overrides the temporal prefix cache: for static inputs in evaluation
    /// mode, the stateless layer prefix ahead of the first spiking layer is
    /// computed once and reused for all `T` time steps.
    pub fn with_prefix_cache(mut self, enabled: bool) -> Self {
        self.prefix_cache = enabled;
        self
    }

    /// Whether the temporal prefix cache is enabled.
    pub fn prefix_cache(&self) -> bool {
        self.prefix_cache
    }

    /// Whether the spike-event kernels are enabled: layers probe their
    /// activations and pass operand-structure hints to the backend, and
    /// evaluation-mode spiking layers attach a CSR
    /// [`falvolt_tensor::SpikeIndex`] to their outputs so products walk the
    /// event stream instead of probing. Off pins every product to the dense
    /// kernel.
    pub fn spike_kernels(&self) -> bool {
        self.spike_kernels
    }
}

/// A feed-forward spiking neural network executed over `T` discrete time
/// steps.
///
/// * Static inputs (`[N, C, H, W]` or `[N, features]`) are presented
///   identically at every time step — the "direct encoding" the paper's
///   architectures use, where the first convolution acts as the spike
///   encoder.
/// * Neuromorphic inputs (`[N, T, C, H, W]`) provide one frame per time step.
///
/// The network output is the **firing rate** of the last (spiking) layer:
/// the per-class spike count divided by `T`. Classification takes the argmax
/// of the rates; the loss is computed on the rates as well.
///
/// # Example
///
/// ```
/// use falvolt_snn::layers::{Flatten, Linear, SpikingLayer};
/// use falvolt_snn::neuron::NeuronConfig;
/// use falvolt_snn::{Mode, SpikingNetwork, Tensor};
///
/// # fn main() -> Result<(), falvolt_snn::SnnError> {
/// let mut network = SpikingNetwork::new(4);
/// network.push(Flatten::new("flatten"));
/// network.push(Linear::new("fc", 16, 3, 1)?);
/// network.push(SpikingLayer::new("sn", NeuronConfig::paper_default()));
/// let rates = network.forward(&Tensor::ones(&[2, 1, 4, 4]), Mode::Eval)?;
/// assert_eq!(rates.shape(), &[2, 3]);
/// # Ok(())
/// # }
/// ```
/// Cloning copies the layer structure but *shares* every parameter tensor
/// copy-on-write (see [`Param`]): experiment code carves scenario views off a
/// trained network ([`SpikingNetwork::scenario_view`]) into worker threads,
/// and the weight axis stays O(weights) in memory no matter how many workers
/// evaluate fault scenarios in parallel. The backend `Arc` and any installed
/// [`SweepCache`] are shared too.
#[derive(Debug, Clone)]
pub struct SpikingNetwork {
    layers: Vec<Box<dyn Layer>>,
    time_steps: usize,
    backend: Arc<dyn MatmulBackend>,
    engine: EnginePreset,
    sweep_cache: Option<Arc<SweepCache>>,
}

impl SpikingNetwork {
    /// Creates an empty network executed over `time_steps` steps with the
    /// floating-point backend.
    ///
    /// # Panics
    ///
    /// Panics if `time_steps == 0`.
    pub fn new(time_steps: usize) -> Self {
        assert!(
            time_steps > 0,
            "a spiking network needs at least one time step"
        );
        Self {
            layers: Vec::new(),
            time_steps,
            backend: FloatBackend::shared(),
            engine: EnginePreset::default(),
            sweep_cache: None,
        }
    }

    /// Appends a layer (builder style).
    pub fn push<L: Layer + 'static>(&mut self, layer: L) -> &mut Self {
        self.layers.push(Box::new(layer));
        self
    }

    /// Appends an already boxed layer.
    pub fn push_boxed(&mut self, layer: Box<dyn Layer>) -> &mut Self {
        self.layers.push(layer);
        self
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// Returns `true` when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Number of simulation time steps.
    pub fn time_steps(&self) -> usize {
        self.time_steps
    }

    /// Changes the number of simulation time steps.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for zero.
    pub fn set_time_steps(&mut self, time_steps: usize) -> Result<()> {
        if time_steps == 0 {
            return Err(SnnError::invalid_config("time_steps must be non-zero"));
        }
        self.time_steps = time_steps;
        Ok(())
    }

    /// The backend executing matrix products.
    pub fn backend(&self) -> &Arc<dyn MatmulBackend> {
        &self.backend
    }

    /// Installs a different matmul backend (e.g. the systolic-array model).
    pub fn set_backend(&mut self, backend: Arc<dyn MatmulBackend>) {
        self.backend = backend;
    }

    /// The engine preset this network executes under.
    pub fn engine_preset(&self) -> EnginePreset {
        self.engine
    }

    /// Installs an engine preset (prefix cache and spike kernels).
    pub fn set_engine_preset(&mut self, preset: EnginePreset) {
        self.engine = preset;
    }

    /// Installs (or removes) a sweep-driver-owned cross-call cache. While
    /// installed, evaluation-mode forward passes share stateless-prefix
    /// outputs across calls — and, through the scenario views holding the
    /// same `Arc`, across sweep workers — keyed by input content, prefix
    /// parameters and backend fingerprint, so a hit is bit-identical to a
    /// recompute. Training passes never touch the cache.
    pub fn set_sweep_cache(&mut self, cache: Option<Arc<SweepCache>>) {
        self.sweep_cache = cache;
    }

    /// The installed sweep cache, if any.
    pub fn sweep_cache(&self) -> Option<&Arc<SweepCache>> {
        self.sweep_cache.as_ref()
    }

    /// Carves a scenario view off this network: a clone whose parameter
    /// tensors are shared copy-on-write with the original (O(layer structs)
    /// memory, not O(weights)) and whose temporal state is reset. This is
    /// what the sweep drivers hand to each scenario worker in place of the
    /// former whole-network deep clone; a worker that only evaluates never
    /// materialises its own weights, while a worker that retrains detaches
    /// private copies on its first optimizer step.
    pub fn scenario_view(&self) -> SpikingNetwork {
        let mut view = self.clone();
        view.reset_state();
        view
    }

    /// Clones the network with every parameter buffer deep-copied up front —
    /// the pre-copy-on-write clone semantics. Benchmarks and equivalence
    /// tests use this as the "per-clone baseline"; sweep code should use
    /// [`SpikingNetwork::scenario_view`] instead.
    pub fn unshared_clone(&self) -> SpikingNetwork {
        let mut clone = self.clone();
        for param in clone.params_mut() {
            param.unshare();
        }
        clone
    }

    /// Immutable access to the layers.
    pub fn layers(&self) -> &[Box<dyn Layer>] {
        &self.layers
    }

    /// Mutable access to the layers.
    pub fn layers_mut(&mut self) -> &mut [Box<dyn Layer>] {
        &mut self.layers
    }

    /// All trainable parameters of all layers.
    pub fn params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .collect()
    }

    /// Clears every parameter gradient.
    pub fn zero_grads(&mut self) {
        for param in self.params_mut() {
            param.zero_grad();
        }
    }

    /// Exports the values of all parameters (a "state dict"), in the same
    /// order [`SpikingNetwork::params_mut`] yields them.
    pub fn export_parameters(&mut self) -> Vec<Tensor> {
        self.params_mut()
            .iter()
            .map(|p| p.value().clone())
            .collect()
    }

    /// Imports parameter values previously produced by
    /// [`SpikingNetwork::export_parameters`] into a network with the same
    /// architecture, and resets all optimizer state.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] when the number or shapes of the
    /// parameters do not match.
    pub fn import_parameters(&mut self, values: &[Tensor]) -> Result<()> {
        let mut params = self.params_mut();
        if params.len() != values.len() {
            return Err(SnnError::invalid_config(format!(
                "cannot import {} parameter tensors into a network with {} parameters",
                values.len(),
                params.len()
            )));
        }
        for (param, value) in params.iter_mut().zip(values) {
            if param.value().shape() != value.shape() {
                return Err(SnnError::invalid_config(format!(
                    "parameter '{}' has shape {:?} but the imported tensor has shape {:?}",
                    param.name(),
                    param.value().shape(),
                    value.shape()
                )));
            }
            // Re-importing an unchanged value is a no-op assignment: skip it
            // so the parameter keeps its content id (and version), and the
            // cached derivations / cross-figure cache entries keyed on it
            // stay warm. Figure drivers restore the baseline between every
            // experiment, which would otherwise re-mint every id.
            #[cfg(feature = "audit")]
            let id_before = param.value().content_id();
            let changed = param.value() != value;
            if changed {
                param.assign_value(value.clone());
            }
            // Audit both directions of the skip's soundness: a changed
            // value must re-mint (the old id would poison every cache
            // keyed on it), an unchanged value must keep its id (that is
            // the entire point of the skip).
            #[cfg(feature = "audit")]
            {
                let id_after = param.value().content_id();
                if changed {
                    assert_ne!(
                        id_after,
                        id_before,
                        "import audit: parameter '{}' changed bytes but kept its content id",
                        param.name()
                    );
                } else {
                    assert_eq!(
                        id_after,
                        id_before,
                        "import audit: parameter '{}' kept its bytes but re-minted its id",
                        param.name()
                    );
                }
            }
            param.zero_grad();
            param.reset_optimizer_state();
        }
        Ok(())
    }

    /// Total number of scalar parameters.
    pub fn parameter_count(&mut self) -> usize {
        self.params_mut().iter().map(|p| p.len()).sum()
    }

    /// The prunable weight matrices (convolutional and fully connected
    /// layers), paired with their layer names, in network order.
    pub fn prunable_weights_mut(&mut self) -> Vec<(String, &mut Param)> {
        self.layers
            .iter_mut()
            .filter_map(|l| {
                let name = l.name().to_string();
                l.weight_mut().map(|w| (name, w))
            })
            .collect()
    }

    /// The threshold voltages of all spiking layers, paired with their layer
    /// names, in network order.
    pub fn thresholds(&self) -> Vec<(String, f32)> {
        self.layers
            .iter()
            .filter_map(|l| l.threshold().map(|v| (l.name().to_string(), v)))
            .collect()
    }

    /// The threshold parameters of all spiking layers.
    pub fn threshold_params_mut(&mut self) -> Vec<&mut Param> {
        self.layers
            .iter_mut()
            .filter_map(|l| l.threshold_mut())
            .collect()
    }

    /// Enables or disables threshold-voltage learning on every spiking layer
    /// (the switch between FaPIT and FalVolt retraining).
    pub fn set_thresholds_trainable(&mut self, trainable: bool) {
        for layer in &mut self.layers {
            layer.set_threshold_trainable(trainable);
        }
    }

    /// Overwrites the threshold voltage of every spiking layer with `v`
    /// (used by the fixed-threshold sweep of Figure 2).
    pub fn set_all_thresholds(&mut self, v: f32) {
        for layer in &mut self.layers {
            if let Some(param) = layer.threshold_mut() {
                param.value_mut().fill(v);
            }
        }
    }

    /// Resets the temporal state (membrane potentials, caches) of all layers.
    pub fn reset_state(&mut self) {
        for layer in &mut self.layers {
            layer.reset_state();
        }
    }

    /// Runs the network over all time steps and returns the firing-rate
    /// tensor `[N, classes]`.
    ///
    /// For static (direct-encoded) inputs in evaluation mode, the temporal
    /// prefix cache runs the stateless layer prefix ahead of the first
    /// stateful (spiking) layer once and reuses its output for all `T` time
    /// steps — the replicated input would flow through the identical
    /// computation at every step. With a [`SweepCache`] installed
    /// ([`SpikingNetwork::set_sweep_cache`]) the prefix output is additionally
    /// shared *across* forward calls and scenario workers, keyed on input
    /// content, prefix parameters and backend fingerprint. Temporal inputs
    /// and training passes are never cached (each step sees a different frame
    /// / must push its own BPTT caches), and every cached path produces
    /// bit-identical outputs.
    ///
    /// # Time steps on two workers
    ///
    /// The layers after the prefix run their `T` steps as a wavefront of
    /// (layer, step) tasks on the two workers of one
    /// [`falvolt_tensor::join`]. The ordering contract: task `(l, t)` reads
    /// only layer `l − 1`'s output at step `t` and the state layer `l` carried
    /// out of step `t − 1`, so it runs once both exist; every layer runs its
    /// own steps in order on the same inputs; and the step outputs add into
    /// the rate sum in step order. Any schedule that keeps those dependencies
    /// therefore gives the same bits, the serial step-by-step loop included,
    /// which is the order a one-thread budget drains the tasks in.
    ///
    /// # Errors
    ///
    /// Returns an error for inputs of unsupported rank or for layer shape
    /// mismatches: that of the failing task earliest in (step, layer) order,
    /// as the serial loop would return.
    pub fn forward(&mut self, input: &Tensor, mode: Mode) -> Result<Tensor> {
        if self.layers.is_empty() {
            return Err(SnnError::invalid_config("network has no layers"));
        }
        self.reset_state();
        let time_steps = self.time_steps;
        let backend = Arc::clone(&self.backend);
        let sweep_cache = self.sweep_cache.clone();
        // Every layer sees the sweep cache in evaluation mode. Prefix
        // lowerings are the shareable jackpot (scenario-invariant input);
        // suffix products still profit from the shared weight transposes,
        // and since cache keys are O(1) content ids a suffix miss costs a
        // hash lookup, not an operand hash.
        let ctx = ForwardContext::new(mode, backend.as_ref())
            .with_spike_hints(self.engine.spike_kernels())
            .with_cache(sweep_cache.as_deref());
        // The prefix sees the raw batch input — scenario-invariant across
        // sweep workers by construction — so its layers may promote their
        // input-derived cache keys on first sighting.
        let prefix_ctx = ForwardContext::new(mode, backend.as_ref())
            .with_spike_hints(self.engine.spike_kernels())
            .with_cache(sweep_cache.as_deref())
            .with_shareable_input(true);

        let static_input = matches!(input.ndim(), 2 | 4);
        let prefix_len = if self.engine.prefix_cache() && static_input && !mode.is_train() {
            self.layers
                .iter()
                .position(|l| l.is_stateful(mode))
                .unwrap_or(self.layers.len())
        } else {
            0
        };
        // Cross-call key of the prefix output: what goes in (the input
        // batch), what transforms it (every prefix layer's parameters) and
        // what executes it (the backend, including any fault map). Anything
        // else — thresholds of downstream spiking layers, suffix weights —
        // cannot change the prefix output, so sweeps sharing a cache get
        // hits exactly when a recompute would be bit-identical.
        let prefix_key = match (&sweep_cache, prefix_len) {
            (Some(_), n) if n > 0 => {
                let mut fp = Fingerprint::new();
                fp.write_str("prefix");
                fp.write_usize(n);
                // The spike-kernel switch is part of the key: sparse and
                // dense kernels agree only to within re-association, so an
                // engine-off network must never be served an engine-on
                // prefix (or vice versa).
                fp.write_u64(u64::from(self.engine.spike_kernels()));
                fp.write_u64(backend.fingerprint());
                for layer in &self.layers[..n] {
                    layer.cache_fingerprint(&mut fp);
                }
                // The input is identified by its generation-tagged content
                // id: O(1) per forward call instead of hashing the batch,
                // and sweep drivers evaluate the same batch tensors
                // throughout, so ids are stable exactly when contents are.
                fp.write_dims(input.shape());
                fp.write_u64(input.content_id());
                Some(fp.finish())
            }
            _ => None,
        };

        let prefix_out = if prefix_len > 0 {
            Some(self.prefix_output(input, prefix_len, prefix_key, &prefix_ctx)?)
        } else {
            None
        };
        let suffix = &mut self.layers[prefix_len..];
        let steps = match &prefix_out {
            // Entirely stateless network: every step yields the same tensor;
            // the rate average below still adds it T times so the result is
            // bit-identical to running the steps.
            Some(cached) if suffix.is_empty() => (0..time_steps)
                .map(|_| rate_rows(cached.as_ref().clone()))
                .collect::<Result<Vec<_>>>()?,
            _ => {
                let last = suffix.len() - 1;
                let stages = suffix.iter_mut().map(|layer| &mut **layer).collect();
                wavefront::run(stages, time_steps, |layer, stage, t, x| {
                    let out = match (x, &prefix_out) {
                        (Some(x), _) => layer.forward(&x, &ctx)?,
                        (None, Some(cached)) => layer.forward(cached, &ctx)?,
                        (None, None) => {
                            layer.forward(step_input(input, t, time_steps)?.as_ref(), &ctx)?
                        }
                    };
                    if stage == last {
                        rate_rows(out).map(Some)
                    } else {
                        Ok(Some(out))
                    }
                })?
            }
        };
        // Step outputs add in step order, whatever order the steps ran in.
        let mut steps = steps.into_iter();
        let mut rates = steps
            .next()
            .ok_or_else(|| SnnError::invalid_config("the forward pass ran no time step"))?;
        for x in steps {
            rates.add_assign(&x)?;
        }
        rates.scale_inplace(1.0 / time_steps as f32);
        Ok(rates)
    }

    /// The stateless prefix's output for a static `input`: served by the
    /// sweep cache when it holds it, else computed once (and offered to the
    /// cache when this call won the right to fulfil `key`).
    fn prefix_output(
        &mut self,
        input: &Tensor,
        prefix_len: usize,
        key: Option<u128>,
        prefix_ctx: &ForwardContext<'_>,
    ) -> Result<Arc<Tensor>> {
        let cache = self.sweep_cache.clone();
        let mut fulfill = None;
        if let (Some(cache), Some(key)) = (cache.as_deref(), key) {
            match cache.lookup_prefix(key) {
                StoreDecision::Hit(hit) => return Ok(hit),
                StoreDecision::Compute => fulfill = Some((cache, key)),
                StoreDecision::Skip => {}
            }
        }
        match run_layers(&mut self.layers[..prefix_len], input, prefix_ctx) {
            Ok(out) => {
                let out = Arc::new(out);
                if let Some((cache, key)) = fulfill {
                    cache.fulfill_prefix(key, Arc::clone(&out));
                }
                Ok(out)
            }
            Err(e) => {
                // Release the in-flight slot so the key is not dead for the
                // rest of the sweep.
                if let Some((cache, key)) = fulfill {
                    cache.abandon_prefix(key);
                }
                Err(e)
            }
        }
    }

    /// Backpropagates a gradient with respect to the firing rates through all
    /// time steps (BPTT). Must follow a `forward` call in [`Mode::Train`].
    ///
    /// The steps run as the forward pass's wavefront reversed: task `(l, s)`
    /// (layer `l` at backward step `s`) reads only the gradient layer `l + 1`
    /// passed down at step `s` and the state layer `l` carried out of step
    /// `s − 1`, each layer pops its cached forward steps in order, and the
    /// first layer's `accumulate_param_grads` ends each step's chain. Every
    /// layer therefore accumulates the same gradients in the same order
    /// under any schedule that keeps those dependencies, on one worker or
    /// two.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::MissingForwardState`] when no training forward
    /// pass preceded this call: the error of the failing task earliest in
    /// (step, layer-from-last) order, as the serial loop would return.
    pub fn backward(&mut self, grad_rates: &Tensor) -> Result<()> {
        // The per-step seed gradient is loop-invariant (the rate output is
        // the mean over T steps, so every step receives grad_rates / T);
        // compute it once and hand it to the last layer by reference instead
        // of cloning it at the top of every iteration.
        let per_step = grad_rates.mul_scalar(1.0 / self.time_steps as f32);
        // The T iterations themselves cannot be hoisted or deduplicated:
        // each one pops a different cached forward step from every layer's
        // BPTT stack, and the spiking layers carry the membrane-potential
        // gradient across iterations, so identical seeds still produce
        // different per-layer work each time.
        // The first layer's input gradient would be the gradient with
        // respect to the network input, which nothing reads: that layer only
        // accumulates its parameter gradients.
        // Stages run from the last layer to the first.
        let first_layer_stage = self.layers.len().saturating_sub(1);
        let stages = self
            .layers
            .iter_mut()
            .rev()
            .map(|layer| &mut **layer)
            .collect();
        wavefront::run(stages, self.time_steps, |layer, stage, _, grad| {
            let grad = grad.as_ref().unwrap_or(&per_step);
            if stage == first_layer_stage {
                layer.accumulate_param_grads(grad).map(|()| None)
            } else {
                layer.backward(grad).map(Some)
            }
        })?;
        Ok(())
    }

    /// Convenience: forward pass in evaluation mode followed by per-sample
    /// argmax.
    ///
    /// # Errors
    ///
    /// Propagates forward-pass errors.
    pub fn predict(&mut self, input: &Tensor) -> Result<Vec<usize>> {
        let rates = self.forward(input, Mode::Eval)?;
        Ok(reduce::argmax_rows(&rates)?)
    }
}

/// Checks that a step's network output is `[N, classes]`.
fn rate_rows(x: Tensor) -> Result<Tensor> {
    if x.ndim() != 2 {
        return Err(SnnError::invalid_config(format!(
            "network output must be [N, classes], got shape {:?}",
            x.shape()
        )));
    }
    Ok(x)
}

/// Runs `input` through `layers` in order, borrowing the initial tensor (the
/// first layer reads it in place; only layer outputs are allocated).
fn run_layers(
    layers: &mut [Box<dyn Layer>],
    input: &Tensor,
    ctx: &ForwardContext<'_>,
) -> Result<Tensor> {
    let mut x: Option<Tensor> = None;
    for layer in layers {
        let next = layer.forward(x.as_ref().unwrap_or(input), ctx)?;
        x = Some(next);
    }
    Ok(x.unwrap_or_else(|| input.clone()))
}

/// Extracts the input for time step `t`: temporal inputs (`[N, T, ...]`) are
/// sliced into an owned frame, static inputs are replicated for free as a
/// borrowed view (`Cow::Borrowed`) — the seed cloned the full tensor here on
/// every step.
fn step_input<'a>(input: &'a Tensor, t: usize, time_steps: usize) -> Result<Cow<'a, Tensor>> {
    match input.ndim() {
        2 | 4 => Ok(Cow::Borrowed(input)),
        5 => {
            if input.shape()[1] != time_steps {
                return Err(SnnError::invalid_input(format!(
                    "temporal input has {} frames but the network runs {} time steps",
                    input.shape()[1],
                    time_steps
                )));
            }
            let (n, _t, c, h, w) = (
                input.shape()[0],
                input.shape()[1],
                input.shape()[2],
                input.shape()[3],
                input.shape()[4],
            );
            let mut frame = Tensor::zeros(&[n, c, h, w]);
            let chw = c * h * w;
            let src = input.data();
            let dst = frame.data_mut();
            for b in 0..n {
                let src_base = (b * time_steps + t) * chw;
                let dst_base = b * chw;
                dst[dst_base..dst_base + chw].copy_from_slice(&src[src_base..src_base + chw]);
            }
            Ok(Cow::Owned(frame))
        }
        other => Err(SnnError::invalid_input(format!(
            "unsupported input rank {other}: expected [N, F], [N, C, H, W] or [N, T, C, H, W]"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{Flatten, Linear, SpikingLayer};
    use crate::neuron::NeuronConfig;

    fn tiny_network() -> SpikingNetwork {
        let mut network = SpikingNetwork::new(4);
        network.push(Flatten::new("flatten"));
        network.push(Linear::new("fc1", 8, 6, 1).unwrap());
        network.push(SpikingLayer::new("sn1", NeuronConfig::paper_default()));
        network.push(Linear::new("fc2", 6, 3, 2).unwrap());
        network.push(SpikingLayer::new("sn2", NeuronConfig::paper_default()));
        network
    }

    #[test]
    fn forward_produces_rates_in_unit_interval() {
        let mut network = tiny_network();
        let input = Tensor::from_fn(&[5, 1, 2, 4], |i| (i % 7) as f32 * 0.3);
        let rates = network.forward(&input, Mode::Eval).unwrap();
        assert_eq!(rates.shape(), &[5, 3]);
        assert!(rates.data().iter().all(|&r| (0.0..=1.0).contains(&r)));
    }

    #[test]
    fn temporal_input_is_sliced_per_time_step() {
        let mut network = tiny_network();
        let temporal = Tensor::from_fn(&[2, 4, 1, 2, 4], |i| (i % 5) as f32 * 0.4);
        let rates = network.forward(&temporal, Mode::Eval).unwrap();
        assert_eq!(rates.shape(), &[2, 3]);
        // Mismatched frame count is rejected.
        let wrong = Tensor::zeros(&[2, 3, 1, 2, 4]);
        assert!(network.forward(&wrong, Mode::Eval).is_err());
        // Unsupported rank is rejected.
        assert!(network
            .forward(&Tensor::zeros(&[2, 1, 2]), Mode::Eval)
            .is_err());
    }

    #[test]
    fn a_training_pass_lowers_a_static_input_once_and_a_temporal_one_every_step() {
        use crate::layers::Conv2d;
        use std::sync::atomic::{AtomicUsize, Ordering};
        /// Counts the products of the first layer (`[N·H·W, 1·3·3]` lowerings).
        #[derive(Debug, Default)]
        struct FirstLayerProducts(AtomicUsize);
        impl MatmulBackend for FirstLayerProducts {
            fn matmul_request(
                &self,
                req: crate::backend::MatmulRequest<'_>,
            ) -> falvolt_tensor::Result<crate::backend::MatmulOutput> {
                if req.a().shape()[1] == 9 {
                    self.0.fetch_add(1, Ordering::Relaxed);
                }
                crate::FloatBackend::new().matmul_request(req)
            }
        }
        let mut network = SpikingNetwork::new(4);
        network.push(Conv2d::new("encode_conv", 1, 2, 3, 1, 1, 3).unwrap());
        network.push(SpikingLayer::new(
            "encode_sn",
            NeuronConfig::paper_default(),
        ));
        network.push(Flatten::new("flatten"));
        network.push(Linear::new("fc", 2 * 4 * 4, 3, 4).unwrap());
        network.push(SpikingLayer::new("sn", NeuronConfig::paper_default()));
        let counter = Arc::new(FirstLayerProducts::default());
        network.set_backend(counter.clone());
        let products = |network: &mut SpikingNetwork, input: &Tensor| {
            let before = counter.0.load(Ordering::Relaxed);
            network.forward(input, Mode::Train).unwrap();
            network.backward(&Tensor::ones(&[2, 3])).unwrap();
            counter.0.load(Ordering::Relaxed) - before
        };
        let static_input = Tensor::from_fn(&[2, 1, 4, 4], |i| (i % 5) as f32 * 0.5);
        assert_eq!(products(&mut network, &static_input), 1);
        // A second batch lowers again (the memo is per batch).
        assert_eq!(products(&mut network, &static_input), 1);
        // Every frame of a temporal input is a fresh tensor, even when the
        // frames are equal.
        let temporal = Tensor::from_fn(&[2, 4, 1, 4, 4], |i| (i % 16 % 5) as f32 * 0.5);
        assert_eq!(products(&mut network, &temporal), 4);
    }

    #[test]
    fn backward_requires_training_forward() {
        let mut network = tiny_network();
        let input = Tensor::ones(&[2, 1, 2, 4]);
        network.forward(&input, Mode::Eval).unwrap();
        assert!(network.backward(&Tensor::ones(&[2, 3])).is_err());
        network.forward(&input, Mode::Train).unwrap();
        assert!(network.backward(&Tensor::ones(&[2, 3])).is_ok());
    }

    #[test]
    fn first_layer_skip_leaves_every_parameter_gradient_bit_equal() {
        // Dispatch-sensitive: float outputs are compared bit-for-bit, so
        // hold off any concurrent test forcing a different dispatch ISA.
        let _lock = falvolt_tensor::simd::test_override_lock();
        use crate::layers::Conv2d;
        let mut network = SpikingNetwork::new(3);
        network.push(Conv2d::new("conv1", 1, 2, 3, 1, 1, 5).unwrap());
        network.push(SpikingLayer::new("sn1", NeuronConfig::paper_default()));
        network.push(Flatten::new("flatten"));
        network.push(Linear::new("fc", 2 * 4 * 4, 3, 6).unwrap());
        network.push(SpikingLayer::new("sn2", NeuronConfig::paper_default()));
        let mut reference = network.unshared_clone();
        let input = Tensor::from_fn(&[2, 1, 4, 4], |i| (i % 5) as f32 * 0.6);
        let grad_rates = Tensor::from_fn(&[2, 3], |i| (i as f32 * 0.7).cos());
        network.forward(&input, Mode::Train).unwrap();
        network.backward(&grad_rates).unwrap();
        // The reference runs the full backward on every layer, first included.
        reference.forward(&input, Mode::Train).unwrap();
        let per_step = grad_rates.mul_scalar(1.0 / 3.0);
        for _ in 0..3 {
            let mut grad = per_step.clone();
            for layer in reference.layers_mut().iter_mut().rev() {
                grad = layer.backward(&grad).unwrap();
            }
        }
        let bits = |p: &&mut Param| {
            p.grad()
                .data()
                .iter()
                .map(|v| v.to_bits())
                .collect::<Vec<_>>()
        };
        let got: Vec<_> = network.params_mut().iter().map(bits).collect();
        let want: Vec<_> = reference.params_mut().iter().map(bits).collect();
        assert_eq!(got, want);
        assert!(got[0].iter().any(|&b| f32::from_bits(b) != 0.0));
        // An empty network has nothing to backpropagate through.
        assert!(SpikingNetwork::new(2).backward(&grad_rates).is_ok());
    }

    #[test]
    fn training_pass_produces_nonzero_gradients() {
        let mut network = tiny_network();
        let input = Tensor::from_fn(&[3, 1, 2, 4], |i| (i % 3) as f32);
        network.zero_grads();
        network.forward(&input, Mode::Train).unwrap();
        network.backward(&Tensor::ones(&[3, 3])).unwrap();
        let grads_nonzero = network
            .params_mut()
            .iter()
            .any(|p| p.grad().data().iter().any(|&g| g != 0.0));
        assert!(
            grads_nonzero,
            "at least one parameter should receive gradient"
        );
        network.zero_grads();
        assert!(network
            .params_mut()
            .iter()
            .all(|p| p.grad().data().iter().all(|&g| g == 0.0)));
    }

    #[test]
    fn threshold_management_touches_only_spiking_layers() {
        let mut network = tiny_network();
        assert_eq!(network.thresholds().len(), 2);
        assert_eq!(network.threshold_params_mut().len(), 2);
        network.set_all_thresholds(0.55);
        assert!(network
            .thresholds()
            .iter()
            .all(|(_, v)| (*v - 0.55).abs() < 1e-6));
        network.set_thresholds_trainable(true);
        assert!(network
            .threshold_params_mut()
            .iter()
            .all(|p| p.is_trainable()));
        assert_eq!(network.prunable_weights_mut().len(), 2);
    }

    #[test]
    fn export_import_roundtrips_and_validates() {
        let mut a = tiny_network();
        let mut b = tiny_network();
        // Perturb `a` so the two networks differ.
        for p in a.params_mut() {
            p.value_mut().map_inplace(|v| v + 0.25);
        }
        let state = a.export_parameters();
        b.import_parameters(&state).unwrap();
        assert_eq!(a.export_parameters(), b.export_parameters());

        // Mismatched architectures are rejected.
        let mut small = SpikingNetwork::new(2);
        small.push(Flatten::new("flatten"));
        small.push(Linear::new("fc", 8, 3, 1).unwrap());
        assert!(small.import_parameters(&state).is_err());
        // Mismatched shapes are rejected.
        let mut wrong = state.clone();
        wrong[0] = Tensor::zeros(&[1]);
        assert!(b.import_parameters(&wrong).is_err());
    }

    #[test]
    fn predict_returns_one_label_per_sample() {
        let mut network = tiny_network();
        let input = Tensor::ones(&[4, 1, 2, 4]);
        let labels = network.predict(&input).unwrap();
        assert_eq!(labels.len(), 4);
        assert!(labels.iter().all(|&l| l < 3));
    }

    #[test]
    fn accessors_and_configuration() {
        let mut network = tiny_network();
        assert_eq!(network.len(), 5);
        assert!(!network.is_empty());
        assert_eq!(network.time_steps(), 4);
        assert!(network.set_time_steps(0).is_err());
        network.set_time_steps(2).unwrap();
        assert_eq!(network.time_steps(), 2);
        assert!(network.parameter_count() > 0);
        assert_eq!(network.backend().name(), "float");
        let empty = SpikingNetwork::new(1);
        assert!(empty.is_empty());
    }

    #[test]
    #[should_panic(expected = "at least one time step")]
    fn zero_time_steps_panics() {
        let _ = SpikingNetwork::new(0);
    }

    #[test]
    fn forward_on_empty_network_errors() {
        let mut network = SpikingNetwork::new(2);
        assert!(network.forward(&Tensor::ones(&[1, 4]), Mode::Eval).is_err());
    }

    #[test]
    fn engine_preset_defaults_on_and_toggles() {
        let mut network = tiny_network();
        assert_eq!(network.engine_preset(), EnginePreset::full());
        assert!(network.engine_preset().prefix_cache() && network.engine_preset().spike_kernels());
        network.set_engine_preset(EnginePreset::seed_equivalent());
        assert_eq!(network.engine_preset(), EnginePreset::seed_equivalent());
        assert!(!network.engine_preset().prefix_cache());
        assert!(!network.engine_preset().spike_kernels());
        network.set_engine_preset(EnginePreset::seed_equivalent().with_prefix_cache(true));
        assert!(network.engine_preset().prefix_cache());
        assert!(!network.engine_preset().spike_kernels());
        assert!(!EnginePreset::full().with_prefix_cache(false).prefix_cache());
    }

    #[test]
    fn scalar_forced_forward_matches_simd_and_restores_dispatch() {
        use falvolt_tensor::simd;
        // Serialise against anything else touching the process-global
        // dispatch override.
        let _lock = simd::test_override_lock();
        let input = Tensor::from_fn(&[3, 8], |i| ((i % 7) as f32 - 2.0) * 0.5);
        let mut network = tiny_network();
        let simd_out = network.forward(&input, Mode::Eval).unwrap();
        let prev = simd::active();
        let mut scalar_network = tiny_network();
        let scalar_out = {
            let _scalar = simd::force(Some(simd::Isa::Scalar));
            scalar_network.forward(&input, Mode::Eval).unwrap()
        };
        // The scoped override must not leak past its guard.
        assert_eq!(simd::active(), prev, "the scalar override leaked");
        assert_eq!(simd_out.shape(), scalar_out.shape());
        for (a, b) in simd_out.data().iter().zip(scalar_out.data()) {
            assert!(
                (a - b).abs() <= 1e-5,
                "scalar ablation diverged: {a} vs {b}"
            );
        }
    }

    #[test]
    fn prefix_cached_forward_is_bit_identical_to_uncached() {
        // Dispatch-sensitive: float outputs are compared bit-for-bit, so
        // hold off any concurrent test forcing a different dispatch ISA.
        let _lock = falvolt_tensor::simd::test_override_lock();
        use crate::layers::Conv2d;
        // Conv -> spiking -> flatten -> linear -> spiking: the conv is the
        // stateless prefix that the engine computes once per forward.
        let build = || {
            let mut network = SpikingNetwork::new(6);
            network.push(Conv2d::new("conv", 1, 3, 3, 1, 1, 5).unwrap());
            network.push(SpikingLayer::new("sn1", NeuronConfig::paper_default()));
            network.push(Flatten::new("flatten"));
            network.push(Linear::new("fc", 3 * 6 * 6, 4, 6).unwrap());
            network.push(SpikingLayer::new("sn2", NeuronConfig::paper_default()));
            network
        };
        let input = Tensor::from_fn(&[3, 1, 6, 6], |i| ((i % 11) as f32 - 3.0) * 0.4);
        let mut cached = build();
        let mut uncached = build();
        uncached.set_engine_preset(EnginePreset::full().with_prefix_cache(false));
        let a = cached.forward(&input, Mode::Eval).unwrap();
        let b = uncached.forward(&input, Mode::Eval).unwrap();
        assert_eq!(a.data(), b.data(), "prefix cache must not change outputs");
    }

    #[test]
    fn prefix_cache_covers_fully_stateless_networks() {
        // Dispatch-sensitive: float outputs are compared bit-for-bit, so
        // hold off any concurrent test forcing a different dispatch ISA.
        let _lock = falvolt_tensor::simd::test_override_lock();
        // No spiking layer at all: the whole network is the prefix.
        let build = || {
            let mut network = SpikingNetwork::new(4);
            network.push(Flatten::new("flatten"));
            network.push(Linear::new("fc", 8, 3, 2).unwrap());
            network
        };
        let input = Tensor::from_fn(&[2, 1, 2, 4], |i| (i % 5) as f32 * 0.3);
        let mut cached = build();
        let mut uncached = build();
        uncached.set_engine_preset(EnginePreset::seed_equivalent());
        let a = cached.forward(&input, Mode::Eval).unwrap();
        let b = uncached.forward(&input, Mode::Eval).unwrap();
        assert_eq!(a.data(), b.data());
    }

    #[test]
    fn training_pass_is_unaffected_by_prefix_cache() {
        // Train mode must never take the cached path: every step has to push
        // its own BPTT caches. With the engine on, backward still works and
        // gradients flow.
        let mut network = tiny_network();
        assert_eq!(network.engine_preset(), EnginePreset::full());
        let input = Tensor::from_fn(&[2, 1, 2, 4], |i| (i % 3) as f32);
        network.forward(&input, Mode::Train).unwrap();
        assert!(network.backward(&Tensor::ones(&[2, 3])).is_ok());
    }

    #[test]
    fn scenario_views_share_weights_copy_on_write() {
        // Dispatch-sensitive: float outputs are compared bit-for-bit, so
        // hold off any concurrent test forcing a different dispatch ISA.
        let _lock = falvolt_tensor::simd::test_override_lock();
        let mut base = tiny_network();
        let mut view = base.scenario_view();
        // Every parameter buffer is shared, not copied.
        assert!(view.params_mut().iter().all(|p| p.value_is_shared()));
        // Evaluation does not detach anything.
        let input = Tensor::from_fn(&[2, 1, 2, 4], |i| (i % 5) as f32 * 0.3);
        let a = view.forward(&input, Mode::Eval).unwrap();
        let b = base.forward(&input, Mode::Eval).unwrap();
        assert_eq!(a.data(), b.data(), "a view computes what the base does");
        assert!(view.params_mut().iter().all(|p| p.value_is_shared()));
        // Mutating the view's weights leaves the base untouched.
        view.params_mut()[0].value_mut().fill(9.0);
        assert!(!view.params_mut()[0].value_is_shared());
        assert!(base.params_mut()[0]
            .value()
            .data()
            .iter()
            .all(|&v| v != 9.0));

        // An unshared clone starts detached.
        let mut deep = base.unshared_clone();
        assert!(deep.params_mut().iter().all(|p| !p.value_is_shared()));
    }

    #[test]
    fn sweep_cache_hits_across_calls_and_stays_bit_identical() {
        // Dispatch-sensitive: float outputs are compared bit-for-bit, so
        // hold off any concurrent test forcing a different dispatch ISA.
        let _lock = falvolt_tensor::simd::test_override_lock();
        use crate::layers::Conv2d;
        use crate::sweep_cache::SweepCache;
        let build = || {
            let mut network = SpikingNetwork::new(3);
            network.push(Conv2d::new("conv", 1, 2, 3, 1, 1, 4).unwrap());
            network.push(SpikingLayer::new("sn", NeuronConfig::paper_default()));
            network.push(Flatten::new("flatten"));
            network.push(Linear::new("fc", 2 * 4 * 4, 3, 5).unwrap());
            network.push(SpikingLayer::new("sn2", NeuronConfig::paper_default()));
            network
        };
        let input = Tensor::from_fn(&[2, 1, 4, 4], |i| ((i % 7) as f32 - 2.0) * 0.5);
        let mut plain = build();
        let reference = plain.forward(&input, Mode::Eval).unwrap();

        let cache = Arc::new(SweepCache::new());
        let mut cached = build();
        cached.set_sweep_cache(Some(Arc::clone(&cache)));
        assert!(cached.sweep_cache().is_some());
        // Promote-on-second-request: the first call records interest
        // (nothing stored), the second fulfils the shared entry, the third
        // — and any scenario view sharing the cache Arc — hits it.
        let first = cached.forward(&input, Mode::Eval).unwrap();
        assert_eq!(first.data(), reference.data());
        assert_eq!(cache.prefix_stats().misses, 1);
        let second = cached.forward(&input, Mode::Eval).unwrap();
        assert_eq!(second.data(), reference.data());
        assert_eq!(cache.prefix_stats().promotions, 1);
        let third = cached.forward(&input, Mode::Eval).unwrap();
        assert_eq!(third.data(), reference.data());
        assert!(cache.prefix_stats().hits >= 1);
        let mut view = cached.scenario_view();
        let viewed = view.forward(&input, Mode::Eval).unwrap();
        assert_eq!(viewed.data(), reference.data());
        assert!(cache.prefix_stats().hits >= 2);

        // Changing a prefix parameter changes the key: the cache misses
        // (no stale hit) and the output equals a cache-free recompute.
        let misses_before = cache.prefix_stats().misses;
        cached.params_mut()[0].value_mut().map_inplace(|v| v + 0.1);
        let perturbed = cached.forward(&input, Mode::Eval).unwrap();
        assert_eq!(cache.prefix_stats().misses, misses_before + 1);
        plain.params_mut()[0].value_mut().map_inplace(|v| v + 0.1);
        let recomputed = plain.forward(&input, Mode::Eval).unwrap();
        assert_eq!(perturbed.data(), recomputed.data());
    }

    #[test]
    fn stateful_layers_report_correctly() {
        let spiking = SpikingLayer::new("sn", NeuronConfig::paper_default());
        assert!(spiking.is_stateful(Mode::Eval));
        assert!(spiking.is_stateful(Mode::Train));
        let linear = Linear::new("fc", 2, 2, 0).unwrap();
        assert!(!linear.is_stateful(Mode::Eval));
        assert!(linear.is_stateful(Mode::Train), "BPTT caches are state");
    }
}
