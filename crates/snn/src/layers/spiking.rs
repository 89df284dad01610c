//! The spiking-neuron layer with a learnable per-layer threshold voltage.
//!
//! This layer is where the paper's contribution lives. Per time step `t` and
//! layer `l`:
//!
//! 1. charge: `h_t = v_{t-1} + α (x_t − (v_{t-1} − v_reset))` with
//!    `α = sigmoid(w)` the (optionally learnable) membrane decay,
//! 2. fire (Eq. 1): `z_t = h_t / V − 1`, `o_t = Heaviside(z_t)`,
//! 3. hard reset: `v_t = (1 − o_t) h_t + o_t v_reset`.
//!
//! During backpropagation the discontinuous `∂o/∂z` is replaced by the
//! triangular surrogate of Eq. (2); the gradient of the loss with respect to
//! the threshold voltage follows Eq. (4): since `z = h/V − 1`,
//! `∂z/∂V = −h/V²`, so `ΔV = Σ_t ∂L/∂o_t · ∂o/∂z_t · (−h_t/V²)`. FalVolt
//! enables this gradient during fault-aware retraining and learns one `V` per
//! layer; plain training and FaPIT keep `V` frozen at its initial value.

use crate::layers::{ForwardContext, Layer};
use crate::neuron::NeuronConfig;
use crate::param::Param;
use crate::surrogate::{heaviside, sigmoid};
use crate::{Result, SnnError};
use falvolt_tensor::Tensor;

/// Minimum threshold voltage: keeps `1/V` and `h/V²` finite if the optimizer
/// drives the learnable threshold toward zero.
const MIN_THRESHOLD: f32 = 0.05;

/// One training step's tape. The spikes are not kept: backward recomputes
/// them from `charged` with the forward's expression.
#[derive(Debug, Clone)]
struct StepCache {
    input: Tensor,
    v_prev: Tensor,
    charged: Tensor,
}

/// A layer of LIF/PLIF spiking neurons with a shared, optionally learnable,
/// threshold voltage.
///
/// # Example
///
/// ```
/// use falvolt_snn::layers::{ForwardContext, Layer, Mode, SpikingLayer};
/// use falvolt_snn::neuron::NeuronConfig;
/// use falvolt_snn::FloatBackend;
/// use falvolt_tensor::Tensor;
///
/// # fn main() -> Result<(), falvolt_snn::SnnError> {
/// let mut layer = SpikingLayer::new("sn1", NeuronConfig::paper_default());
/// let backend = FloatBackend::new();
/// let ctx = ForwardContext::new(Mode::Eval, &backend);
/// // A strong input drives the membrane over the threshold -> spike.
/// let spikes = layer.forward(&Tensor::full(&[1, 4], 3.0), &ctx)?;
/// assert!(spikes.data().iter().all(|&s| s == 1.0));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SpikingLayer {
    name: String,
    config: NeuronConfig,
    threshold: Param,
    decay_logit: Param,
    membrane: Option<Tensor>,
    caches: Vec<StepCache>,
    grad_membrane_carry: Option<Tensor>,
}

impl SpikingLayer {
    /// Creates a spiking layer from a neuron configuration.
    pub fn new(name: impl Into<String>, config: NeuronConfig) -> Self {
        let mut threshold = Param::new("v_threshold", Tensor::scalar(config.v_threshold));
        threshold.set_trainable(config.learn_threshold);
        let mut decay_logit = Param::new(
            "decay_logit",
            Tensor::scalar(config.model.initial_decay_logit()),
        );
        decay_logit.set_trainable(config.model.learns_decay());
        Self {
            name: name.into(),
            config,
            threshold,
            decay_logit,
            membrane: None,
            caches: Vec::new(),
            grad_membrane_carry: None,
        }
    }

    /// The neuron configuration this layer was built with.
    pub fn config(&self) -> &NeuronConfig {
        &self.config
    }

    /// The current threshold voltage `V` (clamped to a small positive
    /// minimum).
    pub fn threshold_voltage(&self) -> f32 {
        self.threshold.value().data()[0].max(MIN_THRESHOLD)
    }

    /// Overwrites the threshold voltage (used by the fixed-`V` sweep of the
    /// paper's motivational study, Figure 2).
    pub fn set_threshold_voltage(&mut self, v: f32) {
        self.threshold.value_mut().fill(v.max(MIN_THRESHOLD));
    }

    /// The current membrane decay factor `α = sigmoid(w)`.
    pub fn decay_factor(&self) -> f32 {
        sigmoid(self.decay_logit.value().data()[0])
    }

    /// The membrane potential after the most recent time step, if any.
    pub fn membrane_potential(&self) -> Option<&Tensor> {
        self.membrane.as_ref()
    }
}

impl Layer for SpikingLayer {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, ctx: &ForwardContext<'_>) -> Result<Tensor> {
        let v_reset = self.config.v_reset;
        let alpha = self.decay_factor();
        let v_threshold = self.threshold_voltage();

        let v_prev = match self.membrane.take() {
            Some(v) if v.shape() == input.shape() => v,
            _ => Tensor::full(input.shape(), v_reset),
        };

        // Charge, fire, reset — elementwise over the whole activation tensor.
        let mut charged = Tensor::zeros(input.shape());
        let mut spikes = Tensor::zeros(input.shape());
        let mut v_next = Tensor::zeros(input.shape());
        {
            let x = input.data();
            let vp = v_prev.data();
            let h = charged.data_mut();
            for i in 0..x.len() {
                h[i] = vp[i] + alpha * (x[i] - (vp[i] - v_reset));
            }
            let s = spikes.data_mut();
            let vn = v_next.data_mut();
            for i in 0..x.len() {
                let z = h[i] / v_threshold - 1.0;
                s[i] = heaviside(z);
                vn[i] = if s[i] > 0.0 { v_reset } else { h[i] };
            }
        }

        self.membrane = Some(v_next);
        if ctx.mode.is_train() {
            self.caches.push(StepCache {
                input: input.clone(),
                v_prev,
                charged,
            });
        }
        if ctx.spike_hints {
            // Emit the spike event stream directly: the firing layer is the
            // one place that knows exactly which elements are nonzero, so it
            // indexes them once (CSR over last-dimension rows) and every
            // downstream consumer — im2col, the gather-accumulate kernel,
            // the systolic executor's event walk, and in training the conv
            // weight gradient — reads the index instead of re-probing the
            // dense buffer. Spikes are binary by construction, so
            // `from_dense` always succeeds.
            if let Some(cols) = spikes.shape().last().copied().filter(|&c| c > 0) {
                if let Some(index) = falvolt_tensor::SpikeIndex::from_dense(spikes.data(), cols) {
                    spikes.attach_spike_index(std::sync::Arc::new(index));
                }
            }
        }
        Ok(spikes)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self
            .caches
            .pop()
            .ok_or_else(|| SnnError::MissingForwardState {
                layer: self.name.clone(),
            })?;
        if grad_output.shape() != cache.charged.shape() {
            return Err(SnnError::invalid_input(format!(
                "spiking layer '{}' got gradient of shape {:?}, expected {:?}",
                self.name,
                grad_output.shape(),
                cache.charged.shape()
            )));
        }

        let alpha = self.decay_factor();
        let v_threshold = self.threshold_voltage();
        let v_reset = self.config.v_reset;
        let surrogate = self.config.surrogate;

        let grad_v_carry = match self.grad_membrane_carry.take() {
            Some(g) if g.shape() == grad_output.shape() => g,
            _ => Tensor::zeros(grad_output.shape()),
        };

        let n = grad_output.len();
        let mut grad_input = Tensor::zeros(cache.input.shape());
        let mut grad_v_prev = Tensor::zeros(cache.input.shape());
        let mut grad_threshold_acc = 0.0f64;
        let mut grad_decay_acc = 0.0f64;

        {
            let go = grad_output.data();
            let gv = grad_v_carry.data();
            let h = cache.charged.data();
            let x = cache.input.data();
            let vp = cache.v_prev.data();
            let gi = grad_input.data_mut();
            let gvp = grad_v_prev.data_mut();

            for i in 0..n {
                // The forward's expression, so `s` is the spike it fired.
                let z = h[i] / v_threshold - 1.0;
                let s = heaviside(z);
                let sg = surrogate.grad(z);
                // dL/dh through the spike output and through the (detached-
                // reset) membrane update v = (1 - s) h + s v_reset.
                let dl_dh = go[i] * sg / v_threshold + gv[i] * (1.0 - s);
                // Threshold gradient, Eq. (4): dz/dV = -h / V^2.
                grad_threshold_acc +=
                    (go[i] * sg) as f64 * (-(h[i]) / (v_threshold * v_threshold)) as f64;
                // Charge step: h = v_prev + alpha (x - (v_prev - v_reset)).
                gi[i] = dl_dh * alpha;
                gvp[i] = dl_dh * (1.0 - alpha);
                grad_decay_acc += dl_dh as f64 * (x[i] - (vp[i] - v_reset)) as f64;
            }
        }

        if self.threshold.is_trainable() {
            let g = Tensor::scalar(grad_threshold_acc as f32);
            self.threshold.accumulate_grad(&g)?;
        }
        if self.decay_logit.is_trainable() {
            // d alpha / d w = sigmoid'(w) = alpha (1 - alpha).
            let g = Tensor::scalar(grad_decay_acc as f32 * alpha * (1.0 - alpha));
            self.decay_logit.accumulate_grad(&g)?;
        }

        self.grad_membrane_carry = Some(grad_v_prev);
        Ok(grad_input)
    }

    fn reset_state(&mut self) {
        self.membrane = None;
        self.caches.clear();
        self.grad_membrane_carry = None;
    }

    fn is_stateful(&self, _mode: crate::layers::Mode) -> bool {
        // The membrane potential integrates across time steps in every mode.
        true
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.threshold, &mut self.decay_logit]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.threshold, &self.decay_logit]
    }

    fn threshold_mut(&mut self) -> Option<&mut Param> {
        Some(&mut self.threshold)
    }

    fn threshold(&self) -> Option<f32> {
        Some(self.threshold_voltage())
    }

    fn set_threshold_trainable(&mut self, trainable: bool) {
        self.threshold.set_trainable(trainable);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FloatBackend;
    use crate::layers::Mode;
    use crate::neuron::NeuronModel;

    fn ctx(backend: &FloatBackend, mode: Mode) -> ForwardContext<'_> {
        ForwardContext::new(mode, backend)
    }

    #[test]
    fn strong_input_fires_and_resets_membrane() {
        let backend = FloatBackend::new();
        let mut layer = SpikingLayer::new("sn", NeuronConfig::paper_default());
        let spikes = layer
            .forward(&Tensor::full(&[1, 3], 5.0), &ctx(&backend, Mode::Eval))
            .unwrap();
        assert!(spikes.data().iter().all(|&s| s == 1.0));
        // Hard reset: membrane returns to v_reset after firing.
        assert!(layer
            .membrane_potential()
            .unwrap()
            .data()
            .iter()
            .all(|&v| v == 0.0));
    }

    #[test]
    fn weak_input_integrates_over_time_before_firing() {
        // With alpha = 0.5 and threshold 1.0, a constant input of 0.8 charges
        // 0.4, then 0.6, then 0.7 ... and crosses 1.0 only after several steps
        // — never, actually, since it converges to 0.8 < 1.0. Use 1.5 input:
        // charges 0.75 (no spike), then 1.125 (spike).
        let backend = FloatBackend::new();
        let mut layer = SpikingLayer::new(
            "sn",
            NeuronConfig::paper_default().with_model(NeuronModel::Lif { tau: 2.0 }),
        );
        let x = Tensor::full(&[1, 1], 1.5);
        let c = ctx(&backend, Mode::Eval);
        let s1 = layer.forward(&x, &c).unwrap();
        assert_eq!(s1.data(), &[0.0]);
        let s2 = layer.forward(&x, &c).unwrap();
        assert_eq!(s2.data(), &[1.0]);
    }

    #[test]
    fn lower_threshold_fires_more_easily() {
        let backend = FloatBackend::new();
        let c = ctx(&backend, Mode::Eval);
        let x = Tensor::full(&[1, 1], 1.2);

        let mut high = SpikingLayer::new("h", NeuronConfig::paper_default().with_threshold(1.0));
        let mut low = SpikingLayer::new("l", NeuronConfig::paper_default().with_threshold(0.45));
        let s_high = high.forward(&x, &c).unwrap();
        let s_low = low.forward(&x, &c).unwrap();
        assert_eq!(s_high.data(), &[0.0], "alpha=0.5 charge 0.6 < 1.0");
        assert_eq!(s_low.data(), &[1.0], "0.6 > 0.45 threshold");
    }

    #[test]
    fn reset_state_clears_membrane_and_caches() {
        let backend = FloatBackend::new();
        let mut layer = SpikingLayer::new("sn", NeuronConfig::paper_default());
        let c = ctx(&backend, Mode::Train);
        layer.forward(&Tensor::full(&[1, 2], 2.0), &c).unwrap();
        assert!(layer.membrane_potential().is_some());
        layer.reset_state();
        assert!(layer.membrane_potential().is_none());
        assert!(layer.backward(&Tensor::zeros(&[1, 2])).is_err());
    }

    #[test]
    fn backward_without_forward_errors() {
        let mut layer = SpikingLayer::new("sn", NeuronConfig::paper_default());
        assert!(matches!(
            layer.backward(&Tensor::zeros(&[1, 1])),
            Err(SnnError::MissingForwardState { .. })
        ));
    }

    #[test]
    fn threshold_gradient_matches_finite_difference() {
        // Loss = sum over T of spike outputs smoothed by the surrogate is not
        // differentiable exactly, but for membrane values inside the surrogate
        // window the analytic dL/dV should approximate the finite-difference
        // slope of the *surrogate-relaxed* loss. We instead verify the sign
        // and magnitude relationship: increasing V cannot increase the spike
        // count, so dL/dV of the (relaxed) spike-sum must be negative when
        // neurons are near threshold.
        let config = NeuronConfig::falvolt_retraining();
        let backend = FloatBackend::new();
        let mut layer = SpikingLayer::new("sn", config);
        let c = ctx(&backend, Mode::Train);
        // Inputs near the threshold so the surrogate is active.
        let x = Tensor::from_vec(vec![1, 4], vec![1.8, 2.0, 2.2, 1.9]).unwrap();
        let spikes = layer.forward(&x, &c).unwrap();
        assert!(spikes.data().iter().sum::<f32>() > 0.0);
        // dL/d spike = 1 for every output (loss = total spike count).
        layer.backward(&Tensor::ones(&[1, 4])).unwrap();
        let grad_v = layer.threshold_mut().unwrap().grad().data()[0];
        assert!(
            grad_v < 0.0,
            "raising the threshold must lower the spike-count loss, grad {grad_v}"
        );
    }

    #[test]
    fn frozen_threshold_accumulates_no_gradient() {
        let backend = FloatBackend::new();
        let mut layer = SpikingLayer::new("sn", NeuronConfig::paper_default());
        let c = ctx(&backend, Mode::Train);
        let x = Tensor::full(&[1, 4], 1.9);
        layer.forward(&x, &c).unwrap();
        layer.backward(&Tensor::ones(&[1, 4])).unwrap();
        assert_eq!(layer.threshold_mut().unwrap().grad().data()[0], 0.0);
        // Unlocking makes the gradient flow.
        layer.reset_state();
        layer.set_threshold_trainable(true);
        layer.forward(&x, &c).unwrap();
        layer.backward(&Tensor::ones(&[1, 4])).unwrap();
        assert_ne!(layer.threshold_mut().unwrap().grad().data()[0], 0.0);
    }

    #[test]
    fn input_gradient_matches_finite_difference_of_relaxed_dynamics() {
        // Validate dL/dx numerically by replacing the spike Heaviside with the
        // membrane charge itself (loss = sum of charges), which the analytic
        // path reproduces when the surrogate window is wide.
        let backend = FloatBackend::new();
        let config = NeuronConfig {
            surrogate: crate::surrogate::Surrogate::Rectangular { width: 100.0 },
            ..NeuronConfig::paper_default()
        };
        let mut layer = SpikingLayer::new("sn", config);
        let c = ctx(&backend, Mode::Train);
        let x = Tensor::from_vec(vec![1, 2], vec![0.3, 0.7]).unwrap();
        layer.forward(&x, &c).unwrap();
        let grad_in = layer.backward(&Tensor::ones(&[1, 2])).unwrap();
        // With a single time step, dL/dx = surrogate * (1/V) * alpha. The
        // rectangular surrogate of width 100 gives 1/200 everywhere.
        let alpha = layer.decay_factor();
        let expected = (1.0 / 200.0) / 1.0 * alpha;
        for &g in grad_in.data() {
            assert!((g - expected).abs() < 1e-6, "{g} vs {expected}");
        }
    }

    #[test]
    fn set_threshold_voltage_clamps_to_minimum() {
        let mut layer = SpikingLayer::new("sn", NeuronConfig::paper_default());
        layer.set_threshold_voltage(0.0);
        assert!(layer.threshold_voltage() >= MIN_THRESHOLD);
        layer.set_threshold_voltage(0.7);
        assert_eq!(layer.threshold().unwrap(), 0.7);
    }

    #[test]
    fn plif_decay_is_trainable_and_lif_is_not() {
        let mut plif = SpikingLayer::new("p", NeuronConfig::paper_default());
        let trainable: Vec<bool> = plif.params_mut().iter().map(|p| p.is_trainable()).collect();
        assert_eq!(trainable, vec![false, true]); // threshold frozen, decay learnable

        let mut lif = SpikingLayer::new(
            "l",
            NeuronConfig::paper_default().with_model(NeuronModel::Lif { tau: 2.0 }),
        );
        let trainable: Vec<bool> = lif.params_mut().iter().map(|p| p.is_trainable()).collect();
        assert_eq!(trainable, vec![false, false]);
    }

    #[test]
    fn bptt_carries_membrane_gradient_across_time() {
        // Two time steps: gradient of the step-2 output w.r.t. the step-1
        // input must be non-zero because the membrane carries state.
        let backend = FloatBackend::new();
        let config = NeuronConfig {
            surrogate: crate::surrogate::Surrogate::Rectangular { width: 100.0 },
            ..NeuronConfig::paper_default()
        };
        let mut layer = SpikingLayer::new("sn", config);
        let c = ctx(&backend, Mode::Train);
        let x = Tensor::from_vec(vec![1, 1], vec![0.2]).unwrap();
        layer.forward(&x, &c).unwrap();
        layer.forward(&x, &c).unwrap();
        // Only the second step's output contributes to the loss.
        let g2 = layer.backward(&Tensor::ones(&[1, 1])).unwrap();
        let g1 = layer.backward(&Tensor::zeros(&[1, 1])).unwrap();
        assert!(g2.data()[0] > 0.0);
        assert!(
            g1.data()[0] > 0.0,
            "gradient must flow to the earlier step through the membrane"
        );
    }
}
