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
//!
//! # Which reductions run when
//!
//! The backward pass is an elementwise pass plus up to two ordered `f64`
//! reductions over its per-element terms. The elementwise pass writes the
//! input and membrane gradients and, per element, the terms the reductions
//! need; it resolves the surrogate variant once, outside the loop, so it
//! vectorises. The reductions then add those terms in index order, as a
//! single serial loop over every element would:
//!
//! * the threshold gradient of Eq. 4 runs only while `V` is trainable (the
//!   FalVolt cells); plain training, FaP and FaPIT skip it;
//! * the decay gradient runs only while the decay is trainable (PLIF, not
//!   LIF).
//!
//! When both run they share one loop: two independent add chains cost no
//! more than one. The work is done in chunks of `BACKWARD_CHUNK` elements,
//! so the terms stay in a stack buffer and the chains continue across
//! chunks unchanged.

use crate::layers::{ForwardContext, Layer};
use crate::neuron::NeuronConfig;
use crate::param::Param;
use crate::surrogate::{
    atan_grad, fast_sigmoid_grad, heaviside, rectangular_grad, sigmoid, triangular_grad, Surrogate,
};
use crate::{Result, SnnError};
use falvolt_tensor::{SpikeIndex, Tensor};
use std::sync::Arc;

/// Minimum threshold voltage: keeps `1/V` and `h/V²` finite if the optimizer
/// drives the learnable threshold toward zero.
const MIN_THRESHOLD: f32 = 0.05;

/// Elements per chunk of the backward pass (two `f64` term buffers of this
/// length live on the stack).
const BACKWARD_CHUNK: usize = 256;

/// One training step's tape: the charged membrane `h` and the decay drive
/// `x − (v_prev − v_reset)`, both as the forward computed them. The spikes
/// are not kept: backward recomputes them from `charged` with the forward's
/// expression.
#[derive(Debug, Clone)]
struct StepCache {
    charged: Tensor,
    drive: Tensor,
}

/// The scalars of one step's neuron dynamics.
#[derive(Debug, Clone, Copy)]
struct Dynamics {
    alpha: f32,
    v_threshold: f32,
    v_reset: f32,
}

impl Dynamics {
    /// Charges, fires and resets the elements of one row: `s` gets the
    /// spikes and `vn` the next membrane; under `TAPE`, `h_out` gets the
    /// charged membrane and `drive_out` the decay drive.
    #[inline(always)]
    fn fire_row<const TAPE: bool>(
        self,
        x: &[f32],
        vp: &[f32],
        s: &mut [f32],
        vn: &mut [f32],
        h_out: &mut [f32],
        drive_out: &mut [f32],
    ) {
        let n = x.len();
        let (vp, s, vn) = (&vp[..n], &mut s[..n], &mut vn[..n]);
        let (h_out, drive_out) = if TAPE {
            (&mut h_out[..n], &mut drive_out[..n])
        } else {
            (h_out, drive_out)
        };
        for i in 0..n {
            let drive = x[i] - (vp[i] - self.v_reset);
            let h = vp[i] + self.alpha * drive;
            let spike = heaviside(h / self.v_threshold - 1.0);
            s[i] = spike;
            vn[i] = if spike > 0.0 { self.v_reset } else { h };
            if TAPE {
                h_out[i] = h;
                drive_out[i] = drive;
            }
        }
    }
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
        let dynamics = Dynamics {
            alpha: self.decay_factor(),
            v_threshold: self.threshold_voltage(),
            v_reset: self.config.v_reset,
        };
        let v_prev = match self.membrane.take() {
            Some(v) if v.shape() == input.shape() => v,
            _ => Tensor::full(input.shape(), dynamics.v_reset),
        };

        let shape = input.shape();
        let train = ctx.mode.is_train();
        let mut spikes = Tensor::zeros(shape);
        let mut v_next = Tensor::zeros(shape);
        let (mut charged, mut drive) = if train {
            (Tensor::zeros(shape), Tensor::zeros(shape))
        } else {
            (Tensor::zeros(&[0]), Tensor::zeros(&[0]))
        };
        // With spike hints on, the firing layer emits the spike event stream
        // directly: it is the one place that knows exactly which elements
        // fire, so it indexes them as it fires them (CSR over last-dimension
        // rows) and every downstream consumer — im2col, the
        // gather-accumulate kernel, the systolic executor's event walk, and
        // in training the conv weight gradient — reads the index instead of
        // re-probing the dense buffer.
        let index_cols = shape.last().copied().filter(|&c| c > 0 && ctx.spike_hints);
        let n = input.len();
        let width = index_cols.unwrap_or(n.max(1));
        let rows = n / width;
        let mut row_ptr = Vec::with_capacity(if index_cols.is_some() { rows + 1 } else { 0 });
        let mut col_idx: Vec<u32> = Vec::new();
        if index_cols.is_some() {
            // Paper-typical spike densities are well under 25%.
            col_idx.reserve(n / 4 + 8);
            row_ptr.push(0u32);
        }
        {
            let (x, vp) = (input.data(), v_prev.data());
            let (s, vn) = (spikes.data_mut(), v_next.data_mut());
            let (h, d) = (charged.data_mut(), drive.data_mut());
            for r in 0..rows {
                let span = r * width..(r + 1) * width;
                let s_row = &mut s[span.clone()];
                if train {
                    dynamics.fire_row::<true>(
                        &x[span.clone()],
                        &vp[span.clone()],
                        s_row,
                        &mut vn[span.clone()],
                        &mut h[span.clone()],
                        &mut d[span],
                    );
                } else {
                    dynamics.fire_row::<false>(
                        &x[span.clone()],
                        &vp[span.clone()],
                        s_row,
                        &mut vn[span],
                        &mut [],
                        &mut [],
                    );
                }
                if index_cols.is_some() {
                    // Branch-free compaction of the row's spike columns:
                    // every column is written, only spikes advance the end.
                    let base = col_idx.len();
                    col_idx.resize(base + width, 0);
                    let mut end = base;
                    for (c, &spike) in s_row.iter().enumerate() {
                        col_idx[end] = c as u32;
                        end += usize::from(spike > 0.0);
                    }
                    col_idx.truncate(end);
                    row_ptr.push(end as u32);
                }
            }
        }
        if let Some(cols) = index_cols {
            let index = SpikeIndex::from_parts(rows, cols, row_ptr, col_idx);
            spikes.attach_spike_index(Arc::new(index));
        }

        self.membrane = Some(v_next);
        if train {
            self.caches.push(StepCache { charged, drive });
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
        let grad_v_carry = match self.grad_membrane_carry.take() {
            Some(g) if g.shape() == grad_output.shape() => g,
            _ => Tensor::zeros(grad_output.shape()),
        };
        let mut grad_input = Tensor::zeros(grad_output.shape());
        let mut grad_v_prev = Tensor::zeros(grad_output.shape());
        let step = BackwardStep {
            alpha,
            v_threshold: self.threshold_voltage(),
            grad_output: grad_output.data(),
            grad_v_carry: grad_v_carry.data(),
            charged: cache.charged.data(),
            drive: cache.drive.data(),
            grad_input: grad_input.data_mut(),
            grad_v_prev: grad_v_prev.data_mut(),
        };
        let sums = step.run(
            self.config.surrogate,
            self.threshold.is_trainable(),
            self.decay_logit.is_trainable(),
        );

        if self.threshold.is_trainable() {
            let g = Tensor::scalar(sums.threshold as f32);
            self.threshold.accumulate_grad(&g)?;
        }
        if self.decay_logit.is_trainable() {
            // d alpha / d w = sigmoid'(w) = alpha (1 - alpha).
            let g = Tensor::scalar(sums.decay as f32 * alpha * (1.0 - alpha));
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

/// The operands of one step's backward pass (all slices the same length).
struct BackwardStep<'a> {
    alpha: f32,
    v_threshold: f32,
    grad_output: &'a [f32],
    grad_v_carry: &'a [f32],
    charged: &'a [f32],
    drive: &'a [f32],
    grad_input: &'a mut [f32],
    grad_v_prev: &'a mut [f32],
}

/// The two parameter-gradient sums of one backward step (zero when their
/// reduction did not run).
#[derive(Debug, Clone, Copy, Default)]
struct ParamSums {
    threshold: f64,
    decay: f64,
}

impl BackwardStep<'_> {
    /// Resolves the surrogate variant and which reductions run, then runs
    /// the pass.
    fn run(self, surrogate: Surrogate, threshold: bool, decay: bool) -> ParamSums {
        match surrogate {
            Surrogate::Triangular { gamma } => {
                self.run_with(threshold, decay, |z| triangular_grad(gamma, z))
            }
            Surrogate::Atan { alpha } => self.run_with(threshold, decay, |z| atan_grad(alpha, z)),
            Surrogate::Rectangular { width } => {
                self.run_with(threshold, decay, |z| rectangular_grad(width, z))
            }
            Surrogate::FastSigmoid { alpha } => {
                self.run_with(threshold, decay, |z| fast_sigmoid_grad(alpha, z))
            }
        }
    }

    #[inline(always)]
    fn run_with(self, threshold: bool, decay: bool, sg: impl Fn(f32) -> f32) -> ParamSums {
        match (threshold, decay) {
            (true, true) => self.pass::<true, true>(sg),
            (true, false) => self.pass::<true, false>(sg),
            (false, true) => self.pass::<false, true>(sg),
            (false, false) => self.pass::<false, false>(sg),
        }
    }

    /// The elementwise pass and the ordered reductions, chunk by chunk.
    /// Per element: `dL/dh` through the spike output and through the
    /// (detached-reset) membrane update `v = (1 − s) h + s v_reset`, then the
    /// charge step `h = v_prev + α (x − (v_prev − v_reset))` splits it into
    /// the input and previous-membrane gradients. `THRESHOLD` adds the
    /// Eq. 4 terms `∂L/∂o · ∂o/∂z · (−h/V²)`, `DECAY` the terms
    /// `dL/dh · (x − (v_prev − v_reset))`; each product of two `f32`s is
    /// exact in `f64`, so only the order of the additions matters, and it is
    /// index order.
    #[inline(always)]
    fn pass<const THRESHOLD: bool, const DECAY: bool>(self, sg: impl Fn(f32) -> f32) -> ParamSums {
        let (alpha, v) = (self.alpha, self.v_threshold);
        let vv = v * v;
        let mut sums = ParamSums::default();
        let mut threshold_terms = [0.0f64; BACKWARD_CHUNK];
        let mut decay_terms = [0.0f64; BACKWARD_CHUNK];
        let n = self.grad_output.len();
        let mut start = 0;
        while start < n {
            let end = (start + BACKWARD_CHUNK).min(n);
            let m = end - start;
            let go = &self.grad_output[start..end];
            let gv = &self.grad_v_carry[start..end];
            let h = &self.charged[start..end];
            let drive = &self.drive[start..end];
            let gi = &mut self.grad_input[start..end];
            let gvp = &mut self.grad_v_prev[start..end];
            let tt = &mut threshold_terms[..m];
            let dt = &mut decay_terms[..m];
            for i in 0..m {
                // The forward's expression, so `s` is the spike it fired.
                let z = h[i] / v - 1.0;
                let s = heaviside(z);
                let g = go[i] * sg(z);
                let dl_dh = g / v + gv[i] * (1.0 - s);
                gi[i] = dl_dh * alpha;
                gvp[i] = dl_dh * (1.0 - alpha);
                if THRESHOLD {
                    tt[i] = g as f64 * (-h[i] / vv) as f64;
                }
                if DECAY {
                    dt[i] = dl_dh as f64 * drive[i] as f64;
                }
            }
            if THRESHOLD && DECAY {
                for (&t, &d) in tt.iter().zip(dt.iter()) {
                    sums.threshold += t;
                    sums.decay += d;
                }
            } else if THRESHOLD {
                for &t in tt.iter() {
                    sums.threshold += t;
                }
            } else if DECAY {
                for &d in dt.iter() {
                    sums.decay += d;
                }
            }
            start = end;
        }
        sums
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

    /// One step of the forward and backward loops as they stood before the
    /// backward pass was split into an elementwise pass and ordered
    /// reductions: the bit reference for `SpikingLayer`.
    mod serial {
        use crate::surrogate::{heaviside, Surrogate};

        pub struct Step {
            pub input: Vec<f32>,
            pub v_prev: Vec<f32>,
            pub charged: Vec<f32>,
        }

        /// Charge, fire, reset; returns the step's tape and the next membrane.
        pub fn forward(
            x: &[f32],
            vp: &[f32],
            alpha: f32,
            v: f32,
            v_reset: f32,
        ) -> (Step, Vec<f32>) {
            let mut h = vec![0.0f32; x.len()];
            for i in 0..x.len() {
                h[i] = vp[i] + alpha * (x[i] - (vp[i] - v_reset));
            }
            let mut vn = vec![0.0f32; x.len()];
            for i in 0..x.len() {
                let z = h[i] / v - 1.0;
                let s = heaviside(z);
                vn[i] = if s > 0.0 { v_reset } else { h[i] };
            }
            let step = Step {
                input: x.to_vec(),
                v_prev: vp.to_vec(),
                charged: h,
            };
            (step, vn)
        }

        /// The serial backward loop: input gradient, previous-membrane
        /// gradient, and the two running `f64` sums.
        #[allow(clippy::too_many_arguments)]
        pub fn backward(
            step: &Step,
            go: &[f32],
            gv: &[f32],
            alpha: f32,
            v_threshold: f32,
            v_reset: f32,
            surrogate: Surrogate,
        ) -> (Vec<f32>, Vec<f32>, f64, f64) {
            let n = go.len();
            let (h, x, vp) = (&step.charged, &step.input, &step.v_prev);
            let mut gi = vec![0.0f32; n];
            let mut gvp = vec![0.0f32; n];
            let mut grad_threshold_acc = 0.0f64;
            let mut grad_decay_acc = 0.0f64;
            for i in 0..n {
                let z = h[i] / v_threshold - 1.0;
                let s = heaviside(z);
                let sg = surrogate.grad(z);
                let dl_dh = go[i] * sg / v_threshold + gv[i] * (1.0 - s);
                grad_threshold_acc +=
                    (go[i] * sg) as f64 * (-(h[i]) / (v_threshold * v_threshold)) as f64;
                gi[i] = dl_dh * alpha;
                gvp[i] = dl_dh * (1.0 - alpha);
                grad_decay_acc += dl_dh as f64 * (x[i] - (vp[i] - v_reset)) as f64;
            }
            (gi, gvp, grad_threshold_acc, grad_decay_acc)
        }
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn backward_matches_the_serial_loop_bit_for_bit() {
        use crate::surrogate::Surrogate;
        // 5 x 61 = 305 elements: more than one backward chunk, with a
        // partial last chunk.
        let shape = [5usize, 61];
        let n = shape[0] * shape[1];
        let steps = 3;
        let surrogates = [
            Surrogate::Triangular { gamma: 1.0 },
            Surrogate::Atan { alpha: 2.0 },
            Surrogate::Rectangular { width: 0.5 },
            Surrogate::FastSigmoid { alpha: 4.0 },
        ];
        let models = [
            NeuronConfig::paper_default().model,
            NeuronModel::Lif { tau: 2.0 },
        ];
        let backend = FloatBackend::new();
        let c = ctx(&backend, Mode::Train);
        for surrogate in surrogates {
            for model in models {
                for learn_threshold in [false, true] {
                    let config = NeuronConfig {
                        surrogate,
                        ..NeuronConfig::paper_default()
                    }
                    .with_model(model)
                    .with_threshold(0.8);
                    let mut layer = SpikingLayer::new("sn", config);
                    layer.set_threshold_trainable(learn_threshold);
                    let (alpha, v, v_reset) = (
                        layer.decay_factor(),
                        layer.threshold_voltage(),
                        config.v_reset,
                    );
                    // Charges straddling V: inputs around V / alpha, with
                    // some elements charged exactly to V (z = 0). The last
                    // two elements see the same inputs.
                    let inputs: Vec<Vec<f32>> = (0..steps)
                        .map(|t| {
                            (0..n)
                                .map(|i| i.min(n - 2))
                                .map(|i| match (i + 3 * t) % 11 {
                                    0 => v / alpha,
                                    1 => 0.0,
                                    _ => v / alpha * (0.6 + 0.8 * pseudo(i, t)),
                                })
                                .collect()
                        })
                        .collect();
                    // Upstream gradients with zeros (both signs) and
                    // subnormals among ordinary values. The last two
                    // elements get `±1e25`: their `f64` terms cancel
                    // exactly and absorb every term added before them, so
                    // the sums come out right only in index order.
                    let grads: Vec<Vec<f32>> = (0..steps)
                        .map(|t| {
                            (0..n)
                                .map(|i| match (i + t) % 7 {
                                    _ if i == n - 2 => 1e25,
                                    _ if i == n - 1 => -1e25,
                                    0 => 0.0,
                                    1 => -0.0,
                                    2 => f32::from_bits(1 + i as u32),
                                    3 => -f32::from_bits(0x0040_0000 + i as u32),
                                    _ => pseudo(i, t + 7) - 0.5,
                                })
                                .collect()
                        })
                        .collect();

                    let mut tape = Vec::new();
                    let mut membrane = vec![v_reset; n];
                    for x in &inputs {
                        layer
                            .forward(&Tensor::from_vec(shape.to_vec(), x.clone()).unwrap(), &c)
                            .unwrap();
                        let (step, next) = serial::forward(x, &membrane, alpha, v, v_reset);
                        tape.push(step);
                        membrane = next;
                    }
                    let mut carry = vec![0.0f32; n];
                    let (mut want_v, mut want_decay) = (0.0f32, 0.0f32);
                    for (go, step) in grads.iter().zip(tape.iter().rev()) {
                        let got = layer
                            .backward(&Tensor::from_vec(shape.to_vec(), go.clone()).unwrap())
                            .unwrap();
                        let (gi, gvp, thr, dec) =
                            serial::backward(step, go, &carry, alpha, v, v_reset, surrogate);
                        let case = format!("{surrogate:?} {model:?} learn V {learn_threshold}");
                        assert_eq!(bits(got.data()), bits(&gi), "{case}: input gradient");
                        if learn_threshold {
                            want_v += thr as f32;
                        }
                        if layer.decay_logit.is_trainable() {
                            want_decay += dec as f32 * alpha * (1.0 - alpha);
                        }
                        let got_v = layer.threshold.grad().data()[0];
                        let got_decay = layer.decay_logit.grad().data()[0];
                        assert_eq!(got_v.to_bits(), want_v.to_bits(), "{case}: dV");
                        assert_eq!(got_decay.to_bits(), want_decay.to_bits(), "{case}: dw");
                        carry = gvp;
                    }
                    assert_eq!(
                        bits(layer.grad_membrane_carry.as_ref().unwrap().data()),
                        bits(&carry)
                    );
                }
            }
        }
    }

    fn pseudo(i: usize, salt: usize) -> f32 {
        ((i * 2654435761 + salt * 40503) % 1000) as f32 / 1000.0
    }

    #[test]
    fn fired_index_equals_the_dense_scan_of_the_spikes() {
        let backend = FloatBackend::new();
        for (shape, mode) in [
            (vec![3usize, 17], Mode::Eval),
            (vec![2, 3, 5, 7], Mode::Train),
            (vec![1, 1], Mode::Eval),
            (vec![0, 4], Mode::Eval),
        ] {
            let mut layer = SpikingLayer::new("sn", NeuronConfig::paper_default());
            let c = ctx(&backend, mode);
            for t in 0..3 {
                let x = Tensor::from_fn(&shape, |i| 3.0 * pseudo(i, t));
                let spikes = layer.forward(&x, &c).unwrap();
                let cols = *shape.last().unwrap();
                let want = SpikeIndex::from_dense(spikes.data(), cols).unwrap();
                assert_eq!(
                    spikes.spike_index().map(|ix| &**ix),
                    Some(&want),
                    "{shape:?}"
                );
            }
        }
        // No index without spike hints, or over an empty last dimension.
        let mut layer = SpikingLayer::new("sn", NeuronConfig::paper_default());
        let off = ctx(&backend, Mode::Eval).with_spike_hints(false);
        let spikes = layer.forward(&Tensor::full(&[2, 3], 2.0), &off).unwrap();
        assert!(spikes.spike_index().is_none());
        let on = ctx(&backend, Mode::Eval);
        let spikes = layer.forward(&Tensor::zeros(&[2, 0]), &on).unwrap();
        assert!(spikes.spike_index().is_none());
    }
}
