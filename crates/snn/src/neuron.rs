//! Spiking-neuron models and their configuration.
//!
//! The paper trains PLIF-based SNNs (parametric leaky integrate-and-fire,
//! Fang et al., ICCV 2021): the membrane decay is a learnable parameter, which
//! makes the network less sensitive to initial values and speeds up learning.
//! The classic LIF neuron with a fixed time constant is also provided, both
//! for comparison and for the ablation benches.

use crate::surrogate::Surrogate;

/// Which neuron dynamics a spiking layer uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NeuronModel {
    /// Leaky integrate-and-fire with a fixed membrane time constant `tau`.
    Lif {
        /// Membrane time constant (in time steps); the decay factor is
        /// `1/tau`.
        tau: f32,
    },
    /// Parametric LIF: the decay factor is `sigmoid(w)` with `w` learnable;
    /// `init_tau` sets the initial value so that `sigmoid(w) = 1/init_tau`.
    Plif {
        /// Initial membrane time constant.
        init_tau: f32,
    },
}

impl NeuronModel {
    /// The paper's default neuron: PLIF initialised at `tau = 2`.
    pub fn paper_default() -> Self {
        NeuronModel::Plif { init_tau: 2.0 }
    }

    /// Returns the initial value of the internal decay parameter `w` such
    /// that `sigmoid(w) = 1 / tau`.
    pub fn initial_decay_logit(&self) -> f32 {
        let tau = match *self {
            NeuronModel::Lif { tau } => tau,
            NeuronModel::Plif { init_tau } => init_tau,
        };
        let alpha = (1.0 / tau).clamp(1e-4, 1.0 - 1e-4);
        (alpha / (1.0 - alpha)).ln()
    }

    /// Whether the decay parameter is trainable.
    pub fn learns_decay(&self) -> bool {
        matches!(self, NeuronModel::Plif { .. })
    }
}

impl Default for NeuronModel {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Full configuration of a layer of spiking neurons.
///
/// # Example
///
/// ```
/// use falvolt_snn::neuron::{NeuronConfig, NeuronModel};
///
/// let config = NeuronConfig::paper_default();
/// assert_eq!(config.v_threshold, 1.0);
/// assert_eq!(config.v_reset, 0.0);
/// assert!(matches!(config.model, NeuronModel::Plif { .. }));
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NeuronConfig {
    /// Neuron dynamics.
    pub model: NeuronModel,
    /// Threshold voltage `V` the membrane potential must exceed to fire.
    /// Initial training uses `1.0`; FalVolt learns a per-layer value during
    /// fault-aware retraining.
    pub v_threshold: f32,
    /// Resting / reset potential.
    pub v_reset: f32,
    /// Surrogate gradient used during backpropagation.
    pub surrogate: Surrogate,
    /// Whether the threshold voltage is a trainable parameter (FalVolt) or a
    /// fixed constant (initial training, FaP, FaPIT).
    pub learn_threshold: bool,
}

impl NeuronConfig {
    /// The configuration used for initial (fault-free) training in the paper:
    /// PLIF dynamics, threshold `1.0`, hard reset to `0.0`, triangular
    /// surrogate, threshold *not* trainable.
    pub fn paper_default() -> Self {
        Self {
            model: NeuronModel::paper_default(),
            v_threshold: 1.0,
            v_reset: 0.0,
            surrogate: Surrogate::paper_default(),
            learn_threshold: false,
        }
    }

    /// Same as [`NeuronConfig::paper_default`] but with the threshold voltage
    /// trainable — the retraining configuration FalVolt uses.
    pub fn falvolt_retraining() -> Self {
        Self {
            learn_threshold: true,
            ..Self::paper_default()
        }
    }

    /// Builder-style override of the threshold voltage.
    pub fn with_threshold(mut self, v_threshold: f32) -> Self {
        self.v_threshold = v_threshold;
        self
    }

    /// Builder-style override of the neuron model.
    pub fn with_model(mut self, model: NeuronModel) -> Self {
        self.model = model;
        self
    }

    /// Builder-style override of threshold trainability.
    pub fn with_learn_threshold(mut self, learn: bool) -> Self {
        self.learn_threshold = learn;
        self
    }
}

impl Default for NeuronConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::surrogate::sigmoid;

    #[test]
    fn paper_default_matches_reference_implementation() {
        let c = NeuronConfig::paper_default();
        assert_eq!(c.v_threshold, 1.0);
        assert_eq!(c.v_reset, 0.0);
        assert!(!c.learn_threshold);
        assert!(c.model.learns_decay());
        assert_eq!(c, NeuronConfig::default());
    }

    #[test]
    fn falvolt_config_unlocks_threshold() {
        let c = NeuronConfig::falvolt_retraining();
        assert!(c.learn_threshold);
        assert_eq!(c.v_threshold, 1.0);
    }

    #[test]
    fn decay_logit_inverts_sigmoid() {
        for tau in [1.5f32, 2.0, 4.0, 10.0] {
            let model = NeuronModel::Plif { init_tau: tau };
            let w = model.initial_decay_logit();
            assert!((sigmoid(w) - 1.0 / tau).abs() < 1e-4, "tau {tau}");
        }
        let lif = NeuronModel::Lif { tau: 2.0 };
        assert!((sigmoid(lif.initial_decay_logit()) - 0.5).abs() < 1e-5);
        assert!(!lif.learns_decay());
    }

    #[test]
    fn builder_overrides() {
        let c = NeuronConfig::paper_default()
            .with_threshold(0.55)
            .with_model(NeuronModel::Lif { tau: 3.0 })
            .with_learn_threshold(true);
        assert_eq!(c.v_threshold, 0.55);
        assert!(c.learn_threshold);
        assert!(!c.model.learns_decay());
    }

    #[test]
    fn extreme_tau_is_clamped_to_finite_logit() {
        let model = NeuronModel::Plif { init_tau: 1.0 };
        assert!(model.initial_decay_logit().is_finite());
        let model = NeuronModel::Plif { init_tau: 1.0e9 };
        assert!(model.initial_decay_logit().is_finite());
    }
}
