//! Surrogate gradients for the non-differentiable spike function.
//!
//! The spike output `o = Heaviside(z)` (with `z = v / V - 1` the normalized
//! distance of the membrane potential from the threshold voltage) has a zero
//! gradient almost everywhere. During error backpropagation it is replaced by
//! a smooth surrogate; the paper uses the triangular surrogate of Eq. (2):
//! `∂o/∂z ≈ γ · max(0, 1 − |z|)`.

/// Surrogate-gradient family used when backpropagating through the spike
/// non-linearity.
///
/// The paper's Eq. (2) describes the triangular window
/// `γ · max(0, 1 − |z|)` ([`Surrogate::Triangular`]). Its compact support
/// means neurons whose membrane sits far from the threshold (fully silent or
/// fully saturated) receive exactly zero gradient, which stalls training of
/// the small CPU-scale networks this reproduction uses. The PLIF reference
/// implementation the paper builds on (Fang et al., spikingjelly) defaults to
/// an arctangent surrogate with unbounded support, so [`Surrogate::Atan`] is
/// the default here; the triangular form remains available and is exercised
/// by the ablation benches.
///
/// # Example
///
/// ```
/// use falvolt_snn::surrogate::Surrogate;
///
/// let s = Surrogate::paper_eq2();         // triangular, γ = 1 (paper Eq. 2)
/// assert_eq!(s.grad(0.0), 1.0);           // maximal exactly at threshold
/// assert_eq!(s.grad(2.0), 0.0);           // zero far from threshold
///
/// let d = Surrogate::default();           // ATan (reference-implementation default)
/// assert!(d.grad(2.0) > 0.0);             // non-zero gradient everywhere
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Surrogate {
    /// The paper's triangular window `γ · max(0, 1 − |z|)`.
    Triangular {
        /// Peak value `γ` of the surrogate.
        gamma: f32,
    },
    /// Derivative of a scaled arctangent:
    /// `α / (2 (1 + (π α z / 2)²))` — the spikingjelly/PLIF default.
    Atan {
        /// Sharpness `α` of the arctangent.
        alpha: f32,
    },
    /// A rectangular window: `1/(2·width)` for `|z| < width`, else `0`.
    Rectangular {
        /// Half-width of the window.
        width: f32,
    },
    /// Derivative of a scaled sigmoid: `α·σ(αz)·(1−σ(αz))`.
    FastSigmoid {
        /// Sharpness `α` of the sigmoid.
        alpha: f32,
    },
}

impl Surrogate {
    /// The surrogate used by default in this reproduction: ATan with
    /// `α = 2`, matching the PLIF reference implementation.
    pub fn paper_default() -> Self {
        Surrogate::Atan { alpha: 2.0 }
    }

    /// The paper's Eq. (2): triangular with `γ = 1`.
    pub fn paper_eq2() -> Self {
        Surrogate::Triangular { gamma: 1.0 }
    }

    /// Evaluates the surrogate gradient `∂o/∂z` at `z`.
    pub fn grad(&self, z: f32) -> f32 {
        match *self {
            Surrogate::Triangular { gamma } => triangular_grad(gamma, z),
            Surrogate::Atan { alpha } => atan_grad(alpha, z),
            Surrogate::Rectangular { width } => rectangular_grad(width, z),
            Surrogate::FastSigmoid { alpha } => fast_sigmoid_grad(alpha, z),
        }
    }
}

// One function per variant, so an elementwise loop can resolve the variant
// once outside the loop and call a branch-free body per element (see
// `SpikingLayer::backward`); `Surrogate::grad` is the same arithmetic.

/// [`Surrogate::Triangular`]'s `∂o/∂z`.
#[inline(always)]
pub(crate) fn triangular_grad(gamma: f32, z: f32) -> f32 {
    gamma * (1.0 - z.abs()).max(0.0)
}

/// [`Surrogate::Atan`]'s `∂o/∂z`.
#[inline(always)]
pub(crate) fn atan_grad(alpha: f32, z: f32) -> f32 {
    let s = std::f32::consts::FRAC_PI_2 * alpha * z;
    alpha / (2.0 * (1.0 + s * s))
}

/// [`Surrogate::Rectangular`]'s `∂o/∂z`.
#[inline(always)]
pub(crate) fn rectangular_grad(width: f32, z: f32) -> f32 {
    if z.abs() < width {
        1.0 / (2.0 * width)
    } else {
        0.0
    }
}

/// [`Surrogate::FastSigmoid`]'s `∂o/∂z`.
#[inline(always)]
pub(crate) fn fast_sigmoid_grad(alpha: f32, z: f32) -> f32 {
    let s = 1.0 / (1.0 + (-alpha * z).exp());
    alpha * s * (1.0 - s)
}

impl Default for Surrogate {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// The Heaviside step: `1.0` for `z > 0`, else `0.0` — the actual spike
/// function used in the forward pass (Eq. 1 of the paper).
#[inline(always)]
pub fn heaviside(z: f32) -> f32 {
    if z > 0.0 {
        1.0
    } else {
        0.0
    }
}

/// Logistic sigmoid, used by the PLIF neuron to keep the learnable membrane
/// decay in `(0, 1)`.
pub fn sigmoid(x: f32) -> f32 {
    1.0 / (1.0 + (-x).exp())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn heaviside_matches_paper_eq1() {
        assert_eq!(heaviside(0.5), 1.0);
        assert_eq!(heaviside(0.0), 0.0);
        assert_eq!(heaviside(-0.1), 0.0);
    }

    #[test]
    fn triangular_is_peaked_at_threshold_and_compactly_supported() {
        let s = Surrogate::Triangular { gamma: 2.0 };
        assert_eq!(s.grad(0.0), 2.0);
        assert_eq!(s.grad(0.5), 1.0);
        assert_eq!(s.grad(-0.5), 1.0);
        assert_eq!(s.grad(1.0), 0.0);
        assert_eq!(s.grad(-3.0), 0.0);
    }

    #[test]
    fn rectangular_window() {
        let s = Surrogate::Rectangular { width: 0.5 };
        assert_eq!(s.grad(0.0), 1.0);
        assert_eq!(s.grad(0.49), 1.0);
        assert_eq!(s.grad(0.51), 0.0);
    }

    #[test]
    fn fast_sigmoid_is_symmetric_and_positive() {
        let s = Surrogate::FastSigmoid { alpha: 4.0 };
        assert!((s.grad(0.3) - s.grad(-0.3)).abs() < 1e-6);
        assert!(s.grad(0.0) > s.grad(1.0));
        assert!(s.grad(2.0) > 0.0);
    }

    #[test]
    fn atan_has_unbounded_support_and_peaks_at_threshold() {
        let s = Surrogate::Atan { alpha: 2.0 };
        assert!((s.grad(0.0) - 1.0).abs() < 1e-6);
        assert!((s.grad(0.4) - s.grad(-0.4)).abs() < 1e-6);
        assert!(s.grad(0.0) > s.grad(1.0));
        assert!(s.grad(-1.0) > 0.05, "silent neurons still receive gradient");
        assert!(
            s.grad(5.0) > 0.0,
            "saturated neurons still receive gradient"
        );
    }

    #[test]
    fn default_is_reference_implementation_atan() {
        assert_eq!(Surrogate::default(), Surrogate::Atan { alpha: 2.0 });
        assert_eq!(Surrogate::default(), Surrogate::paper_default());
        assert_eq!(Surrogate::paper_eq2(), Surrogate::Triangular { gamma: 1.0 });
    }

    #[test]
    fn sigmoid_basic_values() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(10.0) > 0.999);
        assert!(sigmoid(-10.0) < 0.001);
    }
}
