//! Fully connected (dense) layer.

use crate::layers::{ForwardContext, Layer};
use crate::param::Param;
use crate::{Result, SnnError};
use falvolt_tensor::{init, ops, MatmulHint, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

/// A fully connected layer `y = x Wᵀ + b` over `[N, in_features]` inputs.
///
/// The weight is stored as `[out_features, in_features]` — the layout the
/// systolic array tiles, so the same fault-aware prune mask machinery used
/// for convolutions applies here unchanged.
///
/// # Example
///
/// ```
/// use falvolt_snn::layers::{ForwardContext, Layer, Linear, Mode};
/// use falvolt_snn::FloatBackend;
/// use falvolt_tensor::Tensor;
///
/// # fn main() -> Result<(), falvolt_snn::SnnError> {
/// let mut fc = Linear::new("fc1", 8, 3, 7)?;
/// let backend = FloatBackend::new();
/// let ctx = ForwardContext::new(Mode::Eval, &backend);
/// let out = fc.forward(&Tensor::zeros(&[4, 8]), &ctx)?;
/// assert_eq!(out.shape(), &[4, 3]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Linear {
    name: String,
    in_features: usize,
    out_features: usize,
    weight: Param,
    bias: Param,
    caches: Vec<Tensor>,
    // Transposed weight, keyed by the weight's edit version: recomputed only
    // when the weight actually changes instead of on every forward call (the
    // scenario axis evaluates the same frozen weights thousands of times).
    // Arc-shared so scenario views inherit it instead of deep-copying a
    // weight-sized buffer per worker.
    weight_t: Option<(u64, Arc<Tensor>)>,
}

impl Linear {
    /// Creates a fully connected layer with Kaiming-uniform weights.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] when either feature count is zero.
    pub fn new(
        name: impl Into<String>,
        in_features: usize,
        out_features: usize,
        seed: u64,
    ) -> Result<Self> {
        if in_features == 0 || out_features == 0 {
            return Err(SnnError::invalid_config("feature counts must be non-zero"));
        }
        let name = name.into();
        let mut rng = StdRng::seed_from_u64(seed);
        let weight = Param::new(
            format!("{name}.weight"),
            init::kaiming_uniform(out_features, in_features, &mut rng),
        );
        let bias = Param::new(format!("{name}.bias"), Tensor::zeros(&[out_features]));
        Ok(Self {
            name,
            in_features,
            out_features,
            weight,
            bias,
            caches: Vec::new(),
            weight_t: None,
        })
    }

    /// Number of input features.
    pub fn in_features(&self) -> usize {
        self.in_features
    }

    /// Number of output features.
    pub fn out_features(&self) -> usize {
        self.out_features
    }

    /// The `[out_features, in_features]` weight matrix.
    pub fn weight(&self) -> &Param {
        &self.weight
    }
}

impl Layer for Linear {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, ctx: &ForwardContext<'_>) -> Result<Tensor> {
        if input.ndim() != 2 || input.shape()[1] != self.in_features {
            return Err(SnnError::invalid_input(format!(
                "linear layer '{}' expects [N, {}] input, got shape {:?}",
                self.name,
                self.in_features,
                input.shape()
            )));
        }
        let weight_t =
            crate::layers::shared_weight_transpose(&self.weight, &mut self.weight_t, ctx.cache)?;
        let weight_t: &Tensor = &weight_t;
        // After a spiking layer (+ flatten) the input is a binary spike
        // matrix; let the backend's dispatcher probe it and pick the
        // event-driven kernel. Hints off pins the dense baseline.
        let hint = if ctx.spike_hints {
            MatmulHint::Auto
        } else {
            MatmulHint::Dense
        };
        // Prefix (scenario-invariant) products announce themselves so
        // sweep-batched backends can evaluate every scenario in one pass.
        let mut output = ctx
            .backend
            .matmul_request(
                crate::backend::MatmulRequest::new(input, weight_t)
                    .with_hint(hint)
                    .scenario_shared(ctx.shareable_input),
            )?
            .into_tensor();
        // Add the bias to every row.
        let bias = self.bias.value().data().to_vec();
        let out_features = self.out_features;
        let data = output.data_mut();
        for row in data.chunks_mut(out_features) {
            for (value, &b) in row.iter_mut().zip(&bias) {
                *value += b;
            }
        }
        if ctx.mode.is_train() {
            self.caches.push(input.clone());
        }
        Ok(output)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        self.accumulate_param_grads(grad_output)?;
        // grad_x = grad_y @ W.
        Ok(ops::matmul(grad_output, self.weight.value())?)
    }

    fn accumulate_param_grads(&mut self, grad_output: &Tensor) -> Result<()> {
        let input = self
            .caches
            .pop()
            .ok_or_else(|| SnnError::MissingForwardState {
                layer: self.name.clone(),
            })?;
        // grad_W = grad_yᵀ @ x, grad_b = Σ_rows grad_y.
        let grad_output_t = ops::transpose2d(grad_output)?;
        let grad_weight = ops::matmul(&grad_output_t, &input)?;
        self.weight.accumulate_grad(&grad_weight)?;
        let grad_bias = falvolt_tensor::reduce::sum_axis0(grad_output)?;
        self.bias.accumulate_grad(&grad_bias)?;
        Ok(())
    }

    fn reset_state(&mut self) {
        self.caches.clear();
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn weight_mut(&mut self) -> Option<&mut Param> {
        Some(&mut self.weight)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FloatBackend;
    use crate::layers::Mode;

    fn train_ctx(backend: &FloatBackend) -> ForwardContext<'_> {
        ForwardContext::new(Mode::Train, backend)
    }

    #[test]
    fn construction_validates() {
        assert!(Linear::new("fc", 0, 2, 0).is_err());
        assert!(Linear::new("fc", 2, 0, 0).is_err());
        let fc = Linear::new("fc", 3, 5, 0).unwrap();
        assert_eq!(fc.weight().value().shape(), &[5, 3]);
        assert_eq!(fc.in_features(), 3);
        assert_eq!(fc.out_features(), 5);
    }

    #[test]
    fn forward_computes_affine_map() {
        let backend = FloatBackend::new();
        let mut fc = Linear::new("fc", 2, 2, 0).unwrap();
        // Overwrite weights with a known matrix.
        fc.weight
            .value_mut()
            .data_mut()
            .copy_from_slice(&[1.0, 2.0, 3.0, 4.0]); // W = [[1,2],[3,4]]
        fc.bias.value_mut().data_mut().copy_from_slice(&[0.5, -0.5]);
        let ctx = train_ctx(&backend);
        let x = Tensor::from_vec(vec![1, 2], vec![1.0, 1.0]).unwrap();
        let y = fc.forward(&x, &ctx).unwrap();
        // y = x Wᵀ + b = [1+2, 3+4] + [0.5, -0.5] = [3.5, 6.5].
        assert_eq!(y.data(), &[3.5, 6.5]);
        assert!(fc.forward(&Tensor::zeros(&[1, 3]), &ctx).is_err());
    }

    #[test]
    fn backward_gradients_match_manual_computation() {
        let backend = FloatBackend::new();
        let mut fc = Linear::new("fc", 2, 1, 0).unwrap();
        fc.weight
            .value_mut()
            .data_mut()
            .copy_from_slice(&[2.0, -1.0]);
        let ctx = train_ctx(&backend);
        let x = Tensor::from_vec(vec![2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        fc.forward(&x, &ctx).unwrap();
        let grad_out = Tensor::from_vec(vec![2, 1], vec![1.0, 1.0]).unwrap();
        let grad_in = fc.backward(&grad_out).unwrap();
        // grad_W = grad_yᵀ x = [1+3, 2+4] = [4, 6]; grad_b = 2.
        assert_eq!(fc.weight.grad().data(), &[4.0, 6.0]);
        assert_eq!(fc.bias.grad().data(), &[2.0]);
        // grad_x = grad_y W = [[2, -1], [2, -1]].
        assert_eq!(grad_in.data(), &[2.0, -1.0, 2.0, -1.0]);
    }

    #[test]
    fn backward_requires_forward_cache() {
        let mut fc = Linear::new("fc", 2, 1, 0).unwrap();
        assert!(matches!(
            fc.backward(&Tensor::zeros(&[1, 1])),
            Err(SnnError::MissingForwardState { .. })
        ));
    }

    #[test]
    fn param_only_backward_matches_full_backward_bit_for_bit() {
        // Dispatch-sensitive: float outputs are compared bit-for-bit, so
        // hold off any concurrent test forcing a different dispatch ISA.
        let _lock = falvolt_tensor::simd::test_override_lock();
        let backend = FloatBackend::new();
        let mut full = Linear::new("fc", 7, 5, 4).unwrap();
        let mut param_only = full.clone();
        let ctx = train_ctx(&backend);
        for t in 0..3 {
            let x = Tensor::from_fn(&[4, 7], |i| ((i * 3 + t) as f32 * 0.61).sin());
            full.forward(&x, &ctx).unwrap();
            param_only.forward(&x, &ctx).unwrap();
        }
        for t in 0..3 {
            let g = Tensor::from_fn(&[4, 5], |i| ((i + 7 * t) as f32 * 1.3).cos() * 1e3);
            full.backward(&g).unwrap();
            param_only.accumulate_param_grads(&g).unwrap();
        }
        for (a, b) in full.params().into_iter().zip(param_only.params()) {
            let bits = |p: &Param| {
                p.grad()
                    .data()
                    .iter()
                    .map(|v| v.to_bits())
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(a), bits(b), "{}", a.name());
        }
        assert!(matches!(
            param_only.accumulate_param_grads(&Tensor::zeros(&[4, 5])),
            Err(SnnError::MissingForwardState { .. })
        ));
    }

    #[test]
    fn reset_state_and_weight_exposure() {
        let backend = FloatBackend::new();
        let mut fc = Linear::new("fc", 2, 2, 3).unwrap();
        let ctx = train_ctx(&backend);
        fc.forward(&Tensor::zeros(&[1, 2]), &ctx).unwrap();
        fc.reset_state();
        assert!(fc.backward(&Tensor::zeros(&[1, 2])).is_err());
        assert!(fc.weight_mut().is_some());
        assert_eq!(fc.params_mut().len(), 2);
        assert!(fc.threshold().is_none());
    }
}
