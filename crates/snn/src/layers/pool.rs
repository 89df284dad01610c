//! Average and max pooling layers.

use crate::layers::{ForwardContext, Layer};
use crate::{Result, SnnError};
use falvolt_tensor::{ops, Tensor};

/// Non-overlapping average pooling with a square window.
///
/// Bench-only: no paper architecture builds it (every
/// [`crate::config::ArchitectureConfig`] pools with [`MaxPool2d`]). It
/// survives for the bench network behind the gated `*_pool_32x32` entries
/// of the kernel bench (`crates/bench/benches/kernels.rs`).
///
/// # Example
///
/// ```
/// use falvolt_snn::layers::{AvgPool2d, ForwardContext, Layer, Mode};
/// use falvolt_snn::FloatBackend;
/// use falvolt_tensor::Tensor;
///
/// # fn main() -> Result<(), falvolt_snn::SnnError> {
/// let mut pool = AvgPool2d::new("pool1", 2);
/// let backend = FloatBackend::new();
/// let ctx = ForwardContext::new(Mode::Eval, &backend);
/// let out = pool.forward(&Tensor::ones(&[1, 3, 8, 8]), &ctx)?;
/// assert_eq!(out.shape(), &[1, 3, 4, 4]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct AvgPool2d {
    name: String,
    kernel: usize,
    caches: Vec<Vec<usize>>,
}

impl AvgPool2d {
    /// Creates an average-pooling layer with window and stride `kernel`.
    pub fn new(name: impl Into<String>, kernel: usize) -> Self {
        Self {
            name: name.into(),
            kernel,
            caches: Vec::new(),
        }
    }

    /// The pooling window size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }
}

impl Layer for AvgPool2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, ctx: &ForwardContext<'_>) -> Result<Tensor> {
        let output = ops::avg_pool2d_forward(input, self.kernel)?;
        if ctx.mode.is_train() {
            self.caches.push(input.shape().to_vec());
        }
        Ok(output)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let shape = self
            .caches
            .pop()
            .ok_or_else(|| SnnError::MissingForwardState {
                layer: self.name.clone(),
            })?;
        Ok(ops::avg_pool2d_backward(grad_output, &shape, self.kernel)?)
    }

    fn reset_state(&mut self) {
        self.caches.clear();
    }

    fn cache_fingerprint(&self, fp: &mut falvolt_tensor::Fingerprint) {
        // The window size is the layer's only result-changing configuration.
        fp.write_str(self.name());
        fp.write_usize(self.kernel);
    }
}

/// Non-overlapping max pooling with a square window.
#[derive(Debug, Clone)]
pub struct MaxPool2d {
    name: String,
    kernel: usize,
    caches: Vec<(Vec<usize>, Vec<usize>)>,
}

impl MaxPool2d {
    /// Creates a max-pooling layer with window and stride `kernel`.
    pub fn new(name: impl Into<String>, kernel: usize) -> Self {
        Self {
            name: name.into(),
            kernel,
            caches: Vec::new(),
        }
    }

    /// The pooling window size.
    pub fn kernel(&self) -> usize {
        self.kernel
    }
}

impl Layer for MaxPool2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, ctx: &ForwardContext<'_>) -> Result<Tensor> {
        let (mut output, argmax) = ops::max_pool2d_forward(input, self.kernel)?;
        // Max pooling preserves the binary amplitude of spikes, so a spike
        // input yields a spike output: re-index it (one O(len) scan of the
        // smaller pooled tensor) to keep the event stream flowing into the
        // next convolution block (in training too: its index is all that
        // convolution keeps for its weight gradient).
        if input.spike_index().is_some() {
            if let Some(cols) = output.shape().last().copied().filter(|&c| c > 0) {
                if let Some(index) = falvolt_tensor::SpikeIndex::from_dense(output.data(), cols) {
                    output.attach_spike_index(std::sync::Arc::new(index));
                }
            }
        }
        if ctx.mode.is_train() {
            self.caches.push((input.shape().to_vec(), argmax));
        }
        Ok(output)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let (shape, argmax) = self
            .caches
            .pop()
            .ok_or_else(|| SnnError::MissingForwardState {
                layer: self.name.clone(),
            })?;
        Ok(ops::max_pool2d_backward(grad_output, &shape, &argmax)?)
    }

    fn reset_state(&mut self) {
        self.caches.clear();
    }

    fn cache_fingerprint(&self, fp: &mut falvolt_tensor::Fingerprint) {
        // The window size is the layer's only result-changing configuration.
        fp.write_str(self.name());
        fp.write_usize(self.kernel);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::FloatBackend;
    use crate::layers::Mode;

    #[test]
    fn avg_pool_forward_backward_roundtrip() {
        let backend = FloatBackend::new();
        let mut pool = AvgPool2d::new("avg", 2);
        let ctx = ForwardContext::new(Mode::Train, &backend);
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32);
        let y = pool.forward(&x, &ctx).unwrap();
        assert_eq!(y.shape(), &[1, 1, 2, 2]);
        assert_eq!(y.get(&[0, 0, 0, 0]), (0.0 + 1.0 + 4.0 + 5.0) / 4.0);
        let g = pool.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        assert!(g.data().iter().all(|&v| (v - 0.25).abs() < 1e-6));
        assert!(pool.backward(&Tensor::ones(&[1, 1, 2, 2])).is_err());
        assert_eq!(pool.kernel(), 2);
    }

    #[test]
    fn max_pool_routes_gradient_to_maxima() {
        let backend = FloatBackend::new();
        let mut pool = MaxPool2d::new("max", 2);
        let ctx = ForwardContext::new(Mode::Train, &backend);
        let x = Tensor::from_vec(vec![1, 1, 2, 2], vec![0.1, 0.9, 0.3, 0.2]).unwrap();
        let y = pool.forward(&x, &ctx).unwrap();
        assert_eq!(y.data(), &[0.9]);
        let g = pool.backward(&Tensor::ones(&[1, 1, 1, 1])).unwrap();
        assert_eq!(g.data(), &[0.0, 1.0, 0.0, 0.0]);
        assert_eq!(pool.kernel(), 2);
    }

    #[test]
    fn eval_mode_keeps_no_cache_and_reset_clears() {
        let backend = FloatBackend::new();
        let mut pool = AvgPool2d::new("avg", 2);
        let eval = ForwardContext::new(Mode::Eval, &backend);
        pool.forward(&Tensor::ones(&[1, 1, 4, 4]), &eval).unwrap();
        assert!(pool.backward(&Tensor::ones(&[1, 1, 2, 2])).is_err());

        let train = ForwardContext::new(Mode::Train, &backend);
        pool.forward(&Tensor::ones(&[1, 1, 4, 4]), &train).unwrap();
        pool.reset_state();
        assert!(pool.backward(&Tensor::ones(&[1, 1, 2, 2])).is_err());

        let mut mp = MaxPool2d::new("max", 2);
        mp.forward(&Tensor::ones(&[1, 1, 4, 4]), &train).unwrap();
        mp.reset_state();
        assert!(mp.backward(&Tensor::ones(&[1, 1, 2, 2])).is_err());
    }

    #[test]
    fn invalid_spatial_size_is_rejected() {
        let backend = FloatBackend::new();
        let mut pool = AvgPool2d::new("avg", 2);
        let ctx = ForwardContext::new(Mode::Eval, &backend);
        assert!(pool.forward(&Tensor::ones(&[1, 1, 5, 5]), &ctx).is_err());
    }
}
