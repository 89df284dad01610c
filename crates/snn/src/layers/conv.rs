//! 2-D convolution layer (im2col lowering, backend-executed matmul).
//!
//! # The static-input memo
//!
//! A training pass feeds a static (4-D) input to the first layer at every
//! one of its `T` steps: the same tensor, so the same content id. In
//! [`Mode::Train`](crate::layers::Mode::Train) the layer keeps its last
//! step's output and lowering (unless the input is an indexed spike frame,
//! which its spiking layer fires afresh at every step), keyed by the input's content id and shape,
//! the weight's and the bias's edit versions, the spike-hint switch and the
//! backend's fingerprint. A step whose key matches returns a clone of that
//! output and pushes the same (`Arc`-shared) lowering onto its tape instead
//! of lowering and multiplying again, so the layer lowers a static batch
//! once. The output is the same computation on the same operands, so every
//! bit is unchanged; backward still runs once per step, so gradient
//! accumulation is untouched. Temporal (5-D) inputs slice a fresh tensor,
//! with a fresh content id, at every step and never match. `reset_state`
//! clears the memo.

use crate::layers::{ForwardContext, Layer};
use crate::param::Param;
use crate::{Result, SnnError};
use falvolt_tensor::ops::{self, Conv2dDims};
use falvolt_tensor::{
    init, Fingerprint, MatmulHint, OperandProfile, SpikeIndex, StoreDecision, Tensor,
};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;

#[derive(Debug, Clone)]
struct StepCache {
    cols: SavedLowering,
    dims: Conv2dDims,
}

/// The lowering a training step keeps for its backward pass: only the CSR
/// index when the input was an indexed spike frame (the `{0, 1}` matrix is
/// dropped after the forward product), the dense matrix otherwise (the
/// encoder's analog input).
#[derive(Debug, Clone)]
enum SavedLowering {
    Dense(Arc<Tensor>),
    Spikes(Arc<SpikeIndex>),
}

impl SavedLowering {
    fn keep(cols: Tensor) -> Self {
        match cols.spike_index() {
            Some(index) => SavedLowering::Spikes(Arc::clone(index)),
            None => SavedLowering::Dense(Arc::new(cols)),
        }
    }

    fn lowering(&self) -> ops::Lowering<'_> {
        match self {
            SavedLowering::Dense(cols) => ops::Lowering::Dense(cols),
            SavedLowering::Spikes(index) => ops::Lowering::Spikes(index),
        }
    }
}

/// The last training step's output and lowering (see the module docs).
#[derive(Debug, Clone)]
struct StepMemo {
    key: MemoKey,
    output: Tensor,
    cols: SavedLowering,
}

/// What a training step's output depends on besides the layer geometry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct MemoKey {
    input: u64,
    dims: Conv2dDims,
    weight_version: u64,
    bias_version: u64,
    spike_hints: bool,
    backend: u64,
}

/// A 2-D convolution over `[N, C, H, W]` inputs with square kernels.
///
/// The weight is stored in the `[out_channels, in_channels * k * k]` matrix
/// layout — the same matrix the systolic array tiles over its PEs, which is
/// what makes fault-aware pruning of this layer straightforward.
///
/// # Example
///
/// ```
/// use falvolt_snn::layers::{Conv2d, ForwardContext, Layer, Mode};
/// use falvolt_snn::FloatBackend;
/// use falvolt_tensor::Tensor;
///
/// # fn main() -> Result<(), falvolt_snn::SnnError> {
/// let mut conv = Conv2d::new("conv1", 1, 4, 3, 1, 1, 42)?;
/// let backend = FloatBackend::new();
/// let ctx = ForwardContext::new(Mode::Eval, &backend);
/// let out = conv.forward(&Tensor::zeros(&[2, 1, 8, 8]), &ctx)?;
/// assert_eq!(out.shape(), &[2, 4, 8, 8]);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct Conv2d {
    name: String,
    in_channels: usize,
    out_channels: usize,
    kernel: usize,
    stride: usize,
    padding: usize,
    weight: Param,
    bias: Param,
    caches: Vec<StepCache>,
    // Transposed weight keyed by the weight's edit version (see `Linear`).
    // Arc-shared so scenario views inherit it instead of deep-copying a
    // weight-sized buffer per worker.
    weight_t: Option<(u64, Arc<Tensor>)>,
    memo: Option<StepMemo>,
}

impl Conv2d {
    /// Creates a convolution layer with Kaiming-uniform initialised weights.
    ///
    /// # Errors
    ///
    /// Returns [`SnnError::InvalidConfig`] for zero-sized channels, kernel or
    /// stride.
    pub fn new(
        name: impl Into<String>,
        in_channels: usize,
        out_channels: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
        seed: u64,
    ) -> Result<Self> {
        if in_channels == 0 || out_channels == 0 {
            return Err(SnnError::invalid_config("channel counts must be non-zero"));
        }
        if kernel == 0 || stride == 0 {
            return Err(SnnError::invalid_config(
                "kernel and stride must be non-zero",
            ));
        }
        let name = name.into();
        let fan_in = in_channels * kernel * kernel;
        let mut rng = StdRng::seed_from_u64(seed);
        let weight = Param::new(
            format!("{name}.weight"),
            init::kaiming_uniform(out_channels, fan_in, &mut rng),
        );
        let bias = Param::new(format!("{name}.bias"), Tensor::zeros(&[out_channels]));
        Ok(Self {
            name,
            in_channels,
            out_channels,
            kernel,
            stride,
            padding,
            weight,
            bias,
            caches: Vec::new(),
            weight_t: None,
            memo: None,
        })
    }

    /// Number of input channels.
    pub fn in_channels(&self) -> usize {
        self.in_channels
    }

    /// Number of output channels.
    pub fn out_channels(&self) -> usize {
        self.out_channels
    }

    /// The `[out_channels, in_channels * k * k]` weight matrix.
    pub fn weight(&self) -> &Param {
        &self.weight
    }

    fn pop_cache(&mut self) -> Result<StepCache> {
        self.caches
            .pop()
            .ok_or_else(|| SnnError::MissingForwardState {
                layer: self.name.clone(),
            })
    }

    fn dims_for(&self, input: &Tensor) -> Result<Conv2dDims> {
        if input.ndim() != 4 {
            return Err(SnnError::invalid_input(format!(
                "conv layer '{}' expects [N, C, H, W] input, got shape {:?}",
                self.name,
                input.shape()
            )));
        }
        if input.shape()[1] != self.in_channels {
            return Err(SnnError::invalid_input(format!(
                "conv layer '{}' expects {} input channels, got {}",
                self.name,
                self.in_channels,
                input.shape()[1]
            )));
        }
        Ok(Conv2dDims::new(
            input.shape()[0],
            self.in_channels,
            self.out_channels,
            input.shape()[2],
            input.shape()[3],
            self.kernel,
            self.stride,
            self.padding,
        )?)
    }
}

impl Layer for Conv2d {
    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, input: &Tensor, ctx: &ForwardContext<'_>) -> Result<Tensor> {
        let dims = self.dims_for(input)?;
        // A spike frame is fired afresh at every step, so it never repeats:
        // only other inputs are memoised.
        let memoise = ctx.mode.is_train() && input.spike_index().is_none();
        let memo_key = memoise.then(|| MemoKey {
            input: input.content_id(),
            dims,
            weight_version: self.weight.version(),
            bias_version: self.bias.version(),
            spike_hints: ctx.spike_hints,
            backend: ctx.backend.fingerprint(),
        });
        if let Some(memo) = self.memo.as_ref().filter(|m| Some(m.key) == memo_key) {
            self.caches.push(StepCache {
                cols: memo.cols.clone(),
                dims,
            });
            return Ok(memo.output.clone());
        }
        // A spike input carrying a CSR index costs O(1) to profile (the
        // index certifies binariness and carries the nonzero count);
        // otherwise probe the input once (O(len), negligible next to the
        // product). With hints disabled everything is pinned dense.
        let index = input
            .spike_index()
            .filter(|ix| ix.rows() == dims.batch * dims.in_channels * dims.in_h);
        let profile = if !ctx.spike_hints {
            OperandProfile::dense()
        } else if let Some(index) = index {
            OperandProfile {
                density: index.density(),
                binary: true,
            }
        } else {
            OperandProfile::measure(input.data())
        };
        // The im2col lowering is a pure function of the input and the conv
        // geometry — in particular it is *backend-independent*, so scenario
        // sweeps evaluating many fault maps on the same input batch lower it
        // once and share it through the sweep cache (training passes own
        // their cols tensor and never cache). The key uses the input's
        // content id: O(1) per consult instead of hashing the batch.
        // Only scenario-invariant (prefix) inputs consult the shared store:
        // suffix inputs are per-scenario, per-step tensors whose freshly
        // minted content ids can never produce a second sighting, so their
        // lookups would be pure lock traffic and dead Pending markers.
        let mut local_cols: Option<Tensor> = None;
        let mut shared_cols: Option<Arc<Tensor>> = None;
        // Whether the lowering every worker keys its products on is the
        // store's: one computed while another worker's is in flight carries
        // a content id no other worker will ever see.
        let mut store_cols = false;
        match ctx.cache {
            Some(cache) if !ctx.mode.is_train() && ctx.shareable_input => {
                let geom = dims.geom();
                let mut fp = Fingerprint::new();
                fp.write_str("im2col");
                fp.write_dims(&[
                    geom.batch,
                    geom.channels,
                    geom.in_h,
                    geom.in_w,
                    geom.kernel,
                    geom.stride,
                    geom.padding,
                ]);
                fp.write_u64(input.content_id());
                let key = fp.finish();
                // Prefix inputs are scenario-invariant by construction, so
                // their lowerings promote on first sighting — the first
                // worker's cols (and their content id) become the shared
                // operand every later worker keys its products on.
                match cache.lookup_lowered_eager(key) {
                    StoreDecision::Hit(hit) => {
                        shared_cols = Some(hit);
                        store_cols = true;
                    }
                    decision => {
                        let promoted = matches!(decision, StoreDecision::Compute);
                        store_cols = promoted;
                        let computed = match ops::im2col_with_profile(input, &dims, profile) {
                            Ok(cols) => Arc::new(cols),
                            Err(e) => {
                                // Release the in-flight slot so the key is
                                // not dead for the rest of the sweep.
                                if promoted {
                                    cache.abandon_lowered(key);
                                }
                                return Err(e.into());
                            }
                        };
                        if promoted {
                            cache.fulfill_lowered(key, Arc::clone(&computed));
                        }
                        shared_cols = Some(computed);
                    }
                }
            }
            _ => local_cols = Some(ops::im2col_with_profile(input, &dims, profile)?),
        }
        let cols: &Tensor = shared_cols
            .as_deref()
            .or(local_cols.as_ref())
            .expect("one lowering path taken above");
        let weight_t =
            crate::layers::shared_weight_transpose(&self.weight, &mut self.weight_t, ctx.cache)?;
        let weight_t: &Tensor = &weight_t;
        let hint = if !ctx.spike_hints {
            MatmulHint::Dense
        } else if profile.binary {
            // im2col preserves binariness (it only copies pixels and pads
            // with zeros), so the lowered matrix is a spike matrix too.
            MatmulHint::Spikes
        } else {
            MatmulHint::Auto
        };
        // Prefix products on the store's lowering are scenario-invariant by
        // construction: tell the backend, so sweep-batched backends evaluate
        // every fault scenario in one pass on the first request. A private
        // lowering makes no claim: a batch keyed on its id would serve this
        // worker alone, at the cost of one product per scenario.
        let rows = ctx
            .backend
            .matmul_request(
                crate::backend::MatmulRequest::new(cols, weight_t)
                    .with_hint(hint)
                    .scenario_shared(store_cols),
            )?
            .into_tensor();
        let mut feature_map = ops::rows_to_feature_map(&rows, &dims)?;
        ops::add_channel_bias(&mut feature_map, self.bias.value())?;
        if ctx.mode.is_train() {
            let cols = SavedLowering::keep(local_cols.expect("training lowers locally"));
            self.caches.push(StepCache {
                cols: cols.clone(),
                dims,
            });
            self.memo = memo_key.map(|key| StepMemo {
                key,
                output: feature_map.clone(),
                cols,
            });
        }
        Ok(feature_map)
    }

    fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor> {
        let cache = self.pop_cache()?;
        let grads = ops::conv2d_backward(
            grad_output,
            cache.cols.lowering(),
            self.weight.value(),
            &cache.dims,
        )?;
        self.weight.accumulate_grad(&grads.grad_weight)?;
        self.bias.accumulate_grad(&grads.grad_bias)?;
        Ok(grads.grad_input)
    }

    fn accumulate_param_grads(&mut self, grad_output: &Tensor) -> Result<()> {
        // Skips the input gradient and its `grad_rows @ W` product.
        let cache = self.pop_cache()?;
        let (grad_weight, grad_bias) =
            ops::conv2d_param_grads(grad_output, cache.cols.lowering(), &cache.dims)?;
        self.weight.accumulate_grad(&grad_weight)?;
        self.bias.accumulate_grad(&grad_bias)?;
        Ok(())
    }

    fn reset_state(&mut self) {
        self.caches.clear();
        self.memo = None;
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        vec![&mut self.weight, &mut self.bias]
    }

    fn params(&self) -> Vec<&Param> {
        vec![&self.weight, &self.bias]
    }

    fn cache_fingerprint(&self, fp: &mut falvolt_tensor::Fingerprint) {
        fp.write_str(self.name());
        // The convolution geometry changes the output independently of the
        // weight contents (the weight shape fixes channels and kernel, but
        // not stride or padding).
        fp.write_dims(&[
            self.in_channels,
            self.out_channels,
            self.kernel,
            self.stride,
            self.padding,
        ]);
        for param in [&self.weight, &self.bias] {
            fp.write_dims(param.value().shape());
            fp.write_f32s(param.value().data());
        }
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
    use crate::SweepCache;

    fn train_ctx(backend: &FloatBackend) -> ForwardContext<'_> {
        ForwardContext::new(Mode::Train, backend)
    }

    #[test]
    fn construction_validates_arguments() {
        assert!(Conv2d::new("c", 0, 4, 3, 1, 1, 0).is_err());
        assert!(Conv2d::new("c", 1, 0, 3, 1, 1, 0).is_err());
        assert!(Conv2d::new("c", 1, 4, 0, 1, 1, 0).is_err());
        assert!(Conv2d::new("c", 1, 4, 3, 0, 1, 0).is_err());
        let c = Conv2d::new("c", 2, 4, 3, 1, 1, 0).unwrap();
        assert_eq!(c.weight().value().shape(), &[4, 18]);
        assert_eq!(c.in_channels(), 2);
        assert_eq!(c.out_channels(), 4);
    }

    #[test]
    fn forward_shape_and_input_validation() {
        let backend = FloatBackend::new();
        let mut conv = Conv2d::new("c", 2, 8, 3, 1, 1, 1).unwrap();
        let ctx = train_ctx(&backend);
        let out = conv.forward(&Tensor::zeros(&[3, 2, 6, 6]), &ctx).unwrap();
        assert_eq!(out.shape(), &[3, 8, 6, 6]);
        assert!(conv.forward(&Tensor::zeros(&[3, 1, 6, 6]), &ctx).is_err());
        assert!(conv.forward(&Tensor::zeros(&[3, 6, 6]), &ctx).is_err());
    }

    #[test]
    fn backward_consumes_cache_in_reverse_and_errors_when_empty() {
        let backend = FloatBackend::new();
        let mut conv = Conv2d::new("c", 1, 2, 3, 1, 1, 2).unwrap();
        let ctx = train_ctx(&backend);
        conv.forward(&Tensor::ones(&[1, 1, 4, 4]), &ctx).unwrap();
        conv.forward(&Tensor::ones(&[1, 1, 4, 4]), &ctx).unwrap();
        assert!(conv.backward(&Tensor::ones(&[1, 2, 4, 4])).is_ok());
        assert!(conv.backward(&Tensor::ones(&[1, 2, 4, 4])).is_ok());
        assert!(matches!(
            conv.backward(&Tensor::ones(&[1, 2, 4, 4])),
            Err(SnnError::MissingForwardState { .. })
        ));
    }

    #[test]
    fn eval_mode_keeps_no_cache() {
        let backend = FloatBackend::new();
        let mut conv = Conv2d::new("c", 1, 2, 3, 1, 1, 2).unwrap();
        let ctx = ForwardContext::new(Mode::Eval, &backend);
        conv.forward(&Tensor::ones(&[1, 1, 4, 4]), &ctx).unwrap();
        assert!(conv.backward(&Tensor::ones(&[1, 2, 4, 4])).is_err());
    }

    #[test]
    fn gradients_accumulate_across_time_steps() {
        let backend = FloatBackend::new();
        let mut conv = Conv2d::new("c", 1, 1, 1, 1, 0, 3).unwrap();
        let ctx = train_ctx(&backend);
        let x = Tensor::ones(&[1, 1, 2, 2]);
        conv.forward(&x, &ctx).unwrap();
        conv.forward(&x, &ctx).unwrap();
        conv.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        let g1 = conv.weight.grad().data()[0];
        conv.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        let g2 = conv.weight.grad().data()[0];
        assert!((g2 - 2.0 * g1).abs() < 1e-5, "second step doubles the grad");
        // Bias gradient counts output positions: 4 per step.
        assert!((conv.bias.grad().data()[0] - 8.0).abs() < 1e-5);
    }

    #[test]
    fn weight_gradient_matches_finite_difference_through_layer() {
        let backend = FloatBackend::new();
        let mut conv = Conv2d::new("c", 1, 1, 2, 1, 0, 5).unwrap();
        let ctx = train_ctx(&backend);
        let x = Tensor::from_fn(&[1, 1, 3, 3], |i| (i as f32 * 0.7).sin());
        conv.forward(&x, &ctx).unwrap();
        conv.backward(&Tensor::ones(&[1, 1, 2, 2])).unwrap();
        let analytic = conv.weight.grad().data().to_vec();

        let eps = 1e-3;
        #[allow(clippy::needless_range_loop)] // wi indexes three parallel buffers
        for wi in 0..conv.weight.value().len() {
            for (sign, store) in [(1.0f32, 0usize), (-1.0, 1)] {
                let _ = store;
                let mut perturbed = Conv2d::new("c", 1, 1, 2, 1, 0, 5).unwrap();
                perturbed
                    .weight
                    .value_mut()
                    .data_mut()
                    .copy_from_slice(conv.weight.value().data());
                perturbed.weight.value_mut().data_mut()[wi] += sign * eps;
                let out = perturbed
                    .forward(&x, &ForwardContext::new(Mode::Eval, &backend))
                    .unwrap();
                let loss: f32 = out.data().iter().sum();
                if sign > 0.0 {
                    // store plus-loss in a thread-local-free way: recompute below
                    let mut minus = Conv2d::new("c", 1, 1, 2, 1, 0, 5).unwrap();
                    minus
                        .weight
                        .value_mut()
                        .data_mut()
                        .copy_from_slice(conv.weight.value().data());
                    minus.weight.value_mut().data_mut()[wi] -= eps;
                    let lm: f32 = minus
                        .forward(&x, &ForwardContext::new(Mode::Eval, &backend))
                        .unwrap()
                        .data()
                        .iter()
                        .sum();
                    let numeric = (loss - lm) / (2.0 * eps);
                    assert!(
                        (numeric - analytic[wi]).abs() < 1e-2,
                        "weight {wi}: numeric {numeric} vs analytic {}",
                        analytic[wi]
                    );
                }
            }
        }
    }

    #[test]
    fn param_only_backward_matches_full_backward_bit_for_bit() {
        // Dispatch-sensitive: float outputs are compared bit-for-bit, so
        // hold off any concurrent test forcing a different dispatch ISA.
        let _lock = falvolt_tensor::simd::test_override_lock();
        let backend = FloatBackend::new();
        let mut full = Conv2d::new("c", 2, 3, 3, 2, 1, 11).unwrap();
        let mut param_only = full.clone();
        let ctx = train_ctx(&backend);
        let steps: Vec<Tensor> = (0..2)
            .map(|t| Tensor::from_fn(&[2, 2, 7, 6], |i| ((i * 7 + t) as f32 * 0.37).sin()))
            .collect();
        for x in &steps {
            full.forward(x, &ctx).unwrap();
            param_only.forward(x, &ctx).unwrap();
        }
        for t in 0..2 {
            let g = Tensor::from_fn(&[2, 3, 4, 3], |i| ((i + 5 * t) as f32 * 0.91).cos() * 1e3);
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
            param_only.accumulate_param_grads(&Tensor::ones(&[2, 3, 4, 3])),
            Err(SnnError::MissingForwardState { .. })
        ));
    }

    #[test]
    fn reset_state_clears_caches() {
        let backend = FloatBackend::new();
        let mut conv = Conv2d::new("c", 1, 2, 3, 1, 1, 2).unwrap();
        let ctx = train_ctx(&backend);
        conv.forward(&Tensor::ones(&[1, 1, 4, 4]), &ctx).unwrap();
        conv.reset_state();
        assert!(conv.backward(&Tensor::ones(&[1, 2, 4, 4])).is_err());
    }

    #[test]
    fn a_prefix_product_claims_sharing_only_on_the_stores_lowering() {
        /// Records the scenario-sharing claim of every request.
        #[derive(Debug, Default)]
        struct Claims(std::sync::Mutex<Vec<bool>>);
        impl crate::backend::MatmulBackend for Claims {
            fn matmul_request(
                &self,
                req: crate::backend::MatmulRequest<'_>,
            ) -> falvolt_tensor::Result<crate::backend::MatmulOutput> {
                self.0
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(req.is_scenario_shared());
                ops::matmul(req.a(), req.b()).map(crate::backend::MatmulOutput::new)
            }
        }
        let claims = |cache: Option<&SweepCache>| {
            let backend = Claims::default();
            let ctx = ForwardContext::new(Mode::Eval, &backend)
                .with_cache(cache)
                .with_shareable_input(true);
            let mut conv = Conv2d::new("c", 1, 2, 3, 1, 1, 4).unwrap();
            let input = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32 * 0.1);
            conv.forward(&input, &ctx).unwrap();
            conv.forward(&input, &ctx).unwrap();
            backend
                .0
                .into_inner()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
        };
        // Promoted on the first call, served from the store on the second.
        assert_eq!(claims(Some(&SweepCache::new())), [true, true]);
        // A store with no room (as with a key in flight on another worker)
        // leaves each call its own lowering, keyed on an id no other worker
        // sees; so does having no store.
        assert_eq!(claims(Some(&SweepCache::with_capacity(0))), [false, false]);
        assert_eq!(claims(None), [false, false]);
    }

    #[test]
    fn exposes_prunable_weight() {
        let mut conv = Conv2d::new("c", 2, 4, 3, 1, 1, 9).unwrap();
        assert!(conv.weight_mut().is_some());
        assert_eq!(conv.weight_mut().unwrap().value().shape(), &[4, 18]);
        assert!(conv.threshold_mut().is_none());
        assert_eq!(conv.params_mut().len(), 2);
    }

    /// Counts the products a layer issues.
    #[derive(Debug, Default)]
    struct CountingBackend(std::sync::atomic::AtomicUsize);

    impl crate::backend::MatmulBackend for CountingBackend {
        fn matmul_request(
            &self,
            req: crate::backend::MatmulRequest<'_>,
        ) -> falvolt_tensor::Result<crate::backend::MatmulOutput> {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            FloatBackend::new().matmul_request(req)
        }
    }

    fn grad_bits(conv: &Conv2d) -> Vec<Vec<u32>> {
        conv.params()
            .iter()
            .map(|p| p.grad().data().iter().map(|v| v.to_bits()).collect())
            .collect()
    }

    #[test]
    fn a_static_training_input_is_lowered_once_per_batch_with_unchanged_bits() {
        let _lock = falvolt_tensor::simd::test_override_lock();
        let steps = 4;
        let input = Tensor::from_fn(&[3, 1, 16, 16], |i| ((i * 13) % 17) as f32 * 0.11 - 0.4);
        let grads: Vec<Tensor> = (0..steps)
            .map(|t| Tensor::from_fn(&[3, 8, 16, 16], |i| ((i + 31 * t) as f32 * 0.37).sin()))
            .collect();
        let run = |fresh_per_step: bool| {
            let backend = CountingBackend::default();
            let ctx = ForwardContext::new(Mode::Train, &backend);
            let mut conv = Conv2d::new("encode_conv", 1, 8, 3, 1, 1, 21).unwrap();
            let mut outputs = Vec::new();
            for _ in 0..steps {
                // A fresh copy carries a fresh content id, so it never
                // matches the previous step's.
                let step_input = if fresh_per_step {
                    input.map(|v| v)
                } else {
                    input.clone()
                };
                let out = conv.forward(&step_input, &ctx).unwrap();
                outputs.push(out.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>());
            }
            for g in grads.iter().rev() {
                conv.backward(g).unwrap();
            }
            let products = backend.0.load(std::sync::atomic::Ordering::Relaxed);
            (outputs, grad_bits(&conv), products)
        };
        let (memo_out, memo_grads, memo_products) = run(false);
        let (plain_out, plain_grads, plain_products) = run(true);
        assert_eq!(memo_products, 1, "one lowering and product for the batch");
        assert_eq!(plain_products, steps);
        assert_eq!(memo_out, plain_out);
        assert_eq!(memo_grads, plain_grads);
    }

    #[test]
    fn the_memo_misses_after_a_weight_edit_or_a_reset() {
        let backend = CountingBackend::default();
        let ctx = ForwardContext::new(Mode::Train, &backend);
        let count = || backend.0.load(std::sync::atomic::Ordering::Relaxed);
        let mut conv = Conv2d::new("c", 1, 2, 3, 1, 1, 2).unwrap();
        let x = Tensor::from_fn(&[1, 1, 4, 4], |i| i as f32 * 0.1);
        conv.forward(&x, &ctx).unwrap();
        conv.forward(&x, &ctx).unwrap();
        assert_eq!(count(), 1);
        conv.weight.value_mut().data_mut()[0] += 1.0;
        let edited = conv.forward(&x, &ctx).unwrap();
        assert_eq!(count(), 2);
        conv.bias.value_mut().data_mut()[1] += 1.0;
        let rebiased = conv.forward(&x, &ctx).unwrap();
        assert_eq!(count(), 3);
        assert_ne!(edited, rebiased);
        conv.reset_state();
        conv.forward(&x, &ctx).unwrap();
        assert_eq!(count(), 4);
        // Evaluation never memoises.
        let eval = ForwardContext::new(Mode::Eval, &backend);
        conv.forward(&x, &eval).unwrap();
        conv.forward(&x, &eval).unwrap();
        assert_eq!(count(), 6);
    }
}
