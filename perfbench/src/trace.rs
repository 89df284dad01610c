//! The benchmark's tracing layer: spans and counters recorded from the
//! benchmark's own code around calls into each crate's public functions.
//!
//! Nothing here changes what the library computes. [`TracedLayer`] wraps a
//! network layer and delegates every `Layer` method to it, and
//! [`TimingBackend`] wraps a matmul backend and delegates every call
//! (including `name` and `fingerprint`, so cache keys stay the same). The
//! wrappers only read the clock and bump counters.

use falvolt_snn::layers::{ForwardContext, Layer, Mode};
use falvolt_snn::{MatmulBackend, MatmulHint, MatmulOutput, MatmulRequest, Param, SpikingNetwork};
use falvolt_tensor::{Fingerprint, Tensor};
use std::cell::Cell;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

/// The matmul-issuing layers of the two benchmarked architectures (the
/// MNIST network uses the first three convolutions, the DVS-Gesture network
/// all six). Per-layer metrics are reported for the layers a workload's
/// network has ([`Trace::layers`]).
pub const LAYERS: [&str; 8] = [
    "encode_conv",
    "conv1",
    "conv2",
    "conv3",
    "conv4",
    "conv5",
    "fc1",
    "fc2",
];

/// Slot value meaning "no traced layer is running on this thread".
const NO_LAYER: usize = usize::MAX;

thread_local! {
    /// The traced layer whose forward call is running on this thread, so a
    /// [`TimingBackend`] can attribute the products that call issues.
    static CURRENT_LAYER: Cell<usize> = const { Cell::new(NO_LAYER) };
}

/// Identifier of a recorded span.
pub type SpanId = usize;

/// One recorded span: a named interval and the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span name (a layer-qualified operation, e.g. `core.scenario_eval`).
    pub name: &'static str,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Start, in seconds since the trace origin.
    pub start: f64,
    /// End, in seconds since the trace origin (`None` while open).
    pub end: Option<f64>,
}

impl Span {
    /// Duration in seconds (0 while the span is open).
    pub fn duration(&self) -> f64 {
        self.end.map_or(0.0, |end| end - self.start)
    }
}

/// Busy time, call count and event-operand count of one layer's products.
#[derive(Debug, Default)]
struct LayerCounters {
    nanos: AtomicU64,
    calls: AtomicU64,
    events: AtomicU64,
}

/// Per-layer product counters, one slot per entry of [`LAYERS`].
#[derive(Debug, Default)]
pub struct LayerStats {
    slots: [LayerCounters; LAYERS.len()],
}

/// Aggregate of one layer's products.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LayerTotals {
    /// Busy time in milliseconds, summed over threads.
    pub ms: f64,
    /// Products issued.
    pub calls: u64,
    /// Products whose left operand was a spike-event matrix.
    pub events: u64,
}

impl LayerStats {
    fn record(&self, slot: usize, nanos: u64, event: bool) {
        let Some(counters) = self.slots.get(slot) else {
            return;
        };
        // Relaxed: these are statistics and publish no other data.
        counters.nanos.fetch_add(nanos, Ordering::Relaxed);
        counters.calls.fetch_add(1, Ordering::Relaxed);
        if event {
            counters.events.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Totals of the layer named `layer` (zero for a name not in [`LAYERS`]).
    pub fn totals(&self, layer: &str) -> LayerTotals {
        LAYERS
            .iter()
            .position(|&l| l == layer)
            .map(|slot| {
                let c = &self.slots[slot];
                LayerTotals {
                    ms: c.nanos.load(Ordering::Relaxed) as f64 / 1e6,
                    calls: c.calls.load(Ordering::Relaxed),
                    events: c.events.load(Ordering::Relaxed),
                }
            })
            .unwrap_or_default()
    }
}

/// The trace of one benchmark run: spans, named counters and the per-layer
/// product statistics of the float and systolic backends.
#[derive(Debug)]
pub struct Trace {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Mutex<BTreeMap<&'static str, f64>>,
    /// Slots of [`LAYERS`] that [`Trace::instrument`] wrapped.
    instrumented: Mutex<Vec<usize>>,
    /// Products executed by the float backend (training and float eval).
    pub tensor: Arc<LayerStats>,
    /// Products executed by the unbatched systolic backend.
    pub systolic: Arc<LayerStats>,
}

impl Default for Trace {
    fn default() -> Self {
        Self::new()
    }
}

impl Trace {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            instrumented: Mutex::new(Vec::new()),
            tensor: Arc::new(LayerStats::default()),
            systolic: Arc::new(LayerStats::default()),
        }
    }

    fn now(&self) -> f64 {
        self.origin.elapsed().as_secs_f64()
    }

    /// Opens a span named `name` under `parent`.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>) -> SpanId {
        let start = self.now();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        spans.push(Span {
            name,
            parent,
            start,
            end: None,
        });
        spans.len() - 1
    }

    /// Closes span `id`.
    pub fn close(&self, id: SpanId) {
        let end = self.now();
        let mut spans = self.spans.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(span) = spans.get_mut(id) {
            span.end = Some(end);
        }
    }

    /// Runs `f` inside a span named `name` under `parent`.
    pub fn span<R>(&self, name: &'static str, parent: Option<SpanId>, f: impl FnOnce() -> R) -> R {
        let id = self.open(name, parent);
        let out = f();
        self.close(id);
        out
    }

    /// Adds `value` to the counter `name`.
    pub fn count(&self, name: &'static str, value: f64) {
        let mut counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        *counters.entry(name).or_insert(0.0) += value;
    }

    /// The counter `name` (0 when never counted).
    pub fn counter(&self, name: &str) -> f64 {
        let counters = self.counters.lock().unwrap_or_else(PoisonError::into_inner);
        counters.get(name).copied().unwrap_or(0.0)
    }

    /// A snapshot of every recorded span.
    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .clone()
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.spans()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .sum()
    }

    /// Wraps every matmul-issuing layer of `network` in a [`TracedLayer`]
    /// and installs a [`TimingBackend`] over its current backend. The
    /// wrapped network computes exactly what the original computes.
    pub fn instrument(&self, network: SpikingNetwork) -> SpikingNetwork {
        let mut traced = SpikingNetwork::new(network.time_steps());
        traced.set_engine_preset(network.engine_preset());
        traced.set_sweep_cache(network.sweep_cache().cloned());
        traced.set_backend(TimingBackend::shared(
            Arc::clone(network.backend()),
            Arc::clone(&self.tensor),
        ));
        let mut instrumented = self
            .instrumented
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        for layer in network.layers() {
            let inner = layer.clone_box();
            match LAYERS.iter().position(|&l| l == inner.name()) {
                Some(slot) => {
                    if !instrumented.contains(&slot) {
                        instrumented.push(slot);
                    }
                    traced.push(TracedLayer { inner, slot })
                }
                None => traced.push_boxed(inner),
            };
        }
        traced
    }

    /// Names of the [`LAYERS`] an instrumented network has, in
    /// [`LAYERS`] order.
    pub fn layers(&self) -> Vec<&'static str> {
        let instrumented = self
            .instrumented
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        LAYERS
            .iter()
            .enumerate()
            .filter(|(slot, _)| instrumented.contains(slot))
            .map(|(_, &name)| name)
            .collect()
    }
}

/// Self time of span `id`: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once).
pub fn self_time(spans: &[Span], id: SpanId) -> f64 {
    let Some(span) = spans.get(id) else {
        return 0.0;
    };
    let Some(end) = span.end else {
        return 0.0;
    };
    let mut covered: Vec<(f64, f64)> = spans
        .iter()
        .filter(|s| s.parent == Some(id))
        .filter_map(|s| {
            let (a, b) = (s.start.max(span.start), s.end?.min(end));
            (b > a).then_some((a, b))
        })
        .collect();
    covered.sort_by(|x, y| x.0.total_cmp(&y.0));
    let mut union = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (a, b) in covered {
        current = match current {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                union += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = current {
        union += cb - ca;
    }
    span.duration() - union
}

/// A layer wrapper that marks its forward calls as the current layer, so
/// the [`TimingBackend`] can attribute products to it. Every `Layer`
/// method delegates to the wrapped layer.
#[derive(Debug)]
pub struct TracedLayer {
    inner: Box<dyn Layer>,
    slot: usize,
}

impl Layer for TracedLayer {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(TracedLayer {
            inner: self.inner.clone_box(),
            slot: self.slot,
        })
    }

    fn forward(&mut self, input: &Tensor, ctx: &ForwardContext<'_>) -> falvolt_snn::Result<Tensor> {
        let previous = CURRENT_LAYER.with(|c| c.replace(self.slot));
        let out = self.inner.forward(input, ctx);
        CURRENT_LAYER.with(|c| c.set(previous));
        out
    }

    fn backward(&mut self, grad_output: &Tensor) -> falvolt_snn::Result<Tensor> {
        self.inner.backward(grad_output)
    }

    fn reset_state(&mut self) {
        self.inner.reset_state();
    }

    fn is_stateful(&self, mode: Mode) -> bool {
        self.inner.is_stateful(mode)
    }

    fn params_mut(&mut self) -> Vec<&mut Param> {
        self.inner.params_mut()
    }

    fn params(&self) -> Vec<&Param> {
        self.inner.params()
    }

    fn cache_fingerprint(&self, fp: &mut Fingerprint) {
        self.inner.cache_fingerprint(fp);
    }

    fn weight_mut(&mut self) -> Option<&mut Param> {
        self.inner.weight_mut()
    }

    fn threshold_mut(&mut self) -> Option<&mut Param> {
        self.inner.threshold_mut()
    }

    fn threshold(&self) -> Option<f32> {
        self.inner.threshold()
    }

    fn set_threshold_trainable(&mut self, trainable: bool) {
        self.inner.set_threshold_trainable(trainable);
    }
}

/// A matmul backend wrapper that times every product and attributes it to
/// the traced layer running on the calling thread.
#[derive(Debug)]
pub struct TimingBackend {
    inner: Arc<dyn MatmulBackend>,
    stats: Arc<LayerStats>,
}

impl TimingBackend {
    /// Wraps `inner`, recording into `stats`.
    pub fn shared(inner: Arc<dyn MatmulBackend>, stats: Arc<LayerStats>) -> Arc<dyn MatmulBackend> {
        Arc::new(Self { inner, stats })
    }
}

impl MatmulBackend for TimingBackend {
    fn matmul_request(&self, req: MatmulRequest<'_>) -> falvolt_tensor::Result<MatmulOutput> {
        let slot = CURRENT_LAYER.with(Cell::get);
        let event = req.hint() == MatmulHint::Spikes || req.a().spike_index().is_some();
        let started = Instant::now();
        let out = self.inner.matmul_request(req);
        let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.stats.record(slot, nanos, event);
        out
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn fingerprint(&self) -> u64 {
        self.inner.fingerprint()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<SpanId>, start: f64, end: f64) -> Span {
        Span {
            name,
            parent,
            start,
            end: Some(end),
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_children() {
        let spans = vec![
            span("campaign", None, 0.0, 10.0),
            span("a", Some(0), 1.0, 3.0),
            span("b", Some(0), 2.0, 4.0),  // overlaps a: union 1..4
            span("c", Some(0), 9.0, 12.0), // clipped to 9..10
            span("grandchild", Some(1), 1.0, 2.0),
            span("unrelated", None, 0.0, 10.0),
        ];
        let got = self_time(&spans, 0);
        assert!((got - (10.0 - 3.0 - 1.0)).abs() < 1e-12, "{got}");
        assert!((self_time(&spans, 1) - 1.0).abs() < 1e-12);
        assert_eq!(self_time(&spans, 5), 10.0);
    }
}
