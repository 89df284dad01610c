//! Figure 6 — per-layer threshold voltages learned by FalVolt at 10% / 30% /
//! 60% faulty PEs.
//!
//! Prints the Figures 6 & 7 report once (the learned thresholds are its
//! second table), then benchmarks the threshold-gradient kernel
//! (spiking-layer backward pass with a trainable threshold).

use criterion::{criterion_group, criterion_main, Criterion};
use falvolt::figures::Figure;
use falvolt_bench::print_figure;
use falvolt_snn::layers::{ForwardContext, Layer, Mode, SpikingLayer};
use falvolt_snn::neuron::NeuronConfig;
use falvolt_snn::FloatBackend;
use falvolt_tensor::Tensor;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    print_figure(Figure::Fig6And7).expect("figures 6 and 7 comparison");

    // Kernel benchmark: forward + backward through a spiking layer with a
    // trainable threshold (the Eq. 4 gradient path).
    let backend = FloatBackend::new();
    let mut layer = SpikingLayer::new("bench_sn", NeuronConfig::falvolt_retraining());
    let input = Tensor::from_fn(&[16, 512], |i| (i % 11) as f32 * 0.2);
    let grad = Tensor::ones(&[16, 512]);
    c.bench_function("fig6/spiking_layer_threshold_gradient", |b| {
        b.iter(|| {
            layer.reset_state();
            let ctx = ForwardContext::new(Mode::Train, &backend);
            let spikes = layer.forward(&input, &ctx).unwrap();
            let grad_in = layer.backward(&grad).unwrap();
            criterion::black_box((spikes, grad_in))
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
