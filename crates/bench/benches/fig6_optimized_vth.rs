//! Figure 6 — per-layer threshold voltages learned by FalVolt at 10% / 30% /
//! 60% faulty PEs.
//!
//! Prints the learned thresholds once, then benchmarks the threshold-gradient
//! kernel (spiking-layer backward pass with a trainable threshold).

use criterion::{criterion_group, criterion_main, Criterion};
use falvolt::campaign::{Axis, Campaign};
use falvolt::experiment::{DatasetKind, ExperimentScale};
use falvolt::mitigation::MitigationStrategy;
use falvolt_bench::bench_context;
use falvolt_snn::layers::{ForwardContext, Layer, Mode, SpikingLayer};
use falvolt_snn::neuron::NeuronConfig;
use falvolt_snn::FloatBackend;
use falvolt_tensor::Tensor;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut ctx = bench_context(DatasetKind::Mnist);
    let epochs = ExperimentScale::Tiny.retrain_epochs();
    // The figure's seed mixer: the drawn chips match `reproduce`.
    let run = Campaign::new(&mut ctx)
        .axis(Axis::FaultRate(vec![0.10, 0.30]))
        .axis(Axis::Mitigation(vec![MitigationStrategy::falvolt(epochs)]))
        .seed_mixer(falvolt::campaign::mixers::per_fault_rate_rotated)
        .run()
        .expect("figure 6 comparison");
    println!(
        "\nFigure 6 — optimized threshold voltages ({}):",
        ctx.kind().label()
    );
    for cell in &run {
        let outcome = cell.outcome().expect("retraining cell");
        let thresholds: Vec<String> = outcome
            .thresholds
            .iter()
            .map(|(name, v)| format!("{name}={v:.2}"))
            .collect();
        println!(
            "  {:>3.0}% faulty: {}",
            cell.spec.fault_rate.unwrap_or(0.0) * 100.0,
            thresholds.join(", ")
        );
    }

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
