//! Figure 2 — motivational study: retraining accuracy at fixed threshold
//! voltages under 30% / 60% faulty PEs.
//!
//! Prints the figure's series once, then benchmarks the underlying kernel
//! (one fixed-threshold retraining step on the pruned network).

use criterion::{criterion_group, criterion_main, Criterion};
use falvolt::figures::Figure;
use falvolt::mitigation::{MitigationStrategy, Mitigator, RetrainConfig};
use falvolt_bench::print_figure;
use falvolt_systolic::{FaultMap, StuckAt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut ctx = print_figure(Figure::Fig2).expect("figure 2 sweep");

    // Kernel benchmark: one full FaPIT mitigation pass (prune + short
    // retraining) at a fixed threshold.
    let systolic = *ctx.systolic_config();
    let mut rng = StdRng::seed_from_u64(1);
    let fault_map = FaultMap::random_with_rate(
        &systolic,
        0.30,
        systolic.accumulator_format().msb(),
        StuckAt::One,
        &mut rng,
    )
    .unwrap();
    let mitigator = Mitigator::new(ctx.classes(), RetrainConfig::quick());
    let train = ctx.train_batches().to_vec();
    let test = ctx.test_batches().to_vec();

    c.bench_function("fig2/fapit_one_epoch_fixed_threshold", |b| {
        b.iter(|| {
            ctx.restore_baseline().unwrap();
            let outcome = mitigator
                .run(
                    ctx.network_mut(),
                    &fault_map,
                    &train,
                    &test,
                    MitigationStrategy::FaPIT {
                        epochs: 1,
                        threshold: 0.7,
                    },
                )
                .unwrap();
            criterion::black_box(outcome.final_accuracy)
        })
    });
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(5))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
