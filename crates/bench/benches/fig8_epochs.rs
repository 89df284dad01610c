//! Figure 8 — accuracy vs retraining epochs for FaPIT and FalVolt at 30%
//! faulty PEs (the "FalVolt converges ~2x faster" claim).
//!
//! Prints both convergence histories once, then benchmarks one retraining
//! epoch of each strategy.

use criterion::{criterion_group, criterion_main, Criterion};
use falvolt::figures::Figure;
use falvolt::mitigation::{MitigationStrategy, Mitigator, RetrainConfig};
use falvolt_bench::print_figure;
use falvolt_systolic::{FaultMap, StuckAt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut ctx = print_figure(Figure::Fig8).expect("figure 8 convergence");

    // Kernel benchmark: one retraining epoch of each strategy.
    let systolic = *ctx.systolic_config();
    let mut rng = StdRng::seed_from_u64(8);
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

    let mut group = c.benchmark_group("fig8/one_retraining_epoch");
    group.bench_function("fapit", |b| {
        b.iter(|| {
            ctx.restore_baseline().unwrap();
            let outcome = mitigator
                .run(
                    ctx.network_mut(),
                    &fault_map,
                    &train,
                    &test,
                    MitigationStrategy::fapit(1),
                )
                .unwrap();
            criterion::black_box(outcome.final_accuracy)
        })
    });
    group.bench_function("falvolt", |b| {
        b.iter(|| {
            ctx.restore_baseline().unwrap();
            let outcome = mitigator
                .run(
                    ctx.network_mut(),
                    &fault_map,
                    &train,
                    &test,
                    MitigationStrategy::falvolt(1),
                )
                .unwrap();
            criterion::black_box(outcome.final_accuracy)
        })
    });
    group.finish();
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
