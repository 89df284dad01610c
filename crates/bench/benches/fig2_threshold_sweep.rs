//! Figure 2 — motivational study: retraining accuracy at fixed threshold
//! voltages under 30% / 60% faulty PEs.
//!
//! Prints the figure's series once, then benchmarks the underlying kernel
//! (one fixed-threshold retraining step on the pruned network).

use criterion::{criterion_group, criterion_main, Criterion};
use falvolt::campaign::{Axis, Campaign};
use falvolt::experiment::{DatasetKind, ExperimentScale};
use falvolt::mitigation::{MitigationStrategy, Mitigator, RetrainConfig};
use falvolt_bench::{bench_context, pct};
use falvolt_systolic::{FaultMap, StuckAt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut ctx = bench_context(DatasetKind::Mnist);
    let epochs = ExperimentScale::Tiny.retrain_epochs();

    // Regenerate the figure series as a campaign plan (the figure's seed
    // mixer keeps the drawn chips — and the series — identical to the
    // `reproduce` binary's output).
    let run = Campaign::new(&mut ctx)
        .axis(Axis::FaultRate(vec![0.30, 0.60]))
        .axis(Axis::Threshold(vec![0.45, 0.55, 0.7, 1.0]))
        .retrain_epochs(epochs)
        .seed_mixer(falvolt::campaign::mixers::per_fault_rate)
        .run()
        .expect("figure 2 sweep");
    println!(
        "\nFigure 2 — fixed-threshold retraining ({}):",
        ctx.kind().label()
    );
    println!("  threshold | fault rate | accuracy");
    for cell in &run {
        println!(
            "  {:>9.2} | {:>9.0}% | {:>6}",
            cell.spec.threshold.unwrap_or(0.0),
            cell.spec.fault_rate.unwrap_or(0.0) * 100.0,
            pct(cell.accuracy)
        );
    }

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
