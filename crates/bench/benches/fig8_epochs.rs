//! Figure 8 — accuracy vs retraining epochs for FaPIT and FalVolt at 30%
//! faulty PEs (the "FalVolt converges ~2x faster" claim).
//!
//! Prints both convergence histories once, then benchmarks one retraining
//! epoch of each strategy.

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
    // The figure's seed mixer: the drawn chip matches `reproduce`.
    let run = Campaign::new(&mut ctx)
        .axis(Axis::FaultRate(vec![0.30]))
        .axis(Axis::Mitigation(vec![
            MitigationStrategy::fapit(epochs),
            MitigationStrategy::falvolt(epochs),
        ]))
        .seed_mixer(falvolt::campaign::mixers::convergence)
        .run()
        .expect("figure 8 convergence");
    let fapit_history = &run.cells()[0].outcome().expect("FaPIT cell").history;
    let falvolt_history = &run.cells()[1].outcome().expect("FalVolt cell").history;
    println!(
        "\nFigure 8 — convergence at 30% faulty PEs ({}):",
        ctx.kind().label()
    );
    println!("  epoch |  FaPIT  | FalVolt");
    for (fapit, falvolt) in fapit_history.iter().zip(falvolt_history) {
        println!(
            "  {:>5} | {:>7} | {:>7}",
            fapit.epoch,
            pct(fapit.test_accuracy),
            pct(falvolt.test_accuracy)
        );
    }
    let target = run.baseline_accuracy() * 0.95;
    println!(
        "  epochs to 95% of baseline: FaPIT {:?}, FalVolt {:?}",
        falvolt::mitigation::epochs_to_reach(fapit_history, target),
        falvolt::mitigation::epochs_to_reach(falvolt_history, target)
    );

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
