//! Figure 7 — classification accuracy of FaP, FaPIT and FalVolt at 10% / 30%
//! / 60% faulty PEs.
//!
//! Prints the comparison once, then benchmarks the fault-aware pruning kernel
//! (mask derivation and application).

use criterion::{criterion_group, criterion_main, Criterion};
use falvolt::campaign::{Axis, Campaign};
use falvolt::experiment::{DatasetKind, ExperimentScale};
use falvolt::mitigation::MitigationStrategy;
use falvolt::prune::PruneMasks;
use falvolt_bench::{bench_context, pct};
use falvolt_systolic::{FaultMap, StuckAt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut ctx = bench_context(DatasetKind::Mnist);
    let epochs = ExperimentScale::Tiny.retrain_epochs();
    // The figure's seed mixer: the drawn chips match `reproduce`.
    let run = Campaign::new(&mut ctx)
        .axis(Axis::FaultRate(vec![0.10, 0.30, 0.60]))
        .axis(Axis::Mitigation(vec![
            MitigationStrategy::FaP,
            MitigationStrategy::fapit(epochs),
            MitigationStrategy::falvolt(epochs),
        ]))
        .seed_mixer(falvolt::campaign::mixers::per_fault_rate_rotated)
        .run()
        .expect("figure 7 comparison");
    println!(
        "\nFigure 7 — mitigation comparison ({}):",
        ctx.kind().label()
    );
    println!("  baseline: {}", pct(run.baseline_accuracy()));
    println!("  fault rate | strategy | accuracy");
    for cell in &run {
        let outcome = cell.outcome().expect("retraining cell");
        println!(
            "  {:>9.0}% | {:<8} | {:>6}",
            cell.spec.fault_rate.unwrap_or(0.0) * 100.0,
            outcome.strategy,
            pct(cell.accuracy)
        );
    }

    // Kernel benchmark: deriving and applying prune masks for a 30% fault map.
    let systolic = *ctx.systolic_config();
    let mut rng = StdRng::seed_from_u64(5);
    let fault_map = FaultMap::random_with_rate(
        &systolic,
        0.30,
        systolic.accumulator_format().msb(),
        StuckAt::One,
        &mut rng,
    )
    .unwrap();
    ctx.restore_baseline().unwrap();
    c.bench_function("fig7/prune_mask_derive_and_apply", |b| {
        b.iter(|| {
            let masks = PruneMasks::derive(ctx.network_mut(), &fault_map);
            masks.apply(ctx.network_mut()).unwrap();
            criterion::black_box(masks.pruned_fraction())
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
