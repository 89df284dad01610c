//! Figure 7 — classification accuracy of FaP, FaPIT and FalVolt at 10% / 30%
//! / 60% faulty PEs.
//!
//! Prints the comparison once, then benchmarks the fault-aware pruning kernel
//! (mask derivation and application).

use criterion::{criterion_group, criterion_main, Criterion};
use falvolt::figures::Figure;
use falvolt::prune::PruneMasks;
use falvolt_bench::print_figure;
use falvolt_systolic::{FaultMap, StuckAt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut ctx = print_figure(Figure::Fig6And7).expect("figures 6 and 7 comparison");

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
