//! Figure 5a — accuracy vs stuck-at fault bit location (sa0 and sa1).
//!
//! Prints the figure's series once, then benchmarks the underlying kernel
//! (one faulty-inference evaluation pass through the systolic backend).

use criterion::{criterion_group, criterion_main, Criterion};
use falvolt::figures::Figure;
use falvolt::vulnerability::accuracy_under_faults;
use falvolt_bench::print_figure;
use falvolt_systolic::{FaultMap, StuckAt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut ctx = print_figure(Figure::Fig5a).expect("figure 5a sweep");
    let msb = ctx.systolic_config().accumulator_format().msb();

    // Kernel benchmark: one evaluation pass with MSB stuck-at-1 faults.
    let systolic = *ctx.systolic_config();
    let mut rng = StdRng::seed_from_u64(2);
    let fault_map = FaultMap::random_faulty_pes(&systolic, 8, msb, StuckAt::One, &mut rng).unwrap();
    let test = ctx.test_batches().to_vec();
    c.bench_function("fig5a/faulty_inference_eval", |b| {
        b.iter(|| {
            let accuracy =
                accuracy_under_faults(ctx.network_mut(), systolic, fault_map.clone(), &test)
                    .unwrap();
            criterion::black_box(accuracy)
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
