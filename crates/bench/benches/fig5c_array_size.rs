//! Figure 5c — accuracy vs systolic-array size at a fixed faulty-PE count.
//!
//! Prints the figure's series once, then benchmarks the systolic executor's
//! matmul across array sizes (the kernel whose reuse factor explains the
//! figure).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use falvolt::figures::Figure;
use falvolt_bench::print_figure;
use falvolt_systolic::{FaultMap, SystolicConfig, SystolicExecutor};
use falvolt_tensor::Tensor;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    print_figure(Figure::Fig5c).expect("figure 5c sweep");

    // Kernel benchmark: the same matrix product executed on arrays of
    // different sizes (fault-free; isolates the mapping/fold overhead).
    let activations = Tensor::from_fn(&[32, 72], |i| ((i % 3) == 0) as u8 as f32);
    let weights = Tensor::from_fn(&[72, 8], |i| (i % 7) as f32 * 0.05);
    let mut group = c.benchmark_group("fig5c/systolic_matmul_by_array_size");
    for &size in &[4usize, 16, 64] {
        group.bench_with_input(BenchmarkId::from_parameter(size), &size, |b, &size| {
            let config = SystolicConfig::square(size).unwrap();
            let executor = SystolicExecutor::new(config, FaultMap::new(config));
            b.iter(|| criterion::black_box(executor.matmul(&activations, &weights).unwrap()))
        });
    }
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(10)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = config();
    targets = bench
}
criterion_main!(benches);
