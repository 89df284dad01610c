//! Figure 5b — accuracy vs number of faulty PEs (worst-case MSB stuck-at-1).
//!
//! Prints the figure's series once, then benchmarks fault-map generation and
//! a single faulty evaluation as the underlying kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use falvolt::figures::Figure;
use falvolt_bench::print_figure;
use falvolt_systolic::{FaultMap, StuckAt, SystolicConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    print_figure(Figure::Fig5b).expect("figure 5b sweep");

    // Kernel benchmark: drawing a fault map of the paper's sizes on the full
    // 256x256 grid.
    let paper_grid = SystolicConfig::paper_256x256();
    let mut group = c.benchmark_group("fig5b/fault_map_generation_256x256");
    for &pes in &[8usize, 64, 4096] {
        group.bench_with_input(BenchmarkId::from_parameter(pes), &pes, |b, &pes| {
            let mut rng = StdRng::seed_from_u64(3);
            b.iter(|| {
                let map = FaultMap::random_faulty_pes(
                    &paper_grid,
                    pes,
                    paper_grid.accumulator_format().msb(),
                    StuckAt::One,
                    &mut rng,
                )
                .unwrap();
                criterion::black_box(map.faulty_pe_count())
            })
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
