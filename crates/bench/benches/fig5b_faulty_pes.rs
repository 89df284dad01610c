//! Figure 5b — accuracy vs number of faulty PEs (worst-case MSB stuck-at-1).
//!
//! Prints the figure's series once, then benchmarks fault-map generation and
//! a single faulty evaluation as the underlying kernels.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use falvolt::campaign::{Axis, Campaign};
use falvolt::experiment::DatasetKind;
use falvolt_bench::{bench_context, print_series};
use falvolt_systolic::{FaultMap, StuckAt, SystolicConfig};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut ctx = bench_context(DatasetKind::Mnist);
    let vuln = ctx.scale().vulnerability_config();
    // The figure's seed + mixer: the drawn maps (and series) match the
    // `reproduce` binary's output.
    let run = Campaign::new(&mut ctx)
        .axis(Axis::FaultyPes(vec![0, 4, 8, 16, 32, 64]))
        .scenarios_per_cell(vuln.iterations)
        .seed(vuln.seed)
        .seed_mixer(falvolt::campaign::mixers::per_faulty_pe_count)
        .run()
        .expect("figure 5b sweep");
    println!(
        "\nFigure 5b — accuracy vs faulty PEs ({}):",
        ctx.kind().label()
    );
    println!("  baseline: {:.1}%", run.baseline_accuracy() * 100.0);
    for series in run.mean_series("faulty_pes") {
        print_series("  series", "faulty PEs", &series);
    }

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
