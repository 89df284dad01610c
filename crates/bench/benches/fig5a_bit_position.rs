//! Figure 5a — accuracy vs stuck-at fault bit location (sa0 and sa1).
//!
//! Prints the figure's series once, then benchmarks the underlying kernel
//! (one faulty-inference evaluation pass through the systolic backend).

use criterion::{criterion_group, criterion_main, Criterion};
use falvolt::campaign::{Axis, Campaign};
use falvolt::experiment::DatasetKind;
use falvolt::vulnerability::accuracy_under_faults;
use falvolt_bench::{bench_context, print_series};
use falvolt_systolic::{FaultMap, StuckAt};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut ctx = bench_context(DatasetKind::Mnist);
    let msb = ctx.systolic_config().accumulator_format().msb();
    let vuln = ctx.scale().vulnerability_config();

    // The figure's seed + mixer: the drawn maps (and series) match the
    // `reproduce` binary's output.
    let run = Campaign::new(&mut ctx)
        .axis(Axis::Polarity(StuckAt::ALL.to_vec()))
        .axis(Axis::BitPosition(vec![0, 4, 8, 12, msb]))
        .axis(Axis::FaultyPes(vec![8]))
        .scenarios_per_cell(vuln.iterations)
        .seed(vuln.seed)
        .seed_mixer(falvolt::campaign::mixers::per_bit)
        .run()
        .expect("figure 5a");
    println!(
        "\nFigure 5a — accuracy vs fault bit location ({}):",
        ctx.kind().label()
    );
    for series in run.mean_series("bit") {
        print_series("  series", "bit", &series);
    }

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
