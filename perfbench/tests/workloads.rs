//! The benchmark's own tests. They run shrunk plans of every workload, so
//! build them optimised: `cargo test --release --manifest-path
//! perfbench/Cargo.toml`.

use perfbench::replica::run_traced;
use perfbench::report::{layer_metrics, valid_metric_name};
use perfbench::{run_untraced, CellOutcome, Workload};
use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

/// The thread-count override is process-global: tests that set it run one
/// at a time.
static THREADS: Mutex<()> = Mutex::new(());

const SEED: u64 = 3;

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The shrunk plan's output at `threads` workers: the baseline accuracy
/// bits and every cell's result.
fn output_at(workload: Workload, threads: usize) -> (u32, Vec<CellOutcome>) {
    rayon::set_thread_count_override(threads);
    let (outcome, _) = run_untraced(workload, &workload.plan(true), SEED).expect("shrunk run");
    rayon::set_thread_count_override(0);
    assert_eq!(outcome.cells.len(), workload.plan(true).cell_labels().len());
    assert!(
        outcome.cells.iter().all(|c| c.completed),
        "{}: a cell failed or was skipped",
        workload.name()
    );
    (outcome.baseline_accuracy.to_bits(), outcome.cells)
}

fn shrunk_plan_is_thread_count_independent(workload: Workload) {
    let _guard = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
    // At least two workers, so the parallel paths run even on one core.
    let many = nproc().max(2);
    assert_eq!(
        output_at(workload, 1),
        output_at(workload, many),
        "{}: results differ between 1 and {many} threads",
        workload.name()
    );
}

#[test]
fn vuln_mnist_shrunk_is_thread_count_independent() {
    shrunk_plan_is_thread_count_independent(Workload::VulnMnist);
}

#[test]
fn vuln_dvs_shrunk_is_thread_count_independent() {
    shrunk_plan_is_thread_count_independent(Workload::VulnDvs);
}

#[test]
fn mitigate_mnist_shrunk_is_thread_count_independent() {
    shrunk_plan_is_thread_count_independent(Workload::MitigateMnist);
}

#[test]
fn traced_replica_reproduces_untraced_results_with_valid_metrics() {
    let _guard = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
    for workload in Workload::ALL {
        let plan = workload.plan(true);
        let (untraced, cache_metrics) = run_untraced(workload, &plan, SEED).expect("untraced run");
        let traced = run_traced(workload, &plan, SEED).expect("traced run");
        assert_eq!(
            traced.outcome.cells,
            untraced.cells,
            "{}: the traced replica diverged",
            workload.name()
        );
        assert_eq!(
            traced.outcome.baseline_accuracy.to_bits(),
            untraced.baseline_accuracy.to_bits()
        );

        let mut metrics = layer_metrics(&traced);
        metrics.extend(cache_metrics);
        let names: BTreeSet<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names.len(), metrics.len(), "metric names repeat");
        for m in &metrics {
            assert!(valid_metric_name(&m.name), "bad metric name {}", m.name);
            assert!(
                m.value.is_finite() && m.value >= 0.0,
                "{} = {}",
                m.name,
                m.value
            );
        }

        let self_s = traced.campaign_self_s();
        assert!(
            self_s >= 0.0 && self_s <= traced.outcome.campaign_s,
            "{}: self time {self_s} outside the campaign span {}",
            workload.name(),
            traced.outcome.campaign_s
        );
    }
}

/// `BENCHMARK.json` lists exactly the per-layer metrics a traced run of a
/// gated (MNIST) workload reports: the replica's table, the untraced run's
/// cache ratios and the two `run.py` derives.
#[test]
fn benchmark_json_lists_every_per_layer_metric() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let per_layer = &text[text.find("\"per_layer\"").expect("per_layer key")..];
    let listed: BTreeSet<String> = per_layer
        .split("\"name\":")
        .skip(1)
        .filter_map(|rest| rest.split('"').nth(1).map(str::to_string))
        .collect();

    let _guard = THREADS.lock().unwrap_or_else(PoisonError::into_inner);
    let plan = Workload::VulnMnist.plan(true);
    let traced = run_traced(Workload::VulnMnist, &plan, SEED).expect("traced run");
    let (_, cache_metrics) = run_untraced(Workload::VulnMnist, &plan, SEED).expect("untraced run");
    let mut reported: BTreeSet<String> = layer_metrics(&traced)
        .into_iter()
        .chain(cache_metrics)
        .map(|m| m.name)
        .collect();
    reported.insert("rayon.campaign_speedup".to_string());
    reported.insert("trace.overhead_s".to_string());
    assert_eq!(listed, reported);
}
