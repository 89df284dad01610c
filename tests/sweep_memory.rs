//! A scenario sweep holds the multi-map products of one test batch at a
//! time: each batch wave releases its batched products before the next wave
//! starts, so a sweep's peak memory does not grow with the test set by the
//! scenario count times a product.
//!
//! Peak memory is a per-process figure (`VmHWM`), so each measurement runs
//! in a child process: the ignored `probe_*` tests below are the children,
//! and `sweep_peak_memory_does_not_hold_every_batch` runs and compares them.

use falvolt::experiment::DatasetKind;
use falvolt::vulnerability::{scenario_accuracies, SweepCaches};
use falvolt_snn::trainer::Batch;
use falvolt_snn::EnginePreset;
use falvolt_systolic::{FaultMap, StuckAt, SystolicConfig};
use falvolt_tensor::init;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::process::Command;

/// Test batches the multi-batch probe sweeps.
const BATCHES: usize = 4;

/// Sweeps `maps` fault maps over `batches` random test batches through the
/// (untrained) MNIST network at one thread and prints the process's peak
/// resident set.
fn probe(maps: usize, batches: usize) {
    rayon::set_thread_count_override(1);
    let architecture = DatasetKind::Mnist.architecture();
    let network = architecture.build(3).expect("MNIST network");
    let mut rng = StdRng::seed_from_u64(11);
    let (channels, size) = (architecture.input_channels, architecture.input_size);
    let test: Vec<Batch> = (0..batches)
        .map(|_| {
            let input = init::uniform(&[16, channels, size, size], 0.0, 1.0, &mut rng);
            Batch::new(input, (0..16).map(|i| i % architecture.classes).collect())
                .expect("test batch")
        })
        .collect();
    let config = SystolicConfig::new(16, 16).expect("16x16 grid");
    let msb = config.accumulator_format().msb();
    let scenarios = (0..maps)
        .map(|_| {
            let map = FaultMap::random_faulty_pes(&config, 4, msb, StuckAt::One, &mut rng);
            (config, map.expect("fault map"))
        })
        .collect();
    let caches = SweepCaches::new();
    let accuracies =
        scenario_accuracies(&network, scenarios, &test, &caches, &EnginePreset::full())
            .expect("sweep");
    assert_eq!(accuracies.len(), maps);
    let status = std::fs::read_to_string("/proc/self/status").expect("process status");
    let peak = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .expect("VmHWM line");
    println!("peak_kb={}", peak.trim().trim_end_matches("kB").trim());
}

#[test]
#[ignore = "child process of sweep_peak_memory_does_not_hold_every_batch"]
fn probe_one_map_one_batch() {
    probe(1, 1);
}

#[test]
#[ignore = "child process of sweep_peak_memory_does_not_hold_every_batch"]
fn probe_many_maps_one_batch() {
    probe(32, 1);
}

#[test]
#[ignore = "child process of sweep_peak_memory_does_not_hold_every_batch"]
fn probe_many_maps_many_batches() {
    probe(32, BATCHES);
}

/// Runs one probe in a child process and returns its peak resident set in
/// KiB.
fn peak_kb(name: &str) -> i64 {
    let exe = std::env::current_exe().expect("test binary path");
    let out = Command::new(exe)
        .args([
            "--exact",
            name,
            "--ignored",
            "--nocapture",
            "--test-threads=1",
        ])
        .output()
        .expect("probe process");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{name} failed:\n{stdout}");
    stdout
        .lines()
        .find_map(|line| line.split("peak_kb=").nth(1))
        .and_then(|kb| kb.split_whitespace().next()?.parse().ok())
        .unwrap_or_else(|| panic!("{name} printed no peak:\n{stdout}"))
}

#[test]
fn sweep_peak_memory_does_not_hold_every_batch() {
    if !std::path::Path::new("/proc/self/status").exists() {
        return;
    }
    let one_map = peak_kb("probe_one_map_one_batch");
    let one_batch = peak_kb("probe_many_maps_one_batch");
    let all_batches = peak_kb("probe_many_maps_many_batches");
    // What 31 more maps add to one batch's sweep: about 31 lanes of that
    // batch's batched products. Holding every batch's products adds about
    // that much again per further batch (1.1 times it, measured on a
    // sweep-wide store); releasing them leaves only the single-lane caches
    // (prefix outputs, lowerings, clean products) to grow with the batch
    // count (0.2 times it).
    let lanes = one_batch - one_map;
    let per_batch = (all_batches - one_batch) / (BATCHES as i64 - 1);
    assert!(
        lanes > 0 && per_batch < lanes / 2,
        "each further batch raised the peak {per_batch} KiB; 31 more maps \
         cost {lanes} KiB (peaks: {one_map}, {one_batch}, {all_batches} KiB)"
    );
}
