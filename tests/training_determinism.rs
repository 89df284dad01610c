//! BPTT training must give the same parameters at every thread budget: the
//! forward and backward passes run their (layer, step) tasks on two workers,
//! the kernels split rows, batches and output columns across workers, and no
//! schedule or split may change an addition order.

use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
use falvolt_snn::loss::MseRateLoss;
use falvolt_snn::optim::Adam;
use falvolt_snn::trainer::Trainer;
use falvolt_snn::Mode;
use std::sync::{Mutex, OnceLock, PoisonError};

/// Runs `f` under a fixed rayon worker count (cleared on drop, even on
/// panic). The override is process-global, so callers serialise on a lock.
fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    static LOCK: Mutex<()> = Mutex::new(());
    struct ClearOverride;
    impl Drop for ClearOverride {
        fn drop(&mut self) {
            rayon::set_thread_count_override(0);
        }
    }
    let _lock = LOCK.lock().unwrap_or_else(PoisonError::into_inner);
    let _guard = ClearOverride;
    rayon::set_thread_count_override(workers);
    f()
}

/// The trained Tiny MNIST context both tests train from.
fn tiny_mnist() -> &'static ExperimentContext {
    static CTX: OnceLock<ExperimentContext> = OnceLock::new();
    CTX.get_or_init(|| {
        ExperimentContext::prepare(DatasetKind::Mnist, ExperimentScale::Tiny, 42)
            .expect("Tiny MNIST context must prepare")
    })
}

#[test]
fn one_tiny_mnist_epoch_is_bit_identical_at_one_to_four_threads() {
    let ctx = tiny_mnist();
    let epoch_bits = |workers: usize| {
        with_workers(workers, || {
            let mut network = ctx.network_clone().expect("network clone");
            // Learnable thresholds put the FalVolt gradient (Eq. 4) on the
            // tape too.
            network.set_thresholds_trainable(true);
            let mut trainer = Trainer::new(
                Adam::new(5e-3),
                MseRateLoss::new(),
                DatasetKind::Mnist.classes(),
            );
            trainer
                .train_epoch(&mut network, ctx.train_batches())
                .expect("one training epoch");
            network
                .export_parameters()
                .iter()
                .map(|p| p.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>())
                .collect::<Vec<_>>()
        })
    };
    let serial = epoch_bits(1);
    for workers in 2..=4 {
        assert!(
            epoch_bits(workers) == serial,
            "one epoch at {workers} threads changed a parameter bit"
        );
    }
}

#[test]
fn one_tiny_mnist_training_step_at_two_threads_makes_one_parallel_call_per_pass() {
    // The forward and the backward pass each run their (layer, step)
    // wavefront on two workers: one `join` per pass. Every kernel inside
    // runs on a worker's one-thread share, and Tiny training kernels are
    // below the kernels' parallel work threshold anyway, so nothing else
    // splits.
    let ctx = tiny_mnist();
    let calls = with_workers(2, || {
        let mut network = ctx.network_clone().expect("network clone");
        network.set_thresholds_trainable(true);
        let mut trainer = Trainer::new(
            Adam::new(5e-3),
            MseRateLoss::new(),
            DatasetKind::Mnist.classes(),
        );
        let before = rayon::parallel_calls();
        trainer
            .train_batch(&mut network, &ctx.train_batches()[0])
            .expect("one training step");
        rayon::parallel_calls() - before
    });
    assert_eq!(
        calls, 2,
        "a Tiny MNIST training step must split only its two wavefronts"
    );
}

#[test]
fn one_tiny_dvs_epoch_and_eval_are_bit_identical_at_one_to_four_threads() {
    // Temporal input: each of the T = 6 steps slices its own frame out of
    // the [N, T, C, H, W] batch, and the five conv blocks (dropout included)
    // run their steps on whichever wavefront worker is free.
    let ctx = ExperimentContext::prepare(DatasetKind::DvsGesture, ExperimentScale::Tiny, 42)
        .expect("Tiny DVS-Gesture context must prepare");
    assert_eq!(ctx.train_batches()[0].input.ndim(), 5);
    let run_bits = |workers: usize| {
        with_workers(workers, || {
            let mut network = ctx.network_clone().expect("network clone");
            network.set_thresholds_trainable(true);
            let mut trainer = Trainer::new(
                Adam::new(5e-3),
                MseRateLoss::new(),
                DatasetKind::DvsGesture.classes(),
            );
            trainer
                .train_epoch(&mut network, ctx.train_batches())
                .expect("one training epoch");
            let mut bits: Vec<Vec<u32>> = network
                .export_parameters()
                .iter()
                .map(|p| p.data().iter().map(|v| v.to_bits()).collect())
                .collect();
            let rates = network
                .forward(&ctx.test_batches()[0].input, Mode::Eval)
                .expect("one eval pass");
            bits.push(rates.data().iter().map(|v| v.to_bits()).collect());
            bits
        })
    };
    let serial = run_bits(1);
    for workers in 2..=4 {
        assert!(
            run_bits(workers) == serial,
            "a DVS epoch or eval at {workers} threads changed a bit"
        );
    }
}
