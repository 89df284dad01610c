//! BPTT training must give the same parameters at every thread budget: the
//! kernels split rows, batches and output columns across workers, and no
//! split may change an addition order.

use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
use falvolt_snn::loss::MseRateLoss;
use falvolt_snn::optim::Adam;
use falvolt_snn::trainer::Trainer;

/// Runs `f` under a fixed rayon worker count (cleared on drop, even on
/// panic).
fn with_workers<T>(workers: usize, f: impl FnOnce() -> T) -> T {
    struct ClearOverride;
    impl Drop for ClearOverride {
        fn drop(&mut self) {
            rayon::set_thread_count_override(0);
        }
    }
    let _guard = ClearOverride;
    rayon::set_thread_count_override(workers);
    f()
}

#[test]
fn one_tiny_mnist_epoch_is_bit_identical_at_one_to_four_threads() {
    let ctx = ExperimentContext::prepare(DatasetKind::Mnist, ExperimentScale::Tiny, 42)
        .expect("Tiny MNIST context must prepare");
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
