//! The forward and backward passes run their (layer, step) tasks as a
//! wavefront on two workers. A layer that fails or panics at one step must
//! end the pass the way the serial step loop would: the same error, or the
//! same panic payload, and never a hung worker.

use falvolt_snn::layers::{Flatten, ForwardContext, Layer, Linear, Mode, SpikingLayer};
use falvolt_snn::neuron::NeuronConfig;
use falvolt_snn::{SnnError, SpikingNetwork, Tensor};
use std::sync::{Mutex, PoisonError};

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

#[derive(Debug, Clone, Copy, PartialEq)]
enum Pass {
    Forward,
    Backward,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Trip {
    Error,
    Panic,
}

/// An identity layer that errors or panics on its third call (step 2) of
/// one pass.
#[derive(Debug, Clone)]
struct TripAtStep2 {
    pass: Pass,
    trip: Trip,
    calls: usize,
}

impl TripAtStep2 {
    fn call(&mut self, pass: Pass, x: &Tensor) -> falvolt_snn::Result<Tensor> {
        if pass == self.pass {
            self.calls += 1;
            if self.calls == 3 {
                match self.trip {
                    Trip::Error => return Err(SnnError::invalid_input(format!("{pass:?} step 2"))),
                    Trip::Panic => panic!("tripped at step 2"),
                }
            }
        }
        Ok(x.clone())
    }
}

impl Layer for TripAtStep2 {
    fn name(&self) -> &str {
        "trip"
    }

    fn clone_box(&self) -> Box<dyn Layer> {
        Box::new(self.clone())
    }

    fn forward(
        &mut self,
        input: &Tensor,
        _ctx: &ForwardContext<'_>,
    ) -> falvolt_snn::Result<Tensor> {
        self.call(Pass::Forward, input)
    }

    fn backward(&mut self, grad_output: &Tensor) -> falvolt_snn::Result<Tensor> {
        self.call(Pass::Backward, grad_output)
    }

    fn reset_state(&mut self) {
        self.calls = 0;
    }

    fn is_stateful(&self, _mode: Mode) -> bool {
        // Keeps the layer out of the evaluation prefix, which runs once.
        true
    }
}

/// Layers on both sides of the trip layer, so the other wavefront worker
/// has tasks of its own when the trip fires.
fn network(pass: Pass, trip: Trip) -> SpikingNetwork {
    let neuron = NeuronConfig::paper_default();
    let mut network = SpikingNetwork::new(5);
    network.push(Flatten::new("flatten"));
    network.push(Linear::new("fc1", 16, 12, 1).expect("fc1"));
    network.push(SpikingLayer::new("sn1", neuron));
    network.push(Linear::new("fc2", 12, 12, 2).expect("fc2"));
    network.push(TripAtStep2 {
        pass,
        trip,
        calls: 0,
    });
    network.push(SpikingLayer::new("sn2", neuron));
    network.push(Linear::new("fc3", 12, 4, 3).expect("fc3"));
    network.push(SpikingLayer::new("sn3", neuron));
    network
}

fn input() -> Tensor {
    Tensor::from_fn(&[3, 1, 4, 4], |i| (i % 7) as f32 * 0.4)
}

/// Runs one pass of a network whose trip layer fires in `pass`.
fn run_pass(pass: Pass, trip: Trip) -> falvolt_snn::Result<Tensor> {
    let mut network = network(pass, trip);
    match pass {
        Pass::Forward => network.forward(&input(), Mode::Eval),
        Pass::Backward => {
            let rates = network.forward(&input(), Mode::Train)?;
            network.backward(&Tensor::ones(rates.shape()))?;
            Ok(rates)
        }
    }
}

#[test]
fn a_layer_that_errors_at_step_2_gives_the_serial_error_at_two_threads() {
    for pass in [Pass::Forward, Pass::Backward] {
        let serial = with_workers(1, || run_pass(pass, Trip::Error));
        assert_eq!(
            serial,
            Err(SnnError::invalid_input(format!("{pass:?} step 2")))
        );
        for workers in 2..=4 {
            assert_eq!(
                with_workers(workers, || run_pass(pass, Trip::Error)),
                serial,
                "{pass:?} at {workers} threads"
            );
        }
    }
}

#[test]
fn a_layer_that_panics_at_step_2_reraises_its_payload_at_two_threads() {
    for pass in [Pass::Forward, Pass::Backward] {
        let caught = with_workers(2, || {
            std::panic::catch_unwind(|| run_pass(pass, Trip::Panic))
        });
        let payload = caught.expect_err("the layer's panic must reach the caller");
        assert_eq!(
            payload.downcast_ref::<&str>(),
            Some(&"tripped at step 2"),
            "{pass:?}"
        );
    }
}
