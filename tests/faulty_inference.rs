//! Cross-crate integration tests: running SNN inference through the
//! systolic-array model, with and without stuck-at faults.

use falvolt::SystolicBackend;
use falvolt_snn::config::ArchitectureConfig;
use falvolt_snn::loss::MseRateLoss;
use falvolt_snn::optim::Adam;
use falvolt_snn::trainer::{evaluate, Batch, Trainer};
use falvolt_snn::SpikingNetwork;
use falvolt_systolic::{FaultMap, StuckAt, SystolicArray, SystolicConfig};
use falvolt_tensor::{init, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Builds a tiny 4-class problem (one bright quadrant per class) and trains
/// the tiny test architecture on it.
fn trained_tiny_network() -> (SpikingNetwork, Vec<Batch>) {
    let config = ArchitectureConfig::tiny_test();
    let mut network = config.build(17).unwrap();
    let mut rng = StdRng::seed_from_u64(6);
    let mut batches = Vec::new();
    for _ in 0..4 {
        let mut input = init::uniform(&[4, 1, 8, 8], 0.0, 0.1, &mut rng);
        for c in 0..4 {
            let (y0, x0) = ((c / 2) * 4, (c % 2) * 4);
            for y in y0..y0 + 4 {
                for x in x0..x0 + 4 {
                    input.set(&[c, 0, y, x], 1.0);
                }
            }
        }
        batches.push(Batch::new(input, vec![0, 1, 2, 3]).unwrap());
    }
    let mut trainer = Trainer::new(Adam::new(1e-2), MseRateLoss::new(), config.classes);
    for _ in 0..25 {
        trainer.train_epoch(&mut network, &batches).unwrap();
    }
    (network, batches)
}

#[test]
fn fault_free_systolic_inference_preserves_accuracy() {
    let (mut network, test) = trained_tiny_network();
    let float_accuracy = evaluate(&mut network, &test).unwrap();
    assert!(
        float_accuracy >= 0.75,
        "baseline must be well above the 25% chance level, got {float_accuracy}"
    );

    let systolic = SystolicConfig::new(16, 16).unwrap();
    network.set_backend(SystolicBackend::shared(systolic, FaultMap::new(systolic)));
    let systolic_accuracy = evaluate(&mut network, &test).unwrap();
    assert!(
        (float_accuracy - systolic_accuracy).abs() <= 0.25,
        "fixed-point quantization alone must not collapse accuracy: float {float_accuracy}, systolic {systolic_accuracy}"
    );
}

#[test]
fn msb_stuck_at_one_faults_collapse_accuracy() {
    let (mut network, test) = trained_tiny_network();
    let baseline = evaluate(&mut network, &test).unwrap();

    let systolic = SystolicConfig::new(8, 8).unwrap();
    let mut rng = StdRng::seed_from_u64(11);
    // 30% of the PEs with stuck-at-1 faults in the accumulator sign bit: the
    // worst case of the paper's vulnerability analysis.
    let fault_map = FaultMap::random_with_rate(
        &systolic,
        0.30,
        systolic.accumulator_format().msb(),
        StuckAt::One,
        &mut rng,
    )
    .unwrap();
    network.set_backend(SystolicBackend::shared(systolic, fault_map));
    let faulty = evaluate(&mut network, &test).unwrap();
    assert!(
        faulty <= baseline - 0.2 || faulty <= 0.5,
        "heavy MSB faults should visibly degrade accuracy: baseline {baseline}, faulty {faulty}"
    );
}

#[test]
fn lsb_faults_are_much_milder_than_msb_faults() {
    let (mut network, test) = trained_tiny_network();
    let systolic = SystolicConfig::new(8, 8).unwrap();
    let mut rng = StdRng::seed_from_u64(23);
    let pes = 16;

    let msb_map = FaultMap::random_faulty_pes(
        &systolic,
        pes,
        systolic.accumulator_format().msb(),
        StuckAt::One,
        &mut rng,
    )
    .unwrap();
    let lsb_map = FaultMap::from_faults(
        *msb_map.config(),
        msb_map
            .faults()
            .iter()
            .map(|f| falvolt_systolic::Fault::new(f.pe, 0, f.kind))
            .collect(),
    )
    .unwrap();

    network.set_backend(SystolicBackend::shared(systolic, lsb_map));
    let lsb_accuracy = evaluate(&mut network, &test).unwrap();
    network.set_backend(SystolicBackend::shared(systolic, msb_map));
    let msb_accuracy = evaluate(&mut network, &test).unwrap();
    assert!(
        msb_accuracy <= lsb_accuracy + 0.05,
        "MSB faults ({msb_accuracy}) must hurt at least as much as LSB faults ({lsb_accuracy})"
    );
}

#[test]
fn bypassed_faulty_pes_behave_like_weight_pruning() {
    // The paper's fault-aware pruning (FaP) is the software form of the
    // bypass multiplexer (Figure 3b): for every prunable layer of a trained
    // network, the structural array with its faulty PEs bypassed computes on
    // the original weights `Wᵀ` exactly what the fault-free array computes
    // on the FaP-pruned weights, bit for bit. This ties the masks of
    // `PruneMasks::derive` (not only `WeightMapping`) to the hardware.
    let (mut network, _) = trained_tiny_network();
    let systolic = SystolicConfig::new(8, 8).unwrap();
    let mut rng = StdRng::seed_from_u64(29);
    let maps = [
        FaultMap::random_with_rate(
            &systolic,
            0.3,
            systolic.accumulator_format().msb(),
            StuckAt::One,
            &mut rng,
        )
        .unwrap(),
        FaultMap::random_faulty_pes(&systolic, 9, 4, StuckAt::Zero, &mut rng).unwrap(),
    ];
    let fault_free = FaultMap::new(systolic);
    for fault_map in &maps {
        let masks = falvolt::prune::PruneMasks::derive(&mut network, fault_map);
        assert!(
            masks.pruned_fraction() > 0.0,
            "the map must prune something"
        );
        let weights: Vec<(String, Tensor)> = network
            .prunable_weights_mut()
            .into_iter()
            .map(|(name, w)| (name, w.value().clone()))
            .collect();
        assert_eq!(weights.len(), masks.len());
        let names: Vec<&str> = weights.iter().map(|(name, _)| name.as_str()).collect();
        assert!(names.iter().any(|n| n.contains("conv")) && names.contains(&"fc1"));
        for ((name, w), (mask_name, mask)) in weights.iter().zip(masks.layers()) {
            assert_eq!(name, mask_name);
            let in_dim = w.shape()[1];
            // Binary spikes and real-valued (encoder-pixel) activations.
            let spikes = Tensor::from_fn(&[6, in_dim], |i| ((i * 7 + 3) % 5 < 2) as u8 as f32);
            let pixels = init::uniform(&[6, in_dim], -1.0, 1.0, &mut rng);
            let pruned = w.mul(mask).unwrap().transposed().unwrap();
            let w = w.transposed().unwrap();
            for a in [&spikes, &pixels] {
                let mut bypassed = SystolicArray::new(systolic, fault_map);
                bypassed.bypass_faulty_pes();
                let on_chip = bypassed.matmul(a, &w).unwrap();
                let fap = SystolicArray::new(systolic, &fault_free)
                    .matmul(a, &pruned)
                    .unwrap();
                let bits = |t: &Tensor| t.data().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&on_chip), bits(&fap), "layer {name}");
            }
        }
    }
}

#[test]
fn temporal_event_input_runs_through_faulty_accelerator() {
    // The neuromorphic input path ([N, T, C, H, W]) must work through the
    // systolic backend as well.
    let config = ArchitectureConfig::tiny_test();
    let mut network = config.build(3).unwrap();
    let systolic = SystolicConfig::new(8, 8).unwrap();
    let mut rng = StdRng::seed_from_u64(31);
    let fault_map = FaultMap::random_faulty_pes(&systolic, 4, 15, StuckAt::One, &mut rng).unwrap();
    network.set_backend(SystolicBackend::shared(systolic, fault_map));
    let events = Tensor::from_fn(&[2, config.time_steps, 1, 8, 8], |i| {
        ((i % 5) == 0) as u8 as f32
    });
    let labels = network.predict(&events).unwrap();
    assert_eq!(labels.len(), 2);
}
