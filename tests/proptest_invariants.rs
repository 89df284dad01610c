//! Cross-crate property-based tests on the core invariants of the
//! reproduction.

use falvolt::prune::PruneMasks;
use falvolt_snn::config::ArchitectureConfig;
use falvolt_snn::neuron::NeuronConfig;
use falvolt_snn::{MatmulBackend, MatmulOutput, MatmulRequest, Mode, SpikingNetwork};
use falvolt_systolic::{FaultMap, StuckAt, SystolicArray, SystolicConfig};
use falvolt_tensor::{Tensor, TensorError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs every product PE by PE on a fresh structural array holding
/// `fault_map` — the hardware oracle as a network backend.
#[derive(Debug)]
struct StructuralBackend {
    systolic: SystolicConfig,
    fault_map: FaultMap,
}

impl MatmulBackend for StructuralBackend {
    fn matmul_request(&self, req: MatmulRequest<'_>) -> falvolt_tensor::Result<MatmulOutput> {
        SystolicArray::new(self.systolic, &self.fault_map)
            .matmul(req.a(), req.b())
            .map(MatmulOutput::new)
            .map_err(|e| TensorError::InvalidArgument {
                reason: e.to_string(),
            })
    }

    fn name(&self) -> &str {
        "structural"
    }
}

fn tiny_network(threshold: f32) -> SpikingNetwork {
    ArchitectureConfig::tiny_test()
        .with_neuron(NeuronConfig::paper_default().with_threshold(threshold))
        .build(5)
        .unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn network_outputs_are_valid_firing_rates(seed in 0u64..50, amplitude in 0.0f32..2.0) {
        let mut network = tiny_network(1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let input = falvolt_tensor::init::uniform(&[2, 1, 8, 8], 0.0, amplitude.max(0.01), &mut rng);
        let rates = network.forward(&input, Mode::Eval).unwrap();
        prop_assert_eq!(rates.shape(), &[2, 4]);
        // Firing rates are averages of binary spikes over T steps.
        for &r in rates.data() {
            prop_assert!((0.0..=1.0).contains(&r));
            let scaled = r * network.time_steps() as f32;
            prop_assert!((scaled - scaled.round()).abs() < 1e-5);
        }
    }

    #[test]
    fn eval_forward_is_deterministic(seed in 0u64..50) {
        let mut network = tiny_network(1.0);
        let mut rng = StdRng::seed_from_u64(seed);
        let input = falvolt_tensor::init::uniform(&[3, 1, 8, 8], 0.0, 1.0, &mut rng);
        let a = network.forward(&input, Mode::Eval).unwrap();
        let b = network.forward(&input, Mode::Eval).unwrap();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn raising_the_threshold_never_increases_total_spiking(seed in 0u64..30) {
        // Single forward pass: a higher threshold voltage can only suppress
        // spikes, never create them (monotonicity of Eq. 1).
        let mut low = tiny_network(0.5);
        let mut high = tiny_network(1.5);
        // Identical weights (same build seed), only the threshold differs.
        let mut rng = StdRng::seed_from_u64(seed);
        let input = falvolt_tensor::init::uniform(&[2, 1, 8, 8], 0.0, 1.5, &mut rng);
        let low_rates = low.forward(&input, Mode::Eval).unwrap();
        let high_rates = high.forward(&input, Mode::Eval).unwrap();
        let low_total: f32 = low_rates.data().iter().sum();
        let high_total: f32 = high_rates.data().iter().sum();
        prop_assert!(
            high_total <= low_total + 1e-5,
            "threshold 1.5 produced more output spikes ({}) than 0.5 ({})",
            high_total,
            low_total
        );
    }

    #[test]
    fn prune_fraction_tracks_fault_rate(seed in 0u64..50, rate in 0.0f64..0.9) {
        let mut network = tiny_network(1.0);
        let systolic = SystolicConfig::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let fault_map =
            FaultMap::random_with_rate(&systolic, rate, 15, StuckAt::One, &mut rng).unwrap();
        let masks = PruneMasks::derive(&mut network, &fault_map);
        // The realized PE fault rate (after rounding to an integer PE count).
        let realized = fault_map.fault_rate();
        // For layers larger than the array the pruned fraction equals the PE
        // fault rate; small layers can deviate, so allow a generous band.
        prop_assert!((masks.pruned_fraction() - realized).abs() < 0.30);
        // Applying masks twice is idempotent.
        masks.apply(&mut network).unwrap();
        let after_once: Vec<Tensor> = network.export_parameters();
        masks.apply(&mut network).unwrap();
        prop_assert_eq!(after_once, network.export_parameters());
    }

    #[test]
    fn fault_free_prune_masks_are_identity(seed in 0u64..20) {
        let mut network = tiny_network(1.0);
        let systolic = SystolicConfig::new(8, 8).unwrap();
        let before = network.export_parameters();
        let masks = PruneMasks::derive(&mut network, &FaultMap::new(systolic));
        masks.apply(&mut network).unwrap();
        prop_assert_eq!(before, network.export_parameters());
        let _ = seed;
    }

    #[test]
    fn event_engine_is_bit_identical_under_fault_injection(
        seed in 0u64..50,
        faulty_pes in 1usize..8,
        bit_choice in 0usize..2,
    ) {
        // The acceptance bar of the event-driven engine: with a non-empty
        // FaultMap installed through the SystolicBackend, turning the engine
        // (prefix cache + spike-sparsity kernels) on or off must not change a
        // single bit of the fault-injection output — the faulty accumulator
        // chain replays identically and the prefix cache reuses the identical
        // computation.
        use falvolt::SystolicBackend;
        let systolic = SystolicConfig::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let bit = [0u32, 15][bit_choice]; // LSB and MSB stuck-at faults
        let fault_map = FaultMap::random_faulty_pes(
            &systolic,
            faulty_pes,
            bit,
            StuckAt::One,
            &mut rng,
        )
        .unwrap();
        prop_assert!(!fault_map.is_empty());

        let mut engine_on = tiny_network(1.0);
        let mut engine_off = tiny_network(1.0);
        engine_on.set_backend(SystolicBackend::shared(systolic, fault_map.clone()));
        engine_off.set_backend(SystolicBackend::shared(systolic, fault_map));
        engine_off.set_engine_preset(falvolt_snn::EnginePreset::seed_equivalent());

        let input = falvolt_tensor::init::uniform(&[2, 1, 8, 8], 0.0, 1.5, &mut rng);
        let on = engine_on.forward(&input, Mode::Eval).unwrap();
        let off = engine_off.forward(&input, Mode::Eval).unwrap();
        prop_assert_eq!(on.data(), off.data());
    }

    #[test]
    fn fig5_sweep_is_bit_identical_across_workers_caches_and_chain_modes(
        seed in 0u64..40,
        faulty_pes in 1usize..9,
    ) {
        // The scenario-throughput engine's acceptance bar: a Fig-5-shaped
        // sweep (several fault maps, one of them non-empty by construction,
        // plus the empty map) must produce bit-identical accuracies
        //
        //   * sequentially on per-clone deep copies with no caches and no
        //     batching, vs
        //   * fanned out through `scenario_accuracies` (scenario views,
        //     sweep + product caches, multi-map batching) with 1 worker, vs
        //   * the same with several workers.
        use falvolt::vulnerability::{reference_accuracies, scenario_accuracies, SweepCaches};
        use falvolt_snn::EnginePreset;
        use falvolt_snn::trainer::Batch;

        let systolic = SystolicConfig::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(7000));
        let mut scenarios = vec![(systolic, FaultMap::new(systolic))];
        for _ in 0..3 {
            scenarios.push((
                systolic,
                FaultMap::random_faulty_pes(&systolic, faulty_pes, 15, StuckAt::One, &mut rng)
                    .unwrap(),
            ));
        }
        prop_assert!(scenarios.iter().skip(1).all(|(_, m)| !m.is_empty()));

        let network = tiny_network(1.0);
        let test: Vec<Batch> = (0..2)
            .map(|b| {
                let input = falvolt_tensor::init::uniform(
                    &[4, 1, 8, 8],
                    0.0,
                    1.4,
                    &mut StdRng::seed_from_u64(seed ^ (b as u64) << 32),
                );
                Batch::new(input, vec![0, 1, 2, 3]).unwrap()
            })
            .collect();

        let reference = reference_accuracies(&network, &scenarios, &test).unwrap();

        // Force worker counts through the shim's race-free override (env
        // mutation would race the getenv calls of concurrently running
        // tests). The override is process-global, which is harmless: every
        // computation in this suite is worker-count-independent — that is
        // the invariant under test. A drop guard clears it even when a
        // worker panics mid-sweep.
        struct ClearOverride;
        impl Drop for ClearOverride {
            fn drop(&mut self) {
                rayon::set_thread_count_override(0);
            }
        }
        for workers in [1usize, 4] {
            let fanned = {
                let _guard = ClearOverride;
                rayon::set_thread_count_override(workers);
                scenario_accuracies(
                    &network,
                    scenarios.clone(),
                    &test,
                    &SweepCaches::new(),
                    &EnginePreset::full(),
                )
            };
            prop_assert_eq!(
                fanned.unwrap(),
                reference.clone(),
                "sweep accuracies changed with {} workers",
                workers
            );
        }
    }

    #[test]
    fn faulty_forward_matches_structural_array_bit_for_bit(
        seed in 0u64..50,
        faulty_pes in 1usize..8,
        bit in 0u32..16,
        polarity in 0usize..2,
    ) {
        // The hardware oracle at network scale: a whole forward pass with
        // every product run PE by PE on the structural array must equal the
        // production executor bit for bit — encoder pixels, CSR-indexed
        // spikes, the prefix cache and the dispatched ISA included.
        use falvolt::SystolicBackend;
        let systolic = SystolicConfig::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(9000));
        let kind = [StuckAt::Zero, StuckAt::One][polarity];
        let fault_map =
            FaultMap::random_faulty_pes(&systolic, faulty_pes, bit, kind, &mut rng).unwrap();
        prop_assert!(!fault_map.is_empty());
        let input = falvolt_tensor::init::uniform(&[3, 1, 8, 8], 0.0, 1.6, &mut rng);

        let mut fast = tiny_network(1.0);
        let mut oracle = tiny_network(1.0);
        fast.set_backend(SystolicBackend::shared(systolic, fault_map.clone()));
        oracle.set_backend(std::sync::Arc::new(StructuralBackend { systolic, fault_map }));
        let a = fast.forward(&input, Mode::Eval).unwrap();
        let b = oracle.forward(&input, Mode::Eval).unwrap();
        prop_assert_eq!(a.data(), b.data());
    }

    #[test]
    fn prefix_cache_is_exact_under_faulty_systolic_backend(seed in 0u64..50) {
        // Same bar, isolating the prefix cache: only the caching switch
        // differs, the kernels stay hinted on both sides.
        use falvolt::SystolicBackend;
        use falvolt_snn::EnginePreset;
        let systolic = SystolicConfig::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(1000));
        let fault_map =
            FaultMap::random_faulty_pes(&systolic, 3, 15, StuckAt::One, &mut rng).unwrap();

        let mut cached = tiny_network(1.0);
        let mut uncached = tiny_network(1.0);
        cached.set_backend(SystolicBackend::shared(systolic, fault_map.clone()));
        uncached.set_backend(SystolicBackend::shared(systolic, fault_map));
        uncached.set_engine_preset(EnginePreset::full().with_prefix_cache(false));

        let input = falvolt_tensor::init::uniform(&[2, 1, 8, 8], 0.0, 1.2, &mut rng);
        let a = cached.forward(&input, Mode::Eval).unwrap();
        let b = uncached.forward(&input, Mode::Eval).unwrap();
        prop_assert_eq!(a.data(), b.data());
    }
}
