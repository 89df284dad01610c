//! Property-based tests for the systolic-array fault model.

use falvolt_systolic::{
    Fault, FaultMap, FoldPlan, PeCoord, ProductCache, StuckAt, SystolicArray, SystolicConfig,
    SystolicExecutor, WeightMapping,
};
use falvolt_tensor::{simd, SpikeIndex, Tensor};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

fn small_grid() -> impl Strategy<Value = SystolicConfig> {
    (2usize..8, 2usize..8).prop_map(|(r, c)| SystolicConfig::new(r, c).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn fault_rate_matches_requested_pe_count(config in small_grid(), seed in 0u64..1000, frac in 0.0f64..1.0) {
        let faulty = (frac * config.pe_count() as f64) as usize;
        let mut rng = StdRng::seed_from_u64(seed);
        let map = FaultMap::random_faulty_pes(&config, faulty, 0, StuckAt::Zero, &mut rng).unwrap();
        prop_assert_eq!(map.faulty_pe_count(), faulty);
        prop_assert!((map.fault_rate() - config.fault_rate_for(faulty)).abs() < 1e-12);
    }

    #[test]
    fn prune_mask_zero_fraction_equals_pruned_indices(
        config in small_grid(),
        seed in 0u64..1000,
        out_dim in 1usize..20,
        in_dim in 1usize..20,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let faulty = config.pe_count() / 3;
        let map = FaultMap::random_faulty_pes(&config, faulty, 15, StuckAt::One, &mut rng).unwrap();
        let mapping = WeightMapping::new(&config);
        let mask = mapping.prune_mask(out_dim, in_dim, &map);
        let zeros = mask.data().iter().filter(|&&v| v == 0.0).count();
        prop_assert_eq!(zeros, mapping.pruned_indices(out_dim, in_dim, &map).len());
    }

    #[test]
    fn matmul_scenarios_is_bit_identical_to_per_map_products(
        config in small_grid(),
        seed in 0u64..1000,
        density_pct in 0usize..60,
        scenario_count in 2usize..6,
        indexed_choice in 0usize..2,
    ) {
        // The multi-map batched product walks each row's event stream once
        // for every fault map; it must agree bit-for-bit with installing
        // each map on its own executor — over random grids, map mixes
        // (including the empty map), densities, and with or without a CSR
        // spike index on the activations.
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97).wrapping_add(3));
        let indexed = indexed_choice == 1;
        let mut maps = vec![FaultMap::new(config)];
        for extra in 0..scenario_count - 1 {
            let faulty = 1 + (extra + config.pe_count() / 4) % config.pe_count();
            maps.push(FaultMap::random_msb_faults(&config, faulty, &mut rng).unwrap());
        }

        let k = config.rows() * 3 + 1;
        let n = config.cols() * 2 + 1;
        // Binary spikes when an index rides along (indexes certify
        // binariness); mixed-magnitude activations otherwise.
        let a = Tensor::from_fn(&[23, k], |i| {
            let r = (i * 2654435761 + seed as usize) % 100;
            if r < density_pct {
                1.0
            } else if r == 99 && !indexed {
                -0.5
            } else {
                0.0
            }
        });
        let a = if indexed {
            let index = SpikeIndex::from_dense(a.data(), k).unwrap();
            a.with_spike_index(Arc::new(index))
        } else {
            a
        };
        let b = falvolt_tensor::init::uniform(&[k, n], -0.4, 0.4, &mut rng);

        let batch = SystolicExecutor::new(config, FaultMap::new(config));
        let outputs = batch.matmul_scenarios(&a, &b, &maps).unwrap();
        prop_assert_eq!(outputs.len(), maps.len());
        for (s, map) in maps.iter().enumerate() {
            let single = SystolicExecutor::new(config, map.clone());
            let reference = single.matmul(&a, &b).unwrap();
            prop_assert_eq!(
                outputs[s].data(),
                reference.data(),
                "scenario {} diverged", s
            );
        }
    }

    #[test]
    fn empty_fault_map_executor_is_close_to_float(config in small_grid(), seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let k = config.rows() + 1;
        let n = config.cols() + 2;
        let a = falvolt_tensor::init::uniform(&[3, k], 0.0, 1.0, &mut rng);
        let b = falvolt_tensor::init::uniform(&[k, n], -0.5, 0.5, &mut rng);
        let executor = SystolicExecutor::new(config, FaultMap::new(config));
        let sys = executor.matmul(&a, &b).unwrap();
        let float = falvolt_tensor::ops::matmul(&a, &b).unwrap();
        let tolerance = k as f32 / 256.0 + 1e-3;
        for (x, y) in sys.data().iter().zip(float.data()) {
            prop_assert!((x - y).abs() <= tolerance, "{} vs {}", x, y);
        }
    }

    #[test]
    fn fault_free_executor_folds_to_the_clean_kernel(config in small_grid(), seed in 0u64..1000) {
        // With an empty fault map the executor takes the clean blocked-kernel
        // fast path, so the result is *identical* to clean_matmul, not merely
        // within quantization tolerance.
        // Dispatch-sensitive: both sides must run under the same ISA, so
        // hold off the tests that force one.
        let _lock = simd::test_override_lock();
        let mut rng = StdRng::seed_from_u64(seed);
        let k = 2 * config.rows() + 1;
        let n = config.cols() + 3;
        let a = falvolt_tensor::init::uniform(&[4, k], 0.0, 1.0, &mut rng);
        let b = falvolt_tensor::init::uniform(&[k, n], -0.5, 0.5, &mut rng);
        let executor = SystolicExecutor::new(config, FaultMap::new(config));
        let sys = executor.matmul(&a, &b).unwrap();
        let float = falvolt_tensor::ops::matmul(&a, &b).unwrap();
        prop_assert_eq!(sys.data(), float.data());
    }

    #[test]
    fn foldplan_clean_columns_stay_within_quantization(config in small_grid(), seed in 0u64..500) {
        // Columns the FoldPlan reports as clean still replay the quantized
        // accumulator chain under a faulty map, so they sit within the
        // k-step quantization envelope of the float product.
        let mut rng = StdRng::seed_from_u64(seed);
        let map = FaultMap::random_faulty_pes(&config, 1, 15, StuckAt::One, &mut rng).unwrap();
        let k = config.rows() + 2;
        let n = config.cols() + 1;
        let plan = FoldPlan::new(&config, &map, k);
        prop_assert!(plan.any_fault());
        let a = falvolt_tensor::init::uniform(&[3, k], 0.0, 1.0, &mut rng);
        let b = falvolt_tensor::init::uniform(&[k, n], -0.5, 0.5, &mut rng);
        let executor = SystolicExecutor::new(config, map);
        let sys = executor.matmul(&a, &b).unwrap();
        let float = falvolt_tensor::ops::matmul(&a, &b).unwrap();
        let tolerance = k as f32 / 256.0 + 1e-3;
        for j in (0..n).filter(|&j| plan.column_is_clean(j)) {
            for i in 0..3 {
                let diff = (sys.get(&[i, j]) - float.get(&[i, j])).abs();
                prop_assert!(diff <= tolerance, "clean column {} diff {}", j, diff);
            }
        }
    }

    #[test]
    fn bypass_error_is_bounded_by_skipped_weight_mass(config in small_grid(), seed in 0u64..1000) {
        // With the faulty PEs bypassed, the deviation from the clean product
        // is at most the sum of |weights| mapped to faulty PEs (per output),
        // never the catastrophic MSB corruption.
        let mut rng = StdRng::seed_from_u64(seed);
        let faulty = (config.pe_count() / 4).max(1);
        let map = FaultMap::random_faulty_pes(&config, faulty, 15, StuckAt::One, &mut rng).unwrap();
        let k = config.rows();
        let n = config.cols();
        let a = Tensor::ones(&[2, k]);
        let b = falvolt_tensor::init::uniform(&[k, n], -0.5, 0.5, &mut rng);
        let out = oracle(config, &map, true, &a, &b);
        let clean = falvolt_tensor::ops::matmul(&a, &b).unwrap();
        let mapping = WeightMapping::new(&config);
        for j in 0..n {
            let skipped_mass: f32 = (0..k)
                .filter(|&p| map.is_faulty(mapping.pe_for(j, p)))
                .map(|p| b.get(&[p, j]).abs())
                .sum();
            for i in 0..2 {
                let diff = (out.get(&[i, j]) - clean.get(&[i, j])).abs();
                prop_assert!(diff <= skipped_mass + k as f32 / 256.0 + 1e-3);
            }
        }
    }

    #[test]
    fn msb_stuck_at_one_never_underestimates_lsb_damage(seed in 0u64..500) {
        // Aggregate property behind Figure 5a: for the same fault location
        // pattern, an MSB stuck-at-1 fault perturbs the output at least as
        // much as the same fault in the LSB.
        let config = SystolicConfig::new(4, 4).unwrap();
        let mut rng = StdRng::seed_from_u64(seed);
        let pes = FaultMap::random_faulty_pes(&config, 2, 0, StuckAt::One, &mut rng).unwrap();
        let faults_lsb = pes.faults().to_vec();
        let faults_msb: Vec<_> = faults_lsb
            .iter()
            .map(|f| falvolt_systolic::Fault::new(f.pe, config.accumulator_format().msb(), f.kind))
            .collect();
        let map_lsb = FaultMap::from_faults(config, faults_lsb).unwrap();
        let map_msb = FaultMap::from_faults(config, faults_msb).unwrap();

        let a = Tensor::ones(&[2, 4]);
        let b = falvolt_tensor::init::uniform(&[4, 4], 0.0, 0.5, &mut rng);
        let clean = falvolt_tensor::ops::matmul(&a, &b).unwrap();
        let lsb_out = SystolicExecutor::new(config, map_lsb).matmul(&a, &b).unwrap();
        let msb_out = SystolicExecutor::new(config, map_msb).matmul(&a, &b).unwrap();
        let lsb_err: f32 = lsb_out
            .data()
            .iter()
            .zip(clean.data())
            .map(|(x, y)| (x - y).abs())
            .sum();
        let msb_err: f32 = msb_out
            .data()
            .iter()
            .zip(clean.data())
            .map(|(x, y)| (x - y).abs())
            .sum();
        prop_assert!(msb_err + 1e-3 >= lsb_err, "msb {} < lsb {}", msb_err, lsb_err);
    }
}

// ---------------------------------------------------------------------------
// SIMD dispatch properties: the executor's quantized accumulator chains are
// integer add/clamp/mask sequences whose per-column order the lane engines
// never change, so every forced ISA must reproduce the forced-scalar output
// *bit for bit* — single-map and batched, odd column counts included. The
// override is process-global; each test holds the shared lock for its whole
// body.
// ---------------------------------------------------------------------------

fn hashed_act(i: usize, salt: u64, density_pct: usize) -> f32 {
    let r = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(salt) % 100;
    if (r as usize) < density_pct {
        ((r % 7) as f32 - 3.0) * 0.4
    } else {
        0.0
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn faulty_products_are_bit_identical_on_every_isa(
        config in small_grid(),
        m in 1usize..5,
        k in 1usize..12,
        n in 1usize..30,
        density_pct in 0usize..80,
        seed in 0u64..1000,
    ) {
        let _lock = simd::test_override_lock();
        let mut rng = StdRng::seed_from_u64(seed);
        let faulty = 1 + config.pe_count() / 4;
        let map = FaultMap::random_faulty_pes(&config, faulty, 9, StuckAt::One, &mut rng).unwrap();
        let executor = SystolicExecutor::new(config, map);
        let a = Tensor::from_fn(&[m, k], |i| hashed_act(i, seed, density_pct));
        let b = Tensor::from_fn(&[k, n], |i| ((i % 11) as f32 - 5.0) * 0.21);
        let scalar = {
            let _g = simd::force(Some(simd::Isa::Scalar));
            executor.matmul(&a, &b).unwrap()
        };
        for isa in simd::available() {
            let _g = simd::force(Some(isa));
            let out = executor.matmul(&a, &b).unwrap();
            prop_assert_eq!(out.data(), scalar.data(), "isa {}", isa);
        }
    }

    #[test]
    fn batched_scenarios_are_bit_identical_on_every_isa(
        config in small_grid(),
        m in 1usize..4,
        k in 1usize..10,
        n in 1usize..30,
        density_pct in 0usize..80,
        scenarios in 1usize..5,
        seed in 0u64..1000,
    ) {
        let _lock = simd::test_override_lock();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(97).wrapping_add(3));
        let maps: Vec<FaultMap> = (0..scenarios)
            .map(|_| {
                let faulty = 1 + config.pe_count() / 5;
                FaultMap::random_faulty_pes(&config, faulty, 12, StuckAt::Zero, &mut rng).unwrap()
            })
            .collect();
        let executor = SystolicExecutor::new(config, FaultMap::new(config));
        let a = Tensor::from_fn(&[m, k], |i| hashed_act(i, seed, density_pct));
        let b = Tensor::from_fn(&[k, n], |i| ((i % 13) as f32 - 6.0) * 0.17);
        let scalar = {
            let _g = simd::force(Some(simd::Isa::Scalar));
            executor.matmul_scenarios(&a, &b, &maps).unwrap()
        };
        for isa in simd::available() {
            let _g = simd::force(Some(isa));
            // The batched walk must agree with the single-map path on this
            // ISA *and* with the scalar batched walk bit for bit.
            let batched = executor.matmul_scenarios(&a, &b, &maps).unwrap();
            prop_assert_eq!(batched.len(), maps.len());
            for (s, out) in batched.iter().enumerate() {
                prop_assert_eq!(out.data(), scalar[s].data(), "isa {} scenario {}", isa, s);
                let single = SystolicExecutor::new(config, maps[s].clone());
                let direct = single.matmul(&a, &b).unwrap();
                if maps[s].is_empty() {
                    continue; // fault-free lanes take the float fast path
                }
                prop_assert_eq!(out.data(), direct.data(), "isa {} single {}", isa, s);
            }
        }
    }

    #[test]
    fn scenario_view_rows_match_materialised_tensors(
        config in small_grid(),
        m in 1usize..4,
        k in 1usize..8,
        n in 1usize..20,
        scenarios in 1usize..5,
        seed in 0u64..1000,
    ) {
        use falvolt_tensor::MatmulHint;
        // Dispatch-sensitive: fault-free lanes are float products, compared
        // across calls, so hold off the tests that force an ISA.
        let _lock = simd::test_override_lock();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(41).wrapping_add(7));
        // Mix fault-free (shared fast-path lane) and faulty (interleaved
        // lane) scenarios so both arms of the view are exercised.
        let maps: Vec<FaultMap> = (0..scenarios)
            .map(|s| {
                if s % 2 == 0 {
                    FaultMap::new(config)
                } else {
                    let faulty = 1 + config.pe_count() / 5;
                    FaultMap::random_faulty_pes(&config, faulty, 10, StuckAt::One, &mut rng)
                        .unwrap()
                }
            })
            .collect();
        let executor = SystolicExecutor::new(config, FaultMap::new(config));
        let a = Tensor::from_fn(&[m, k], |i| hashed_act(i, seed, 50));
        let b = Tensor::from_fn(&[k, n], |i| ((i % 9) as f32 - 4.0) * 0.3);
        let view = executor
            .matmul_scenarios_view(&a, &b, &maps, MatmulHint::Auto)
            .unwrap();
        prop_assert_eq!(view.scenarios(), maps.len());
        prop_assert_eq!(view.dims(), (m, n));
        let eager = executor.matmul_scenarios(&a, &b, &maps).unwrap();
        for (s, map) in maps.iter().enumerate() {
            let materialised = view.tensor(s).unwrap();
            prop_assert_eq!(materialised.shape(), &[m, n]);
            for i in 0..m {
                prop_assert_eq!(view.row(s, i), &materialised.data()[i * n..(i + 1) * n]);
            }
            // The consuming form: gathered or moved out of a one-lane
            // buffer for faulty lanes, cloned out of the shared fault-free
            // product while other scenarios still hold it.
            let moved = view.clone().into_tensor(s).unwrap();
            prop_assert_eq!(moved.shape(), &[m, n]);
            prop_assert_eq!(moved.data(), materialised.data(), "into_tensor scenario {}", s);
            // The one-map case: a lone faulty lane moves its buffer and a
            // lone fault-free product is unwrapped.
            let single = executor
                .matmul_scenarios_view(&a, &b, std::slice::from_ref(map), MatmulHint::Auto)
                .unwrap()
                .into_tensor(0)
                .unwrap();
            prop_assert_eq!(single.data(), materialised.data(), "one-map scenario {}", s);
        }
        // And the eager wrapper is exactly the per-scenario gather.
        let gathered = view.into_tensors().unwrap();
        for (s, t) in gathered.iter().enumerate() {
            prop_assert_eq!(t.data(), eager[s].data(), "scenario {}", s);
        }
    }
}

// ---------------------------------------------------------------------------
// The hardware oracle: the structural PE-by-PE `SystolicArray` computes every
// product under the executor's weight-stationary tiling (fold carry, partial
// last fold, zero-started column tiles), so the executor must reproduce it
// bit for bit on every fault map with at least one fault. (A fault-free map
// is ideal hardware to the executor, which then returns the float product.)
// ---------------------------------------------------------------------------

/// Grids of 1-5 x 1-5 PEs, single-row and single-column arrays included.
fn oracle_grid() -> impl Strategy<Value = SystolicConfig> {
    (1usize..6, 1usize..6).prop_map(|(r, c)| SystolicConfig::new(r, c).unwrap())
}

/// A map of 1..=pe_count stuck-at faults, each on a random PE, accumulator
/// bit and polarity (a PE may collect several).
fn random_fault_map(config: &SystolicConfig, rng: &mut StdRng) -> FaultMap {
    let bits = config.accumulator_format().total_bits();
    let faults = (0..rng.gen_range(1..config.pe_count() + 1))
        .map(|_| {
            let pe = PeCoord::new(
                rng.gen_range(0..config.rows()),
                rng.gen_range(0..config.cols()),
            );
            let kind = if rng.gen_bool(0.5) {
                StuckAt::One
            } else {
                StuckAt::Zero
            };
            Fault::new(pe, rng.gen_range(0..bits), kind)
        })
        .collect();
    FaultMap::from_faults(*config, faults).unwrap()
}

/// The structural array's product under `map`, with the bypass multiplexer
/// of every faulty PE switched on when `bypass` is set.
fn oracle(config: SystolicConfig, map: &FaultMap, bypass: bool, a: &Tensor, b: &Tensor) -> Tensor {
    let mut array = SystolicArray::new(config, map);
    if bypass {
        array.bypass_faulty_pes();
    }
    array.matmul(a, b).unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(300))]

    #[test]
    fn executor_matches_structural_array_bit_for_bit(
        config in oracle_grid(),
        seed in 0u64..100_000,
        class in 0usize..3,
    ) {
        // k up to 4R+1 and n up to 4C+1 exercise the fold carry, the partial
        // last fold and the ragged last column tile. Activation classes:
        // binary spikes on dense operands, the same with a CSR spike index,
        // and real-valued activations (encoder-layer pixels, negatives
        // included). Weights sometimes reach the accumulator's saturation.
        let _lock = simd::test_override_lock();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(1..6);
        let k = rng.gen_range(1..4 * config.rows() + 2);
        let n = rng.gen_range(1..4 * config.cols() + 2);
        let density = rng.gen_range(0.0..1.0);
        let a = Tensor::from_fn(&[m, k], |_| {
            if !rng.gen_bool(density) {
                0.0
            } else if class == 2 {
                rng.gen_range(-2.0f32..2.0)
            } else {
                1.0
            }
        });
        let a = if class == 1 {
            let index = SpikeIndex::from_dense(a.data(), k).unwrap();
            a.with_spike_index(Arc::new(index))
        } else {
            a
        };
        let scale = [0.4f32, 6.0][rng.gen_range(0..2)];
        let b = falvolt_tensor::init::uniform(&[k, n], -scale, scale, &mut rng);
        let maps: Vec<FaultMap> = (0..3).map(|_| random_fault_map(&config, &mut rng)).collect();
        let expected: Vec<Tensor> =
            maps.iter().map(|map| oracle(config, map, false, &a, &b)).collect();

        for isa in simd::available() {
            let _g = simd::force(Some(isa));
            let executor = SystolicExecutor::new(config, maps[0].clone());
            let out = executor.matmul(&a, &b).unwrap();
            prop_assert_eq!(out.data(), expected[0].data(), "isa {}", isa);

            // Product cache on: skip, promote-and-fulfil, hit. Only the
            // CSR-indexed class reads the quantized-weight table.
            let shared = Arc::new(ProductCache::new());
            let mut cached = executor.clone();
            cached.set_product_cache(Some(Arc::clone(&shared)));
            for call in 0..3 {
                let out = cached.matmul(&a, &b).unwrap();
                prop_assert_eq!(out.data(), expected[0].data(), "isa {} cached call {}", isa, call);
            }
            if class == 1 {
                prop_assert!(shared.hits() >= 1, "the weight table was never read");
            }

            // Batched scenarios, checked per map, without and with a cache.
            let mut batch = SystolicExecutor::new(config, FaultMap::new(config));
            for call in 0..3 {
                let outs = batch.matmul_scenarios(&a, &b, &maps).unwrap();
                for (s, out) in outs.iter().enumerate() {
                    prop_assert_eq!(
                        out.data(),
                        expected[s].data(),
                        "isa {} scenario {} call {}", isa, s, call
                    );
                }
                if call == 0 {
                    batch.set_product_cache(Some(Arc::new(ProductCache::new())));
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Rows without events: a row with no nonzero activation adds nothing to any
// chain, so the executor copies one template row into every such row. Its
// value is the masks acting on a zero accumulator, which a stuck-at-1 fault
// makes nonzero, so the template must carry the oracle's bits in every lane,
// one-map and batched, with and without the shared quantized-weight table.
// ---------------------------------------------------------------------------

/// Three maps of `count` faulty PEs each: the MSB stuck at 1, a random bit
/// stuck at 0, and one bit stuck at 1 next to another stuck at 0 on each PE.
fn zero_row_maps(config: &SystolicConfig, count: usize, rng: &mut StdRng) -> Vec<FaultMap> {
    let bits = config.accumulator_format().total_bits();
    let msb = config.accumulator_format().msb();
    let sa0_bit = rng.gen_range(0..bits);
    let mixed = FaultMap::random_faulty_pes(config, count, 0, StuckAt::One, rng)
        .unwrap()
        .faulty_pes()
        .into_iter()
        .flat_map(|pe| {
            let one = rng.gen_range(0..bits);
            let zero = (one + rng.gen_range(1..bits)) % bits;
            [
                Fault::new(pe, one, StuckAt::One),
                Fault::new(pe, zero, StuckAt::Zero),
            ]
        })
        .collect();
    vec![
        FaultMap::random_faulty_pes(config, count, msb, StuckAt::One, rng).unwrap(),
        FaultMap::random_faulty_pes(config, count, sa0_bit, StuckAt::Zero, rng).unwrap(),
        FaultMap::from_faults(*config, mixed).unwrap(),
    ]
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn zero_event_rows_match_structural_array_bit_for_bit(
        config in oracle_grid(),
        seed in 0u64..100_000,
        class in 0usize..3,
    ) {
        // Every PE holds a weight (k >= rows, n >= cols), so the MSB
        // stuck-at-1 map gives every empty row a nonzero value. Activation
        // classes: binary dense, binary with a CSR spike index, real-valued.
        let _lock = simd::test_override_lock();
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(2..9);
        let k = rng.gen_range(config.rows()..4 * config.rows() + 2);
        let n = rng.gen_range(config.cols()..4 * config.cols() + 2);
        let forced = rng.gen_range(0..m);
        let zero_rows: Vec<bool> = (0..m).map(|i| i == forced || rng.gen_bool(0.5)).collect();
        let density = rng.gen_range(0.1..1.0);
        let a = Tensor::from_fn(&[m, k], |i| {
            if zero_rows[i / k] || !rng.gen_bool(density) {
                0.0
            } else if class == 2 {
                rng.gen_range(-2.0f32..2.0)
            } else {
                1.0
            }
        });
        let a = if class == 1 {
            let index = SpikeIndex::from_dense(a.data(), k).unwrap();
            a.with_spike_index(Arc::new(index))
        } else {
            a
        };
        let b = falvolt_tensor::init::uniform(&[k, n], -0.5, 0.5, &mut rng);
        let count = rng.gen_range(1..config.pe_count() + 1);
        let maps = zero_row_maps(&config, count, &mut rng);
        let expected: Vec<Vec<u32>> =
            maps.iter().map(|map| bits(&oracle(config, map, false, &a, &b))).collect();
        prop_assert!(
            expected[0][forced * n..(forced + 1) * n].iter().any(|&v| f32::from_bits(v) != 0.0),
            "the stuck-at-1 map leaves an empty row at zero"
        );

        for isa in simd::available() {
            let _g = simd::force(Some(isa));
            for (s, map) in maps.iter().enumerate() {
                // One-map products, without a cache and through one whose
                // weight table skips, promotes and then hits (the
                // CSR-indexed class; the others never read the table).
                let mut single = SystolicExecutor::new(config, map.clone());
                prop_assert_eq!(&bits(&single.matmul(&a, &b).unwrap()), &expected[s]);
                let cache = Arc::new(ProductCache::new());
                single.set_product_cache(Some(Arc::clone(&cache)));
                for call in 0..3 {
                    let out = bits(&single.matmul(&a, &b).unwrap());
                    prop_assert_eq!(&out, &expected[s], "isa {} map {} call {}", isa, s, call);
                }
                if class == 1 {
                    prop_assert!(cache.hits() >= 1, "the weight table was never read");
                }
            }
            // The multi-map batch, the same way.
            let mut batch = SystolicExecutor::new(config, FaultMap::new(config));
            let cache = Arc::new(ProductCache::new());
            for call in 0..4 {
                let outs = batch.matmul_scenarios(&a, &b, &maps).unwrap();
                for (s, out) in outs.iter().enumerate() {
                    prop_assert_eq!(
                        &bits(out),
                        &expected[s],
                        "isa {} batched map {} call {}", isa, s, call
                    );
                }
                if call == 0 {
                    batch.set_product_cache(Some(Arc::clone(&cache)));
                }
            }
            if class == 1 {
                prop_assert!(cache.promotions() >= 1 && cache.hits() >= 1);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Fault-aware pruning is the bypass multiplexer (the paper's Figure 3b): on
// the structural array, switching on the bypass of every faulty PE and
// running the weights `W` computes exactly what the fault-free array
// computes on the pruned weights `prune_mask ⊙ W`. This is why neither the
// executor nor the backend has a bypass mode.
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(320))]

    #[test]
    fn bypassed_array_equals_fault_free_array_on_pruned_weights(
        config in oracle_grid(),
        seed in 0u64..100_000,
        conv_choice in 0usize..2,
        binary_choice in 0usize..2,
    ) {
        // Layer weights are `[out, in]` and the product runs on their
        // transpose: a linear layer has any `in`, a conv layer lowered by
        // im2col has `in = C·k·k`. Ragged folds and tiles come with shapes
        // up to four grids plus one. Weights sometimes reach saturation.
        let mut rng = StdRng::seed_from_u64(seed);
        let map = random_fault_map(&config, &mut rng);
        let out_dim = rng.gen_range(1..4 * config.cols() + 2);
        let in_dim = if conv_choice == 1 {
            let channels = rng.gen_range(1..4);
            let kernel = rng.gen_range(1..4);
            channels * kernel * kernel
        } else {
            rng.gen_range(1..4 * config.rows() + 2)
        };
        let m = rng.gen_range(1..6);
        let density = rng.gen_range(0.0..1.0);
        let a = Tensor::from_fn(&[m, in_dim], |_| {
            if !rng.gen_bool(density) {
                0.0
            } else if binary_choice == 1 {
                1.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        });
        let scale = [0.4f32, 6.0][rng.gen_range(0..2)];
        let w = falvolt_tensor::init::uniform(&[out_dim, in_dim], -scale, scale, &mut rng);
        let mask = WeightMapping::new(&config).prune_mask(out_dim, in_dim, &map);
        let pruned = w.mul(&mask).unwrap();

        let mut bypassed = SystolicArray::new(config, &map);
        bypassed.bypass_faulty_pes();
        // The hardware bypasses exactly the PEs the fault map prunes.
        for row in 0..config.rows() {
            for col in 0..config.cols() {
                let pe = PeCoord::new(row, col);
                prop_assert_eq!(bypassed.pe(pe).unwrap().is_bypassed(), map.is_faulty(pe));
            }
        }
        let on_chip = bypassed.matmul(&a, &w.transposed().unwrap()).unwrap();
        let fault_free = FaultMap::new(config);
        let fap = SystolicArray::new(config, &fault_free)
            .matmul(&a, &pruned.transposed().unwrap())
            .unwrap();
        let (on_chip, fap): (Vec<u32>, Vec<u32>) = (
            on_chip.data().iter().map(|x| x.to_bits()).collect(),
            fap.data().iter().map(|x| x.to_bits()).collect(),
        );
        prop_assert_eq!(on_chip, fap);
    }
}

// ---------------------------------------------------------------------------
// Thread-count independence: above the kernels' parallel work threshold the
// fault-chain row walk splits output rows across threads, and no split may
// change a bit.
// ---------------------------------------------------------------------------

#[test]
fn faulty_row_walk_splits_above_the_grain_without_changing_a_bit() {
    struct ClearOverride;
    impl Drop for ClearOverride {
        fn drop(&mut self) {
            rayon::set_thread_count_override(0);
        }
    }
    let _lock = simd::test_override_lock();
    let _clear = ClearOverride;
    // Two faulty lanes of 512 rows × 64 columns × 128 deep on an 8×8 grid,
    // and one of 2048 rows × 32 columns × 48 deep (an encoder-shaped
    // product, ~20 ms serial)
    // on a 16×16 grid: faulty-lane units weigh a fault-chain step each.
    let cases = [
        ((8, 8), 2, 12, (512, 128, 64)),
        ((16, 16), 1, 6, (2048, 48, 32)),
    ];
    for ((rows, cols), map_count, faulty_pes, (m, k, n)) in cases {
        let config = SystolicConfig::new(rows, cols).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let maps: Vec<FaultMap> = (0..map_count)
            .map(|_| {
                FaultMap::random_faulty_pes(&config, faulty_pes, 9, StuckAt::One, &mut rng).unwrap()
            })
            .collect();
        let executor = SystolicExecutor::new(config, FaultMap::new(config));
        let a = Tensor::from_fn(&[m, k], |i| hashed_act(i, 41, 30));
        let b = Tensor::from_fn(&[k, n], |i| ((i % 13) as f32 - 6.0) * 0.17);
        let run = |threads: usize| {
            rayon::set_thread_count_override(threads);
            let before = rayon::parallel_calls();
            let out: Vec<Vec<u32>> = executor
                .matmul_scenarios(&a, &b, &maps)
                .unwrap()
                .iter()
                .map(|t| t.data().iter().map(|v| v.to_bits()).collect())
                .collect();
            (out, rayon::parallel_calls() - before)
        };
        let (serial, _) = run(1);
        for threads in 2..=6 {
            let (parallel, calls) = run(threads);
            assert!(calls > 0, "{m}x{k}x{n} did not split at {threads} threads");
            assert!(
                parallel == serial,
                "{m}x{k}x{n}: {threads} threads changed a bit"
            );
        }
    }
}

/// Above the grain every row panel builds its own zero-event template; with
/// every other row empty, each split must still give the oracle's bits.
#[test]
fn zero_event_rows_split_across_panels_without_changing_a_bit() {
    struct ClearOverride;
    impl Drop for ClearOverride {
        fn drop(&mut self) {
            rayon::set_thread_count_override(0);
        }
    }
    let _lock = simd::test_override_lock();
    let _clear = ClearOverride;
    let config = SystolicConfig::new(8, 8).unwrap();
    let mut rng = StdRng::seed_from_u64(43);
    let maps = zero_row_maps(&config, 12, &mut rng);
    let (m, k, n) = (256, 40, 24);
    let a = Tensor::from_fn(&[m, k], |i| {
        if (i / k) % 2 == 0 {
            0.0
        } else {
            hashed_act(i, 43, 30)
        }
    });
    let b = Tensor::from_fn(&[k, n], |i| ((i % 13) as f32 - 6.0) * 0.05);
    let expected: Vec<Vec<u32>> = maps
        .iter()
        .map(|map| bits(&oracle(config, map, false, &a, &b)))
        .collect();
    let executor = SystolicExecutor::new(config, FaultMap::new(config));
    for threads in 1..=4 {
        rayon::set_thread_count_override(threads);
        let before = rayon::parallel_calls();
        let outs = executor.matmul_scenarios(&a, &b, &maps).unwrap();
        assert!(
            threads == 1 || rayon::parallel_calls() > before,
            "no split at {threads} threads"
        );
        for (s, out) in outs.iter().enumerate() {
            assert!(bits(out) == expected[s], "map {s} at {threads} threads");
        }
    }
}
