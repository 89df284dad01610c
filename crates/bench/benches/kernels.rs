//! Supporting micro-benchmarks and ablations:
//!
//! * float vs clean-systolic vs faulty-systolic matrix products,
//! * im2col lowering,
//! * surrogate-gradient ablation (paper Eq. 2 triangular vs the ATan default)
//!   — the design-choice ablation called out in `DESIGN.md` §5.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use falvolt::{ScenarioProducts, SystolicBackend};
use falvolt_snn::config::ArchitectureConfig;
use falvolt_snn::layers::{
    AvgPool2d, Conv2d, Flatten, ForwardContext, Layer, Linear, Mode, SpikingLayer,
};
use falvolt_snn::neuron::NeuronConfig;
use falvolt_snn::surrogate::Surrogate;
use falvolt_snn::{
    EnginePreset, FloatBackend, MatmulBackend, MatmulOutput, MatmulRequest, SpikingNetwork,
    SweepCache,
};
use falvolt_systolic::{FaultMap, ProductCache, StuckAt, SystolicConfig, SystolicExecutor};
use falvolt_tensor::ops::Conv2dDims;
use falvolt_tensor::{ops, MatmulHint, OperandProfile, SpikeIndex, Tensor};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::{Arc, Mutex};
use std::time::Duration;

fn matmul_backends(c: &mut Criterion) {
    let activations = Tensor::from_fn(&[64, 72], |i| ((i % 3) == 0) as u8 as f32);
    let weights = Tensor::from_fn(&[72, 8], |i| (i % 7) as f32 * 0.05);
    let config = SystolicConfig::new(16, 16).unwrap();
    let mut rng = StdRng::seed_from_u64(1);
    let fault_map = FaultMap::random_faulty_pes(
        &config,
        16,
        config.accumulator_format().msb(),
        StuckAt::One,
        &mut rng,
    )
    .unwrap();

    let mut group = c.benchmark_group("kernels/matmul");
    group.bench_function("float", |b| {
        b.iter(|| criterion::black_box(ops::matmul(&activations, &weights).unwrap()))
    });
    let clean = SystolicExecutor::new(config, FaultMap::new(config));
    group.bench_function("systolic_clean", |b| {
        b.iter(|| criterion::black_box(clean.matmul(&activations, &weights).unwrap()))
    });
    let faulty = SystolicExecutor::new(config, fault_map);
    group.bench_function("systolic_faulty", |b| {
        b.iter(|| criterion::black_box(faulty.matmul(&activations, &weights).unwrap()))
    });
    group.finish();
}

fn im2col_lowering(c: &mut Criterion) {
    let dims = Conv2dDims::new(16, 8, 8, 16, 16, 3, 1, 1).unwrap();
    let input = Tensor::from_fn(&[16, 8, 16, 16], |i| (i % 5) as f32 * 0.2);
    c.bench_function("kernels/im2col_16x8x16x16_k3", |b| {
        b.iter(|| criterion::black_box(ops::im2col(&input, &dims).unwrap()))
    });
}

fn surrogate_ablation(c: &mut Criterion) {
    // Ablation: the training step cost and gradient flow of the paper's
    // triangular surrogate (Eq. 2) vs the ATan default, at several gammas.
    let backend = FloatBackend::new();
    let input = Tensor::from_fn(&[32, 256], |i| (i % 13) as f32 * 0.15);
    let grad = Tensor::ones(&[32, 256]);
    let mut group = c.benchmark_group("kernels/surrogate_ablation");
    let variants: Vec<(&str, Surrogate)> = vec![
        ("triangular_gamma_0.5", Surrogate::Triangular { gamma: 0.5 }),
        ("triangular_gamma_1.0", Surrogate::Triangular { gamma: 1.0 }),
        ("triangular_gamma_2.0", Surrogate::Triangular { gamma: 2.0 }),
        ("atan_alpha_2.0", Surrogate::Atan { alpha: 2.0 }),
        (
            "fast_sigmoid_alpha_4",
            Surrogate::FastSigmoid { alpha: 4.0 },
        ),
    ];
    for (name, surrogate) in variants {
        group.bench_with_input(BenchmarkId::from_parameter(name), &surrogate, |b, &s| {
            let config = NeuronConfig {
                surrogate: s,
                ..NeuronConfig::falvolt_retraining()
            };
            let mut layer = SpikingLayer::new("ablate", config);
            b.iter(|| {
                layer.reset_state();
                let ctx = ForwardContext::new(Mode::Train, &backend);
                let spikes = layer.forward(&input, &ctx).unwrap();
                let grad_in = layer.backward(&grad).unwrap();
                criterion::black_box((spikes, grad_in))
            })
        });
    }
    group.finish();
}

// ---------------------------------------------------------------------------
// Seed-vs-kernel-layer comparison (emits BENCH_kernels.json)
// ---------------------------------------------------------------------------

/// The seed's executor inner loop (pre-`FoldPlan`), kept verbatim as the
/// "before" baseline: per-element mask-tile lookups, every column through the
/// quantized chain, no parallelism, no clean-column fast path.
fn seed_executor_matmul(
    config: &SystolicConfig,
    fault_map: &FaultMap,
    activations: &Tensor,
    weights: &Tensor,
) -> Tensor {
    use falvolt_fixedpoint::Fixed;
    use falvolt_systolic::PeCoord;

    let (m, k) = (activations.shape()[0], activations.shape()[1]);
    let n = weights.shape()[1];
    let format = config.accumulator_format();
    let rows = config.rows();
    let cols = config.cols();
    let fault_free = fault_map.is_empty();
    let a = activations.data();
    let w = weights.data();
    let mut out = vec![0.0f32; m * n];
    let mut mask_tile = vec![None; rows * cols];
    if !fault_free {
        for r in 0..rows {
            for c in 0..cols {
                mask_tile[r * cols + c] = fault_map.masks(PeCoord::new(r, c));
            }
        }
    }
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let col_fold = j % cols;
            let mut acc = Fixed::zero(format);
            for (p, &a_ip) in a_row.iter().enumerate() {
                let masks = if fault_free {
                    None
                } else {
                    mask_tile[(p % rows) * cols + col_fold]
                };
                if a_ip != 0.0 {
                    let contribution = Fixed::from_f32(a_ip * w[p * n + j], format);
                    acc = acc.saturating_add(contribution);
                }
                if let Some(masks) = masks {
                    acc = masks.apply(acc);
                }
            }
            out[i * n + j] = acc.to_f32();
        }
    }
    Tensor::from_vec(vec![m, n], out).unwrap()
}

/// Best-of-`reps` wall-clock time of `f`, in seconds.
fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::MAX;
    for _ in 0..reps {
        let start = std::time::Instant::now();
        criterion::black_box(f());
        best = best.min(start.elapsed().as_secs_f64());
    }
    best
}

/// Times `a` against `b` as `pairs` interleaved pairs and returns the
/// `(a, b)` seconds of the pair with the median `a / b` ratio. Each pair
/// times both back-to-back, alternating which runs first, so a ratio within
/// one pair cancels the drift of a shared machine that separate minima or
/// separate blocks would keep, and the median discards the pairs a burst
/// of load hit on one side only. Both closures get `state`, which they may
/// share mutably.
fn median_pair<S, A, B>(
    pairs: usize,
    state: &mut S,
    mut a: impl FnMut(&mut S) -> A,
    mut b: impl FnMut(&mut S) -> B,
) -> (f64, f64) {
    let mut timed: Vec<(f64, f64)> = (0..pairs)
        .map(|rep| {
            if rep % 2 == 0 {
                let a_s = best_of(1, || a(state));
                (a_s, best_of(1, || b(state)))
            } else {
                let b_s = best_of(1, || b(state));
                (best_of(1, || a(state)), b_s)
            }
        })
        .collect();
    timed.sort_by(|x, y| (x.0 / x.1).total_cmp(&(y.0 / y.1)));
    timed[pairs / 2]
}

/// A [`MatmulBackend`] that records, for every product, the measured lhs
/// density and whether the dispatcher's ISA-aware cutoff would route it to
/// the event-driven kernel — the instrumentation behind the kernel-choice
/// sweep.
#[derive(Debug, Default)]
struct RecordingBackend {
    inner: FloatBackend,
    calls: Mutex<Vec<(f32, bool)>>,
}

impl MatmulBackend for RecordingBackend {
    fn matmul_request(&self, req: MatmulRequest<'_>) -> falvolt_tensor::Result<MatmulOutput> {
        let profile = OperandProfile::measure(req.a().data());
        let event = !matches!(req.hint(), MatmulHint::Dense) && profile.is_event_sparse();
        self.calls
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push((profile.density, event));
        self.inner.matmul_request(req)
    }

    fn name(&self) -> &str {
        "recording"
    }
}

/// Per-layer dispatch statistics: `(layer, calls, event_fraction,
/// mean_lhs_density)`.
type LayerChoiceRow = (String, usize, f64, f64);

/// Runs each of the paper's three architectures (untrained weights, one
/// synthetic input batch, temporal prefix cache off so every step's dispatch
/// decision is visible) through a [`RecordingBackend`] and returns, per
/// matmul-bearing layer, one [`LayerChoiceRow`].
fn kernel_choice_sweep() -> Vec<(String, Vec<LayerChoiceRow>)> {
    let mut report = Vec::new();
    for config in [
        ArchitectureConfig::mnist_like(),
        ArchitectureConfig::nmnist_like(),
        ArchitectureConfig::dvs_gesture_like(),
    ] {
        let mut network = config.build(33).expect("architecture builds");
        network.set_engine_preset(EnginePreset::full().with_prefix_cache(false));
        let recorder = Arc::new(RecordingBackend::default());
        network.set_backend(Arc::clone(&recorder) as Arc<dyn MatmulBackend>);
        let mut rng = StdRng::seed_from_u64(77);
        let input = falvolt_tensor::init::uniform(
            &[
                8,
                config.input_channels,
                config.input_size,
                config.input_size,
            ],
            0.0,
            1.5,
            &mut rng,
        );
        network
            .forward(&input, Mode::Eval)
            .expect("forward for kernel-choice sweep");

        // With the prefix cache off, every time step issues the products of
        // the matmul-bearing layers in network order, so call index modulo
        // the layer count attributes each call.
        let mut layer_names = vec!["encode_conv".to_string()];
        for block in 1..=config.conv_blocks {
            layer_names.push(format!("conv{block}"));
        }
        layer_names.push("fc1".to_string());
        layer_names.push("fc2".to_string());
        let calls = recorder
            .calls
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone();
        assert_eq!(
            calls.len(),
            layer_names.len() * config.time_steps,
            "unexpected product count for {}",
            config.name
        );
        let rows = layer_names
            .iter()
            .enumerate()
            .map(|(l, name)| {
                let per_layer: Vec<&(f32, bool)> =
                    calls.iter().skip(l).step_by(layer_names.len()).collect();
                let events = per_layer.iter().filter(|(_, e)| *e).count();
                let mean_density = per_layer.iter().map(|(d, _)| f64::from(*d)).sum::<f64>()
                    / per_layer.len() as f64;
                (
                    name.clone(),
                    per_layer.len(),
                    events as f64 / per_layer.len() as f64,
                    mean_density,
                )
            })
            .collect();
        report.push((config.name.clone(), rows));
    }
    report
}

/// Times the seed's naive matmul against the blocked-parallel kernel at
/// 512x512x512 and the seed executor against the FoldPlan executor, then
/// writes the machine-readable comparison to `BENCH_kernels.json` at the
/// workspace root.
fn kernel_comparison(c: &mut Criterion) {
    use falvolt_tensor::kernels;
    use falvolt_tensor::simd;

    // Every timed entry below records the ISA the SIMD dispatcher resolved
    // to, so `bench_gate` can refuse to compare runs recorded on different
    // hardware (an AVX-512 baseline is meaningless on a NEON runner).
    let isa = simd::active().name();

    // --- matmul: naive vs blocked-parallel at 512^3 -----------------------
    let (m, k, n) = (512usize, 512usize, 512usize);
    let a: Vec<f32> = (0..m * k)
        .map(|i| ((i * 2654435761 + 11) % 1000) as f32 / 500.0 - 1.0)
        .collect();
    let b: Vec<f32> = (0..k * n)
        .map(|i| ((i * 2246822519 + 7) % 1000) as f32 / 500.0 - 1.0)
        .collect();
    let naive_s = best_of(5, || kernels::matmul_naive(&a, &b, m, k, n));
    let blocked_s = best_of(5, || kernels::matmul(&a, &b, m, k, n));
    let matmul_speedup = naive_s / blocked_s;

    // --- executor: seed loop vs FoldPlan path on a faulty 16x16 array -----
    let config = SystolicConfig::new(16, 16).unwrap();
    let mut rng = StdRng::seed_from_u64(7);
    let fault_map = FaultMap::random_faulty_pes(
        &config,
        8,
        config.accumulator_format().msb(),
        StuckAt::One,
        &mut rng,
    )
    .unwrap();
    let (em, ek, en) = (128usize, 256usize, 256usize);
    let acts = Tensor::from_fn(&[em, ek], |i| ((i % 3) == 0) as u8 as f32);
    let wts = Tensor::from_fn(&[ek, en], |i| (i % 11) as f32 * 0.02 - 0.1);
    let executor = SystolicExecutor::new(config, fault_map.clone());
    let seed_s = best_of(3, || seed_executor_matmul(&config, &fault_map, &acts, &wts));
    let foldplan_s = best_of(3, || executor.matmul(&acts, &wts).unwrap());
    let executor_speedup = seed_s / foldplan_s;

    // Same comparison with an empty fault map (the all-clean fast path).
    let clean_executor = SystolicExecutor::new(config, FaultMap::new(config));
    let empty_map = FaultMap::new(config);
    let seed_clean_s = best_of(3, || seed_executor_matmul(&config, &empty_map, &acts, &wts));
    let clean_s = best_of(3, || clean_executor.matmul(&acts, &wts).unwrap());

    // Interleaved pairs per sparse-matmul density and for the multi-map
    // batching entry (see `median_pair`).
    const SPARSE_PAIRS: usize = 11;
    const SCENARIO_PAIRS: usize = 7;

    // --- sparse spike matmul: event-driven vs dense blocked kernel --------
    // Binary lhs at paper-typical spike densities (<= 20%) plus the dense
    // fallback region; the dispatcher's cutoff is ISA-aware (25% scalar,
    // 15% on vector levels where the SIMD dense tile moved the crossover),
    // so a "speedup" field is only recorded where the event kernel engages
    // under the ISA this run dispatched to.
    let (sm, sk, sn) = (1024usize, 512usize, 64usize);
    let sb: Vec<f32> = (0..sk * sn)
        .map(|i| ((i * 2246822519 + 13) % 1000) as f32 / 500.0 - 1.0)
        .collect();
    let mut sparse_entries = Vec::new();
    for &density in &[0.0f32, 0.05, 0.10, 0.20, 0.50, 1.00] {
        let sa: Vec<f32> = (0..sm * sk)
            .map(|i| {
                let r = ((i * 2654435761 + 29) % 100_000) as f32 / 100_000.0;
                (r < density) as u8 as f32
            })
            .collect();
        let measured = OperandProfile::measure(&sa).density;
        // Near the cutoff the two kernels run within a few percent of each
        // other, less than a shared machine drifts between separate
        // best-ofs: time them as median pairs.
        let (dense_s, event_s) = median_pair(
            SPARSE_PAIRS,
            &mut (),
            |_| kernels::matmul(&sa, &sb, sm, sk, sn),
            |_| kernels::matmul_dispatch(&sa, &sb, sm, sk, sn, kernels::MatmulHint::Spikes),
        );
        let speedup_field = if measured <= kernels::sparse_density_cutoff() {
            format!(",\n      \"speedup\": {:.3}", dense_s / event_s)
        } else {
            // Dense fallback: the dispatcher picks the blocked kernel, the
            // ratio is ~1.0 noise, not a speedup claim.
            String::new()
        };
        sparse_entries.push(format!(
            "    {{\n      \"isa\": \"{isa}\",\n      \"density\": {:.2},\n      \"measured_density\": {:.4},\n      \"dense_ms\": {:.3},\n      \"event_ms\": {:.3}{}\n    }}",
            density,
            measured,
            dense_s * 1e3,
            event_s * 1e3,
            speedup_field,
        ));
    }

    // --- CSR spike tensors: index walk vs dense kernel vs probe kernel ----
    // The event-stream representation at the kernel level: a prebuilt CSR
    // index (what a spiking layer attaches for free) against the dense
    // blocked kernel and the probe-based gather-accumulate kernel. The CSR
    // walk never scans the dense operand at all.
    let mut csr_entries = Vec::new();
    for &density in &[0.02f32, 0.05, 0.10, 0.20] {
        let sa: Vec<f32> = (0..sm * sk)
            .map(|i| {
                let r = ((i * 2654435761 + 41) % 100_000) as f32 / 100_000.0;
                (r < density) as u8 as f32
            })
            .collect();
        let index = SpikeIndex::from_dense(&sa, sk).expect("binary spike matrix");
        let measured = index.density();
        let dense_s = best_of(5, || kernels::matmul(&sa, &sb, sm, sk, sn));
        let probe_s = best_of(5, || {
            kernels::matmul_dispatch(&sa, &sb, sm, sk, sn, kernels::MatmulHint::Spikes)
        });
        let csr_s = best_of(5, || {
            kernels::matmul_spikes_indexed(&index, &sb, sm, sk, sn)
        });
        csr_entries.push(format!(
            "    {{\n      \"isa\": \"{isa}\",\n      \"density\": {:.2},\n      \"measured_density\": {:.4},\n      \"dense_ms\": {:.3},\n      \"probe_event_ms\": {:.3},\n      \"csr_ms\": {:.3},\n      \"speedup\": {:.3}\n    }}",
            density,
            measured,
            dense_s * 1e3,
            probe_s * 1e3,
            csr_s * 1e3,
            dense_s / csr_s,
        ));
    }

    // --- network forward: temporal prefix cache + spike kernels on vs off -
    // Direct-encoding shape of every figure sweep: the stateless encoder
    // prefix (5x5 conv + avg-pool, the expensive part) ahead of the first
    // spiking layer, then a spiking classifier head, over T = 8 steps on a
    // static input.
    let time_steps = 8usize;
    let net_input = Tensor::from_fn(&[8, 1, 32, 32], |i| {
        ((i * 2654435761 + 17) % 1000) as f32 / 400.0
    });
    let build_network = || {
        let mut network = SpikingNetwork::new(time_steps);
        network.push(Conv2d::new("conv", 1, 16, 5, 1, 2, 21).unwrap());
        network.push(AvgPool2d::new("pool", 2));
        network.push(SpikingLayer::new("sn1", NeuronConfig::paper_default()));
        network.push(Flatten::new("flatten"));
        network.push(Linear::new("fc", 16 * 16 * 16, 10, 22).unwrap());
        network.push(SpikingLayer::new("sn2", NeuronConfig::paper_default()));
        network
    };
    // Measure the hidden spike density the linear layer actually consumes.
    let spike_density = {
        let float = FloatBackend::new();
        let ctx = ForwardContext::new(Mode::Eval, &float);
        let mut conv = Conv2d::new("conv", 1, 16, 5, 1, 2, 21).unwrap();
        let mut pool = AvgPool2d::new("pool", 2);
        let mut sn1 = SpikingLayer::new("sn1", NeuronConfig::paper_default());
        let fm = conv.forward(&net_input, &ctx).unwrap();
        let pooled = pool.forward(&fm, &ctx).unwrap();
        let spikes = sn1.forward(&pooled, &ctx).unwrap();
        OperandProfile::measure(spikes.data()).density
    };
    let mut engine_on = build_network();
    let mut engine_off = build_network();
    engine_off.set_engine_preset(EnginePreset::seed_equivalent());
    let uncached_s = best_of(3, || engine_off.forward(&net_input, Mode::Eval).unwrap());
    let cached_s = best_of(3, || engine_on.forward(&net_input, Mode::Eval).unwrap());

    // --- Fig-5-shaped scenario sweep: 32 fault maps x one input batch ------
    // The sweep axis of every figure: many fault scenarios against the same
    // trained network and input. Baseline = one deep network clone per
    // scenario on a plain systolic backend (no sharing, no batching);
    // engine = scenario views on Arc-shared weights, the im2col/prefix
    // sweep cache, the shared clean-product cache and multi-map batching.
    // Outputs are asserted bit-identical before anything is timed.
    let sys16 = SystolicConfig::new(16, 16).unwrap();
    let msb = sys16.accumulator_format().msb();
    let scenario_maps: Vec<FaultMap> = (0..32)
        .map(|i| {
            let mut rng = StdRng::seed_from_u64(0x5CEA ^ ((i as u64) << 8));
            let faulty_pes = 2 + (i % 7);
            FaultMap::random_faulty_pes(&sys16, faulty_pes, msb, StuckAt::One, &mut rng).unwrap()
        })
        .collect();
    let scenario_net = build_network();
    let run_per_clone_baseline = || -> Vec<Tensor> {
        scenario_maps
            .iter()
            .map(|map| {
                let mut worker = scenario_net.unshared_clone();
                worker.set_backend(SystolicBackend::shared(sys16, map.clone()));
                worker.forward(&net_input, Mode::Eval).unwrap()
            })
            .collect()
    };
    let run_scenario_engine = || -> Vec<Tensor> {
        // Fresh caches per run: the sweep owns them, and timing must include
        // the misses that fill them. Workers are members of one
        // ScenarioProducts set, so products against scenario-invariant
        // operands are evaluated for all 32 maps in one batched event walk.
        let sweep_cache = Arc::new(SweepCache::new());
        let product_cache = Arc::new(ProductCache::new());
        let set = Arc::new(ScenarioProducts::new(
            sys16,
            scenario_maps.clone(),
            Arc::clone(&product_cache),
        ));
        (0..scenario_maps.len())
            .map(|s| {
                let mut worker = scenario_net.scenario_view();
                worker.set_sweep_cache(Some(Arc::clone(&sweep_cache)));
                worker.set_backend(ScenarioProducts::member(&set, s).unwrap());
                worker.forward(&net_input, Mode::Eval).unwrap()
            })
            .collect()
    };
    let baseline_outputs = run_per_clone_baseline();
    let engine_outputs = run_scenario_engine();
    assert_eq!(baseline_outputs.len(), engine_outputs.len());
    for (i, (a, b)) in baseline_outputs.iter().zip(&engine_outputs).enumerate() {
        assert_eq!(
            a.data(),
            b.data(),
            "scenario {i} diverged from the per-clone baseline"
        );
    }
    let scenario_baseline_s = best_of(2, run_per_clone_baseline);
    let scenario_engine_s = best_of(2, run_scenario_engine);

    // --- campaign-driven Fig-5 sweep: the scheduler's eval fan-out ---------
    // The same 32 scenarios driven through `scenario_accuracies` — the exact
    // fan-out the Campaign scheduler uses for evaluation cells (scenario
    // views, preset threading, sweep/product caches, ScenarioProducts
    // batching) — against the sequential per-clone reference engine.
    // Accuracies are asserted identical before timing.
    let (campaign_reference_s, campaign_engine_s) = {
        use falvolt::vulnerability::{reference_accuracies, scenario_accuracies, SweepCaches};
        use falvolt_snn::trainer::Batch;
        let campaign_test = vec![Batch::new(net_input.clone(), (0..8).collect()).unwrap()];
        let scenario_list: Vec<(SystolicConfig, FaultMap)> =
            scenario_maps.iter().map(|m| (sys16, m.clone())).collect();
        let reference =
            reference_accuracies(&scenario_net, &scenario_list, &campaign_test).unwrap();
        let campaign = scenario_accuracies(
            &scenario_net,
            scenario_list.clone(),
            &campaign_test,
            &SweepCaches::new(),
            &EnginePreset::full(),
        )
        .unwrap();
        assert_eq!(
            reference, campaign,
            "campaign eval fan-out diverged from the per-clone reference"
        );
        let campaign_reference_s = best_of(2, || {
            reference_accuracies(&scenario_net, &scenario_list, &campaign_test).unwrap()
        });
        let campaign_engine_s = best_of(2, || {
            // Fresh caches per run: the campaign owns them, and timing must
            // include the misses that fill them.
            scenario_accuracies(
                &scenario_net,
                scenario_list.clone(),
                &campaign_test,
                &SweepCaches::new(),
                &EnginePreset::full(),
            )
            .unwrap()
        });
        (campaign_reference_s, campaign_engine_s)
    };

    // --- checkpointed campaign: wave checkpointing + wire-format overhead --
    // A Fig-5 faulty-PE plan driven through the actual `Campaign` scheduler,
    // uncheckpointed (one wave, all scenarios batched) vs checkpointing
    // every `checkpoint_every` cells — where the sink pays the full resume
    // wire cost (serialize to JSON, parse back, verify). Results are
    // asserted bit-identical before timing. The gated "speedup" encodes the
    // < 3% overhead budget as `1.03 x uncheckpointed / checkpointed`, so the
    // standard floor-1.0 gate trips whenever checkpointing costs more than
    // 3% of the run.
    const CHECKPOINT_EVERY: usize = 8;
    // Odd, so the median pair is one measured pair.
    const CHECKPOINT_PAIRS: usize = 9;
    let (campaign_plain_s, campaign_checkpointed_s, checkpointed_cells) = {
        use falvolt::campaign::{Axis, Campaign, CampaignCheckpoint};
        use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
        fn plan(ctx: &mut ExperimentContext) -> Campaign<'_> {
            Campaign::new(ctx)
                .axis(Axis::FaultyPes((0..16).map(|i| i * 2).collect()))
                .scenarios_per_cell(2)
                .seed(0x51D)
        }
        let mut ctx =
            ExperimentContext::prepare(DatasetKind::Mnist, ExperimentScale::Tiny, 42).unwrap();
        let run_checkpointed = |ctx: &mut ExperimentContext| {
            plan(ctx)
                .checkpoint_every(CHECKPOINT_EVERY)
                .checkpoint_sink(|cp| {
                    let wire = cp.to_json();
                    let reloaded = CampaignCheckpoint::from_json(&wire).unwrap();
                    assert_eq!(&reloaded, cp, "checkpoint wire round-trip diverged");
                    criterion::black_box(wire);
                })
                .run()
                .unwrap()
        };
        let plain = plan(&mut ctx).run().unwrap();
        let checkpointed = run_checkpointed(&mut ctx);
        assert_eq!(
            plain, checkpointed,
            "wave checkpointing must not change campaign results"
        );
        // The two variants differ by ~1% while run-to-run drift on a
        // shared machine is ~3%: time them as median pairs.
        let (plain_s, checkpointed_s) = median_pair(
            CHECKPOINT_PAIRS,
            &mut ctx,
            |ctx| plan(ctx).run().unwrap(),
            run_checkpointed,
        );
        (plain_s, checkpointed_s, plain.len())
    };

    // --- executor-level multi-map batching: per-map loop vs one event walk -
    // The same 32 fault maps against one encoder-shaped product
    // (m x k x n = 2048 x 48 x 32 on the 16x16 grid): the per-map loop
    // re-resolves every row's event list and re-quantizes every contribution
    // once per map; `matmul_scenarios` walks the stream once for all maps.
    let (bm, bk, bn) = (2048usize, 48usize, 32usize);
    let batch_a = Tensor::from_fn(&[bm, bk], |i| ((i * 2654435761 + 23) % 1000) as f32 / 400.0);
    let batch_b = Tensor::from_fn(&[bk, bn], |i| (i % 11) as f32 * 0.02 - 0.1);
    let per_map_exec: Vec<SystolicExecutor> = scenario_maps
        .iter()
        .map(|map| SystolicExecutor::new(sys16, map.clone()))
        .collect();
    let batch_exec = SystolicExecutor::new(sys16, FaultMap::new(sys16));
    let per_map_outputs: Vec<Tensor> = per_map_exec
        .iter()
        .map(|e| e.matmul(&batch_a, &batch_b).unwrap())
        .collect();
    let batched_outputs = batch_exec
        .matmul_scenarios(&batch_a, &batch_b, &scenario_maps)
        .unwrap();
    for (s, (a_out, b_out)) in per_map_outputs.iter().zip(&batched_outputs).enumerate() {
        assert_eq!(
            a_out.data(),
            b_out.data(),
            "batched scenario {s} diverged from the per-map product"
        );
    }
    // The per-map side splits across workers, so it swings with the load
    // on the other core: time both sides as median pairs.
    let (per_map_s, batched_s) = median_pair(
        SCENARIO_PAIRS,
        &mut (),
        |_| {
            per_map_exec
                .iter()
                .map(|e| e.matmul(&batch_a, &batch_b).unwrap())
                .collect::<Vec<_>>()
        },
        |_| {
            batch_exec
                .matmul_scenarios(&batch_a, &batch_b, &scenario_maps)
                .unwrap()
        },
    );

    // --- SIMD kernel layer: forced-scalar vs runtime-dispatched lanes -----
    // The three lifted hot loops, each timed with the dispatcher pinned to
    // the scalar reference kernels and again on the detected ISA. Outputs
    // are checked for equivalence before anything is timed: the dense tile
    // uses fused multiply-add, so it gets the documented 1e-5 relative
    // tolerance; spike row-adds and the quantized fault chains are
    // bit-identical by contract.
    let simd_scalar_dense_s;
    let scalar_dense = {
        let _scalar = simd::force(Some(simd::Isa::Scalar));
        let out = kernels::matmul(&a, &b, m, k, n);
        simd_scalar_dense_s = best_of(5, || kernels::matmul(&a, &b, m, k, n));
        out
    };
    let simd_dense = kernels::matmul(&a, &b, m, k, n);
    for (i, (s, v)) in scalar_dense.iter().zip(&simd_dense).enumerate() {
        let tol = 1e-5f32 * s.abs().max(v.abs()).max(1.0);
        assert!(
            (s - v).abs() <= tol,
            "dense element {i} diverged: scalar {s} vs {isa} {v}"
        );
    }
    let simd_dense_s = best_of(5, || kernels::matmul(&a, &b, m, k, n));

    let simd_csr_a: Vec<f32> = (0..sm * sk)
        .map(|i| {
            let r = ((i * 2654435761 + 41) % 100_000) as f32 / 100_000.0;
            (r < 0.10) as u8 as f32
        })
        .collect();
    let simd_csr_index = SpikeIndex::from_dense(&simd_csr_a, sk).expect("binary spike matrix");
    let simd_scalar_csr_s;
    let scalar_csr = {
        let _scalar = simd::force(Some(simd::Isa::Scalar));
        let out = kernels::matmul_spikes_indexed(&simd_csr_index, &sb, sm, sk, sn);
        simd_scalar_csr_s = best_of(5, || {
            kernels::matmul_spikes_indexed(&simd_csr_index, &sb, sm, sk, sn)
        });
        out
    };
    let simd_csr = kernels::matmul_spikes_indexed(&simd_csr_index, &sb, sm, sk, sn);
    assert_eq!(
        scalar_csr, simd_csr,
        "CSR spike row-adds must be bit-identical across ISAs"
    );
    let simd_csr_s = best_of(5, || {
        kernels::matmul_spikes_indexed(&simd_csr_index, &sb, sm, sk, sn)
    });

    let simd_scalar_exec_s;
    let scalar_exec = {
        let _scalar = simd::force(Some(simd::Isa::Scalar));
        let out = executor.matmul(&acts, &wts).unwrap();
        simd_scalar_exec_s = best_of(3, || executor.matmul(&acts, &wts).unwrap());
        out
    };
    let simd_exec = executor.matmul(&acts, &wts).unwrap();
    assert_eq!(
        scalar_exec.data(),
        simd_exec.data(),
        "quantized fault chains must be bit-identical across ISAs"
    );
    let simd_exec_s = best_of(3, || executor.matmul(&acts, &wts).unwrap());

    let simd_section = format!(
        "  \"simd_kernels\": {{\n    \"dense_matmul_512x512x512\": {{\n      \"isa\": \"{isa}\",\n      \"scalar_ms\": {:.3},\n      \"simd_ms\": {:.3},\n      \"speedup\": {:.3}\n    }},\n    \"csr_matmul_1024x512x64_density_0.10\": {{\n      \"isa\": \"{isa}\",\n      \"bit_identical\": true,\n      \"scalar_ms\": {:.3},\n      \"simd_ms\": {:.3},\n      \"speedup\": {:.3}\n    }},\n    \"executor_faulty_16x16_m128_k256_n256\": {{\n      \"isa\": \"{isa}\",\n      \"bit_identical\": true,\n      \"scalar_ms\": {:.3},\n      \"simd_ms\": {:.3},\n      \"speedup\": {:.3}\n    }}\n  }}",
        simd_scalar_dense_s * 1e3,
        simd_dense_s * 1e3,
        simd_scalar_dense_s / simd_dense_s,
        simd_scalar_csr_s * 1e3,
        simd_csr_s * 1e3,
        simd_scalar_csr_s / simd_csr_s,
        simd_scalar_exec_s * 1e3,
        simd_exec_s * 1e3,
        simd_scalar_exec_s / simd_exec_s,
    );

    // --- kernel-choice frequency across the paper's architectures ---------
    let choice_report = kernel_choice_sweep();
    let choice_sections: Vec<String> = choice_report
        .iter()
        .map(|(arch, rows)| {
            let entries: Vec<String> = rows
                .iter()
                .map(|(layer, calls, event_frac, mean_density)| {
                    format!(
                        "    {{\n      \"layer\": \"{layer}\",\n      \"calls\": {calls},\n      \"event_kernel_frac\": {event_frac:.4},\n      \"mean_lhs_density\": {mean_density:.4}\n    }}"
                    )
                })
                .collect();
            format!(
                "  \"kernel_choice_{arch}\": [\n{}\n  ]",
                entries.join(",\n")
            )
        })
        .collect();

    let threads = rayon::current_num_threads();
    let json = format!(
        "{{\n  \"bench\": \"kernels\",\n  \"command\": \"cargo bench -p falvolt-bench --bench kernels\",\n  \"threads\": {threads},\n  \"matmul_512x512x512\": {{\n    \"isa\": \"{isa}\",\n    \"naive_ms\": {:.3},\n    \"blocked_parallel_ms\": {:.3},\n    \"speedup\": {:.3}\n  }},\n  \"executor_faulty_16x16_m128_k256_n256\": {{\n    \"isa\": \"{isa}\",\n    \"seed_loop_ms\": {:.3},\n    \"foldplan_ms\": {:.3},\n    \"speedup\": {:.3}\n  }},\n  \"executor_fault_free_16x16_m128_k256_n256\": {{\n    \"isa\": \"{isa}\",\n    \"seed_loop_ms\": {:.3},\n    \"clean_fast_path_ms\": {:.3},\n    \"speedup\": {:.3}\n  }},\n  \"sparse_matmul_1024x512x64\": [\n{}\n  ],\n  \"csr_matmul_1024x512x64\": [\n{}\n  ],\n  \"network_forward_prefix_cache_T8_conv16k5_pool_32x32\": {{\n    \"isa\": \"{isa}\",\n    \"time_steps\": {time_steps},\n    \"spike_density\": {:.4},\n    \"uncached_dense_ms\": {:.3},\n    \"event_engine_ms\": {:.3},\n    \"speedup\": {:.3}\n  }},\n  \"scenario_sweep_fig5_32maps_T8_conv16k5_pool_32x32\": {{\n    \"isa\": \"{isa}\",\n    \"scenarios\": {},\n    \"time_steps\": {time_steps},\n    \"bit_identical\": true,\n    \"per_clone_baseline_ms\": {:.3},\n    \"engine_ms\": {:.3},\n    \"speedup\": {:.3}\n  }},\n  \"campaign_fig5_eval_32maps_T8_conv16k5_pool_32x32\": {{\n    \"isa\": \"{isa}\",\n    \"scenarios\": {},\n    \"time_steps\": {time_steps},\n    \"bit_identical\": true,\n    \"per_clone_reference_ms\": {:.3},\n    \"campaign_ms\": {:.3},\n    \"speedup\": {:.3}\n  }},\n  \"campaign_fig5_checkpointed\": {{\n    \"isa\": \"{isa}\",\n    \"cells\": {},\n    \"scenarios_per_cell\": 2,\n    \"checkpoint_every\": {CHECKPOINT_EVERY},\n    \"bit_identical\": true,\n    \"overhead_budget\": 1.03,\n    \"uncheckpointed_ms\": {:.3},\n    \"checkpointed_ms\": {:.3},\n    \"speedup\": {:.3}\n  }},\n  \"matmul_scenarios_32maps_16x16_m2048_k48_n32\": {{\n    \"isa\": \"{isa}\",\n    \"scenarios\": {},\n    \"bit_identical\": true,\n    \"per_map_ms\": {:.3},\n    \"batched_ms\": {:.3},\n    \"speedup\": {:.3}\n  }},\n{simd_section},\n{}\n}}\n",
        naive_s * 1e3,
        blocked_s * 1e3,
        matmul_speedup,
        seed_s * 1e3,
        foldplan_s * 1e3,
        executor_speedup,
        seed_clean_s * 1e3,
        clean_s * 1e3,
        seed_clean_s / clean_s,
        sparse_entries.join(",\n"),
        csr_entries.join(",\n"),
        spike_density,
        uncached_s * 1e3,
        cached_s * 1e3,
        uncached_s / cached_s,
        scenario_maps.len(),
        scenario_baseline_s * 1e3,
        scenario_engine_s * 1e3,
        scenario_baseline_s / scenario_engine_s,
        scenario_maps.len(),
        campaign_reference_s * 1e3,
        campaign_engine_s * 1e3,
        campaign_reference_s / campaign_engine_s,
        checkpointed_cells,
        campaign_plain_s * 1e3,
        campaign_checkpointed_s * 1e3,
        1.03 * campaign_plain_s / campaign_checkpointed_s,
        scenario_maps.len(),
        per_map_s * 1e3,
        batched_s * 1e3,
        per_map_s / batched_s,
        choice_sections.join(",\n"),
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_kernels.json");
    std::fs::write(path, &json).expect("write BENCH_kernels.json");
    println!("kernel comparison written to BENCH_kernels.json:\n{json}");

    // Register the same comparisons as criterion benchmarks for trend runs.
    let mut group = c.benchmark_group("kernels/matmul_512");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("naive", |bch| {
        bch.iter(|| criterion::black_box(kernels::matmul_naive(&a, &b, m, k, n)))
    });
    group.bench_function("blocked_parallel", |bch| {
        bch.iter(|| criterion::black_box(kernels::matmul(&a, &b, m, k, n)))
    });
    group.finish();

    let mut group = c.benchmark_group("kernels/executor_faulty");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("seed_loop", |bch| {
        bch.iter(|| criterion::black_box(seed_executor_matmul(&config, &fault_map, &acts, &wts)))
    });
    group.bench_function("foldplan", |bch| {
        bch.iter(|| criterion::black_box(executor.matmul(&acts, &wts).unwrap()))
    });
    group.finish();

    // Trend registrations for the event-driven engine comparisons.
    let sa10: Vec<f32> = (0..sm * sk)
        .map(|i| {
            let r = ((i * 2654435761 + 29) % 100_000) as f32 / 100_000.0;
            (r < 0.10) as u8 as f32
        })
        .collect();
    let mut group = c.benchmark_group("kernels/sparse_matmul_density_0.10");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(3));
    group.bench_function("dense_blocked", |bch| {
        bch.iter(|| criterion::black_box(kernels::matmul(&sa10, &sb, sm, sk, sn)))
    });
    group.bench_function("event_driven", |bch| {
        bch.iter(|| {
            criterion::black_box(kernels::matmul_dispatch(
                &sa10,
                &sb,
                sm,
                sk,
                sn,
                kernels::MatmulHint::Spikes,
            ))
        })
    });
    group.finish();

    let mut group = c.benchmark_group("kernels/network_forward_T8");
    group
        .sample_size(10)
        .measurement_time(Duration::from_secs(5));
    group.bench_function("dense_uncached", |bch| {
        bch.iter(|| criterion::black_box(engine_off.forward(&net_input, Mode::Eval).unwrap()))
    });
    group.bench_function("event_engine", |bch| {
        bch.iter(|| criterion::black_box(engine_on.forward(&net_input, Mode::Eval).unwrap()))
    });
    group.finish();
}

fn config() -> Criterion {
    Criterion::default()
        .sample_size(20)
        .warm_up_time(Duration::from_millis(500))
        .measurement_time(Duration::from_secs(3))
}

criterion_group! {
    name = benches;
    config = config();
    targets = kernel_comparison, matmul_backends, im2col_lowering, surrogate_ablation
}
criterion_main!(benches);
