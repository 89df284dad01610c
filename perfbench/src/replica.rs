//! The traced run: the same workload rebuilt from each crate's public
//! functions, with a span or counter around every call the per-layer
//! metrics come from.
//!
//! Every step mirrors what `ExperimentContext::prepare`, `Trainer`,
//! `Campaign::run` and `Mitigator::run` do, in the same order and with the
//! same seeds, so the traced run reproduces the untraced accuracies bit for
//! bit. The benchmark checks that it does.

use crate::trace::{self_time, SpanId, Trace};
use crate::{BenchError, CellOutcome, Plan, RunOutcome, Workload, SCALE};
use falvolt::mitigation::MitigationStrategy;
use falvolt::prune::PruneMasks;
use falvolt::vulnerability::scenario_accuracies;
use falvolt::{SweepCaches, SystolicBackend};
use falvolt_datasets::{to_batches, Dataset, DatasetConfig, SyntheticDvsGesture, SyntheticMnist};
use falvolt_snn::loss::{Loss, MseRateLoss};
use falvolt_snn::optim::{Adam, Optimizer};
use falvolt_snn::trainer::{evaluate, Batch};
use falvolt_snn::{EnginePreset, FloatBackend, Mode, SpikingNetwork, SweepCache};
use falvolt_systolic::{FaultMap, StuckAt, SystolicConfig};
use falvolt_tensor::reduce;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::sync::Arc;

/// Learning rate of baseline training and of retraining (the library's
/// `ExperimentContext` and `RetrainConfig::paper_like` both use 5e-3).
const LEARNING_RATE: f32 = 5e-3;

/// What the traced set-up phase leaves behind: the library's
/// `ExperimentContext`, rebuilt.
struct Prepared {
    network: SpikingNetwork,
    baseline_state: Vec<falvolt_tensor::Tensor>,
    baseline_accuracy: f32,
    train: Vec<Batch>,
    test: Vec<Batch>,
    classes: usize,
    systolic: SystolicConfig,
}

/// A traced run's results: the run outcome plus the trace it recorded.
#[derive(Debug)]
pub struct TracedRun {
    /// Timings and per-cell accuracies, comparable with the untraced run.
    pub outcome: RunOutcome,
    /// The recorded spans and counters.
    pub trace: Trace,
    /// Id of the campaign span.
    pub campaign_span: SpanId,
}

/// Runs `workload` with tracing on.
///
/// # Errors
///
/// Propagates data, training and evaluation errors, and any failed cell.
pub fn run_traced(workload: Workload, plan: &Plan, seed: u64) -> Result<TracedRun, BenchError> {
    let trace = Trace::new();
    let setup = trace.open("setup", None);
    let mut prepared = prepare(workload, seed, &trace, setup)?;
    trace.close(setup);

    // Outside the campaign span: one faulty-map forward over the test set
    // through a plain (unbatched) systolic backend, for the per-layer
    // systolic split.
    unbatched_systolic_pass(&prepared, seed, &trace)?;

    let campaign = trace.open("campaign", None);
    let cells = match plan {
        Plan::Vuln { faulty_pes, maps } => {
            vuln_campaign(&mut prepared, faulty_pes, *maps, seed, &trace, campaign)?
        }
        Plan::Mitigate { rates, strategies } => {
            mitigate_campaign(&mut prepared, rates, strategies, seed, &trace, campaign)?
        }
    };
    trace.close(campaign);

    let spans = trace.spans();
    let outcome = RunOutcome {
        setup_s: spans[setup].duration(),
        campaign_s: spans[campaign].duration(),
        baseline_accuracy: prepared.baseline_accuracy,
        cells: plan
            .cell_labels()
            .into_iter()
            .zip(cells)
            .map(|(label, accuracy)| CellOutcome {
                label,
                accuracy,
                completed: true,
            })
            .collect(),
    };
    Ok(TracedRun {
        outcome,
        trace,
        campaign_span: campaign,
    })
}

impl TracedRun {
    /// The campaign span's self time: its duration minus the part its
    /// child spans cover.
    pub fn campaign_self_s(&self) -> f64 {
        self_time(&self.trace.spans(), self.campaign_span)
    }
}

/// `ExperimentContext::prepare`, rebuilt: generate, batch, build, train,
/// evaluate.
fn prepare(
    workload: Workload,
    seed: u64,
    trace: &Trace,
    parent: SpanId,
) -> Result<Prepared, BenchError> {
    let kind = workload.dataset();
    let architecture = kind.architecture();
    let config =
        DatasetConfig::default_experiment().with_samples_per_class(SCALE.samples_per_class());
    let batch_size = SCALE.batch_size();
    let (train, test) = trace.span("datasets.generate", Some(parent), || {
        let (train, test): (Box<dyn Dataset>, Box<dyn Dataset>) = match workload {
            Workload::VulnMnist | Workload::MitigateMnist => {
                let (train, test) = SyntheticMnist::train_test(&config, seed);
                (Box::new(train), Box::new(test))
            }
            Workload::VulnDvs => {
                let config = config.with_time_steps(architecture.time_steps);
                let (train, test) = SyntheticDvsGesture::train_test(&config, seed);
                (Box::new(train), Box::new(test))
            }
        };
        (
            to_batches(train.as_ref(), batch_size, seed),
            to_batches(test.as_ref(), batch_size, seed.wrapping_add(1)),
        )
    });
    let to_batch = |b: falvolt_datasets::LabeledBatch| Batch::new(b.input, b.labels);
    let train = train
        .into_iter()
        .map(to_batch)
        .collect::<Result<Vec<_>, _>>()?;
    let test = test
        .into_iter()
        .map(to_batch)
        .collect::<Result<Vec<_>, _>>()?;

    let mut network = trace.instrument(architecture.build(seed)?);
    let classes = kind.classes();
    let mut optimizer = Adam::new(LEARNING_RATE);
    let loss = MseRateLoss::new();
    for _ in 0..SCALE.baseline_epochs() {
        train_epoch(
            &mut network,
            &mut optimizer,
            &loss,
            &train,
            classes,
            trace,
            parent,
        )?;
    }
    let baseline_accuracy = trace.span("snn.eval.forward", Some(parent), || {
        evaluate(&mut network, &test)
    })?;
    let baseline_state = network.export_parameters();
    Ok(Prepared {
        network,
        baseline_state,
        baseline_accuracy,
        train,
        test,
        classes,
        systolic: SystolicConfig::new(16, 16)?,
    })
}

/// One `Trainer::train_epoch` / `Mitigator::run` epoch, rebuilt from
/// `SpikingNetwork::forward`/`backward` and `Adam::step`.
fn train_epoch(
    network: &mut SpikingNetwork,
    optimizer: &mut Adam,
    loss: &MseRateLoss,
    batches: &[Batch],
    classes: usize,
    trace: &Trace,
    parent: SpanId,
) -> Result<(), BenchError> {
    for batch in batches {
        let targets = reduce::one_hot(&batch.labels, classes)?;
        network.zero_grads();
        let rates = trace.span("snn.train.forward", Some(parent), || {
            network.forward(&batch.input, Mode::Train)
        })?;
        loss.forward(&rates, &targets)?;
        let grad = loss.backward(&rates, &targets)?;
        trace.span("snn.train.backward", Some(parent), || {
            network.backward(&grad)
        })?;
        trace.span("snn.train.optim", Some(parent), || {
            optimizer.step(network.params_mut());
        });
    }
    trace.count("snn.train.epochs", 1.0);
    Ok(())
}

/// What `ExperimentContext::restore_baseline` does before a campaign, with
/// the timing backend in place of the bare float backend.
fn restore_baseline(prepared: &mut Prepared, trace: &Trace) -> Result<(), BenchError> {
    prepared
        .network
        .import_parameters(&prepared.baseline_state)?;
    prepared.network.set_thresholds_trainable(false);
    prepared
        .network
        .set_backend(crate::trace::TimingBackend::shared(
            FloatBackend::shared(),
            Arc::clone(&trace.tensor),
        ));
    Ok(())
}

fn unbatched_systolic_pass(
    prepared: &Prepared,
    seed: u64,
    trace: &Trace,
) -> Result<(), BenchError> {
    let msb = prepared.systolic.accumulator_format().msb();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5157_0000);
    let map = FaultMap::random_faulty_pes(&prepared.systolic, 16, msb, StuckAt::One, &mut rng)?;
    let mut view = prepared.network.scenario_view();
    view.set_backend(crate::trace::TimingBackend::shared(
        SystolicBackend::shared(prepared.systolic, map),
        Arc::clone(&trace.systolic),
    ));
    evaluate(&mut view, &prepared.test)?;
    Ok(())
}

/// `Campaign::run` over an `Axis::FaultyPes` plan: every cell's scenarios
/// go to one batched `scenario_accuracies` call, and each cell's accuracy
/// is the mean of its chunk.
fn vuln_campaign(
    prepared: &mut Prepared,
    faulty_pes: &[usize],
    maps: usize,
    seed: u64,
    trace: &Trace,
    campaign: SpanId,
) -> Result<Vec<f32>, BenchError> {
    let systolic = prepared.systolic;
    let msb = systolic.accumulator_format().msb();
    let pools = trace.span("systolic.fault_map_draw", Some(campaign), || {
        faulty_pes
            .iter()
            .map(|&pes| {
                // `mixers::per_faulty_pe_count`.
                let mut rng = StdRng::seed_from_u64(seed ^ (pes as u64) << 16);
                (0..maps)
                    .map(|_| {
                        FaultMap::random_faulty_pes(&systolic, pes, msb, StuckAt::One, &mut rng)
                    })
                    .collect::<Result<Vec<_>, _>>()
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    restore_baseline(prepared, trace)?;
    let scenarios = pools
        .into_iter()
        .flatten()
        .map(|map| (systolic, map))
        .collect();
    let accuracies = trace.span("core.scenario_eval", Some(campaign), || {
        scenario_accuracies(
            &prepared.network,
            scenarios,
            &prepared.test,
            &SweepCaches::new(),
            &EnginePreset::full(),
        )
    })?;
    let cells = accuracies
        .chunks(maps)
        .map(|chunk| {
            let mut sum = 0.0f32;
            for accuracy in chunk {
                sum += accuracy;
            }
            sum / chunk.len() as f32
        })
        .collect();
    Ok(cells)
}

/// `Campaign::run` over an `Axis::FaultRate` × `Axis::Mitigation` plan:
/// cells fan out across workers, each running `Mitigator::run`, rebuilt.
fn mitigate_campaign(
    prepared: &mut Prepared,
    rates: &[f64],
    strategies: &[MitigationStrategy],
    seed: u64,
    trace: &Trace,
    campaign: SpanId,
) -> Result<Vec<f32>, BenchError> {
    let systolic = prepared.systolic;
    let msb = systolic.accumulator_format().msb();
    let maps = trace.span("systolic.fault_map_draw", Some(campaign), || {
        rates
            .iter()
            .map(|&rate| {
                // `mixers::per_fault_rate_rotated`; one map per rate, shared
                // by that rate's strategies.
                let mut rng = StdRng::seed_from_u64(seed ^ rate.to_bits().rotate_left(13));
                FaultMap::random_with_rate(&systolic, rate, msb, StuckAt::One, &mut rng)
            })
            .collect::<Result<Vec<_>, _>>()
    })?;
    restore_baseline(prepared, trace)?;
    let retrain_cache = Arc::new(SweepCache::new());
    let cells: Vec<(&FaultMap, MitigationStrategy)> = maps
        .iter()
        .flat_map(|map| strategies.iter().map(move |&s| (map, s)))
        .collect();
    let prepared = &*prepared;
    let results: Vec<Result<f32, BenchError>> = cells
        .into_par_iter()
        .map(|(map, strategy)| {
            let cell = trace.open("core.mitigate_cell", Some(campaign));
            let mut network = prepared.network.scenario_view();
            network.set_engine_preset(EnginePreset::full());
            network.set_sweep_cache(Some(Arc::clone(&retrain_cache)));
            // One map per cell, so the cell's mean is that map's accuracy.
            let accuracy = mitigate(&mut network, map, prepared, strategy, trace, cell);
            trace.close(cell);
            accuracy
        })
        .collect();
    results.into_iter().collect()
}

/// `Mitigator::run`, rebuilt: prune, evaluate, retrain epoch by epoch with
/// the pruned weights re-zeroed after each epoch. Returns the final
/// accuracy.
fn mitigate(
    network: &mut SpikingNetwork,
    map: &FaultMap,
    prepared: &Prepared,
    strategy: MitigationStrategy,
    trace: &Trace,
    cell: SpanId,
) -> Result<f32, BenchError> {
    let test = &prepared.test;
    let masks = trace.span("core.prune", Some(cell), || {
        let masks = PruneMasks::derive(network, map);
        masks.apply(network).map(|()| masks)
    })?;
    let after_pruning = trace.span("snn.eval.forward", Some(cell), || evaluate(network, test))?;
    match strategy {
        MitigationStrategy::FaP => network.set_thresholds_trainable(false),
        MitigationStrategy::FaPIT { threshold, .. } => {
            network.set_thresholds_trainable(false);
            network.set_all_thresholds(threshold);
        }
        MitigationStrategy::FalVolt { .. } => network.set_thresholds_trainable(true),
    }
    let mut optimizer = Adam::new(LEARNING_RATE);
    let loss = MseRateLoss::new();
    let mut accuracy = after_pruning;
    for _ in 0..strategy.epochs() {
        train_epoch(
            network,
            &mut optimizer,
            &loss,
            &prepared.train,
            prepared.classes,
            trace,
            cell,
        )?;
        trace.span("core.prune", Some(cell), || masks.apply(network))?;
        // `RetrainConfig::paper_like` tracks history: evaluate every epoch.
        accuracy = trace.span("snn.eval.forward", Some(cell), || evaluate(network, test))?;
    }
    Ok(accuracy)
}
