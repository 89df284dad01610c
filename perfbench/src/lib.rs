//! End-to-end benchmark of the FalVolt workspace.
//!
//! Each workload prepares an experiment context (data generation, baseline
//! training, baseline evaluation) and runs one campaign on it, the way a
//! user's `reproduce --fig X` does. [`run_untraced`] times the two phases
//! with the library's own entry points; [`replica::run_traced`] rebuilds
//! the same run from the crates' public functions with spans and counters
//! around each call, and must reproduce the untraced accuracies bit for
//! bit. See `perfbench/README.md`.

#![forbid(unsafe_code)]

pub mod replica;
pub mod report;
pub mod trace;

use falvolt::campaign::{mixers, Axis, Campaign, CellSpec};
use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
use falvolt::mitigation::MitigationStrategy;
use std::error::Error;
use std::time::Instant;

/// Boxed error of a benchmark run.
pub type BenchError = Box<dyn Error + Send + Sync>;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Fig-5b-shaped faulty-PE sweep on static MNIST input.
    VulnMnist,
    /// The same sweep on temporal DVS-Gesture input.
    VulnDvs,
    /// Fig-7-shaped prune-and-retrain campaign on MNIST.
    MitigateMnist,
}

impl Workload {
    /// Every workload, in the order the benchmark lists them.
    pub const ALL: [Workload; 3] = [
        Workload::VulnMnist,
        Workload::VulnDvs,
        Workload::MitigateMnist,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::VulnMnist => "vuln_mnist",
            Workload::VulnDvs => "vuln_dvs",
            Workload::MitigateMnist => "mitigate_mnist",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The dataset the workload runs on.
    pub fn dataset(self) -> DatasetKind {
        match self {
            Workload::VulnMnist | Workload::MitigateMnist => DatasetKind::Mnist,
            Workload::VulnDvs => DatasetKind::DvsGesture,
        }
    }

    /// The workload's campaign plan; `shrunk` gives the small plan the
    /// benchmark's own tests run.
    pub fn plan(self, shrunk: bool) -> Plan {
        let epochs = SCALE.retrain_epochs();
        match (self, shrunk) {
            (Workload::VulnMnist, false) => Plan::Vuln {
                faulty_pes: vec![0, 4, 8, 16, 32, 48, 64],
                maps: 16,
            },
            (Workload::VulnDvs, false) => Plan::Vuln {
                faulty_pes: vec![0, 4, 8, 16, 32, 48, 64],
                maps: 8,
            },
            (Workload::VulnMnist | Workload::VulnDvs, true) => Plan::Vuln {
                faulty_pes: vec![0, 16],
                maps: 2,
            },
            (Workload::MitigateMnist, false) => Plan::Mitigate {
                rates: vec![0.1, 0.3, 0.6],
                strategies: vec![
                    MitigationStrategy::FaP,
                    MitigationStrategy::fapit(epochs),
                    MitigationStrategy::falvolt(epochs),
                ],
            },
            (Workload::MitigateMnist, true) => Plan::Mitigate {
                rates: vec![0.3],
                strategies: vec![
                    MitigationStrategy::FaP,
                    MitigationStrategy::fapit(1),
                    MitigationStrategy::falvolt(1),
                ],
            },
        }
    }
}

/// The experiment scale every workload runs at.
pub const SCALE: ExperimentScale = ExperimentScale::Tiny;

/// A workload's campaign plan.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// `Axis::FaultyPes(faulty_pes)` with `maps` fault maps per cell and the
    /// `per_faulty_pe_count` seed mixer.
    Vuln {
        /// Faulty-PE counts, one cell each.
        faulty_pes: Vec<usize>,
        /// Fault maps drawn per cell.
        maps: usize,
    },
    /// `Axis::FaultRate(rates)` crossed with `Axis::Mitigation(strategies)`,
    /// one map per cell and the `per_fault_rate_rotated` seed mixer.
    Mitigate {
        /// Fault rates (outer axis).
        rates: Vec<f64>,
        /// Mitigation strategies (inner axis).
        strategies: Vec<MitigationStrategy>,
    },
}

impl Plan {
    /// Cell labels in plan order.
    pub fn cell_labels(&self) -> Vec<String> {
        match self {
            Plan::Vuln { faulty_pes, .. } => faulty_pes
                .iter()
                .map(|p| format!("faulty_pes={p}"))
                .collect(),
            Plan::Mitigate { rates, strategies } => rates
                .iter()
                .flat_map(|r| {
                    strategies
                        .iter()
                        .map(move |s| format!("fault_rate={r},strategy={}", s.label()))
                })
                .collect(),
        }
    }

    /// The plan as a library campaign over `ctx`.
    fn campaign<'a>(&self, ctx: &'a mut ExperimentContext) -> Campaign<'a> {
        match self {
            Plan::Vuln { faulty_pes, maps } => Campaign::new(ctx)
                .axis(Axis::FaultyPes(faulty_pes.clone()))
                .scenarios_per_cell(*maps)
                .seed_mixer(mixers::per_faulty_pe_count),
            Plan::Mitigate { rates, strategies } => Campaign::new(ctx)
                .axis(Axis::FaultRate(rates.clone()))
                .axis(Axis::Mitigation(strategies.clone()))
                .seed_mixer(mixers::per_fault_rate_rotated),
        }
    }
}

/// One campaign cell's result.
#[derive(Debug, Clone, PartialEq)]
pub struct CellOutcome {
    /// `axis=value` label, as [`Plan::cell_labels`] gives it.
    pub label: String,
    /// Mean accuracy over the cell's scenarios.
    pub accuracy: f32,
    /// Whether the cell completed (not failed or skipped).
    pub completed: bool,
}

/// The result of one workload run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunOutcome {
    /// Wall time of the set-up phase, seconds.
    pub setup_s: f64,
    /// Wall time of the campaign, seconds.
    pub campaign_s: f64,
    /// Fault-free baseline accuracy after set-up.
    pub baseline_accuracy: f32,
    /// Per-cell results in plan order.
    pub cells: Vec<CellOutcome>,
}

fn label_of(spec: &CellSpec) -> String {
    spec.coords()
        .iter()
        .map(|c| format!("{}={}", c.axis, c.value))
        .collect::<Vec<_>>()
        .join(",")
}

/// Runs `workload` as a user would: `ExperimentContext::prepare` and then
/// one `Campaign::run`, timing each. Also returns the hit ratios of the
/// context's sweep and product caches after the campaign
/// ([`report::cache_metrics`]).
///
/// # Errors
///
/// Propagates preparation and plan errors (failed cells do not error; they
/// come back with `completed == false`).
pub fn run_untraced(
    workload: Workload,
    plan: &Plan,
    seed: u64,
) -> Result<(RunOutcome, Vec<report::Metric>), BenchError> {
    let started = Instant::now();
    let mut ctx = ExperimentContext::prepare(workload.dataset(), SCALE, seed)?;
    let setup_s = started.elapsed().as_secs_f64();
    let started = Instant::now();
    let run = plan.campaign(&mut ctx).run()?;
    let campaign_s = started.elapsed().as_secs_f64();
    let cells = run
        .cells()
        .iter()
        .map(|cell| CellOutcome {
            label: label_of(&cell.spec),
            accuracy: cell.accuracy,
            completed: cell.status.is_completed(),
        })
        .collect();
    let outcome = RunOutcome {
        setup_s,
        campaign_s,
        baseline_accuracy: ctx.baseline_accuracy(),
        cells,
    };
    Ok((outcome, report::cache_metrics(ctx.caches())))
}

/// Peak resident memory of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}
