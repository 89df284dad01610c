//! Declarative sweep campaigns: one scheduler for every figure-style sweep.
//!
//! The paper's results are all sweeps — fault-rate × threshold, bit
//! position, faulty-PE count, array size, mitigation strategy. Each figure
//! is a [`Campaign`]: a plan built from typed [`Axis`] values, whose single
//! scheduler owns
//!
//! * **per-cell seed mixing** (a pluggable [`Campaign::seed_mixer`]; the
//!   default hashes the cell's fault-drawing parameters, the paper figures
//!   install the per-figure formulas in [`mixers`]),
//! * **fault-map pools**: cells whose fault-drawing parameters *and* mixed
//!   seed agree share one sequentially drawn pool — e.g. the strategies of
//!   one fault rate retrain against the same chip, drawn once per rate,
//! * **scenario-view fan-out**: every cell evaluates or retrains on a
//!   copy-on-write [`falvolt_snn::SpikingNetwork::scenario_view`] of the
//!   restored baseline, in parallel, with results independent of worker
//!   count,
//! * **cache sharing**: evaluation cells share the context-owned
//!   [`crate::SweepCaches`] (prefix outputs, im2col lowerings, clean
//!   products). Retraining cells share no store: every epoch edits the
//!   weights, so none of their keys would recur,
//! * **multi-map batching**: the evaluation scenarios run batch-major, one
//!   parallel wave per test batch, and in each wave the scenarios of one
//!   grid configuration form a [`crate::ScenarioProducts`] set, so
//!   products against scenario-invariant operands are evaluated for all
//!   fault maps in one event walk and released when the wave ends.
//!
//! A cell is a *retraining* cell when its spec carries a mitigation strategy
//! or a fixed retraining threshold, and an *evaluation* cell otherwise.
//! Evaluation cells measure classification accuracy under their drawn fault
//! maps through the systolic backend; retraining cells run the
//! [`Mitigator`] (prune + retrain) per drawn map on the float backend.
//!
//! Every strategy on one map starts from the same pruned network, so before
//! the retraining cells fan out, one parallel pass prunes each map they read
//! and evaluates it once; every cell on that map reports that accuracy
//! after pruning. A cell then retrains and evaluates the test set after its
//! last epoch only, or after every epoch when the plan asks for per-epoch
//! history ([`Campaign::track_history`]); a FaP cell evaluates nothing. A
//! Tiny Fig-7 plan (3 fault rates × FaP/FaPIT/FalVolt, 8 epochs, one map
//! per rate) so runs 9 test-set evaluations: 3 in the pass and one per
//! FaPIT or FalVolt cell (51 with history). The pass checks the run's
//! cancel token and deadline before each evaluation, and a pass that fails
//! or panics fails only the cells on its map (they retry like any failed
//! cell).
//!
//! # Example
//!
//! ```no_run
//! use falvolt::campaign::{Axis, Campaign};
//! use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
//!
//! # fn main() -> Result<(), falvolt::FalvoltError> {
//! let mut ctx = ExperimentContext::prepare(DatasetKind::Mnist, ExperimentScale::Tiny, 42)?;
//! // Figure 5b as data: accuracy vs faulty-PE count, 8 maps per point.
//! let run = Campaign::new(&mut ctx)
//!     .axis(Axis::FaultyPes(vec![0, 8, 32]))
//!     .scenarios_per_cell(8)
//!     .run()?;
//! for cell in &run {
//!     println!("{} faulty PEs -> {:.1}%",
//!         cell.spec.faulty_pes.unwrap_or(0), cell.accuracy * 100.0);
//! }
//! assert_eq!(run.axes(), ["faulty_pes".to_string()]); // cells in plan order
//! # Ok(())
//! # }
//! ```

use crate::error::{CampaignError, CellFailure};
use crate::experiment::ExperimentContext;
use crate::json;
use crate::mitigation::{MitigationOutcome, MitigationStrategy, Mitigator, Pruning, RetrainConfig};
use crate::vulnerability::{isolated, scenario_halts, Halt, SweepPoint, SweepSeries};
use crate::{FalvoltError, Result};
use falvolt_snn::EnginePreset;
use falvolt_systolic::{FaultMap, StuckAt, SystolicConfig};
use falvolt_tensor::CancelToken;
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Axes
// ---------------------------------------------------------------------------

/// One typed sweep dimension of a [`Campaign`].
///
/// Axes expand into the cartesian product in the order they are added (the
/// first axis is outermost); each value edits the cell's [`CellSpec`] and
/// records a [`Coord`] for the result table.
///
/// # Example
///
/// ```
/// use falvolt::campaign::Axis;
///
/// let bits = Axis::BitPosition(vec![0, 8, 15]);
/// assert_eq!(bits.label(), "bit");
/// assert_eq!(bits.len(), 3);
/// ```
#[derive(Debug, Clone)]
pub enum Axis {
    /// Fraction of faulty PEs; each cell draws maps with
    /// [`FaultMap::random_with_rate`]. Takes precedence over
    /// [`Axis::FaultyPes`] when both are set on one cell.
    FaultRate(Vec<f64>),
    /// Stuck-at bit position inside the accumulator (defaults to the MSB
    /// when no bit axis is present).
    BitPosition(Vec<u32>),
    /// Number of faulty PEs; each cell draws maps with
    /// [`FaultMap::random_faulty_pes`].
    FaultyPes(Vec<usize>),
    /// Square systolic-array size (replaces the context's grid per cell).
    ArraySize(Vec<usize>),
    /// Fixed retraining threshold voltage: makes the cell a retraining cell
    /// running [`MitigationStrategy::FaPIT`] at this threshold with
    /// [`Campaign::retrain_epochs`] epochs (which must be set — a plan with
    /// a threshold axis and no epoch budget is rejected).
    Threshold(Vec<f32>),
    /// Mitigation strategy: makes the cell a retraining cell.
    Mitigation(Vec<MitigationStrategy>),
    /// Stuck-at polarity of the drawn faults (defaults to stuck-at-1).
    Polarity(Vec<StuckAt>),
}

impl Axis {
    /// The axis label used in coordinates and result tables.
    pub fn label(&self) -> &str {
        match self {
            Axis::FaultRate(_) => "fault_rate",
            Axis::BitPosition(_) => "bit",
            Axis::FaultyPes(_) => "faulty_pes",
            Axis::ArraySize(_) => "array_size",
            Axis::Threshold(_) => "threshold",
            Axis::Mitigation(_) => "strategy",
            Axis::Polarity(_) => "polarity",
        }
    }

    /// Number of values on this axis.
    pub fn len(&self) -> usize {
        match self {
            Axis::FaultRate(v) => v.len(),
            Axis::BitPosition(v) => v.len(),
            Axis::FaultyPes(v) => v.len(),
            Axis::ArraySize(v) => v.len(),
            Axis::Threshold(v) => v.len(),
            Axis::Mitigation(v) => v.len(),
            Axis::Polarity(v) => v.len(),
        }
    }

    /// `true` when the axis has no values (its campaign expands to zero
    /// cells).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands `spec` along this axis: one edited spec per axis value, each
    /// with a coordinate recorded.
    fn expand(&self, spec: &CellSpec) -> Result<Vec<CellSpec>> {
        let label = self.label().to_string();
        let mut out = Vec::with_capacity(self.len());
        match self {
            Axis::FaultRate(values) => {
                for &rate in values {
                    let mut s = spec.clone();
                    s.fault_rate = Some(rate);
                    s.push_coord(&label, AxisValue::Rate(rate));
                    out.push(s);
                }
            }
            Axis::BitPosition(values) => {
                for &bit in values {
                    let mut s = spec.clone();
                    s.bit = Some(bit);
                    s.push_coord(&label, AxisValue::Bit(bit));
                    out.push(s);
                }
            }
            Axis::FaultyPes(values) => {
                for &pes in values {
                    let mut s = spec.clone();
                    s.faulty_pes = Some(pes);
                    s.push_coord(&label, AxisValue::Pes(pes));
                    out.push(s);
                }
            }
            Axis::ArraySize(values) => {
                for &size in values {
                    let mut s = spec.clone();
                    s.systolic = SystolicConfig::square(size)?;
                    s.push_coord(&label, AxisValue::Size(size));
                    out.push(s);
                }
            }
            Axis::Threshold(values) => {
                for &threshold in values {
                    let mut s = spec.clone();
                    s.threshold = Some(threshold);
                    s.push_coord(&label, AxisValue::Threshold(threshold));
                    out.push(s);
                }
            }
            Axis::Mitigation(values) => {
                for &strategy in values {
                    let mut s = spec.clone();
                    s.strategy = Some(strategy);
                    s.push_coord(&label, AxisValue::Strategy(strategy.label().to_string()));
                    out.push(s);
                }
            }
            Axis::Polarity(values) => {
                for &polarity in values {
                    let mut s = spec.clone();
                    s.polarity = polarity;
                    s.push_coord(&label, AxisValue::Polarity(polarity.to_string()));
                    out.push(s);
                }
            }
        }
        Ok(out)
    }
}

/// One swept value, typed per axis kind.
#[derive(Debug, Clone, PartialEq)]
pub enum AxisValue {
    /// A fault rate.
    Rate(f64),
    /// A bit position.
    Bit(u32),
    /// A faulty-PE count.
    Pes(usize),
    /// A square array size (side length).
    Size(usize),
    /// A fixed retraining threshold voltage.
    Threshold(f32),
    /// A mitigation-strategy label.
    Strategy(String),
    /// A stuck-at polarity label (`"sa0"` / `"sa1"`).
    Polarity(String),
}

impl AxisValue {
    /// The value as an `f64` plotting coordinate (labels hash to `0.0`).
    pub fn as_f64(&self) -> f64 {
        match self {
            AxisValue::Rate(v) => *v,
            AxisValue::Bit(v) => f64::from(*v),
            AxisValue::Pes(v) | AxisValue::Size(v) => *v as f64,
            AxisValue::Threshold(v) => f64::from(*v),
            AxisValue::Strategy(_) | AxisValue::Polarity(_) => 0.0,
        }
    }
}

impl fmt::Display for AxisValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AxisValue::Rate(v) => write!(f, "{v}"),
            AxisValue::Bit(v) => write!(f, "{v}"),
            AxisValue::Pes(v) | AxisValue::Size(v) => write!(f, "{v}"),
            AxisValue::Threshold(v) => write!(f, "{v}"),
            AxisValue::Strategy(s) | AxisValue::Polarity(s) => write!(f, "{s}"),
        }
    }
}

/// One `(axis, value)` coordinate of a cell.
#[derive(Debug, Clone, PartialEq)]
pub struct Coord {
    /// Axis label.
    pub axis: String,
    /// The cell's value on that axis.
    pub value: AxisValue,
}

// ---------------------------------------------------------------------------
// Cell specs
// ---------------------------------------------------------------------------

/// The fully resolved specification of one campaign cell: what the axes
/// decided this cell sweeps.
///
/// Seed mixers read the public fields; the scheduler resolves defaults at
/// draw time (`bit` falls back to the accumulator MSB of the cell's grid,
/// the polarity defaults to stuck-at-1).
#[derive(Debug, Clone, PartialEq)]
pub struct CellSpec {
    /// The systolic-array configuration this cell runs against.
    pub systolic: SystolicConfig,
    /// Fraction of faulty PEs to draw (wins over `faulty_pes` if both set).
    pub fault_rate: Option<f64>,
    /// Number of faulty PEs to draw.
    pub faulty_pes: Option<usize>,
    /// Stuck-at bit position (`None` = the accumulator MSB).
    pub bit: Option<u32>,
    /// Stuck-at polarity of drawn faults.
    pub polarity: StuckAt,
    /// Fixed retraining threshold (makes this a retraining cell).
    pub threshold: Option<f32>,
    /// Mitigation strategy (makes this a retraining cell).
    pub strategy: Option<MitigationStrategy>,
    coords: Vec<Coord>,
}

impl CellSpec {
    fn base(systolic: SystolicConfig) -> Self {
        Self {
            systolic,
            fault_rate: None,
            faulty_pes: None,
            bit: None,
            polarity: StuckAt::One,
            threshold: None,
            strategy: None,
            coords: Vec::new(),
        }
    }

    fn push_coord(&mut self, axis: &str, value: AxisValue) {
        self.coords.push(Coord {
            axis: axis.to_string(),
            value,
        });
    }

    /// The cell's coordinates, one per axis in axis order.
    pub fn coords(&self) -> &[Coord] {
        &self.coords
    }

    /// The coordinate value on the axis labelled `axis`, if any.
    pub fn coord(&self, axis: &str) -> Option<&AxisValue> {
        self.coords
            .iter()
            .find(|c| c.axis == axis)
            .map(|c| &c.value)
    }

    /// The stuck-at bit this cell injects at: the explicit bit if a bit axis
    /// set one, the accumulator MSB of the cell's grid otherwise.
    pub fn resolved_bit(&self) -> u32 {
        self.bit
            .unwrap_or_else(|| self.systolic.accumulator_format().msb())
    }

    /// How this cell's scheduler executes it. A threshold combined with a
    /// strategy that has no threshold knob is rejected rather than silently
    /// ignored — the coordinate would otherwise label cells by a parameter
    /// that had no effect.
    fn payload(&self, default_epochs: Option<usize>) -> Result<CellPayload> {
        Ok(match (self.strategy, self.threshold) {
            (Some(MitigationStrategy::FaPIT { epochs, .. }), Some(threshold)) => {
                CellPayload::Retrain(MitigationStrategy::FaPIT { epochs, threshold })
            }
            (Some(strategy), Some(_)) => {
                return Err(crate::FalvoltError::invalid_config(format!(
                    "a Threshold axis cannot combine with the {} strategy (only FaPIT retrains \
                     at a fixed threshold)",
                    strategy.label()
                )));
            }
            (Some(strategy), None) => CellPayload::Retrain(strategy),
            (None, Some(threshold)) => {
                let Some(epochs) = default_epochs else {
                    return Err(crate::FalvoltError::invalid_config(
                        "a Threshold axis needs Campaign::retrain_epochs(..) — without it the \
                         cells would silently run prune-only (0-epoch) FaPIT",
                    ));
                };
                CellPayload::Retrain(MitigationStrategy::FaPIT { epochs, threshold })
            }
            (None, None) => CellPayload::Eval,
        })
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum CellPayload {
    Eval,
    Retrain(MitigationStrategy),
}

/// Pool identity: cells agreeing on every fault-drawing parameter *and* the
/// mixed seed borrow the same sequentially drawn maps.
#[derive(Debug, Clone, Copy, PartialEq)]
struct PoolKey {
    systolic: SystolicConfig,
    rate_bits: Option<u64>,
    faulty_pes: Option<usize>,
    bit: u32,
    polarity: StuckAt,
    seed: u64,
}

impl PoolKey {
    fn of(spec: &CellSpec, seed: u64) -> Self {
        Self {
            systolic: spec.systolic,
            rate_bits: spec.fault_rate.map(f64::to_bits),
            faulty_pes: spec.faulty_pes,
            bit: spec.resolved_bit(),
            polarity: spec.polarity,
            seed,
        }
    }
}

// ---------------------------------------------------------------------------
// Resilience: statuses, retries, checkpoints
// ---------------------------------------------------------------------------

/// Why a cell was skipped rather than executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkipReason {
    /// The run's [`Campaign::deadline`] expired before the cell started (or
    /// while it was cooperatively winding down).
    Deadline,
    /// The run's [`CancelToken`] was tripped externally.
    Cancelled,
}

impl fmt::Display for SkipReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SkipReason::Deadline => write!(f, "deadline"),
            SkipReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// How one campaign cell ended. A non-`Completed` cell is result *data* —
/// it rides in the [`CampaignRun`] with `accuracy: 0.0, scenarios: 0` —
/// never a process abort.
#[derive(Debug, Clone, PartialEq)]
pub enum CellStatus {
    /// The cell executed; its accuracy (and outcomes) are valid.
    Completed,
    /// Every attempt at the cell failed; a panicking evaluation scenario
    /// quarantined the shared caches.
    Failed {
        /// The last attempt's failure.
        cause: CellFailure,
        /// Attempts made (1 = no retries).
        attempts: usize,
    },
    /// The cell never ran: the deadline expired or the run was cancelled
    /// first.
    Skipped {
        /// Why the cell was skipped.
        reason: SkipReason,
    },
}

impl CellStatus {
    /// `true` when the cell executed and its accuracy is valid.
    pub fn is_completed(&self) -> bool {
        matches!(self, CellStatus::Completed)
    }

    /// `true` when every attempt at the cell failed.
    pub fn is_failed(&self) -> bool {
        matches!(self, CellStatus::Failed { .. })
    }

    /// `true` when the cell was skipped (deadline or cancellation).
    pub fn is_skipped(&self) -> bool {
        matches!(self, CellStatus::Skipped { .. })
    }
}

/// Bounded-retry policy for failed cells: capped exponential backoff, each
/// attempt on a fresh scenario view (retries cannot change a successful
/// result — cells are pure functions of spec and seed).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    max_attempts: usize,
    backoff: Duration,
    backoff_cap: Duration,
}

impl RetryPolicy {
    /// One attempt, no retries — the default.
    pub fn none() -> Self {
        Self {
            max_attempts: 1,
            backoff: Duration::ZERO,
            backoff_cap: Duration::ZERO,
        }
    }

    /// Up to `max_attempts` total attempts per cell (clamped to at least 1),
    /// with a 25 ms base backoff capped at 1 s.
    pub fn attempts(max_attempts: usize) -> Self {
        Self {
            max_attempts: max_attempts.max(1),
            backoff: Duration::from_millis(25),
            backoff_cap: Duration::from_secs(1),
        }
    }

    /// Overrides the backoff: the first retry waits `base`, each further
    /// retry doubles the wait, capped at `cap`.
    pub fn backoff(mut self, base: Duration, cap: Duration) -> Self {
        self.backoff = base;
        self.backoff_cap = cap.max(base);
        self
    }

    /// Backoff before the given attempt (attempts are 1-based; attempt 2 is
    /// the first retry and waits the base).
    fn backoff_for(&self, attempt: usize) -> Duration {
        let doublings = attempt.saturating_sub(2).min(16) as u32;
        self.backoff
            .saturating_mul(1 << doublings)
            .min(self.backoff_cap)
    }
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self::none()
    }
}

/// A consumer of periodic checkpoints (write to disk, hand to a supervisor).
pub type CheckpointSink = Arc<dyn Fn(&CampaignCheckpoint) + Send + Sync>;

/// Chaos/test injection hook: `(cell index, attempt) -> Ok | Err(message)`;
/// may also panic or sleep. Installed via [`Campaign::cell_hook`].
type CellHook = Arc<dyn Fn(usize, usize) -> std::result::Result<(), String> + Send + Sync>;

/// One completed cell inside a checkpoint: the plan index plus the result
/// payload. The spec is NOT stored — on resume it is reattached from the
/// re-expanded plan, which the fingerprint certifies identical.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointCell {
    /// The cell's index in plan order.
    pub index: usize,
    /// The cell's [`CellResult::accuracy`].
    pub accuracy: f32,
    /// The cell's [`CellResult::scenarios`].
    pub scenarios: usize,
    /// The cell's [`CellResult::outcomes`].
    pub outcomes: Vec<MitigationOutcome>,
}

/// A resumable snapshot of a partially executed campaign: the plan
/// fingerprint plus every cell completed so far.
///
/// Emitted through [`Campaign::checkpoint_sink`] after each execution wave
/// and consumed by [`Campaign::resume`]. Only `Completed` cells are
/// recorded: failed and skipped cells are re-attempted on resume, so a
/// killed-and-resumed run converges to the same [`CampaignRun`] as an
/// uninterrupted one.
///
/// The JSON encoding ([`CampaignCheckpoint::to_json`]) stores every float as
/// a hex string of its IEEE-754 bits, so a round-trip through disk is
/// bit-exact — resumed accuracies compare `==` to uninterrupted ones.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignCheckpoint {
    fingerprint: u64,
    baseline_accuracy: f32,
    total_cells: usize,
    cells: Vec<CheckpointCell>,
}

impl CampaignCheckpoint {
    /// Fingerprint of the plan this checkpoint belongs to ([`Campaign::resume`]
    /// refuses checkpoints whose fingerprint does not match).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// Fault-free baseline accuracy of the context the plan ran on.
    pub fn baseline_accuracy(&self) -> f32 {
        self.baseline_accuracy
    }

    /// The completed cells recorded, in the order they were recorded.
    pub fn cells(&self) -> &[CheckpointCell] {
        &self.cells
    }

    /// Number of cells in the full plan.
    pub fn total_cells(&self) -> usize {
        self.total_cells
    }

    /// Number of completed cells recorded.
    pub fn completed_cells(&self) -> usize {
        self.cells.len()
    }

    /// `true` when every cell of the plan is recorded as completed.
    pub fn is_complete(&self) -> bool {
        self.cells.len() == self.total_cells
    }

    /// Serializes the checkpoint to JSON (floats as IEEE-754 bit hex strings
    /// — see the type docs).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"version\":1");
        out.push_str(&format!(",\"fingerprint\":\"{:#018x}\"", self.fingerprint));
        out.push_str(&format!(
            ",\"baseline_accuracy\":\"{:#010x}\"",
            self.baseline_accuracy.to_bits()
        ));
        out.push_str(&format!(",\"total_cells\":{}", self.total_cells));
        out.push_str(",\"cells\":[");
        for (i, cell) in self.cells.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"index\":{},\"accuracy\":\"{:#010x}\",\"scenarios\":{},\"outcomes\":[",
                cell.index,
                cell.accuracy.to_bits(),
                cell.scenarios
            ));
            for (j, outcome) in cell.outcomes.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                encode_outcome(&mut out, outcome);
            }
            out.push_str("]}");
        }
        out.push_str("]}");
        out
    }

    /// Decodes a checkpoint serialized by [`CampaignCheckpoint::to_json`].
    ///
    /// # Errors
    ///
    /// Returns [`CampaignError::CheckpointMalformed`] for syntax errors,
    /// missing fields, wrong types, float-bit strings that do not decode, and
    /// cell indexes that are out of range or repeated.
    pub fn from_json(text: &str) -> std::result::Result<Self, CampaignError> {
        let doc = json::parse(text)?;
        let version = doc.field("version")?.as_usize()?;
        if version != 1 {
            return Err(CampaignError::malformed(format!(
                "unsupported checkpoint version {version}"
            )));
        }
        let fingerprint = u64_from_hex(doc.field("fingerprint")?)?;
        let baseline_accuracy = f32_from_hex(doc.field("baseline_accuracy")?)?;
        let total_cells = doc.field("total_cells")?.as_usize()?;
        let mut cells: Vec<CheckpointCell> = Vec::new();
        for cell in doc.field("cells")?.as_arr()? {
            let index = cell.field("index")?.as_usize()?;
            if index >= total_cells {
                return Err(CampaignError::malformed(format!(
                    "cell index {index} out of range for a plan of {total_cells} cells"
                )));
            }
            // A repeated index would let `is_complete` count one cell twice
            // while another is missing.
            if cells.iter().any(|c| c.index == index) {
                return Err(CampaignError::malformed(format!(
                    "cell index {index} is recorded twice"
                )));
            }
            let accuracy = f32_from_hex(cell.field("accuracy")?)?;
            let scenarios = cell.field("scenarios")?.as_usize()?;
            let mut outcomes = Vec::new();
            for outcome in cell.field("outcomes")?.as_arr()? {
                outcomes.push(decode_outcome(outcome)?);
            }
            cells.push(CheckpointCell {
                index,
                accuracy,
                scenarios,
                outcomes,
            });
        }
        Ok(Self {
            fingerprint,
            baseline_accuracy,
            total_cells,
            cells,
        })
    }
}

/// Appends one [`MitigationOutcome`] to a JSON buffer (floats as bit hex).
fn encode_outcome(out: &mut String, outcome: &MitigationOutcome) {
    out.push_str(&format!(
        "{{\"strategy\":{},\"fault_rate\":\"{:#018x}\",\"pruned_weight_fraction\":\"{:#018x}\",\
         \"accuracy_after_pruning\":\"{:#010x}\",\"final_accuracy\":\"{:#010x}\",\
         \"epochs_run\":{},\"history\":[",
        json::quote(&outcome.strategy),
        outcome.fault_rate.to_bits(),
        outcome.pruned_weight_fraction.to_bits(),
        outcome.accuracy_after_pruning.to_bits(),
        outcome.final_accuracy.to_bits(),
        outcome.epochs_run
    ));
    for (i, point) in outcome.history.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let loss = match point.train_loss {
            Some(loss) => format!("\"{:#010x}\"", loss.to_bits()),
            None => "null".to_string(),
        };
        out.push_str(&format!(
            "{{\"epoch\":{},\"train_loss\":{},\"test_accuracy\":\"{:#010x}\"}}",
            point.epoch,
            loss,
            point.test_accuracy.to_bits()
        ));
    }
    out.push_str("],\"thresholds\":[");
    for (i, (layer, threshold)) in outcome.thresholds.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "[{},\"{:#010x}\"]",
            json::quote(layer),
            threshold.to_bits()
        ));
    }
    out.push_str("]}");
}

/// Decodes one [`MitigationOutcome`] from its checkpoint encoding.
fn decode_outcome(v: &json::Value) -> std::result::Result<MitigationOutcome, CampaignError> {
    let mut history = Vec::new();
    for point in v.field("history")?.as_arr()? {
        let train_loss = match point.field("train_loss")? {
            json::Value::Null => None,
            bits => Some(f32_from_hex(bits)?),
        };
        history.push(crate::mitigation::EpochPoint {
            epoch: point.field("epoch")?.as_usize()?,
            train_loss,
            test_accuracy: f32_from_hex(point.field("test_accuracy")?)?,
        });
    }
    let mut thresholds = Vec::new();
    for pair in v.field("thresholds")?.as_arr()? {
        let pair = pair.as_arr()?;
        if pair.len() != 2 {
            return Err(CampaignError::malformed(
                "a threshold entry must be a [layer, bits] pair",
            ));
        }
        thresholds.push((pair[0].as_str()?.to_string(), f32_from_hex(&pair[1])?));
    }
    Ok(MitigationOutcome {
        strategy: v.field("strategy")?.as_str()?.to_string(),
        fault_rate: f64_from_hex(v.field("fault_rate")?)?,
        pruned_weight_fraction: f64_from_hex(v.field("pruned_weight_fraction")?)?,
        accuracy_after_pruning: f32_from_hex(v.field("accuracy_after_pruning")?)?,
        final_accuracy: f32_from_hex(v.field("final_accuracy")?)?,
        history,
        thresholds,
        epochs_run: v.field("epochs_run")?.as_usize()?,
    })
}

/// Decodes a `"0x…"` hex string into the `u64` it encodes.
fn u64_from_hex(v: &json::Value) -> std::result::Result<u64, CampaignError> {
    let s = v.as_str()?;
    let hex = s.strip_prefix("0x").ok_or_else(|| {
        CampaignError::malformed(format!("expected a 0x-prefixed bit string, found `{s}`"))
    })?;
    u64::from_str_radix(hex, 16)
        .map_err(|_| CampaignError::malformed(format!("invalid bit string `{s}`")))
}

/// Decodes a `"0x…"` hex string into the `f32` whose bits it encodes.
fn f32_from_hex(v: &json::Value) -> std::result::Result<f32, CampaignError> {
    let bits = u64_from_hex(v)?;
    u32::try_from(bits)
        .map(f32::from_bits)
        .map_err(|_| CampaignError::malformed("f32 bit string wider than 32 bits"))
}

/// Decodes a `"0x…"` hex string into the `f64` whose bits it encodes.
fn f64_from_hex(v: &json::Value) -> std::result::Result<f64, CampaignError> {
    Ok(f64::from_bits(u64_from_hex(v)?))
}

// ---------------------------------------------------------------------------
// Results
// ---------------------------------------------------------------------------

/// The measured result of one campaign cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellResult {
    /// The resolved cell specification (including its coordinates).
    pub spec: CellSpec,
    /// Mean classification accuracy: over the drawn fault maps for
    /// evaluation cells, over the per-map mitigation outcomes for
    /// retraining cells. `0.0` for failed/skipped cells (check
    /// [`CellResult::status`] before averaging).
    pub accuracy: f32,
    /// Number of fault scenarios averaged (`0` for failed/skipped cells).
    pub scenarios: usize,
    /// Per-map mitigation outcomes (empty for evaluation cells).
    pub outcomes: Vec<MitigationOutcome>,
    /// How the cell ended ([`CellStatus::Completed`] unless the run hit
    /// failures, a deadline, or cancellation).
    pub status: CellStatus,
}

impl CellResult {
    /// The row of a cell that did not complete: no accuracy, no scenarios,
    /// no outcomes, only the status saying why.
    fn unfinished(spec: CellSpec, status: CellStatus) -> Self {
        Self {
            spec,
            accuracy: 0.0,
            scenarios: 0,
            outcomes: Vec::new(),
            status,
        }
    }

    /// The cell's coordinates, one per axis in axis order.
    pub fn coords(&self) -> &[Coord] {
        self.spec.coords()
    }

    /// The coordinate value on the axis labelled `axis`, if any.
    pub fn coord(&self, axis: &str) -> Option<&AxisValue> {
        self.spec.coord(axis)
    }

    /// The first (typically only) mitigation outcome of a retraining cell.
    pub fn outcome(&self) -> Option<&MitigationOutcome> {
        self.outcomes.first()
    }
}

/// A finished campaign: the executed cells in plan order plus the context
/// metadata the figure code needs.
///
/// Iterate it for streaming consumption (`for cell in &run`) or read it
/// through the accessors. For a bit-exact on-disk form, capture the run's
/// final [`CampaignCheckpoint`] and write [`CampaignCheckpoint::to_json`].
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignRun {
    axes: Vec<String>,
    baseline_accuracy: f32,
    cells: Vec<CellResult>,
}

impl CampaignRun {
    /// Axis labels, in plan order (outermost first).
    pub fn axes(&self) -> &[String] {
        &self.axes
    }

    /// Fault-free baseline accuracy of the context's trained network.
    pub fn baseline_accuracy(&self) -> f32 {
        self.baseline_accuracy
    }

    /// The executed cells, in plan (cartesian) order.
    pub fn cells(&self) -> &[CellResult] {
        &self.cells
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when the plan expanded to zero cells.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Number of cells that completed.
    pub fn completed(&self) -> usize {
        self.cells
            .iter()
            .filter(|c| c.status.is_completed())
            .count()
    }

    /// Number of cells whose every attempt failed.
    pub fn failed(&self) -> usize {
        self.cells.iter().filter(|c| c.status.is_failed()).count()
    }

    /// Number of cells skipped by deadline expiry or cancellation.
    pub fn skipped(&self) -> usize {
        self.cells.iter().filter(|c| c.status.is_skipped()).count()
    }

    /// Groups the cells into accuracy series over the axis labelled
    /// `x_axis`: one [`SweepSeries`] per distinct combination of the
    /// *other* coordinates (labelled by joining their values), with one
    /// point per cell in plan order. Cells without an `x_axis` coordinate
    /// are skipped.
    pub fn mean_series(&self, x_axis: &str) -> Vec<SweepSeries> {
        let mut series: Vec<SweepSeries> = Vec::new();
        for cell in &self.cells {
            let Some(x) = cell.coord(x_axis).map(AxisValue::as_f64) else {
                continue;
            };
            let rest: Vec<String> = cell
                .coords()
                .iter()
                .filter(|c| c.axis != x_axis)
                .map(|c| c.value.to_string())
                .collect();
            let label = if rest.is_empty() {
                x_axis.to_string()
            } else {
                rest.join("/")
            };
            let point = SweepPoint {
                x,
                accuracy: cell.accuracy,
                iterations: cell.scenarios,
            };
            match series.iter_mut().find(|s| s.label == label) {
                Some(s) => s.points.push(point),
                None => series.push(SweepSeries {
                    label,
                    points: vec![point],
                }),
            }
        }
        series
    }
}

impl IntoIterator for CampaignRun {
    type Item = CellResult;
    type IntoIter = std::vec::IntoIter<CellResult>;

    fn into_iter(self) -> Self::IntoIter {
        self.cells.into_iter()
    }
}

impl<'a> IntoIterator for &'a CampaignRun {
    type Item = &'a CellResult;
    type IntoIter = std::slice::Iter<'a, CellResult>;

    fn into_iter(self) -> Self::IntoIter {
        self.cells.iter()
    }
}

// ---------------------------------------------------------------------------
// The campaign builder and scheduler
// ---------------------------------------------------------------------------

/// Seed-mixing hook: `(campaign seed, cell spec) -> per-cell RNG seed`.
pub type SeedMixer = Arc<dyn Fn(u64, &CellSpec) -> u64 + Send + Sync>;

/// A declarative sweep plan over one prepared [`ExperimentContext`].
///
/// Build it with [`Campaign::new`], add [`Axis`] values (first axis
/// outermost), set the per-cell scenario count, seed, seed mixer and, for
/// [`Axis::Threshold`] plans, the retraining epochs, and [`Campaign::run`]
/// it. See the [module docs](crate::campaign) for what the scheduler owns.
///
/// # Example
///
/// ```no_run
/// use falvolt::campaign::{Axis, Campaign};
/// use falvolt::experiment::{DatasetKind, ExperimentContext, ExperimentScale};
/// use falvolt::mitigation::MitigationStrategy;
///
/// # fn main() -> Result<(), falvolt::FalvoltError> {
/// let mut ctx = ExperimentContext::prepare(DatasetKind::Mnist, ExperimentScale::Tiny, 42)?;
/// // Figures 6/7 as data: strategies × fault rates, one chip per rate.
/// let run = Campaign::new(&mut ctx)
///     .axis(Axis::FaultRate(vec![0.10, 0.30]))
///     .axis(Axis::Mitigation(vec![
///         MitigationStrategy::FaP,
///         MitigationStrategy::fapit(8),
///         MitigationStrategy::falvolt(8),
///     ]))
///     .run()?;
/// for cell in &run {
///     let outcome = cell.outcome().expect("retraining cell");
///     println!("{:?} -> {:.1}%", cell.coords(), outcome.final_accuracy * 100.0);
/// }
/// # Ok(())
/// # }
/// ```
pub struct Campaign<'a> {
    ctx: &'a mut ExperimentContext,
    axes: Vec<Axis>,
    scenarios_per_cell: usize,
    seed: u64,
    mixer: SeedMixer,
    retrain_epochs: Option<usize>,
    retrain: RetrainConfig,
    deadline: Option<Duration>,
    retry: RetryPolicy,
    cancel: Option<CancelToken>,
    checkpoint_every: Option<usize>,
    checkpoint_sink: Option<CheckpointSink>,
    resume_from: Option<CampaignCheckpoint>,
    injector: Option<CellHook>,
    /// Test injection into the shared post-pruning pass, called as
    /// `(pool, map)` before each of its evaluations.
    #[cfg(test)]
    pruning_injector: Option<CellHook>,
}

impl<'a> Campaign<'a> {
    /// Starts a plan over `ctx` with no axes, one scenario per cell, the
    /// context's seed and the default seed mixer. Evaluation cells run under
    /// [`EnginePreset::full`]; retraining cells use
    /// [`RetrainConfig::paper_like`], which records no per-epoch history
    /// unless the plan asks ([`Campaign::track_history`]).
    pub fn new(ctx: &'a mut ExperimentContext) -> Self {
        let seed = ctx.seed();
        Self {
            ctx,
            axes: Vec::new(),
            scenarios_per_cell: 1,
            seed,
            mixer: Arc::new(default_seed_mix),
            retrain_epochs: None,
            retrain: RetrainConfig::paper_like(),
            deadline: None,
            retry: RetryPolicy::default(),
            cancel: None,
            checkpoint_every: None,
            checkpoint_sink: None,
            resume_from: None,
            injector: None,
            #[cfg(test)]
            pruning_injector: None,
        }
    }

    /// Adds a sweep axis (first added is outermost in the cell order).
    pub fn axis(mut self, axis: Axis) -> Self {
        self.axes.push(axis);
        self
    }

    /// Fault maps drawn (and averaged) per cell. The paper uses 8 for the
    /// vulnerability sweeps; retraining sweeps typically use 1 chip.
    pub fn scenarios_per_cell(mut self, scenarios: usize) -> Self {
        self.scenarios_per_cell = scenarios;
        self
    }

    /// Overrides the base seed cells mix from (default: the context seed).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Installs a custom per-cell seed mixer. The default mixer hashes the
    /// cell's fault-drawing parameters (grid, rate / PE count, bit,
    /// polarity) — and deliberately *not* its payload (threshold,
    /// strategy), so the payload cells of one fault configuration share a
    /// once-per-configuration map pool.
    pub fn seed_mixer(
        mut self,
        mixer: impl Fn(u64, &CellSpec) -> u64 + Send + Sync + 'static,
    ) -> Self {
        self.mixer = Arc::new(mixer);
        self
    }

    /// Retraining epochs used by [`Axis::Threshold`] cells (strategies from
    /// an [`Axis::Mitigation`] carry their own epoch budget).
    pub fn retrain_epochs(mut self, epochs: usize) -> Self {
        self.retrain_epochs = Some(epochs);
        self
    }

    /// Records every retraining outcome's per-epoch test accuracy in
    /// [`MitigationOutcome::history`] (default: off; Figure 8 is the plan
    /// that reads it). Each retraining epoch then evaluates the test set;
    /// without it a retraining cell evaluates only after its last epoch.
    /// Final accuracies and thresholds are the same either way.
    pub fn track_history(mut self, track: bool) -> Self {
        self.retrain.track_history = track;
        self
    }

    /// Wall-clock budget measured from [`Campaign::run`] entry (default:
    /// none). Checked at wave and retry boundaries, at worker start, and
    /// between evaluation batches; expiry also trips the run's cancel token
    /// so in-flight executors stop at fold-chain granularity. Expiry does
    /// not error the run: it returns the completed prefix, with every
    /// remaining cell marked
    /// [`CellStatus::Skipped`]`{ reason: `[`SkipReason::Deadline`]` }`.
    pub fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// Installs a [`RetryPolicy`] for failed cells. Default:
    /// [`RetryPolicy::none`] (one attempt).
    pub fn retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// Installs an external cancellation token: trip it from another thread
    /// and the run winds down cooperatively, marking unexecuted cells
    /// [`CellStatus::Skipped`]`{ reason: `[`SkipReason::Cancelled`]` }`.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Caps execution waves at `cells` cells, emitting a checkpoint through
    /// the sink after each wave. Smaller values checkpoint more often at the
    /// cost of cross-cell scenario batching (clamped to at least 1).
    pub fn checkpoint_every(mut self, cells: usize) -> Self {
        self.checkpoint_every = Some(cells.max(1));
        self
    }

    /// Installs the checkpoint consumer called after every execution wave
    /// (and therefore at least once per run when the plan is non-empty).
    pub fn checkpoint_sink(
        mut self,
        sink: impl Fn(&CampaignCheckpoint) + Send + Sync + 'static,
    ) -> Self {
        self.checkpoint_sink = Some(Arc::new(sink));
        self
    }

    /// Resumes a previous partial run: completed cells recorded in the
    /// checkpoint are reused verbatim (their seeds replay identically, so
    /// the merged run is bit-identical to an uninterrupted one); failed and
    /// skipped cells are re-attempted. [`Campaign::run`] re-validates the
    /// checkpoint's plan fingerprint and returns
    /// [`CampaignError::CheckpointMismatch`] if the plan differs.
    pub fn resume(mut self, checkpoint: CampaignCheckpoint) -> Self {
        self.resume_from = Some(checkpoint);
        self
    }

    /// Test/chaos injection point: called as `(cell index, attempt)` before
    /// each cell attempt; an `Err` fails the cell, a panic exercises the
    /// isolation path.
    #[doc(hidden)]
    pub fn cell_hook(
        mut self,
        hook: impl Fn(usize, usize) -> std::result::Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        self.injector = Some(Arc::new(hook));
        self
    }

    /// Test injection into the shared post-pruning pass: called as
    /// `(pool, map)` before each of its evaluations.
    #[cfg(test)]
    fn pruning_hook(
        mut self,
        hook: impl Fn(usize, usize) -> std::result::Result<(), String> + Send + Sync + 'static,
    ) -> Self {
        self.pruning_injector = Some(Arc::new(hook));
        self
    }

    /// Installs a deterministic chaos-injection plan (panics, errors, slow
    /// workers) driven by [`crate::chaos::ChaosPlan`].
    #[cfg(feature = "chaos")]
    pub fn chaos(mut self, plan: crate::chaos::ChaosPlan) -> Self {
        self.injector = Some(plan.into_hook());
        self
    }

    /// Executes the plan: expands the axes, mixes seeds, draws the fault-map
    /// pools sequentially (so results are worker-count-independent), fans
    /// evaluation cells out through the shared-cache scenario engine and
    /// retraining cells across scenario views, and returns the cells in
    /// plan order. The context's baseline is restored before and after.
    ///
    /// Execution proceeds in *waves*: [`Campaign::checkpoint_every`]-sized
    /// chunks of the pending cells (by default one wave holds the whole
    /// plan, preserving cross-cell scenario batching). Cell failures —
    /// worker panics included — are caught, retried per the
    /// [`RetryPolicy`], and recorded as [`CellStatus::Failed`] rows; deadline
    /// expiry and cancellation mark the unexecuted remainder
    /// [`CellStatus::Skipped`] and return the completed prefix.
    ///
    /// # Errors
    ///
    /// Returns [`crate::FalvoltError`] for invalid plans (zero scenarios per
    /// cell, invalid array sizes), fault-map draw failures, baseline
    /// restoration failures, and checkpoints that do not belong to this plan
    /// ([`CampaignError::CheckpointMismatch`]). Cell execution failures do
    /// NOT error the run.
    pub fn run(self) -> Result<CampaignRun> {
        let Campaign {
            ctx,
            axes,
            scenarios_per_cell,
            seed,
            mixer,
            retrain_epochs,
            retrain,
            deadline,
            retry,
            cancel,
            checkpoint_every,
            checkpoint_sink,
            resume_from,
            injector,
            #[cfg(test)]
            pruning_injector,
        } = self;
        if scenarios_per_cell == 0 {
            return Err(CampaignError::invalid_plan(
                "a campaign needs at least one scenario per cell",
            )
            .into());
        }

        // 1. Expand the axes into the cartesian cell-spec list.
        let mut specs = vec![CellSpec::base(*ctx.systolic_config())];
        for axis in &axes {
            let mut next = Vec::with_capacity(specs.len() * axis.len().max(1));
            for spec in &specs {
                next.extend(axis.expand(spec)?);
            }
            specs = next;
        }

        // 2. Mix seeds and draw the fault-map pools sequentially, in cell
        // order. Cells sharing every draw parameter and the mixed seed
        // borrow one pool (e.g. the strategies of one fault rate). Seed
        // mixing replays identically on resume — the pools a resumed run
        // draws are the pools the interrupted run drew.
        let mut pools: Vec<(PoolKey, Arc<Vec<FaultMap>>)> = Vec::new();
        let mut cell_pool = Vec::with_capacity(specs.len());
        let mut cell_seeds = Vec::with_capacity(specs.len());
        for spec in &specs {
            let mixed = mixer(seed, spec);
            cell_seeds.push(mixed);
            let key = PoolKey::of(spec, mixed);
            let index = match pools.iter().position(|(k, _)| *k == key) {
                Some(index) => index,
                None => {
                    pools.push((
                        key,
                        Arc::new(draw_pool(spec, key.seed, scenarios_per_cell)?),
                    ));
                    pools.len() - 1
                }
            };
            cell_pool.push(index);
        }
        let payloads: Vec<CellPayload> = specs
            .iter()
            .map(|s| s.payload(retrain_epochs))
            .collect::<Result<_>>()?;

        // 3. Fingerprint the plan and replay any checkpoint: completed cells
        // are reused verbatim, everything else is (re)executed.
        let fingerprint = plan_fingerprint(
            ctx,
            &specs,
            &payloads,
            &cell_seeds,
            scenarios_per_cell,
            &retrain,
        );
        let mut done: Vec<Option<CellResult>> = vec![None; specs.len()];
        if let Some(checkpoint) = resume_from {
            if checkpoint.fingerprint != fingerprint {
                return Err(CampaignError::CheckpointMismatch {
                    expected: fingerprint,
                    actual: checkpoint.fingerprint,
                }
                .into());
            }
            if checkpoint.total_cells != specs.len() {
                return Err(CampaignError::malformed(format!(
                    "checkpoint records a plan of {} cells, this plan has {}",
                    checkpoint.total_cells,
                    specs.len()
                ))
                .into());
            }
            for cell in checkpoint.cells {
                done[cell.index] = Some(CellResult {
                    spec: specs[cell.index].clone(),
                    accuracy: cell.accuracy,
                    scenarios: cell.scenarios,
                    outcomes: cell.outcomes,
                    status: CellStatus::Completed,
                });
            }
        }
        let pending: Vec<usize> = (0..specs.len()).filter(|&i| done[i].is_none()).collect();

        // 4. Execute the pending cells in waves against the restored
        // baseline, with a shared deadline-aware cancel token and per-worker
        // panic isolation.
        ctx.restore_baseline()?;
        let deadline = deadline.map(|d| Instant::now() + d);
        let expired = move || deadline.is_some_and(|d| Instant::now() >= d);
        let run_token = cancel.unwrap_or_default();
        {
            let stop_reason = || -> Option<SkipReason> {
                if expired() {
                    // Deadline expiry trips the shared token so in-flight
                    // workers wind down at their next check.
                    run_token.cancel();
                    Some(SkipReason::Deadline)
                } else if run_token.is_cancelled() {
                    Some(SkipReason::Cancelled)
                } else {
                    None
                }
            };
            let mitigator = Mitigator::new(ctx.classes(), retrain);
            let (baseline, caches) = (ctx.network(), ctx.caches());
            // A retraining worker edits its weights every epoch, so no key it
            // could offer a shared store would recur: it installs none, and a
            // panicking one leaves nothing to quarantine.
            let retrain_view = || {
                let mut network = baseline.scenario_view();
                network.set_engine_preset(EnginePreset::full());
                network
            };
            let quarantine = || {};
            let (train, test) = (ctx.train_batches(), ctx.test_batches());

            // Every worker, and every batch of an evaluation scenario, starts
            // here: an expired deadline trips the shared token, a tripped
            // token stops the worker, and the chaos/test injector fires
            // (`fire` is true once per cell attempt: on the first batch of
            // an evaluation cell's first scenario).
            let halted = || {
                if expired() {
                    run_token.cancel();
                }
                if run_token.is_cancelled() {
                    return Err(Halt::Cancelled);
                }
                Ok(())
            };
            let start = |cell: usize, attempt: usize, fire: bool| {
                halted()?;
                match &injector {
                    Some(inject) if fire => inject(cell, attempt)
                        .map_err(|message| Halt::Error(FalvoltError::invalid_config(message))),
                    _ => Ok(()),
                }
            };
            let completed = |cell: usize, accuracy: f32, scenarios: usize, outcomes| CellResult {
                spec: specs[cell].clone(),
                accuracy,
                scenarios,
                outcomes,
                status: CellStatus::Completed,
            };

            // One attempt over a set of cells: the scenarios of every
            // evaluation cell fan out through one shared-cache scenario
            // engine call; the maps the retraining cells read are pruned and
            // evaluated once each, then the retraining cells fan out one
            // worker per cell.
            let run_cells = |cells: &[usize], attempt: usize| -> Vec<(usize, CellTry)> {
                let eval: Vec<usize> = cells
                    .iter()
                    .copied()
                    .filter(|&c| payloads[c] == CellPayload::Eval)
                    .collect();
                let mut scenarios = Vec::with_capacity(eval.len() * scenarios_per_cell);
                for &cell in &eval {
                    for map in pools[cell_pool[cell]].1.iter() {
                        scenarios.push((specs[cell].systolic, map.clone()));
                    }
                }
                let halts = scenario_halts(
                    baseline,
                    scenarios,
                    test,
                    caches,
                    &EnginePreset::full(),
                    Some(&run_token),
                    &|flat, batch| {
                        let cell = eval[flat / scenarios_per_cell];
                        let first = batch == 0 && flat.is_multiple_of(scenarios_per_cell);
                        start(cell, attempt, first)
                    },
                );
                let mut out: Vec<(usize, CellTry)> = eval
                    .iter()
                    .zip(halts.chunks(scenarios_per_cell))
                    .map(|(&cell, chunk)| {
                        // A cancelled scenario makes the cell cancelled, else
                        // the first failed one makes it failed.
                        let tried = if chunk.iter().any(|h| matches!(h, Err(Halt::Cancelled))) {
                            Err(Halt::Cancelled)
                        } else {
                            chunk
                                .iter()
                                .cloned()
                                .collect::<std::result::Result<Vec<f32>, _>>()
                        };
                        let tried = tried.map(|accuracies| {
                            let mean = accuracies.iter().sum::<f32>() / accuracies.len() as f32;
                            completed(cell, mean, accuracies.len(), Vec::new())
                        });
                        (cell, tried)
                    })
                    .collect();

                let retrain: Vec<(usize, MitigationStrategy)> = cells
                    .iter()
                    .filter_map(|&c| match payloads[c] {
                        CellPayload::Retrain(strategy) => Some((c, strategy)),
                        CellPayload::Eval => None,
                    })
                    .collect();
                // The shared post-pruning pass: every strategy on one map
                // starts from the same pruned network, so each (pool, map)
                // a retraining cell reads is pruned and evaluated once. A
                // halted job halts only the cells on its map.
                let mut jobs: Vec<(usize, usize)> = Vec::new();
                for &(cell, _) in &retrain {
                    let pool = cell_pool[cell];
                    if !jobs.iter().any(|&(p, _)| p == pool) {
                        jobs.extend((0..pools[pool].1.len()).map(|map| (pool, map)));
                    }
                }
                let pruned: Vec<(usize, std::result::Result<Pruning, Halt>)> = jobs
                    .into_par_iter()
                    .map(|(pool, map)| {
                        let pruning = isolated(quarantine, || {
                            halted()?;
                            #[cfg(test)]
                            if let Some(inject) = &pruning_injector {
                                inject(pool, map).map_err(|message| {
                                    Halt::Error(FalvoltError::invalid_config(message))
                                })?;
                            }
                            let mut network = retrain_view();
                            mitigator
                                .prune_and_evaluate(&mut network, &pools[pool].1[map], test)
                                .map_err(Halt::Error)
                        });
                        (pool, pruning)
                    })
                    .collect();
                // `prunings[pool][map]`, empty for the pools no retraining
                // cell reads.
                let mut prunings = vec![Vec::new(); pools.len()];
                for (pool, pruning) in pruned {
                    prunings[pool].push(pruning);
                }

                let retrained: Vec<(usize, CellTry)> = retrain
                    .into_par_iter()
                    .map(|(cell, strategy)| {
                        let tried = isolated(quarantine, || {
                            start(cell, attempt, true)?;
                            let prunings = &prunings[cell_pool[cell]];
                            let mut outcomes = Vec::with_capacity(prunings.len());
                            for pruning in prunings {
                                if run_token.is_cancelled() {
                                    return Err(Halt::Cancelled);
                                }
                                let pruning = pruning.as_ref().map_err(Halt::clone)?;
                                let mut network = retrain_view();
                                outcomes.push(
                                    mitigator
                                        .retrain(&mut network, pruning, train, test, strategy)
                                        .map_err(Halt::Error)?,
                                );
                            }
                            let accuracy = outcomes.iter().map(|o| o.final_accuracy).sum::<f32>()
                                / outcomes.len() as f32;
                            Ok(completed(cell, accuracy, outcomes.len(), outcomes))
                        });
                        (cell, tried)
                    })
                    .collect();
                out.extend(retrained);
                out
            };

            for wave in pending.chunks(checkpoint_every.unwrap_or(usize::MAX)) {
                if let Some(reason) = stop_reason() {
                    for &cell in wave {
                        let status = CellStatus::Skipped { reason };
                        done[cell] = Some(CellResult::unfinished(specs[cell].clone(), status));
                    }
                    continue;
                }
                let mut results: Vec<(usize, CellTry, usize)> = run_cells(wave, 1)
                    .into_iter()
                    .map(|(cell, tried)| (cell, tried, 1))
                    .collect();
                for attempt in 2..=retry.max_attempts {
                    let failed: Vec<usize> = results
                        .iter()
                        .filter(|(_, tried, _)| {
                            matches!(tried, Err(Halt::Error(_) | Halt::Panic(_)))
                        })
                        .map(|(cell, _, _)| *cell)
                        .collect();
                    if failed.is_empty() || stop_reason().is_some() {
                        break;
                    }
                    std::thread::sleep(retry.backoff_for(attempt));
                    for (cell, tried) in run_cells(&failed, attempt) {
                        if let Some(entry) = results.iter_mut().find(|(c, _, _)| *c == cell) {
                            *entry = (cell, tried, attempt);
                        }
                    }
                }
                for (cell, tried, attempts) in results {
                    done[cell] = Some(tried.unwrap_or_else(|halt| {
                        let status = match halt {
                            Halt::Cancelled => CellStatus::Skipped {
                                reason: if expired() {
                                    SkipReason::Deadline
                                } else {
                                    SkipReason::Cancelled
                                },
                            },
                            Halt::Error(e) => CellStatus::Failed {
                                cause: CellFailure::Error {
                                    message: e.to_string(),
                                },
                                attempts,
                            },
                            Halt::Panic(message) => CellStatus::Failed {
                                cause: CellFailure::Panic { message },
                                attempts,
                            },
                        };
                        CellResult::unfinished(specs[cell].clone(), status)
                    }));
                }
                if let Some(sink) = &checkpoint_sink {
                    sink(&checkpoint_of(
                        fingerprint,
                        ctx.baseline_accuracy(),
                        specs.len(),
                        &done,
                    ));
                }
            }
        }

        // 5. Restore the baseline (retraining mutates only scenario views,
        // but symmetric restore keeps the contract simple) and assemble the
        // cells back into plan order.
        ctx.restore_baseline()?;
        let cells: Vec<CellResult> = done
            .into_iter()
            .zip(specs)
            .map(|(slot, spec)| {
                slot.unwrap_or_else(|| {
                    let cause = CellFailure::Error {
                        message: "the scheduler dropped this cell".to_string(),
                    };
                    CellResult::unfinished(spec, CellStatus::Failed { cause, attempts: 0 })
                })
            })
            .collect();

        Ok(CampaignRun {
            axes: axes.iter().map(|a| a.label().to_string()).collect(),
            baseline_accuracy: ctx.baseline_accuracy(),
            cells,
        })
    }
}

/// One attempt at one cell, before retry bookkeeping: the completed row, or
/// how its worker halted (errors and panics are retried, cancellation is
/// not).
type CellTry = std::result::Result<CellResult, Halt>;

/// Content hash of everything that determines a plan's results: the context
/// seed and baseline, per-cell draw parameters, mixed seeds and payloads,
/// the scenario count and the retraining hyper-parameters. Two plans with
/// equal fingerprints execute identically cell for cell, which is what makes
/// a checkpoint safe to resume.
fn plan_fingerprint(
    ctx: &ExperimentContext,
    specs: &[CellSpec],
    payloads: &[CellPayload],
    cell_seeds: &[u64],
    scenarios_per_cell: usize,
    retrain_config: &RetrainConfig,
) -> u64 {
    let mut fp = falvolt_tensor::Fingerprint::new();
    fp.write_str("campaign-plan-v1");
    fp.write_u64(ctx.seed());
    fp.write_u64(u64::from(ctx.baseline_accuracy().to_bits()));
    fp.write_usize(scenarios_per_cell);
    fp.write_u64(u64::from(retrain_config.learning_rate.to_bits()));
    fp.write_u64(u64::from(retrain_config.track_history));
    fp.write_usize(specs.len());
    for ((spec, payload), &mixed) in specs.iter().zip(payloads).zip(cell_seeds) {
        fp.write_u64(mixed);
        fp.write_usize(spec.systolic.rows());
        fp.write_usize(spec.systolic.cols());
        fp.write_u64(spec.fault_rate.map_or(u64::MAX, f64::to_bits));
        fp.write_u64(spec.faulty_pes.map_or(u64::MAX, |p| p as u64));
        fp.write_u64(u64::from(spec.resolved_bit()));
        fp.write_u64(match spec.polarity {
            StuckAt::Zero => 0,
            StuckAt::One => 1,
        });
        match payload {
            CellPayload::Eval => fp.write_str("eval"),
            CellPayload::Retrain(strategy) => {
                fp.write_str("retrain");
                fp.write_str(strategy.label());
                fp.write_usize(strategy.epochs());
                let threshold = match strategy {
                    MitigationStrategy::FaPIT { threshold, .. } => *threshold,
                    _ => f32::NAN,
                };
                fp.write_u64(u64::from(threshold.to_bits()));
            }
        }
    }
    fp.finish() as u64
}

/// Snapshot of the completed cells in `done` as a [`CampaignCheckpoint`].
fn checkpoint_of(
    fingerprint: u64,
    baseline_accuracy: f32,
    total_cells: usize,
    done: &[Option<CellResult>],
) -> CampaignCheckpoint {
    let cells = done
        .iter()
        .enumerate()
        .filter_map(|(index, slot)| {
            slot.as_ref()
                .filter(|r| r.status.is_completed())
                .map(|r| CheckpointCell {
                    index,
                    accuracy: r.accuracy,
                    scenarios: r.scenarios,
                    outcomes: r.outcomes.clone(),
                })
        })
        .collect();
    CampaignCheckpoint {
        fingerprint,
        baseline_accuracy,
        total_cells,
        cells,
    }
}

/// Draws one cell pool: `scenarios` maps from a fresh RNG seeded with the
/// cell's mixed seed.
fn draw_pool(spec: &CellSpec, seed: u64, scenarios: usize) -> Result<Vec<FaultMap>> {
    let bit = spec.resolved_bit();
    let mut maps = Vec::with_capacity(scenarios);
    if let Some(rate) = spec.fault_rate {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..scenarios {
            maps.push(FaultMap::random_with_rate(
                &spec.systolic,
                rate,
                bit,
                spec.polarity,
                &mut rng,
            )?);
        }
    } else if let Some(pes) = spec.faulty_pes {
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..scenarios {
            maps.push(FaultMap::random_faulty_pes(
                &spec.systolic,
                pes,
                bit,
                spec.polarity,
                &mut rng,
            )?);
        }
    } else {
        // No fault axis: the fault-free chip.
        maps.resize(scenarios, FaultMap::new(spec.systolic));
    }
    Ok(maps)
}

/// The per-figure seed mixers of the paper's figures.
///
/// Pass one to [`Campaign::seed_mixer`] to draw exactly the fault maps a
/// figure's recorded series were drawn from: the plans of
/// [`crate::figures`] install these, and the golden figure tests
/// (`tests/golden_figures.rs`) pin their output bit for bit. Plans that do
/// not need continuity with recorded series should keep the default mixer.
pub mod mixers {
    use super::CellSpec;

    /// Figure 2 (fixed-threshold retraining): one chip per fault rate.
    pub fn per_fault_rate(seed: u64, spec: &CellSpec) -> u64 {
        seed ^ spec.fault_rate.unwrap_or(0.0).to_bits()
    }

    /// Figures 6/7 (FaP / FaPIT / FalVolt): one chip per fault rate,
    /// decorrelated from the Figure 2 pool by the rotation.
    pub fn per_fault_rate_rotated(seed: u64, spec: &CellSpec) -> u64 {
        seed ^ spec.fault_rate.unwrap_or(0.0).to_bits().rotate_left(13)
    }

    /// Figure 5a (bit position): one pool per bit position, shared by both
    /// polarities.
    pub fn per_bit(seed: u64, spec: &CellSpec) -> u64 {
        seed ^ u64::from(spec.bit.unwrap_or(0)) << 8
    }

    /// Figure 5b (faulty-PE count): one pool per faulty-PE count.
    pub fn per_faulty_pe_count(seed: u64, spec: &CellSpec) -> u64 {
        seed ^ (spec.faulty_pes.unwrap_or(0) as u64) << 16
    }

    /// Figure 5c (array size): one pool per array side length.
    pub fn per_array_size(seed: u64, spec: &CellSpec) -> u64 {
        seed ^ (spec.systolic.rows() as u64) << 24
    }

    /// Figure 8 (convergence): one fixed chip for every cell.
    pub fn convergence(seed: u64, _spec: &CellSpec) -> u64 {
        seed ^ 0xF168
    }
}

/// The default seed mixer: a content hash of the fault-drawing parameters.
/// The payload (threshold, strategy) is deliberately excluded so payload
/// variants of one fault configuration retrain against the same chips.
fn default_seed_mix(seed: u64, spec: &CellSpec) -> u64 {
    let mut fp = falvolt_tensor::Fingerprint::new();
    fp.write_str("campaign-cell");
    fp.write_u64(seed);
    fp.write_usize(spec.systolic.rows());
    fp.write_usize(spec.systolic.cols());
    fp.write_u64(spec.fault_rate.map_or(u64::MAX, f64::to_bits));
    fp.write_u64(spec.faulty_pes.map_or(u64::MAX, |p| p as u64));
    fp.write_u64(u64::from(spec.resolved_bit()));
    fp.write_u64(match spec.polarity {
        StuckAt::Zero => 0,
        StuckAt::One => 1,
    });
    fp.finish() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{DatasetKind, ExperimentScale};

    fn tiny_ctx() -> ExperimentContext {
        ExperimentContext::prepare_untrained(DatasetKind::Mnist, ExperimentScale::Tiny, 9)
            .expect("untrained context")
    }

    #[test]
    fn axes_expand_cartesian_first_axis_outermost() {
        let mut ctx = tiny_ctx();
        let run = Campaign::new(&mut ctx)
            .axis(Axis::FaultRate(vec![0.1, 0.3]))
            .axis(Axis::BitPosition(vec![0, 15]))
            .run()
            .unwrap();
        assert_eq!(run.axes(), &["fault_rate".to_string(), "bit".to_string()]);
        let coords: Vec<(f64, u32)> = run
            .cells()
            .iter()
            .map(|c| (c.spec.fault_rate.unwrap(), c.spec.bit.unwrap()))
            .collect();
        assert_eq!(coords, vec![(0.1, 0), (0.1, 15), (0.3, 0), (0.3, 15)]);
        for cell in &run {
            assert_eq!(cell.scenarios, 1);
            assert!(cell.outcomes.is_empty(), "eval cells have no outcomes");
            assert!((0.0..=1.0).contains(&cell.accuracy));
        }
    }

    #[test]
    fn payload_cells_share_a_once_per_rate_pool_and_seeds_are_stable() {
        // The default mixer excludes the payload, so the threshold cells of
        // one rate must retrain against the same drawn chip; and rerunning
        // the identical plan reproduces identical accuracies.
        let mut ctx = tiny_ctx();
        let plan = |ctx: &mut ExperimentContext| {
            Campaign::new(ctx)
                .axis(Axis::FaultRate(vec![0.4]))
                .axis(Axis::Threshold(vec![0.6, 1.0]))
                .retrain_epochs(1)
                .run()
                .unwrap()
        };
        let a = plan(&mut ctx);
        let b = plan(&mut ctx);
        assert_eq!(a.cells().len(), 2);
        for cell in &a {
            let outcome = cell.outcome().expect("retraining cell");
            assert_eq!(outcome.strategy, "FaPIT");
            assert_eq!(outcome.epochs_run, 1);
        }
        // Same chip for both thresholds: identical pruned fraction.
        assert_eq!(
            a.cells()[0].outcomes[0].pruned_weight_fraction,
            a.cells()[1].outcomes[0].pruned_weight_fraction
        );
        assert_eq!(a, b, "a campaign plan is a pure function of its inputs");
    }

    /// A Fig-7-shaped plan: every strategy at two fault rates, one map per
    /// rate.
    fn fig7_shaped(ctx: &mut ExperimentContext) -> Campaign<'_> {
        Campaign::new(ctx)
            .axis(Axis::FaultRate(vec![0.1, 0.4]))
            .axis(Axis::Mitigation(vec![
                MitigationStrategy::FaP,
                MitigationStrategy::fapit(2),
                MitigationStrategy::falvolt(2),
            ]))
            .seed_mixer(mixers::per_fault_rate_rotated)
    }

    /// Every field of a cell as bits: the checkpoint encoding of its
    /// outcomes, with their histories cleared when `drop_history`.
    fn cell_bits(cell: &CellResult, drop_history: bool) -> String {
        let mut out = format!(
            "{:?} {:#010x} {} {:?} ",
            cell.spec,
            cell.accuracy.to_bits(),
            cell.scenarios,
            cell.status
        );
        for outcome in &cell.outcomes {
            let mut outcome = outcome.clone();
            if drop_history {
                outcome.history.clear();
            }
            encode_outcome(&mut out, &outcome);
        }
        out
    }

    #[test]
    fn history_is_the_only_output_tracking_changes() {
        let mut ctx = tiny_ctx();
        let tracked = fig7_shaped(&mut ctx).track_history(true).run().unwrap();
        let untracked = fig7_shaped(&mut ctx).run().unwrap();
        assert_eq!(tracked.completed(), 6);
        assert_eq!(tracked.len(), untracked.len());
        for (a, b) in tracked.cells().iter().zip(untracked.cells()) {
            assert_eq!(cell_bits(a, true), cell_bits(b, false));
            let outcome = a.outcome().expect("retraining cell");
            let points = if outcome.epochs_run > 0 { 3 } else { 0 };
            assert_eq!(outcome.history.len(), points);
            assert!(b.outcome().is_some_and(|o| o.history.is_empty()));
        }
    }

    #[test]
    fn the_strategies_on_one_map_share_its_post_pruning_accuracy() {
        let mut ctx = tiny_ctx();
        let run = fig7_shaped(&mut ctx).run().unwrap();
        for rate in run.cells().chunks(3) {
            let outcomes: Vec<&MitigationOutcome> =
                rate.iter().filter_map(CellResult::outcome).collect();
            assert_eq!(outcomes.len(), 3);
            let after_pruning = outcomes[0].accuracy_after_pruning.to_bits();
            for outcome in &outcomes {
                assert_eq!(outcome.accuracy_after_pruning.to_bits(), after_pruning);
            }
            assert_eq!(outcomes[0].strategy, "FaP");
            assert_eq!(outcomes[0].final_accuracy.to_bits(), after_pruning);
        }
    }

    #[test]
    fn a_halted_post_pruning_evaluation_halts_only_the_cells_on_its_map() {
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        let mut ctx = tiny_ctx();
        let clean = fig7_shaped(&mut ctx).run().unwrap();
        // Pools are numbered in draw order: pool 0 is the 10% map, pool 1
        // the 40% map.
        let failing = |run: &CampaignRun, pool: usize, panic: bool| {
            for (cell, clean_cell) in run.cells().iter().zip(clean.cells()) {
                if cell.spec.fault_rate == Some([0.1, 0.4][pool]) {
                    assert!(matches!(
                        &cell.status,
                        CellStatus::Failed { cause, attempts: 1 } if cause.is_panic() == panic
                    ));
                    assert!(cell.outcomes.is_empty());
                } else {
                    assert_eq!(cell, clean_cell);
                }
            }
        };
        let errored = fig7_shaped(&mut ctx)
            .pruning_hook(|pool, _| {
                if pool == 1 {
                    Err("injected pruning error".to_string())
                } else {
                    Ok(())
                }
            })
            .run()
            .unwrap();
        failing(&errored, 1, false);
        let panicked = fig7_shaped(&mut ctx)
            .pruning_hook(|pool, _| {
                if pool == 0 {
                    panic!("injected pruning panic");
                }
                Ok(())
            })
            .run()
            .unwrap();
        failing(&panicked, 0, true);

        // A retry re-runs the failed map's pass and recovers bit for bit.
        let failed_once = AtomicBool::new(false);
        let retried = fig7_shaped(&mut ctx)
            .retry(RetryPolicy::attempts(2).backoff(Duration::ZERO, Duration::ZERO))
            .pruning_hook(move |pool, _| {
                if pool == 1 && !failed_once.swap(true, Ordering::SeqCst) {
                    Err("transient pruning error".to_string())
                } else {
                    Ok(())
                }
            })
            .run()
            .unwrap();
        assert_eq!(retried, clean);

        // At one worker the pass runs its maps in order, so a token tripped
        // during the first map's evaluation stops the pass before the second.
        struct ClearOverride;
        impl Drop for ClearOverride {
            fn drop(&mut self) {
                rayon::set_thread_count_override(0);
            }
        }
        let _guard = ClearOverride;
        rayon::set_thread_count_override(1);
        let calls = Arc::new(AtomicUsize::new(0));
        let token = CancelToken::new();
        let (hook_calls, hook_token) = (Arc::clone(&calls), token.clone());
        let cancelled = fig7_shaped(&mut ctx)
            .cancel_token(token)
            .pruning_hook(move |_, _| {
                hook_calls.fetch_add(1, Ordering::SeqCst);
                hook_token.cancel();
                Ok(())
            })
            .run()
            .unwrap();
        assert_eq!(calls.load(Ordering::SeqCst), 1);
        assert_eq!(cancelled.skipped(), 6);
        let (hook_calls, expired_calls) = (Arc::clone(&calls), Arc::clone(&calls));
        calls.store(0, Ordering::SeqCst);
        let expired = fig7_shaped(&mut ctx)
            .deadline(Duration::from_millis(200))
            .pruning_hook(move |_, _| {
                hook_calls.fetch_add(1, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(400));
                Ok(())
            })
            .run()
            .unwrap();
        assert_eq!(expired_calls.load(Ordering::SeqCst), 1);
        assert!(expired.cells().iter().all(|c| c.status
            == CellStatus::Skipped {
                reason: SkipReason::Deadline
            }));
    }

    #[test]
    fn mean_series_groups_by_remaining_coords() {
        let mut ctx = tiny_ctx();
        let run = Campaign::new(&mut ctx)
            .axis(Axis::Polarity(vec![StuckAt::Zero, StuckAt::One]))
            .axis(Axis::BitPosition(vec![0, 15]))
            .axis(Axis::FaultyPes(vec![4]))
            .scenarios_per_cell(2)
            .run()
            .unwrap();
        assert_eq!(run.len(), 4);
        let series = run.mean_series("bit");
        assert_eq!(series.len(), 2, "one series per polarity");
        assert_eq!(series[0].label, "sa0/4");
        assert_eq!(series[1].label, "sa1/4");
        assert!(series.iter().all(|s| s.points.len() == 2));
        assert!(series
            .iter()
            .all(|s| s.points.iter().all(|p| p.iterations == 2)));
        assert_eq!(run.cells().len(), 4);
        assert_eq!(run.axes().len(), 3);
    }

    #[test]
    fn invalid_plans_are_rejected() {
        let mut ctx = tiny_ctx();
        assert!(Campaign::new(&mut ctx)
            .axis(Axis::FaultyPes(vec![1]))
            .scenarios_per_cell(0)
            .run()
            .is_err());
        assert!(Campaign::new(&mut ctx)
            .axis(Axis::ArraySize(vec![0]))
            .run()
            .is_err());
        // A threshold cannot silently ride along with a strategy that has no
        // threshold knob — the coordinate would label cells by a parameter
        // that had no effect.
        assert!(Campaign::new(&mut ctx)
            .axis(Axis::Threshold(vec![0.5]))
            .axis(Axis::Mitigation(vec![MitigationStrategy::FaP]))
            .run()
            .is_err());
        // A Threshold axis without an epoch budget would silently run
        // prune-only FaPIT; the plan is rejected instead.
        assert!(Campaign::new(&mut ctx)
            .axis(Axis::Threshold(vec![0.5]))
            .run()
            .is_err());
        // An empty axis expands to zero cells, not an error.
        let run = Campaign::new(&mut ctx)
            .axis(Axis::FaultRate(Vec::new()))
            .run()
            .unwrap();
        assert!(run.is_empty());
        assert!(Axis::FaultRate(Vec::new()).is_empty());
    }

    #[test]
    fn failed_cells_are_rows_not_aborts() {
        let mut ctx = tiny_ctx();
        let clean = Campaign::new(&mut ctx)
            .axis(Axis::FaultyPes(vec![0, 4, 8]))
            .run()
            .unwrap();
        // Panic in the middle cell's worker: the run survives, the cell is a
        // Failed row, and its neighbours are bit-identical to a clean run.
        let run = Campaign::new(&mut ctx)
            .axis(Axis::FaultyPes(vec![0, 4, 8]))
            .cell_hook(|cell, _attempt| {
                if cell == 1 {
                    panic!("injected worker panic");
                }
                Ok(())
            })
            .run()
            .unwrap();
        assert_eq!(run.len(), 3);
        assert_eq!((run.completed(), run.failed(), run.skipped()), (2, 1, 0));
        match &run.cells()[1].status {
            CellStatus::Failed { cause, attempts } => {
                assert!(cause.is_panic());
                assert_eq!(cause.message(), "injected worker panic");
                assert_eq!(*attempts, 1);
            }
            other => panic!("expected a failed cell, got {other:?}"),
        }
        assert_eq!(run.cells()[1].accuracy, 0.0);
        assert_eq!(run.cells()[0], clean.cells()[0]);
        assert_eq!(run.cells()[2], clean.cells()[2]);

        // The same isolation holds on the retraining path.
        let retrain = Campaign::new(&mut ctx)
            .axis(Axis::FaultRate(vec![0.2]))
            .axis(Axis::Mitigation(vec![MitigationStrategy::FaP]))
            .cell_hook(|_, _| panic!("retrain worker panic"))
            .run()
            .unwrap();
        assert!(retrain.cells()[0].status.is_failed());
    }

    #[test]
    fn retries_recover_flaky_cells_and_cap_attempts() {
        let mut ctx = tiny_ctx();
        let clean = Campaign::new(&mut ctx)
            .axis(Axis::FaultyPes(vec![0, 4]))
            .run()
            .unwrap();
        // Every cell fails its first attempt; one retry recovers them all
        // bit-identically (a retry sees a fresh scenario view).
        let run = Campaign::new(&mut ctx)
            .axis(Axis::FaultyPes(vec![0, 4]))
            .retry(RetryPolicy::attempts(2).backoff(Duration::ZERO, Duration::ZERO))
            .cell_hook(|_cell, attempt| {
                if attempt == 1 {
                    Err("transient failure".to_string())
                } else {
                    Ok(())
                }
            })
            .run()
            .unwrap();
        assert_eq!(run, clean);
        // Without retries the same hook fails the cells after one attempt.
        let once = Campaign::new(&mut ctx)
            .axis(Axis::FaultyPes(vec![0, 4]))
            .cell_hook(|_cell, attempt| {
                if attempt == 1 {
                    Err("transient failure".to_string())
                } else {
                    Ok(())
                }
            })
            .run()
            .unwrap();
        assert_eq!(once.failed(), 2);
        assert!(once.cells().iter().all(|c| matches!(
            &c.status,
            CellStatus::Failed { cause, attempts: 1 } if !cause.is_panic()
        )));
    }

    #[test]
    fn deadlines_and_cancellation_return_the_completed_prefix() {
        let mut ctx = tiny_ctx();
        let run = Campaign::new(&mut ctx)
            .axis(Axis::FaultyPes(vec![0, 4]))
            .deadline(Duration::ZERO)
            .run()
            .unwrap();
        assert_eq!(run.len(), 2);
        assert_eq!(run.skipped(), 2);
        assert!(run.cells().iter().all(|c| matches!(
            c.status,
            CellStatus::Skipped {
                reason: SkipReason::Deadline
            }
        )));

        let token = CancelToken::new();
        token.cancel();
        let run = Campaign::new(&mut ctx)
            .axis(Axis::FaultyPes(vec![0, 4]))
            .cancel_token(token)
            .run()
            .unwrap();
        assert!(run.cells().iter().all(|c| matches!(
            c.status,
            CellStatus::Skipped {
                reason: SkipReason::Cancelled
            }
        )));
    }

    #[test]
    fn a_deadline_expiring_after_the_first_batch_wave_stops_the_sweep() {
        let mut ctx = tiny_ctx();
        let batches = ctx.test_batches().len();
        assert!(batches >= 2, "the sweep needs a second batch wave");
        // Every evaluation item runs one forward pass, and every forward
        // pass makes one prefix-cache lookup.
        let forwards = |ctx: &ExperimentContext| {
            let stats = ctx.caches().sweep.prefix_stats();
            stats.hits + stats.misses + stats.promotions
        };
        let before = forwards(&ctx);
        // Cell 1's injector fires on the first batch of its only scenario
        // and sleeps past the deadline, so the first wave runs in full and
        // the deadline has expired before any later batch starts.
        let run = Campaign::new(&mut ctx)
            .axis(Axis::FaultyPes(vec![0, 4]))
            .scenarios_per_cell(1)
            .deadline(Duration::from_millis(300))
            .cell_hook(|cell, _| {
                if cell == 1 {
                    std::thread::sleep(Duration::from_millis(900));
                }
                Ok(())
            })
            .run()
            .unwrap();
        assert!(run.cells().iter().all(|c| matches!(
            c.status,
            CellStatus::Skipped {
                reason: SkipReason::Deadline
            }
        )));
        assert_eq!(
            forwards(&ctx) - before,
            2,
            "only the first batch wave of {batches} may run"
        );
    }

    #[test]
    fn retrain_cells_honour_cancellation_deadlines_and_retries() {
        fn plan(ctx: &mut ExperimentContext) -> Campaign<'_> {
            Campaign::new(ctx)
                .axis(Axis::FaultRate(vec![0.1, 0.3]))
                .axis(Axis::Mitigation(vec![MitigationStrategy::FaP]))
        }
        let skipped_for = |run: &CampaignRun, expected: SkipReason| {
            run.len() == 2
                && run.cells().iter().all(|c| {
                    c.status == CellStatus::Skipped { reason: expected } && c.outcomes.is_empty()
                })
        };
        let mut ctx = tiny_ctx();
        let clean = plan(&mut ctx).run().unwrap();
        assert_eq!(clean.completed(), 2);
        assert!(clean.cells().iter().all(|c| c.outcomes.len() == 1));

        let token = CancelToken::new();
        token.cancel();
        let cancelled = plan(&mut ctx).cancel_token(token).run().unwrap();
        assert!(skipped_for(&cancelled, SkipReason::Cancelled));

        let expired = plan(&mut ctx).deadline(Duration::ZERO).run().unwrap();
        assert!(skipped_for(&expired, SkipReason::Deadline));

        // A token tripped inside the retraining worker stops it before its
        // first map: the cell is skipped, not failed.
        let token = CancelToken::new();
        let hook_token = token.clone();
        let stopped = plan(&mut ctx)
            .cancel_token(token)
            .cell_hook(move |_, _| {
                hook_token.cancel();
                Ok(())
            })
            .run()
            .unwrap();
        assert!(skipped_for(&stopped, SkipReason::Cancelled));

        // Every cell fails its first attempt; one retry recovers the run
        // bit for bit.
        let retried = plan(&mut ctx)
            .retry(RetryPolicy::attempts(2).backoff(Duration::ZERO, Duration::ZERO))
            .cell_hook(|_, attempt| {
                if attempt == 1 {
                    Err("transient retrain failure".to_string())
                } else {
                    Ok(())
                }
            })
            .run()
            .unwrap();
        assert_eq!(retried, clean);
    }

    #[test]
    fn checkpoints_round_trip_and_resume_bit_identically() {
        use std::sync::Mutex;
        let mut ctx = tiny_ctx();
        fn plan(ctx: &mut ExperimentContext) -> Campaign<'_> {
            Campaign::new(ctx)
                .axis(Axis::FaultyPes(vec![0, 4, 8]))
                .scenarios_per_cell(2)
        }
        let full = plan(&mut ctx).run().unwrap();

        // Interrupt after the first 1-cell wave by tripping a token from
        // the checkpoint sink.
        let seen: Arc<Mutex<Vec<CampaignCheckpoint>>> = Arc::new(Mutex::new(Vec::new()));
        let token = CancelToken::new();
        let sink_seen = Arc::clone(&seen);
        let sink_token = token.clone();
        let partial = plan(&mut ctx)
            .checkpoint_every(1)
            .checkpoint_sink(move |cp| {
                sink_seen
                    .lock()
                    .unwrap_or_else(std::sync::PoisonError::into_inner)
                    .push(cp.clone());
                sink_token.cancel();
            })
            .cancel_token(token)
            .run()
            .unwrap();
        assert!(partial.skipped() > 0, "the kill left unexecuted cells");
        let checkpoint = seen
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .first()
            .cloned()
            .expect("a checkpoint");
        assert_eq!(checkpoint.completed_cells(), 1);
        assert!(!checkpoint.is_complete());

        // Serialize, reload and resume: the merged run is bit-identical to
        // the uninterrupted one.
        let reloaded = CampaignCheckpoint::from_json(&checkpoint.to_json()).unwrap();
        assert_eq!(reloaded, checkpoint);
        let resumed = plan(&mut ctx).resume(reloaded).run().unwrap();
        assert_eq!(resumed, full, "killed-and-resumed == uninterrupted");

        // A checkpoint does not resume a different plan.
        let err = plan(&mut ctx)
            .seed(999)
            .resume(checkpoint)
            .run()
            .unwrap_err();
        assert!(matches!(
            err,
            crate::FalvoltError::Campaign(CampaignError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn checkpoints_with_bad_cell_indexes_are_malformed() {
        let cell = |index: usize| {
            format!(r#"{{"index":{index},"accuracy":"0x3f800000","scenarios":1,"outcomes":[]}}"#)
        };
        let checkpoint = |cells: &[usize]| {
            let cells: Vec<String> = cells.iter().map(|&i| cell(i)).collect();
            format!(
                r#"{{"version":1,"fingerprint":"0x0000000000000007","baseline_accuracy":"0x3f800000","total_cells":2,"cells":[{}]}}"#,
                cells.join(",")
            )
        };
        let complete = CampaignCheckpoint::from_json(&checkpoint(&[0, 1])).unwrap();
        assert!(complete.is_complete());
        // A repeated index would make two records of cell 0 look like a
        // complete two-cell plan while cell 1 is missing.
        for bad in [&[0, 0][..], &[1, 0, 1], &[2]] {
            assert!(
                matches!(
                    CampaignCheckpoint::from_json(&checkpoint(bad)),
                    Err(CampaignError::CheckpointMalformed { .. })
                ),
                "cells {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn full_and_seed_equivalent_presets_give_identical_accuracies() {
        // Presets are execution strategies, not result state: the fan-out
        // behind every evaluation cell gives the same accuracies whichever
        // preset the scenario views run under.
        let ctx = tiny_ctx();
        let config = *ctx.systolic_config();
        let mut rng = StdRng::seed_from_u64(6);
        let mut scenarios = vec![(config, FaultMap::new(config)); 2];
        for _ in 0..2 {
            let map = FaultMap::random_faulty_pes(
                &config,
                6,
                config.accumulator_format().msb(),
                StuckAt::One,
                &mut rng,
            )
            .unwrap();
            scenarios.push((config, map));
        }
        let accuracies = |preset: EnginePreset| {
            crate::vulnerability::scenario_accuracies(
                ctx.network(),
                scenarios.clone(),
                ctx.test_batches(),
                &crate::SweepCaches::new(),
                &preset,
            )
            .unwrap()
        };
        assert_eq!(
            accuracies(EnginePreset::full()),
            accuracies(EnginePreset::seed_equivalent())
        );
    }
}
