//! Faulty matrix-product executor.
//!
//! The SNN layers lower their linear algebra (convolutions via im2col, fully
//! connected layers directly) to matrix products `activations x weights`. The
//! executor runs those products through the systolic array: every partial
//! sum of an output element passes through the accumulator of the PE that
//! stores the corresponding weight, where the PE's stuck-at faults corrupt it.
//!
//! The chain of output `(i, j)` is the structural array's datapath
//! ([`crate::SystolicArray::matmul`], the bit-exact oracle the executor is
//! proptested against):
//!
//! * **Fold carry.** Weight row `p` sits in PE row `p mod rows`, and the
//!   accumulator is carried from fold to fold: step `p` adds
//!   `quantize(a[i, p] * w[p, j])` (skipped when `a[i, p] == 0`) with
//!   saturation, then applies the masks of PE `(p mod rows, j mod cols)`.
//! * **Partial tiles.** The chain stops at `p = k - 1`, so in the last,
//!   partial fold the PE rows past `(k - 1) mod rows` never touch the sum;
//!   column tiles start from zero and a ragged last tile uses only its own
//!   PE columns.
//! * **Fault-free idealisation.** A map with no fault at all is treated as
//!   ideal hardware: the product folds to the float kernel layer
//!   ([`falvolt_tensor::kernels`]) and drops the fixed-point quantization.
//!   Only maps with at least one fault run the quantized datapath.
//!
//! Every product runs through one driver,
//! [`SystolicExecutor::matmul_scenarios_view`], which evaluates a set of
//! fault maps in one pass; a single-map [`SystolicExecutor::matmul`] is the
//! one-map batch. Each map's masked chain positions are resolved once per
//! product into a [`FoldPlan`]. Every output row is seeded with the maskless
//! quantized chain, then the columns of each map's corruptible folds walk a
//! merged event stream, parallelised over output rows (fault application is
//! per output element, so rows are independent). Stuck-at masks compose
//! associatively ([`PeMasks::then`]), so the run of masks between two
//! nonzero activations collapses into one (AND, OR) pair: a faulty column
//! walks only the nonzero activations and its fold's masked positions
//! instead of all `k` steps, applying the same adds and the same masks in
//! the same order. One column walker and one lane walker (its SIMD form)
//! perform every such walk; a fold corrupted by one map computes its
//! quantized contributions inline, a fold corrupted by several maps
//! computes them once and replays them per map.
//!
//! The executor models faulty PEs in the datapath only. The bypass
//! multiplexer of the paper's Figure 3b lives in the structural oracle
//! ([`crate::SystolicArray::bypass_faulty_pes`]), where it is proven equal
//! to fault-aware pruning bit for bit: a bypassed chip is the pruned weights
//! ([`crate::WeightMapping::prune_mask`]) on a fault-free map, so the
//! executor runs it as exactly that (a fault-free map, hence the float
//! idealisation above) and needs no bypass mode of its own.
//!
//! With a [`crate::ProductCache`] installed, the maskless quantized chain of
//! a product's fault-free columns is computed once per distinct activation
//! matrix and shared across every fault scenario in a sweep (clean columns
//! do not depend on the fault map). See the cache docs for the
//! promote-on-second-request policy.

use crate::fault_map::PeMasks;
use crate::product_cache::ProductCache;
use crate::{FaultMap, Result, SystolicConfig, SystolicError};
use falvolt_fixedpoint::{Fixed, QFormat};
use falvolt_tensor::kernels::parallel_panel_rows;
use falvolt_tensor::simd::{self, Isa, SimdLevel, SimdOp};
use falvolt_tensor::{
    CancelToken, Fingerprint, MatmulHint, SpikeIndex, StoreDecision, Tensor, TensorError,
};
use rayon::prelude::*;
use std::sync::Arc;

/// Executes matrix products on the (possibly faulty) systolic array.
///
/// # Example
///
/// ```
/// use falvolt_systolic::{FaultMap, SystolicConfig, SystolicExecutor};
/// use falvolt_tensor::Tensor;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SystolicConfig::new(4, 4)?;
/// let executor = SystolicExecutor::new(config, FaultMap::new(config));
/// let a = Tensor::ones(&[2, 4]);
/// let b = Tensor::full(&[4, 3], 0.25);
/// let out = executor.matmul(&a, &b)?;
/// // With no faults the array reproduces the exact product (within
/// // fixed-point resolution).
/// assert!((out.get(&[0, 0]) - 1.0).abs() < 1e-2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystolicExecutor {
    config: SystolicConfig,
    fault_map: FaultMap,
    cache: Option<Arc<ProductCache>>,
    cancel: Option<CancelToken>,
}

impl PartialEq for SystolicExecutor {
    fn eq(&self, other: &Self) -> bool {
        // The cache is a perf-sharing handle, not executor state: two
        // executors that compute identical products compare equal.
        self.config == other.config && self.fault_map == other.fault_map
    }
}

impl SystolicExecutor {
    /// Creates an executor for a configuration and fault map, with faults
    /// active in the datapath.
    pub fn new(config: SystolicConfig, fault_map: FaultMap) -> Self {
        Self {
            config,
            fault_map,
            cache: None,
            cancel: None,
        }
    }

    /// The systolic configuration.
    pub fn config(&self) -> &SystolicConfig {
        &self.config
    }

    /// The installed fault map.
    pub fn fault_map(&self) -> &FaultMap {
        &self.fault_map
    }

    /// Installs (or removes) a sweep-shared clean-product cache.
    pub fn set_product_cache(&mut self, cache: Option<Arc<ProductCache>>) {
        self.cache = cache;
    }

    /// Installs (or removes) a cooperative cancellation token. With one
    /// installed, every product checks it at entry and per output row of
    /// the fold chains and returns [`TensorError::Cancelled`] once tripped
    /// — no partial output is ever served.
    pub fn set_cancel_token(&mut self, token: Option<CancelToken>) {
        self.cancel = token;
    }

    /// The installed cancellation token, if any.
    pub fn cancel_token(&self) -> Option<&CancelToken> {
        self.cancel.as_ref()
    }

    /// Polls the installed cancellation token.
    fn check_cancelled(&self) -> Result<()> {
        if let Some(token) = &self.cancel {
            token.check()?;
        }
        Ok(())
    }

    /// Computes `activations x weights` on the systolic array with
    /// [`MatmulHint::Auto`]; see [`SystolicExecutor::matmul_hinted`].
    ///
    /// # Errors
    ///
    /// Returns a tensor error for non-matrix inputs or mismatched inner
    /// dimensions.
    pub fn matmul(&self, activations: &Tensor, weights: &Tensor) -> Result<Tensor> {
        self.matmul_hinted(activations, weights, MatmulHint::Auto)
    }

    /// Computes `activations x weights` on the systolic array.
    ///
    /// `activations` has shape `[M, K]` (rows of spikes or activations) and
    /// `weights` has shape `[K, N]`. Weight element `(k, n)` resides in PE
    /// `(k mod rows, n mod cols)`; the partial sum of output `(m, n)` passes
    /// through that PE's accumulator, where its stuck-at faults are applied.
    ///
    /// This is the one-map batch: [`SystolicExecutor::matmul_scenarios_view`]
    /// with the installed fault map as the only scenario.
    ///
    /// `hint` steers the fault-free fast path onto the event-driven sparse
    /// kernel for spike activations. The faulty path ignores it: fault
    /// corruption runs the exact quantized accumulator chain regardless, so
    /// fault-injection results are bit-identical whatever the hint, the
    /// active SIMD level, and whether clean columns come from the shared
    /// product cache or are recomputed.
    ///
    /// # Errors
    ///
    /// Returns a tensor error for non-matrix inputs or mismatched inner
    /// dimensions.
    pub fn matmul_hinted(
        &self,
        activations: &Tensor,
        weights: &Tensor,
        hint: MatmulHint,
    ) -> Result<Tensor> {
        self.matmul_scenarios_view(
            activations,
            weights,
            std::slice::from_ref(&self.fault_map),
            hint,
        )?
        .into_tensor(0)
    }

    /// Multi-map batched product with [`MatmulHint::Auto`], materialised as
    /// one tensor per map (in input order); see
    /// [`SystolicExecutor::matmul_scenarios_view`].
    ///
    /// # Errors
    ///
    /// Returns a tensor error for non-matrix inputs or mismatched inner
    /// dimensions.
    pub fn matmul_scenarios(
        &self,
        activations: &Tensor,
        weights: &Tensor,
        maps: &[FaultMap],
    ) -> Result<Vec<Tensor>> {
        self.matmul_scenarios_view(activations, weights, maps, MatmulHint::Auto)?
            .into_tensors()
    }

    /// Computes `activations x weights` under every fault map of a scenario
    /// set in **one pass over the event stream** — the executor's one
    /// product driver. Scenario `s` of the returned view is bit-identical to
    /// the structural array ([`crate::SystolicArray::matmul`]) under
    /// `maps[s]` when that map holds a fault (a fault-free map takes the
    /// float idealisation of the module docs), and a single-map
    /// [`SystolicExecutor::matmul_hinted`] is this call with one map.
    ///
    /// A figure sweep replays the *same* activations against dozens of fault
    /// maps; evaluating them per map repeats all the map-independent work.
    /// The batched walk amortises it:
    ///
    /// * each row's nonzero event list is resolved **once** for all maps
    ///   (free when the activations carry a CSR spike index),
    /// * a column fold corrupted by several maps materialises its quantized
    ///   contribution sequence (`quantize(a_ip * w[p, j])`, map-independent)
    ///   **once** and replays it per map with that map's composed mask
    ///   events; a fold corrupted by one map computes it inline,
    /// * the maskless quantized chain is computed **once** per row and
    ///   seeds every map's fault-free columns (shared across calls through
    ///   the [`ProductCache`] when installed),
    /// * fault-free maps share one structure-aware fast-path product.
    ///
    /// The interleaved buffer is returned as a [`ScenarioMatrices`] view:
    /// callers that consume rows (or a subset of scenarios) skip the
    /// O(maps · m · n) de-interleave copy entirely.
    ///
    /// The executor's own fault map is ignored; its grid and accumulator
    /// format apply to every scenario. All maps must target this
    /// executor's grid.
    ///
    /// # Errors
    ///
    /// Returns a tensor error for non-matrix inputs or mismatched inner
    /// dimensions, and [`TensorError::Cancelled`] once the installed token
    /// trips.
    pub fn matmul_scenarios_view(
        &self,
        activations: &Tensor,
        weights: &Tensor,
        maps: &[FaultMap],
        hint: MatmulHint,
    ) -> Result<ScenarioMatrices> {
        self.check_cancelled()?;
        let (m, k) = matrix_dims(activations)?;
        let (k2, n) = matrix_dims(weights)?;
        if k != k2 {
            return Err(SystolicError::Tensor(TensorError::MatmulDimMismatch {
                left_cols: k,
                right_rows: k2,
            }));
        }
        let a = activations.data();
        let w = weights.data();
        // Cache keys are O(1) content-id fingerprints (no operand hashing),
        // so every product consults the sweep-shared store when one is
        // installed.
        let cache = self.cache.as_ref();
        // Hoist all per-(k, col-fold) fault state out of the element loops.
        let plans: Vec<FoldPlan> = maps
            .iter()
            .map(|map| FoldPlan::new(&self.config, map, k))
            .collect();
        let mut lane_of: Vec<Option<ScenarioLane>> = vec![None; maps.len()];

        // Fault-free maps cannot corrupt anything, so their product folds to
        // the kernel layer's structure-aware dispatch (blocked dense, or
        // gather-accumulate for sparse spike activations) — one tensor,
        // shared by reference across every fault-free scenario. (This also
        // drops the hardware's fixed-point quantization — an ideal-hardware
        // idealisation bounded by k * resolution; only faulty maps run the
        // quantized datapath below.)
        let mut fast: Option<Arc<Tensor>> = None;
        for (s, plan) in plans.iter().enumerate() {
            if plan.any_fault() {
                continue;
            }
            let shared = match &fast {
                Some(t) => Arc::clone(t),
                None => {
                    let value = fault_free_product(activations, weights, m, k, n, hint, cache);
                    let t = Arc::new(Tensor::from_vec(vec![m, n], value)?);
                    fast = Some(Arc::clone(&t));
                    t
                }
            };
            lane_of[s] = Some(ScenarioLane::Shared(shared));
        }
        drop(fast);

        let faulty: Vec<usize> = plans
            .iter()
            .enumerate()
            .filter(|(_, plan)| plan.any_fault())
            .map(|(s, _)| s)
            .collect();
        for (fi, &s) in faulty.iter().enumerate() {
            lane_of[s] = Some(ScenarioLane::Lane(fi));
        }
        let lane_of = lane_table(lane_of)?;
        if faulty.is_empty() || m == 0 || n == 0 {
            return Ok(ScenarioMatrices {
                m,
                n,
                lanes: faulty.len(),
                inter: Vec::new(),
                lane_of,
            });
        }

        // Faulty path. Every column runs the hardware's quantized
        // accumulator chain (so the executor agrees with the structural
        // array simulation). Each row is seeded with the maskless chain —
        // the value of every column a map leaves clean — and the columns of
        // each map's corruptible folds are then overwritten by the merged
        // walk of nonzero activations and masked positions.
        let format = self.config.accumulator_format();

        // The maskless chain does not depend on the fault map, so a
        // sweep-shared clean product is consumed when the cache holds one.
        // When the cache promotes this key, the walk derives the value into
        // an extra clean lane and fulfils it afterwards.
        let (shared_clean, fulfil_clean): (Option<Arc<Vec<f32>>>, Option<u128>) = match cache {
            Some(cache) => {
                let key = product_key(
                    "quantized-clean",
                    activations,
                    weights,
                    m,
                    k,
                    n,
                    u64::from(format.total_bits()) << 8 | u64::from(format.frac_bits()),
                );
                match cache.lookup(key) {
                    StoreDecision::Hit(shared) => (Some(shared), None),
                    StoreDecision::Compute => (None, Some(key)),
                    StoreDecision::Skip => (None, None),
                }
            }
            None => (None, None),
        };

        let cols = self.config.cols();
        let folds = FoldUsers::new(&plans, &faulty, cols.min(n));
        // A CSR spike index on the activations makes the per-row event list
        // a free view: the executor walks the index instead of re-scanning
        // (and re-allocating) the nonzero scratch per product.
        let spike_index = spike_index_for(activations, m, k);
        // Binary activations contribute `quantize(1.0 * w) == quantize(w)`
        // per event — a pure function of the weights and the format, shared
        // across every scenario, time step and batch through the cache. A
        // table read replaces the multiply+round+clamp per accumulation.
        let qweights = quantized_weight_table(
            spike_index.is_some().then_some(weights),
            w,
            k,
            n,
            format,
            cache,
        );
        let fcount = faulty.len();
        // Lane `fcount` holds the derived clean values of a promoted call.
        let clean_lane = fulfil_clean.map(|_| fcount);
        let lanes = fcount + usize::from(clean_lane.is_some());
        // Interleaved output: row-major, all scenarios of one row contiguous,
        // so the row walk stays embarrassingly parallel across threads.
        let mut inter = vec![0.0f32; m * lanes * n];
        let walk = RowWalk {
            a,
            k,
            n,
            cols,
            spike_index,
            shared_clean: shared_clean.as_deref().map(Vec::as_slice),
            folds: &folds,
            lanes,
            clean_lane,
            format,
            // Lane engine: `Isa::Scalar` keeps the per-column loop exactly.
            use_lanes: !matches!(simd::active(), Isa::Scalar),
            cancel: self.cancel.as_ref(),
        };
        // The table-or-multiply choice is made once per product, so every
        // walk below is monomorphic in it.
        match qweights.as_deref() {
            Some(table) => walk.rows(table.as_slice(), &mut inter),
            None => walk.rows(Scaled { w, format }, &mut inter),
        }

        if let Err(cancelled) = self.check_cancelled() {
            // The interleaved buffer is partial: release the clean-product
            // promotion (if this call held one) instead of fulfilling it.
            if let (Some(key), Some(cache)) = (fulfil_clean, cache) {
                cache.abandon(key);
            }
            return Err(cancelled);
        }
        let view = ScenarioMatrices {
            m,
            n,
            lanes,
            inter,
            lane_of,
        };
        if let (Some(key), Some(cache)) = (fulfil_clean, cache) {
            cache.fulfill(key, Arc::new(view.gather(fcount)));
        }
        Ok(view)
    }
}

/// Stable tag of a hint for cache keying (the dispatch decision is a pure
/// function of the operand and the hint, so the hint is part of the key).
fn hint_tag(hint: MatmulHint) -> u64 {
    match hint {
        MatmulHint::Auto => 0,
        MatmulHint::Dense => 1,
        MatmulHint::Spikes => 2,
    }
}

/// Key of one product under one execution regime (`tag`). Operands are
/// identified by their generation-tagged content ids — O(1) per consult, and
/// an id equal to a cached one guarantees byte-equal content (ids are never
/// reused and every mutation re-mints them), so id-keyed hits are as
/// bit-safe as the content hashes they replaced.
fn product_key(
    tag: &str,
    a: &Tensor,
    w: &Tensor,
    m: usize,
    k: usize,
    n: usize,
    extra: u64,
) -> u128 {
    let mut fp = Fingerprint::new();
    fp.write_str(tag);
    fp.write_dims(&[m, k, n]);
    fp.write_u64(extra);
    fp.write_u64(a.content_id());
    fp.write_u64(w.content_id());
    fp.finish()
}

/// The activations' CSR spike index, when it matches the `m x k` matrix
/// view. The index was validated against the data when it was attached (and
/// any mutable access drops it), so only the geometry is checked here.
fn spike_index_for(activations: &Tensor, m: usize, k: usize) -> Option<&SpikeIndex> {
    activations
        .spike_index()
        .filter(|ix| ix.rows() == m && ix.cols() == k)
        .map(|ix| ix.as_ref())
}

/// Resolves one row's nonzero event list into caller-owned scratch: a free
/// view of the CSR index when one is attached (spikes are binary, so the
/// value is `1.0`), otherwise one scan of the dense row.
fn fill_nonzeros(nz: &mut Vec<(usize, f32)>, index: Option<&SpikeIndex>, i: usize, a_row: &[f32]) {
    nz.clear();
    match index {
        Some(ix) => nz.extend(ix.row(i).iter().map(|&p| (p as usize, 1.0f32))),
        None => nz.extend(a_row.iter().copied().enumerate().filter(|&(_, v)| v != 0.0)),
    }
}

/// The fault-free product of the executor's fast path: the kernel layer's
/// structure-aware dispatch, shared through the product cache when one is
/// installed. Bit-identical whether the value is computed, fulfilled or hit
/// (cached values are pure functions of the key).
fn fault_free_product(
    activations: &Tensor,
    weights: &Tensor,
    m: usize,
    k: usize,
    n: usize,
    hint: MatmulHint,
    cache: Option<&Arc<ProductCache>>,
) -> Vec<f32> {
    let dispatch = || {
        falvolt_tensor::kernels::matmul_dispatch_indexed(
            activations.data(),
            spike_index_for(activations, m, k),
            weights.data(),
            m,
            k,
            n,
            hint,
        )
    };
    if let Some(cache) = cache {
        let key = product_key("float", activations, weights, m, k, n, hint_tag(hint));
        match cache.lookup(key) {
            StoreDecision::Hit(shared) => return shared.as_ref().clone(),
            StoreDecision::Compute => {
                let out = Arc::new(dispatch());
                cache.fulfill(key, Arc::clone(&out));
                return out.as_ref().clone();
            }
            StoreDecision::Skip => {}
        }
    }
    dispatch()
}

/// Resolves the sweep-shared quantized-weight table for a product with
/// **binary** activations (`binary_weights` is `Some` only when a CSR spike
/// index certifies every nonzero is `1.0`, so `quantize(a_ip * w) ==
/// quantize(w)` exactly). Promote-on-second-request through the product
/// cache: without a cache (or before promotion) the caller quantizes inline
/// — building a `k x n` table for a single product would cost more than it
/// saves.
fn quantized_weight_table(
    binary_weights: Option<&Tensor>,
    w: &[f32],
    k: usize,
    n: usize,
    format: QFormat,
    cache: Option<&Arc<ProductCache>>,
) -> Option<Arc<Vec<i32>>> {
    let weights = binary_weights?;
    let cache = cache?;
    let mut fp = Fingerprint::new();
    fp.write_str("qweights");
    fp.write_dims(&[k, n]);
    fp.write_u64(u64::from(format.total_bits()) << 8 | u64::from(format.frac_bits()));
    fp.write_u64(weights.content_id());
    let key = fp.finish();
    match cache.lookup_qweights(key) {
        StoreDecision::Hit(table) => Some(table),
        StoreDecision::Compute => {
            let table: Arc<Vec<i32>> = Arc::new(w.iter().map(|&x| format.quantize(x)).collect());
            cache.fulfill_qweights(key, Arc::clone(&table));
            Some(table)
        }
        StoreDecision::Skip => None,
    }
}

/// The quantized weight an activation event `(p, v)` adds to the chain of
/// column `j`, read at weight index `idx = p * n + j`.
trait QuantizedWeights: Copy + Sync {
    /// One column: exactly `quantize(v * w[idx])`.
    fn at(self, idx: usize, v: f32) -> i64;
    /// `I64_LANES` contiguous columns starting at `idx`, each lane exactly
    /// [`QuantizedWeights::at`].
    fn contiguous<S: SimdLevel>(self, idx: usize, v: f32) -> S::I64;
}

/// Binary activations read the sweep-shared table of `quantize(w)`: every
/// nonzero is `1.0`, so `quantize(1.0 * w) == quantize(w)` exactly.
impl QuantizedWeights for &[i32] {
    #[inline(always)]
    fn at(self, idx: usize, _: f32) -> i64 {
        i64::from(self[idx])
    }

    #[inline(always)]
    fn contiguous<S: SimdLevel>(self, idx: usize, _: f32) -> S::I64 {
        S::i64_load_i32(&self[idx..])
    }
}

/// Any activations: `quantize(v * w)`, computed per event.
#[derive(Clone, Copy)]
struct Scaled<'a> {
    w: &'a [f32],
    format: QFormat,
}

impl QuantizedWeights for Scaled<'_> {
    #[inline(always)]
    fn at(self, idx: usize, v: f32) -> i64 {
        i64::from(self.format.quantize(v * self.w[idx]))
    }

    #[inline(always)]
    fn contiguous<S: SimdLevel>(self, idx: usize, v: f32) -> S::I64 {
        let format = self.format;
        let scale = (1i64 << format.frac_bits()) as f32;
        let x = S::f32h_scale(S::f32h_load(&self.w[idx..]), v);
        S::f32h_quantize(x, scale, format.min_raw() as f32, format.max_raw() as f32)
    }
}

/// Where a fold walk reads its quantized contributions: the `e`-th nonzero
/// event `(p, v)` of the row adds [`Contributions::word`] to one column's
/// accumulator, or [`Contributions::block`] to `I64_LANES` columns at once.
trait Contributions: Copy {
    /// The source narrowed to a walk of `events` events, so its per-event
    /// reads are provably in bounds.
    fn for_events(self, events: usize) -> Self;
    fn word(self, e: usize, p: usize, v: f32) -> i64;
    fn block<S: SimdLevel>(self, e: usize, p: usize, v: f32) -> S::I64;
}

/// Contributions computed on the fly for the columns `base`, `base +
/// stride`, ...: the walk of a fold only one map corrupts reads them here.
#[derive(Clone, Copy)]
struct InlineQ<W> {
    weights: W,
    n: usize,
    base: usize,
    stride: usize,
}

impl<W: QuantizedWeights> InlineQ<W> {
    /// Materialises the contributions of `lanes` columns for every event,
    /// event-major (`lanes` words per event), for the walks of several maps
    /// to replay through [`ReplayQ`].
    #[inline(always)]
    fn fill(self, q: &mut Vec<i64>, nz: &[(usize, f32)], lanes: usize) {
        q.clear();
        q.resize(nz.len() * lanes, 0);
        for (block, &(p, v)) in q.chunks_exact_mut(lanes).zip(nz) {
            let row = p * self.n + self.base;
            for (lane, word) in block.iter_mut().enumerate() {
                *word = self.weights.at(row + lane * self.stride, v);
            }
        }
    }
}

impl<W: QuantizedWeights> Contributions for InlineQ<W> {
    #[inline(always)]
    fn for_events(self, _: usize) -> Self {
        self
    }

    #[inline(always)]
    fn word(self, _: usize, p: usize, v: f32) -> i64 {
        self.weights.at(p * self.n + self.base, v)
    }

    #[inline(always)]
    fn block<S: SimdLevel>(self, _: usize, p: usize, v: f32) -> S::I64 {
        let row = p * self.n + self.base;
        S::i64_from_fn(|lane| self.weights.at(row + lane * self.stride, v))
    }
}

/// Contributions replayed from a sequence [`InlineQ::fill`] materialised
/// once (one word per event for a column walk, `I64_LANES` for a block).
#[derive(Clone, Copy)]
struct ReplayQ<'a>(&'a [i64]);

impl Contributions for ReplayQ<'_> {
    #[inline(always)]
    fn for_events(self, events: usize) -> Self {
        ReplayQ(&self.0[..events])
    }

    #[inline(always)]
    fn word(self, e: usize, _: usize, _: f32) -> i64 {
        self.0[e]
    }

    #[inline(always)]
    fn block<S: SimdLevel>(self, e: usize, _: usize, _: f32) -> S::I64 {
        S::i64_load(&self.0[e * S::I64_LANES..])
    }
}

/// Applies a composed mask pair to a raw accumulator word — exactly
/// [`PeMasks::apply`] on a [`Fixed`] carrying that raw (the accumulator is
/// kept clamped into the format's range, so `from_raw`'s clamp is a no-op).
fn apply_masks_raw(acc: i64, masks: PeMasks, format: QFormat) -> i64 {
    i64::from(masks.apply(Fixed::from_raw(acc as i32, format)).raw())
}

/// One output column via the composed event walk: merge the row's nonzero
/// activations with the fold's masked positions in `p` order (add before
/// mask at equal positions, exactly the PE-by-PE chain's order) and collapse
/// every run of masks between two adds into one composed pair. The
/// accumulator lives as a raw word with the same quantize-and-saturate chain
/// the [`Fixed`] arithmetic performs (format bounds hoisted by the caller).
///
/// The contributions come from `q`: computed inline ([`InlineQ`]) when one
/// walk reads them, or replayed ([`ReplayQ`]) when several walks share one
/// materialised sequence. An empty `masked` list walks the maskless chain.
fn faulty_column_from_q(
    masked: &[(u32, PeMasks)],
    nonzero: &[(usize, f32)],
    q: impl Contributions,
    format: QFormat,
    min_raw: i64,
    max_raw: i64,
) -> f32 {
    let q = q.for_events(nonzero.len());
    let mut acc = 0i64;
    let mut mi = 0usize;
    for (e, &(p, v)) in nonzero.iter().enumerate() {
        // Compose and apply every mask strictly before this add. Masks ahead
        // of the first nonzero act on the zero accumulator, exactly as the
        // PE-by-PE chain does.
        if mi < masked.len() && (masked[mi].0 as usize) < p {
            let mut composed = masked[mi].1;
            mi += 1;
            while mi < masked.len() && (masked[mi].0 as usize) < p {
                composed = composed.then(masked[mi].1);
                mi += 1;
            }
            acc = apply_masks_raw(acc, composed, format);
        }
        acc = (acc + q.word(e, p, v)).clamp(min_raw, max_raw);
    }
    // Tail: masks at and after the last add (an add at position p is masked
    // by position p's own PE after the accumulation step).
    if mi < masked.len() {
        let mut composed = masked[mi].1;
        mi += 1;
        while mi < masked.len() {
            composed = composed.then(masked[mi].1);
            mi += 1;
        }
        acc = apply_masks_raw(acc, composed, format);
    }
    format.dequantize(acc as i32)
}

/// The faulty scenarios that walk each column fold: the `(scenario lane,
/// masked list)` pairs of every map whose plan corrupts the fold, stored
/// flat over the `cols.min(n)` folds a product touches.
struct FoldUsers<'a> {
    /// Fold `f`'s pairs are `users[start[f]..start[f + 1]]`.
    start: Vec<usize>,
    users: Vec<(usize, &'a [(u32, PeMasks)])>,
}

impl<'a> FoldUsers<'a> {
    /// Resolves the users of folds `0..folds` for the faulty scenarios
    /// `faulty` (indices into `plans`; lane `fi` is `faulty[fi]`).
    fn new(plans: &'a [FoldPlan], faulty: &[usize], folds: usize) -> Self {
        let mut start = Vec::with_capacity(folds + 1);
        let mut users = Vec::new();
        for fold in 0..folds {
            start.push(users.len());
            for (fi, &s) in faulty.iter().enumerate() {
                if !plans[s].column_is_clean(fold) {
                    users.push((fi, plans[s].fold_masked(fold)));
                }
            }
        }
        start.push(users.len());
        Self { start, users }
    }

    /// Number of folds covered.
    fn folds(&self) -> usize {
        self.start.len() - 1
    }

    /// The pairs of fold `fold`, in lane order.
    fn users(&self, fold: usize) -> &[(usize, &'a [(u32, PeMasks)])] {
        &self.users[self.start[fold]..self.start[fold + 1]]
    }
}

/// Dense multiply-adds one fault-chain step costs, for the kernels' work
/// grain ([`parallel_panel_rows`] counts dense multiply-adds). A faulty
/// lane quantizes every contribution and runs the PE-by-PE masked
/// accumulator chain. One-map faulty products of 2048×48×32, 512×128×64
/// and 1024×256×64 on a 16×16 grid measured 60–150 dense multiply-adds per
/// chain step with the scalar kernels and 130–300 with AVX-512, at one
/// thread. The grain takes the low end, so a product splits only where
/// even the cheapest chain makes that pay.
const FAULT_CHAIN_STEP_COST: usize = 64;

/// The per-product state of the faulty row walk of
/// [`SystolicExecutor::matmul_scenarios_view`]: each output row is seeded
/// with the maskless chain in every lane, then each lane's corruptible
/// columns are overwritten with that map's masked walk.
struct RowWalk<'a> {
    a: &'a [f32],
    k: usize,
    n: usize,
    cols: usize,
    spike_index: Option<&'a SpikeIndex>,
    /// The sweep-shared maskless product, when the cache holds one.
    shared_clean: Option<&'a [f32]>,
    folds: &'a FoldUsers<'a>,
    /// Interleaved lanes per row: one per faulty map, plus `clean_lane`.
    lanes: usize,
    /// The lane that receives the derived maskless chain of a call that
    /// fulfils the sweep-shared clean product.
    clean_lane: Option<usize>,
    format: QFormat,
    use_lanes: bool,
    cancel: Option<&'a CancelToken>,
}

impl RowWalk<'_> {
    /// Walks every row of the interleaved buffer — serially below the
    /// parallel work threshold, otherwise in row panels across threads
    /// (fault application is per output element, so rows are independent).
    fn rows<W: QuantizedWeights>(&self, weights: W, inter: &mut [f32]) {
        let row_stride = self.lanes * self.n;
        let m = inter.len() / row_stride;
        let faulty_lanes = self.lanes - usize::from(self.clean_lane.is_some());
        let work = m * self.n * self.k * faulty_lanes * FAULT_CHAIN_STEP_COST;
        let Some(rows_per_panel) = parallel_panel_rows(m, work, 1) else {
            let (mut nz, mut q) = (Vec::new(), Vec::new());
            for (i, row_chunk) in inter.chunks_mut(row_stride).enumerate() {
                self.row(weights, i, row_chunk, &mut nz, &mut q);
            }
            return;
        };
        inter
            .par_chunks_mut(rows_per_panel * row_stride)
            .enumerate()
            .for_each(|(panel, out_panel)| {
                let row0 = panel * rows_per_panel;
                let (mut nz, mut q) = (Vec::new(), Vec::new());
                for (r, row_chunk) in out_panel.chunks_mut(row_stride).enumerate() {
                    self.row(weights, row0 + r, row_chunk, &mut nz, &mut q);
                }
            });
    }

    /// Output row `i` of every lane; `nz` and `q` are per-panel scratch.
    fn row<W: QuantizedWeights>(
        &self,
        weights: W,
        i: usize,
        row_chunk: &mut [f32],
        nz: &mut Vec<(usize, f32)>,
        q: &mut Vec<i64>,
    ) {
        // Fold-chain granularity cancellation: a tripped token stops the
        // remaining rows cheaply; the driver's post-loop check turns the
        // partial buffer into `Cancelled` before it can be served.
        if self.cancel.is_some_and(CancelToken::is_cancelled) {
            return;
        }
        let (k, n, lanes) = (self.k, self.n, self.lanes);
        let format = self.format;
        let (min_raw, max_raw) = (i64::from(format.min_raw()), i64::from(format.max_raw()));
        fill_nonzeros(nz, self.spike_index, i, &self.a[i * k..(i + 1) * k]);
        let shared_row = self.shared_clean.map(|v| &v[i * n..(i + 1) * n]);
        if self.use_lanes {
            // Seed one lane with the maskless chain (the clean lane of a
            // promoted call, else lane 0) and copy it to the others, then
            // overwrite the columns of each corruptible fold.
            let seed = self.clean_lane.unwrap_or(0);
            let seed_row = &mut row_chunk[seed * n..(seed + 1) * n];
            match shared_row {
                Some(row) => seed_row.copy_from_slice(row),
                None => simd::dispatch(CleanRowOp {
                    nz,
                    weights,
                    out_row: seed_row,
                    n,
                    format,
                    min_raw,
                    max_raw,
                }),
            }
            for lane in (0..lanes).filter(|&lane| lane != seed) {
                row_chunk.copy_within(seed * n..(seed + 1) * n, lane * n);
            }
            simd::dispatch(ScenarioFoldsOp {
                folds: self.folds,
                nz,
                weights,
                row_chunk,
                q,
                n,
                cols: self.cols,
                format,
                min_raw,
                max_raw,
            });
            return;
        }
        for j in 0..n {
            let users = self.folds.users(j % self.cols);
            // The maskless value serves the lanes this fold leaves clean and
            // the clean lane; it is derived from the column's own chain
            // unless the cache shares it.
            let need_clean = users.len() < lanes;
            let derive_clean = need_clean && shared_row.is_none();
            // The quantized contribution sequence of this (row, column) is
            // map-independent: materialise it once when several walks
            // replay it, else compute it inline.
            let replay = users.len() + usize::from(derive_clean) > 1;
            let inline = InlineQ {
                weights,
                n,
                base: j,
                stride: 1,
            };
            if replay {
                inline.fill(q, nz, 1);
            }
            let walk = |masked: &[(u32, PeMasks)]| {
                if replay {
                    faulty_column_from_q(masked, nz, ReplayQ(q), format, min_raw, max_raw)
                } else {
                    faulty_column_from_q(masked, nz, inline, format, min_raw, max_raw)
                }
            };
            if need_clean {
                let clean_v = shared_row.map_or_else(|| walk(&[]), |row| row[j]);
                for lane in 0..lanes {
                    row_chunk[lane * n + j] = clean_v;
                }
            }
            for &(fi, masked) in users {
                row_chunk[fi * n + j] = walk(masked);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Lane engines: the same quantized chains, vectorised across columns. Every
// per-column accumulator chain is independent and its add/clamp/mask order is
// untouched, so each lane is bit-identical to its scalar reference — the lane
// engines only change *which columns* advance together.
// ---------------------------------------------------------------------------

/// One row of the maskless quantized chain across `I64_LANES` contiguous
/// columns at a time; each lane bit-identical to [`faulty_column_from_q`]
/// with no masks, which also handles the column tail.
struct CleanRowOp<'a, W> {
    nz: &'a [(usize, f32)],
    weights: W,
    out_row: &'a mut [f32],
    n: usize,
    format: QFormat,
    min_raw: i64,
    max_raw: i64,
}

impl<W: QuantizedWeights> SimdOp for CleanRowOp<'_, W> {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLevel>(self) {
        let Self {
            nz,
            weights,
            out_row,
            n,
            format,
            min_raw,
            max_raw,
        } = self;
        let lanes = S::I64_LANES;
        let resolution = format.resolution();
        let mut j = 0usize;
        while j + lanes <= n {
            let mut acc = S::i64_zero();
            for &(p, v) in nz {
                let q = weights.contiguous::<S>(p * n + j, v);
                acc = S::i64_clamp(S::i64_add(acc, q), min_raw, max_raw);
            }
            S::i64_dequantize_store(acc, resolution, &mut out_row[j..]);
            j += lanes;
        }
        for (j, o) in out_row.iter_mut().enumerate().take(n).skip(j) {
            let q = InlineQ {
                weights,
                n,
                base: j,
                stride: 1,
            };
            *o = faulty_column_from_q(&[], nz, q, format, min_raw, max_raw);
        }
    }
}

/// The corruptible folds of one output row, for every scenario lane: all
/// columns of a fold share one masked list per map, so `I64_LANES` of them
/// walk the composed event stream together ([`walk_q_block`]). A fold one
/// map corrupts computes its contributions inline; a fold several maps
/// corrupt materialises the strided q block once and replays it per map.
/// [`faulty_column_from_q`] handles the per-fold column tail the same way.
struct ScenarioFoldsOp<'a, W> {
    folds: &'a FoldUsers<'a>,
    nz: &'a [(usize, f32)],
    weights: W,
    row_chunk: &'a mut [f32],
    q: &'a mut Vec<i64>,
    n: usize,
    cols: usize,
    format: QFormat,
    min_raw: i64,
    max_raw: i64,
}

impl<W: QuantizedWeights> SimdOp for ScenarioFoldsOp<'_, W> {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLevel>(self) {
        let Self {
            folds,
            nz,
            weights,
            row_chunk,
            q,
            n,
            cols,
            format,
            min_raw,
            max_raw,
        } = self;
        let lanes = S::I64_LANES;
        for fold in 0..folds.folds() {
            let users = folds.users(fold);
            if users.is_empty() {
                continue;
            }
            let replay = users.len() > 1;
            let count = (n - fold).div_ceil(cols);
            let mut g = 0usize;
            while g + lanes <= count {
                let base = fold + g * cols;
                let inline = InlineQ {
                    weights,
                    n,
                    base,
                    stride: cols,
                };
                if replay {
                    inline.fill(q, nz, lanes);
                }
                for &(fi, masked) in users {
                    let acc = if replay {
                        walk_q_block::<S>(masked, nz, ReplayQ(q), format, min_raw, max_raw)
                    } else {
                        walk_q_block::<S>(masked, nz, inline, format, min_raw, max_raw)
                    };
                    for lane in 0..lanes {
                        row_chunk[fi * n + base + lane * cols] =
                            format.dequantize(S::i64_extract(acc, lane) as i32);
                    }
                }
                g += lanes;
            }
            while g < count {
                let j = fold + g * cols;
                let inline = InlineQ {
                    weights,
                    n,
                    base: j,
                    stride: 1,
                };
                if replay {
                    inline.fill(q, nz, 1);
                }
                for &(fi, masked) in users {
                    row_chunk[fi * n + j] = if replay {
                        faulty_column_from_q(masked, nz, ReplayQ(q), format, min_raw, max_raw)
                    } else {
                        faulty_column_from_q(masked, nz, inline, format, min_raw, max_raw)
                    };
                }
                g += 1;
            }
        }
    }
}

/// [`faulty_column_from_q`] across `I64_LANES` columns at once, reading
/// each event's contributions as a block. Same merged walk, same composed
/// masks, same per-lane order.
#[inline(always)]
fn walk_q_block<S: SimdLevel>(
    masked: &[(u32, PeMasks)],
    nonzero: &[(usize, f32)],
    q: impl Contributions,
    format: QFormat,
    min_raw: i64,
    max_raw: i64,
) -> S::I64 {
    let mut acc = S::i64_zero();
    let mut mi = 0usize;
    for (e, &(p, v)) in nonzero.iter().enumerate() {
        if mi < masked.len() && (masked[mi].0 as usize) < p {
            let mut composed = masked[mi].1;
            mi += 1;
            while mi < masked.len() && (masked[mi].0 as usize) < p {
                composed = composed.then(masked[mi].1);
                mi += 1;
            }
            acc = S::i64_map(acc, |raw| apply_masks_raw(raw, composed, format));
        }
        acc = S::i64_clamp(S::i64_add(acc, q.block::<S>(e, p, v)), min_raw, max_raw);
    }
    if mi < masked.len() {
        let mut composed = masked[mi].1;
        mi += 1;
        while mi < masked.len() {
            composed = composed.then(masked[mi].1);
            mi += 1;
        }
        acc = S::i64_map(acc, |raw| apply_masks_raw(raw, composed, format));
    }
    acc
}

/// Precomputed fault state for one matrix product: which PE masks apply to
/// every `(k, column-fold)` pair, hoisted out of the per-element loops.
///
/// Weight element `(p, j)` resides in PE `(p mod rows, j mod cols)`, so the
/// mask chain of an output column depends only on `j mod cols`. The plan
/// stores, for each of the `cols` folds, the *sparse* list of masked chain
/// positions that the event walk merges with each row's nonzero activations,
/// and a per-fold cleanliness flag used to fast-path unaffected columns.
/// Construction costs O(faults * k / rows).
///
/// # Example
///
/// ```
/// use falvolt_systolic::executor::FoldPlan;
/// use falvolt_systolic::{FaultMap, SystolicConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let config = SystolicConfig::new(4, 4)?;
/// let plan = FoldPlan::new(&config, &FaultMap::new(config), 16);
/// assert!(!plan.any_fault());
/// assert!(plan.column_is_clean(7));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FoldPlan {
    /// Per-fold masked chain positions: the `(p, masks)` pairs where a mask
    /// exists, in increasing `p`. `(#faulty rows of the fold) *
    /// ceil(k / rows)` entries — what makes the event walk O(nnz + masked)
    /// instead of O(k).
    masked: Vec<Vec<(u32, PeMasks)>>,
    /// Per-fold flag: `true` when no PE of that grid column masks any of the
    /// `k` chain positions.
    fold_clean: Vec<bool>,
    cols: usize,
    any_fault: bool,
}

impl FoldPlan {
    /// Builds the plan for products with inner dimension `k` on `config`'s
    /// grid under `fault_map`.
    pub fn new(config: &SystolicConfig, fault_map: &FaultMap, k: usize) -> Self {
        let rows = config.rows();
        let cols = config.cols();
        let any_fault = !fault_map.is_empty();
        let mut masked = vec![Vec::new(); cols];
        let mut fold_clean = vec![true; cols];
        if any_fault {
            // Unfold each faulty PE to its chain positions: weight row p maps
            // to PE row `p mod rows`, so PE (r, c) masks positions r, r +
            // rows, ... of fold c. Distinct PEs of one column never collide
            // on a position, so a sort yields the increasing-p walk order.
            for pe in fault_map.faulty_pes() {
                // faulty_pes() only yields masked PEs; a PE the map no
                // longer masks simply contributes no masked positions.
                let Some(masks) = fault_map.masks(pe) else {
                    continue;
                };
                let mut p = pe.row;
                while p < k {
                    masked[pe.col].push((p as u32, masks));
                    p += rows;
                }
            }
            for (fold, list) in masked.iter_mut().enumerate() {
                list.sort_unstable_by_key(|&(p, _)| p);
                // A faulty PE whose row exceeds k masks nothing: the fold
                // stays clean for this product.
                fold_clean[fold] = list.is_empty();
            }
        }
        Self {
            masked,
            fold_clean,
            cols,
            any_fault,
        }
    }

    /// `true` when the fault map holds at least one fault.
    pub fn any_fault(&self) -> bool {
        self.any_fault
    }

    /// `true` when output column `j` cannot be corrupted (its PE column holds
    /// no faulty PE masking a chain position).
    pub fn column_is_clean(&self, j: usize) -> bool {
        self.fold_clean[j % self.cols]
    }

    /// The sparse masked positions of output column `j`, in increasing `p`.
    pub fn fold_masked(&self, j: usize) -> &[(u32, PeMasks)] {
        &self.masked[j % self.cols]
    }
}

/// Where one scenario's matrix lives inside a [`ScenarioMatrices`] batch.
#[derive(Debug, Clone)]
enum ScenarioLane {
    /// Faulty scenario: lane `fi` of the interleaved buffer.
    Lane(usize),
    /// Fault-free scenario: the shared fast-path product.
    Shared(Arc<Tensor>),
}

/// Scenario-major view over the batched walk's interleaved output buffer.
///
/// [`SystolicExecutor::matmul_scenarios_view`] returns the buffer as-is
/// (row-major, all scenario lanes of one output row contiguous) instead of
/// de-interleaving it into one tensor per map — an O(maps · m · n) memcpy
/// that dominated short batched products. Rows are read in place with
/// [`ScenarioMatrices::row`]; a full tensor for one scenario is gathered on
/// demand with [`ScenarioMatrices::tensor`], or moved out without a copy
/// where the layout allows with [`ScenarioMatrices::into_tensor`].
#[derive(Debug, Clone)]
pub struct ScenarioMatrices {
    m: usize,
    n: usize,
    /// Interleaved lane count: faulty scenarios plus the derived-clean lane
    /// of a call that fulfils the sweep-shared clean product.
    lanes: usize,
    /// `m * lanes * n` interleaved values (empty when every scenario is
    /// fault-free or a dimension is zero).
    inter: Vec<f32>,
    /// Per-scenario location, in input map order.
    lane_of: Vec<ScenarioLane>,
}

impl ScenarioMatrices {
    /// Number of scenarios in the batch (the input map count).
    pub fn scenarios(&self) -> usize {
        self.lane_of.len()
    }

    /// Output dimensions `(m, n)` shared by every scenario.
    pub fn dims(&self) -> (usize, usize) {
        (self.m, self.n)
    }

    /// Output row `i` of scenario `s`, read in place (no copy).
    ///
    /// # Panics
    ///
    /// Panics when `s` or `i` is out of range.
    pub fn row(&self, s: usize, i: usize) -> &[f32] {
        assert!(i < self.m, "row {i} out of range for {} rows", self.m);
        match &self.lane_of[s] {
            ScenarioLane::Shared(t) => &t.data()[i * self.n..(i + 1) * self.n],
            ScenarioLane::Lane(fi) => {
                let start = i * self.lanes * self.n + fi * self.n;
                &self.inter[start..start + self.n]
            }
        }
    }

    /// Materialises scenario `s` as an `[m, n]` tensor — the single-scenario
    /// gather the eager API performed for every scenario.
    ///
    /// # Errors
    ///
    /// Returns a tensor error when the gathered buffer cannot form an
    /// `[m, n]` tensor (cannot happen for a view built by the executor).
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    pub fn tensor(&self, s: usize) -> Result<Tensor> {
        match &self.lane_of[s] {
            ScenarioLane::Shared(t) => Ok(t.as_ref().clone()),
            ScenarioLane::Lane(fi) => Ok(Tensor::from_vec(vec![self.m, self.n], self.gather(*fi))?),
        }
    }

    /// [`ScenarioMatrices::tensor`] that consumes the view: a one-lane
    /// buffer already is the scenario's row-major matrix and moves into the
    /// tensor, and a fault-free scenario's shared product is unwrapped when
    /// no other scenario holds it. Other layouts gather. Bit-identical to
    /// [`ScenarioMatrices::tensor`].
    ///
    /// # Errors
    ///
    /// Returns a tensor error when the buffer cannot form an `[m, n]`
    /// tensor (cannot happen for a view built by the executor).
    ///
    /// # Panics
    ///
    /// Panics when `s` is out of range.
    pub fn into_tensor(mut self, s: usize) -> Result<Tensor> {
        match self.lane_of.swap_remove(s) {
            ScenarioLane::Shared(t) => {
                Ok(Arc::try_unwrap(t).unwrap_or_else(|t| t.as_ref().clone()))
            }
            ScenarioLane::Lane(_) if self.lanes == 1 => {
                Ok(Tensor::from_vec(vec![self.m, self.n], self.inter)?)
            }
            ScenarioLane::Lane(fi) => Ok(Tensor::from_vec(vec![self.m, self.n], self.gather(fi))?),
        }
    }

    /// Materialises every scenario in input order (the eager API's output).
    ///
    /// # Errors
    ///
    /// Returns a tensor error when a gather cannot form an `[m, n]` tensor
    /// (cannot happen for a view built by the executor).
    pub fn into_tensors(self) -> Result<Vec<Tensor>> {
        (0..self.scenarios()).map(|s| self.tensor(s)).collect()
    }

    /// Lane `lane` of the interleaved buffer, gathered row-major.
    fn gather(&self, lane: usize) -> Vec<f32> {
        let mut data = Vec::with_capacity(self.m * self.n);
        for i in 0..self.m {
            let start = (i * self.lanes + lane) * self.n;
            data.extend_from_slice(&self.inter[start..start + self.n]);
        }
        data
    }
}

/// Finalizes the scenario→lane table. Every scenario must have been
/// assigned a lane by construction; a gap is a builder bug, surfaced as a
/// typed error so a campaign worker survives it instead of unwinding.
fn lane_table(lane_of: Vec<Option<ScenarioLane>>) -> Result<Vec<ScenarioLane>> {
    lane_of
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or(SystolicError::Internal {
            what: "scenario lane table left a scenario unassigned",
        })
}

pub(crate) fn matrix_dims(t: &Tensor) -> Result<(usize, usize)> {
    if t.ndim() != 2 {
        return Err(SystolicError::Tensor(TensorError::RankMismatch {
            expected: 2,
            actual: t.ndim(),
        }));
    }
    Ok((t.shape()[0], t.shape()[1]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fault, PeCoord, StuckAt, WeightMapping};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::sync::atomic::Ordering;

    fn config() -> SystolicConfig {
        SystolicConfig::new(4, 4).unwrap()
    }

    fn max_abs_diff(a: &Tensor, b: &Tensor) -> f32 {
        a.data()
            .iter()
            .zip(b.data())
            .map(|(x, y)| (x - y).abs())
            .fold(0.0, f32::max)
    }

    #[test]
    fn fault_free_array_matches_float_matmul_within_resolution() {
        let config = config();
        let executor = SystolicExecutor::new(config, FaultMap::new(config));
        let mut rng = StdRng::seed_from_u64(2);
        let a = falvolt_tensor::init::uniform(&[5, 7], 0.0, 1.0, &mut rng);
        let b = falvolt_tensor::init::uniform(&[7, 6], -0.5, 0.5, &mut rng);
        let faulty = executor.matmul(&a, &b).unwrap();
        let clean = falvolt_tensor::ops::matmul(&a, &b).unwrap();
        // Each of the 7 accumulation steps quantizes to 1/256 resolution.
        assert!(max_abs_diff(&faulty, &clean) < 7.0 / 256.0 + 1e-4);
    }

    #[test]
    fn binary_spike_inputs_are_exact_for_small_weights() {
        // With binary inputs and weights on the fixed-point lattice the
        // systolic result is exact.
        let config = config();
        let executor = SystolicExecutor::new(config, FaultMap::new(config));
        let a = Tensor::from_vec(vec![2, 4], vec![1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0]).unwrap();
        let b = Tensor::from_fn(&[4, 3], |i| (i % 5) as f32 * 0.25);
        let faulty = executor.matmul(&a, &b).unwrap();
        let clean = falvolt_tensor::ops::matmul(&a, &b).unwrap();
        assert_eq!(faulty.data(), clean.data());
    }

    #[test]
    fn stuck_at_one_msb_corrupts_affected_columns_only() {
        let config = config();
        // Fault in PE (0, 1): affects output columns j with j % 4 == 1.
        let fault_map = FaultMap::from_faults(
            config,
            vec![Fault::new(PeCoord::new(0, 1), 15, StuckAt::One)],
        )
        .unwrap();
        let executor = SystolicExecutor::new(config, fault_map);
        let a = Tensor::ones(&[1, 4]);
        let b = Tensor::full(&[4, 4], 0.5);
        let out = executor.matmul(&a, &b).unwrap();
        let clean = falvolt_tensor::ops::matmul(&a, &b).unwrap();
        for j in 0..4 {
            let diff = (out.get(&[0, j]) - clean.get(&[0, j])).abs();
            if j == 1 {
                assert!(diff > 10.0, "column 1 must be corrupted, diff {diff}");
            } else {
                assert!(diff < 1e-3, "column {j} must be clean, diff {diff}");
            }
        }
    }

    #[test]
    fn stuck_at_zero_lsb_is_mild() {
        let config = config();
        let fault_map = FaultMap::from_faults(
            config,
            vec![Fault::new(PeCoord::new(0, 0), 0, StuckAt::Zero)],
        )
        .unwrap();
        let executor = SystolicExecutor::new(config, fault_map);
        let a = Tensor::ones(&[1, 4]);
        let b = Tensor::full(&[4, 4], 0.5);
        let out = executor.matmul(&a, &b).unwrap();
        let clean = falvolt_tensor::ops::matmul(&a, &b).unwrap();
        // LSB stuck-at-0 can change each pass by at most one resolution step.
        assert!(max_abs_diff(&out, &clean) <= 4.0 / 256.0 + 1e-6);
    }

    /// The structural array's product with every faulty PE bypassed
    /// (Figure 3b), next to the executor's form of the same chip: the
    /// weights mapped to faulty PEs pruned, run on a fault-free array.
    /// Returns `(bypassed, pruned)`.
    fn bypassed_and_pruned(fault_map: &FaultMap, a: &Tensor, b: &Tensor) -> (Tensor, Tensor) {
        let config = *fault_map.config();
        let mut array = crate::SystolicArray::new(config, fault_map);
        array.bypass_faulty_pes();
        let bypassed = array.matmul(a, b).unwrap();
        let (k, n) = (b.shape()[0], b.shape()[1]);
        let mask = WeightMapping::new(&config).prune_mask(n, k, fault_map);
        let pruned_b = b.mul(&mask.transposed().unwrap()).unwrap();
        let pruned = SystolicExecutor::new(config, FaultMap::new(config))
            .matmul(a, &pruned_b)
            .unwrap();
        (bypassed, pruned)
    }

    #[test]
    fn bypass_skips_faulty_contribution_instead_of_corrupting() {
        let config = config();
        let fault_map = FaultMap::from_faults(
            config,
            vec![Fault::new(PeCoord::new(2, 1), 15, StuckAt::One)],
        )
        .unwrap();
        let a = Tensor::ones(&[1, 4]);
        let b = Tensor::full(&[4, 4], 0.5);
        let (out, pruned) = bypassed_and_pruned(&fault_map, &a, &b);
        // On the fixed-point lattice the pruned product is exact.
        assert_eq!(out.data(), pruned.data());
        // Column 1 loses the contribution of k = 2 (weight 0.5): 2.0 -> 1.5.
        assert!((out.get(&[0, 1]) - 1.5).abs() < 1e-3);
        // Other columns unaffected.
        assert!((out.get(&[0, 0]) - 2.0).abs() < 1e-3);
        assert!((out.get(&[0, 3]) - 2.0).abs() < 1e-3);
    }

    #[test]
    fn weight_folding_reuses_faulty_pe_across_tiles() {
        // K = 8 on a 4-row array: rows 0..4 and 4..8 share PEs. A fault in
        // PE (0, 0) must therefore corrupt contributions from k = 0 and k = 4.
        let config = config();
        let fault_map = FaultMap::from_faults(
            config,
            vec![Fault::new(PeCoord::new(0, 0), 15, StuckAt::One)],
        )
        .unwrap();
        let a = Tensor::ones(&[1, 8]);
        let b = Tensor::full(&[8, 4], 0.5);
        let (out, pruned) = bypassed_and_pruned(&fault_map, &a, &b);
        assert_eq!(out.data(), pruned.data());
        // Column 0 loses k=0 and k=4 contributions: 4.0 - 1.0 = 3.0.
        assert!((out.get(&[0, 0]) - 3.0).abs() < 1e-3);
    }

    #[test]
    fn zero_width_products_are_empty_not_panics() {
        let config = config();
        let fault_map = FaultMap::from_faults(
            config,
            vec![Fault::new(PeCoord::new(0, 0), 15, StuckAt::One)],
        )
        .unwrap();
        let executor = SystolicExecutor::new(config, fault_map);
        let a = Tensor::zeros(&[3, 4]);
        let b = Tensor::zeros(&[4, 0]);
        let out = executor.matmul(&a, &b).unwrap();
        assert_eq!(out.shape(), &[3, 0]);
        let empty_rows = executor.matmul(&Tensor::zeros(&[0, 4]), &Tensor::zeros(&[4, 2]));
        assert_eq!(empty_rows.unwrap().shape(), &[0, 2]);
        let empty_both = executor.matmul(&Tensor::zeros(&[0, 4]), &Tensor::zeros(&[4, 0]));
        assert_eq!(empty_both.unwrap().shape(), &[0, 0]);
        let maps = [executor.fault_map().clone(), FaultMap::new(config)];
        let view = executor
            .matmul_scenarios_view(
                &Tensor::zeros(&[0, 4]),
                &Tensor::zeros(&[4, 0]),
                &maps,
                MatmulHint::Auto,
            )
            .unwrap();
        assert_eq!(view.dims(), (0, 0));
        for s in 0..maps.len() {
            assert_eq!(view.clone().into_tensor(s).unwrap().shape(), &[0, 0]);
        }
    }

    fn is_cancelled<T: std::fmt::Debug>(result: Result<T>) -> bool {
        matches!(result, Err(SystolicError::Tensor(TensorError::Cancelled)))
    }

    #[test]
    fn tripped_token_cancels_single_and_batched_products() {
        let config = config();
        let map = FaultMap::from_faults(
            config,
            vec![Fault::new(PeCoord::new(0, 0), 15, StuckAt::One)],
        )
        .unwrap();
        let mut executor = SystolicExecutor::new(config, map.clone());
        let token = CancelToken::new();
        executor.set_cancel_token(Some(token.clone()));
        let a = Tensor::ones(&[3, 4]);
        let b = Tensor::full(&[4, 4], 0.5);
        assert!(executor.matmul(&a, &b).is_ok());
        token.cancel();
        assert!(is_cancelled(executor.matmul(&a, &b)));
        let maps = [map, FaultMap::new(config)];
        assert!(is_cancelled(executor.matmul_scenarios_view(
            &a,
            &b,
            &maps,
            MatmulHint::Auto
        )));
    }

    /// A token tripped while a call that promoted the clean product walks
    /// its rows must release the promotion, never fulfil the partial buffer:
    /// the next call promotes again and returns the oracle's bits. The trip
    /// comes from a second thread once the promotion is visible, so a call
    /// that finishes first is retried on a larger product.
    #[test]
    fn cancelled_call_abandons_its_clean_product_promotion() {
        let config = config();
        let map = FaultMap::from_faults(
            config,
            vec![Fault::new(PeCoord::new(1, 2), 14, StuckAt::One)],
        )
        .unwrap();
        let b = Tensor::from_fn(&[24, 8], |i| (i % 7) as f32 * 0.05 - 0.15);
        let mut m = 1024;
        for attempt in 0..8 {
            // Real-valued activations: the clean product is the only cache
            // key the product promotes.
            let a = Tensor::from_fn(&[m, 24], |i| ((i * 37 + attempt) % 11) as f32 * 0.1);
            let expected = crate::SystolicArray::new(config, &map)
                .matmul(&a, &b)
                .unwrap();
            let cache = Arc::new(ProductCache::new());
            let mut executor = SystolicExecutor::new(config, map.clone());
            executor.set_product_cache(Some(Arc::clone(&cache)));
            // First sighting records interest; the second promotes.
            assert_eq!(executor.matmul(&a, &b).unwrap().data(), expected.data());
            let promoted = cache.promotions();
            let token = CancelToken::new();
            executor.set_cancel_token(Some(token.clone()));
            let done = std::sync::atomic::AtomicBool::new(false);
            let second = std::thread::scope(|scope| {
                scope.spawn(|| {
                    while cache.promotions() == promoted && !done.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    token.cancel();
                });
                let out = executor.matmul(&a, &b);
                done.store(true, Ordering::Release);
                out
            });
            match second {
                Ok(out) => {
                    // The call finished before the trip: it fulfilled the
                    // whole product. Retry on a larger one.
                    assert_eq!(out.data(), expected.data());
                    m *= 2;
                }
                Err(e) => {
                    assert!(is_cancelled(Err::<(), _>(e)));
                    let hits = cache.hits();
                    executor.set_cancel_token(None);
                    let third = executor.matmul(&a, &b).unwrap();
                    assert_eq!(third.data(), expected.data());
                    assert_eq!(cache.hits(), hits, "a cancelled value was served");
                    assert_eq!(
                        cache.promotions(),
                        promoted + 2,
                        "the key did not promote again"
                    );
                    return;
                }
            }
        }
        panic!("no call was cancelled mid-walk");
    }

    #[test]
    fn faulty_path_is_bit_identical_for_every_hint() {
        // Fault corruption must not depend on the operand-structure hint:
        // spike activations through a faulty array give the same bits whether
        // the caller declared them Dense, Spikes or left it to Auto.
        let config = config();
        let mut rng = StdRng::seed_from_u64(9);
        let fault_map =
            FaultMap::random_faulty_pes(&config, 3, 15, StuckAt::One, &mut rng).unwrap();
        let executor = SystolicExecutor::new(config, fault_map);
        let a = Tensor::from_fn(&[6, 9], |i| ((i % 5) == 0) as u8 as f32);
        let b = Tensor::from_fn(&[9, 7], |i| (i % 13) as f32 * 0.03 - 0.15);
        let dense = executor
            .matmul_hinted(&a, &b, falvolt_tensor::MatmulHint::Dense)
            .unwrap();
        for hint in [
            falvolt_tensor::MatmulHint::Auto,
            falvolt_tensor::MatmulHint::Spikes,
        ] {
            let out = executor.matmul_hinted(&a, &b, hint).unwrap();
            assert_eq!(out.data(), dense.data(), "hint {hint:?} changed bits");
        }
    }

    #[test]
    fn fault_free_path_dispatches_sparse_spikes_consistently() {
        let config = config();
        let executor = SystolicExecutor::new(config, FaultMap::new(config));
        // 10% binary density: Auto and Spikes take the event kernel.
        let a = Tensor::from_fn(&[8, 40], |i| ((i % 10) == 0) as u8 as f32);
        let b = Tensor::from_fn(&[40, 6], |i| (i % 7) as f32 * 0.11 - 0.3);
        let dense = executor
            .matmul_hinted(&a, &b, falvolt_tensor::MatmulHint::Dense)
            .unwrap();
        let auto = executor
            .matmul_hinted(&a, &b, falvolt_tensor::MatmulHint::Auto)
            .unwrap();
        for (x, y) in auto.data().iter().zip(dense.data()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_validates_shapes() {
        let config = config();
        let executor = SystolicExecutor::new(config, FaultMap::new(config));
        let a = Tensor::ones(&[2, 3]);
        let b = Tensor::ones(&[4, 2]);
        assert!(executor.matmul(&a, &b).is_err());
        let v = Tensor::ones(&[3]);
        assert!(executor.matmul(&v, &b).is_err());
    }

    #[test]
    fn fault_map_takes_effect() {
        let config = config();
        let a = Tensor::ones(&[1, 4]);
        let b = Tensor::full(&[4, 4], 0.5);
        let clean = SystolicExecutor::new(config, FaultMap::new(config))
            .matmul(&a, &b)
            .unwrap();
        let fault_map = FaultMap::from_faults(
            config,
            vec![Fault::new(PeCoord::new(0, 0), 15, StuckAt::One)],
        )
        .unwrap();
        let faulty = SystolicExecutor::new(config, fault_map)
            .matmul(&a, &b)
            .unwrap();
        assert!(max_abs_diff(&clean, &faulty) > 1.0);
    }

    /// The batched multi-map product must agree bit-for-bit with installing
    /// each map on its own executor — mixed clean/faulty maps, with and
    /// without a CSR spike index on the activations.
    #[test]
    fn matmul_scenarios_matches_per_map_matmul_bit_for_bit() {
        let config = SystolicConfig::new(4, 6).unwrap();
        let mut rng = StdRng::seed_from_u64(41);
        let mut maps = vec![FaultMap::new(config)];
        for faulty_pes in [1usize, 3, 6, 9] {
            maps.push(FaultMap::random_msb_faults(&config, faulty_pes, &mut rng).unwrap());
        }
        let spikes = Tensor::from_fn(&[18, 21], |i| ((i % 4) == 0) as u8 as f32);
        let indexed = spikes.clone().with_spike_index(Arc::new(
            falvolt_tensor::SpikeIndex::from_dense(spikes.data(), 21).unwrap(),
        ));
        let mixed = Tensor::from_fn(&[18, 21], |i| match i % 5 {
            0 => 1.0,
            1 => -0.6,
            _ => 0.0,
        });
        let b = Tensor::from_fn(&[21, 9], |i| (i % 13) as f32 * 0.05 - 0.3);
        for a in [&spikes, &indexed, &mixed] {
            let executor = SystolicExecutor::new(config, FaultMap::new(config));
            let batched = executor.matmul_scenarios(a, &b, &maps).unwrap();
            assert_eq!(batched.len(), maps.len());
            for (s, map) in maps.iter().enumerate() {
                let single = SystolicExecutor::new(config, map.clone());
                let reference = single.matmul(a, &b).unwrap();
                assert_eq!(batched[s].data(), reference.data(), "scenario {s} diverged");
            }
        }
        // Degenerate shapes: empty scenario lists and zero-width products.
        let none: Vec<Tensor> = SystolicExecutor::new(config, FaultMap::new(config))
            .matmul_scenarios(&mixed, &b, &[])
            .unwrap();
        assert!(none.is_empty());
        let empty = SystolicExecutor::new(config, FaultMap::new(config))
            .matmul_scenarios(&Tensor::zeros(&[0, 21]), &b, &maps)
            .unwrap();
        assert!(empty.iter().all(|t| t.shape() == [0, 9]));
    }

    #[test]
    fn mask_composition_is_exact_and_idempotent() {
        let q = QFormat::accumulator_default();
        let m1 = PeMasks {
            and_mask: !(1u32 << 3),
            or_mask: 1 << 15,
        };
        let m2 = PeMasks {
            and_mask: !(1u32 << 15),
            or_mask: 0b101,
        };
        for raw in [-30000i32, -1, 0, 1, 517, 32767] {
            let x = Fixed::from_raw(raw, q);
            let sequential = m2.apply(m1.apply(x));
            let composed = m1.then(m2).apply(x);
            assert_eq!(sequential, composed, "raw {raw}");
        }
        let twice = m1.then(m1);
        assert_eq!(twice, m1, "mask pairs are idempotent under composition");
    }
}
