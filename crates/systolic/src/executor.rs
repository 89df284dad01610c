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
//! Execution is structured around a [`FoldPlan`]: the masked chain positions
//! of every column fold are resolved once per product, output columns whose
//! PE column is fault-free take a maskless quantized loop, and corruptible
//! columns walk a merged event stream, parallelised over output rows (fault
//! application is per-output-element, so rows are independent). Stuck-at
//! masks compose associatively ([`PeMasks::then`]), so the run of masks
//! between two nonzero activations collapses into one (AND, OR) pair: a
//! faulty column walks only the nonzero activations and its fold's masked
//! positions instead of all `k` steps, applying the same adds and the same
//! masks in the same order.
//!
//! With a [`crate::ProductCache`] installed, the maskless quantized chain of
//! a product's fault-free columns is computed once per distinct activation
//! matrix and shared across every fault scenario in a sweep (clean columns
//! do not depend on the fault map). See the cache docs for the
//! promote-on-second-request policy.

use crate::fault_map::PeMasks;
use crate::product_cache::{CacheDecision, ProductCache};
use crate::{FaultMap, Result, SystolicConfig, SystolicError, WeightMapping};
use falvolt_fixedpoint::{Fixed, QFormat};
use falvolt_tensor::kernels::parallel_panel_rows;
use falvolt_tensor::simd::{self, Isa, SimdLevel, SimdOp};
use falvolt_tensor::{CancelToken, Fingerprint, MatmulHint, SpikeIndex, Tensor, TensorError};
use rayon::prelude::*;
use std::sync::Arc;

/// How the executor treats faulty PEs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BypassPolicy {
    /// Faulty PEs stay in the datapath and corrupt partial sums (the
    /// vulnerability-analysis setting).
    #[default]
    None,
    /// Faulty PEs are bypassed through the multiplexer of Figure 3b: their
    /// weight contribution is skipped and their faults never reach the
    /// partial sum (the fault-aware-pruning setting).
    SkipFaulty,
}

/// Executes matrix products on the (possibly faulty) systolic array.
///
/// # Example
///
/// ```
/// use falvolt_systolic::executor::BypassPolicy;
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
/// assert_eq!(executor.bypass_policy(), BypassPolicy::None);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct SystolicExecutor {
    config: SystolicConfig,
    fault_map: FaultMap,
    mapping: WeightMapping,
    bypass: BypassPolicy,
    cache: Option<Arc<ProductCache>>,
    cancel: Option<CancelToken>,
}

impl PartialEq for SystolicExecutor {
    fn eq(&self, other: &Self) -> bool {
        // The cache is a perf-sharing handle, not executor state: two
        // executors that compute identical products compare equal.
        self.config == other.config
            && self.fault_map == other.fault_map
            && self.mapping == other.mapping
            && self.bypass == other.bypass
    }
}

impl SystolicExecutor {
    /// Creates an executor for a configuration and fault map, with faults
    /// active in the datapath ([`BypassPolicy::None`]).
    pub fn new(config: SystolicConfig, fault_map: FaultMap) -> Self {
        let mapping = WeightMapping::new(&config);
        Self {
            config,
            fault_map,
            mapping,
            bypass: BypassPolicy::None,
            cache: None,
            cancel: None,
        }
    }

    /// Creates an executor with an explicit bypass policy.
    pub fn with_bypass(config: SystolicConfig, fault_map: FaultMap, bypass: BypassPolicy) -> Self {
        let mut e = Self::new(config, fault_map);
        e.bypass = bypass;
        e
    }

    /// The systolic configuration.
    pub fn config(&self) -> &SystolicConfig {
        &self.config
    }

    /// The installed fault map.
    pub fn fault_map(&self) -> &FaultMap {
        &self.fault_map
    }

    /// The weight-stationary mapping used by this executor.
    pub fn mapping(&self) -> WeightMapping {
        self.mapping
    }

    /// The current bypass policy.
    pub fn bypass_policy(&self) -> BypassPolicy {
        self.bypass
    }

    /// Changes the bypass policy.
    pub fn set_bypass_policy(&mut self, bypass: BypassPolicy) {
        self.bypass = bypass;
    }

    /// Replaces the fault map (e.g. to evaluate several chips with one
    /// executor).
    pub fn set_fault_map(&mut self, fault_map: FaultMap) {
        self.fault_map = fault_map;
    }

    /// Installs (or removes) a sweep-shared clean-product cache.
    pub fn set_product_cache(&mut self, cache: Option<Arc<ProductCache>>) {
        self.cache = cache;
    }

    /// The installed product cache, if any.
    pub fn product_cache(&self) -> Option<&Arc<ProductCache>> {
        self.cache.as_ref()
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
        // so every product — including the deep fully connected ones whose
        // operands previously cost more to hash than to multiply — consults
        // the sweep-shared store when one is installed.
        let cache = self.cache.as_ref();

        // Hoist all per-(k, col-fold) fault state out of the element loops.
        let plan = FoldPlan::new(&self.config, &self.fault_map, k);

        // Fast path: with no fault anywhere in the array the datapath cannot
        // corrupt anything, so the product folds to the kernel layer's
        // structure-aware dispatch (blocked dense, or gather-accumulate for
        // sparse spike activations). (This also drops the hardware's
        // fixed-point quantization — an ideal-hardware idealisation bounded
        // by k * resolution; only faulty maps run the quantized datapath
        // below.)
        if !plan.any_fault() {
            let out = fault_free_product(activations, weights, m, k, n, hint, cache);
            return Ok(Tensor::from_vec(vec![m, n], out)?);
        }
        if m == 0 || n == 0 {
            return Ok(Tensor::from_vec(vec![m, n], Vec::new())?);
        }

        // Faulty path. Every column runs the hardware's quantized
        // accumulator chain (so the executor agrees with the structural
        // array simulation). Columns whose PE column is fault-free take a
        // maskless fast loop — served from the sweep-shared clean product
        // when available (fault-free columns cannot depend on the fault
        // map). Corruptible columns walk the merged event stream of nonzero
        // activations and masked positions, composing mask runs.
        let format = self.config.accumulator_format();
        let bypass = matches!(self.bypass, BypassPolicy::SkipFaulty);

        let clean_shared: Option<Arc<Vec<f32>>> = match cache {
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
                    CacheDecision::Hit(shared) => Some(shared),
                    CacheDecision::Compute => {
                        let full = Arc::new(quantized_clean_product(a, w, m, k, n, format));
                        cache.fulfill(key, Arc::clone(&full));
                        Some(full)
                    }
                    CacheDecision::Skip => None,
                }
            }
            None => None,
        };

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
        let (min_raw, max_raw) = (i64::from(format.min_raw()), i64::from(format.max_raw()));
        let cols = self.config.cols();
        let qw_slice: Option<&[i32]> = qweights.as_deref().map(Vec::as_slice);
        // Lane engine: `Isa::Scalar` keeps the per-column loop exactly.
        let use_lanes = !matches!(simd::active(), Isa::Scalar);
        let cancel = self.cancel.as_ref();
        let compute_row =
            |i: usize, a_row: &[f32], out_row: &mut [f32], nz: &mut Vec<(usize, f32)>| {
                // Fold-chain granularity cancellation: a tripped token stops
                // the remaining rows cheaply; the post-loop check below turns
                // the partial buffer into `Cancelled` before it can be served.
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    return;
                }
                let clean_row = clean_shared.as_ref().map(|v| &v[i * n..(i + 1) * n]);
                // Event skip-list: the nonzero activations of this row, resolved
                // once and reused by every output column (the seed re-scanned
                // all k activations for each of the n columns). The buffer is
                // caller-owned scratch, reused across the rows of a panel —
                // served from the CSR index when the activations carry one.
                fill_nonzeros(nz, spike_index, i, a_row);
                if use_lanes {
                    // Fill the whole row with the maskless chain (a copy when
                    // the sweep cache shares one), then overwrite the columns
                    // of corruptible folds with the composed lane walk.
                    match clean_row {
                        Some(clean) => out_row.copy_from_slice(clean),
                        None => simd::dispatch(CleanRowOp {
                            nz,
                            w,
                            qw: qw_slice,
                            out_row: &mut *out_row,
                            n,
                            format,
                            min_raw,
                            max_raw,
                        }),
                    }
                    simd::dispatch(FaultyFoldsOp {
                        plan: &plan,
                        nz,
                        w,
                        qw: qw_slice,
                        out_row,
                        n,
                        cols,
                        format,
                        min_raw,
                        max_raw,
                        bypass,
                    });
                    return;
                }
                for (j, out_elem) in out_row.iter_mut().enumerate() {
                    if plan.column_is_clean(j) {
                        if let Some(clean) = clean_row {
                            // Sweep-shared value of the identical maskless chain.
                            *out_elem = clean[j];
                            continue;
                        }
                        *out_elem = match &qweights {
                            Some(qw) => {
                                quantized_clean_element_tab(nz, qw, n, j, format, min_raw, max_raw)
                            }
                            None => quantized_clean_element(nz, w, n, j, format, min_raw, max_raw),
                        };
                        continue;
                    }
                    *out_elem = if let Some(qw) = &qweights {
                        faulty_column_composed_tab(
                            plan.fold_masked(j),
                            nz,
                            qw,
                            n,
                            j,
                            format,
                            min_raw,
                            max_raw,
                            bypass,
                        )
                    } else {
                        faulty_column_composed(
                            plan.fold_masked(j),
                            nz,
                            w,
                            n,
                            j,
                            format,
                            min_raw,
                            max_raw,
                            bypass,
                        )
                    };
                }
            };

        let mut out = vec![0.0f32; m * n];
        for_each_row_panel(a, &mut out, m, k, n, compute_row);
        self.check_cancelled()?;
        Ok(Tensor::from_vec(vec![m, n], out)?)
    }

    /// Multi-map batched product with [`MatmulHint::Auto`]; see
    /// [`SystolicExecutor::matmul_scenarios_hinted`].
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
        self.matmul_scenarios_hinted(activations, weights, maps, MatmulHint::Auto)
    }

    /// Computes `activations x weights` under every fault map of a scenario
    /// set in **one pass over the event stream**, returning one output per
    /// map (in input order) — each bit-identical to
    /// [`SystolicExecutor::matmul_hinted`] with that map installed.
    ///
    /// A figure sweep replays the *same* activations against dozens of fault
    /// maps; evaluating them per map repeats all the map-independent work.
    /// The batched walk amortises it:
    ///
    /// * each row's nonzero event list is resolved **once** for all maps
    ///   (free when the activations carry a CSR spike index),
    /// * each corruptible column's quantized contribution sequence
    ///   (`quantize(a_ip * w[p, j])`, map-independent) is computed **once**
    ///   and replayed per map with that map's composed mask events,
    /// * the maskless quantized clean product is computed **once** in-call
    ///   (and shared across calls through the [`ProductCache`] when
    ///   installed), serving every map's fault-free columns,
    /// * fault-free maps share one structure-aware fast-path product.
    ///
    /// The executor's own fault map is ignored; its grid, accumulator format
    /// and bypass policy apply to every scenario. All maps must target this
    /// executor's grid.
    ///
    /// # Errors
    ///
    /// Returns a tensor error for non-matrix inputs or mismatched inner
    /// dimensions.
    pub fn matmul_scenarios_hinted(
        &self,
        activations: &Tensor,
        weights: &Tensor,
        maps: &[FaultMap],
        hint: MatmulHint,
    ) -> Result<Vec<Tensor>> {
        self.matmul_scenarios_view(activations, weights, maps, hint)?
            .into_tensors()
    }

    /// [`SystolicExecutor::matmul_scenarios_hinted`] without the per-map
    /// materialisation: the batched walk's interleaved buffer is returned as
    /// a [`ScenarioMatrices`] view. Callers that consume rows (or a subset
    /// of scenarios) skip the O(maps · m · n) de-interleave copy entirely;
    /// [`ScenarioMatrices::tensor`] materialises any single scenario on
    /// demand, bit-identical to the eager API.
    ///
    /// # Errors
    ///
    /// Returns a tensor error for non-matrix inputs or mismatched inner
    /// dimensions.
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
        if maps.is_empty() {
            return Ok(ScenarioMatrices {
                m,
                n,
                lanes: 0,
                inter: Vec::new(),
                lane_of: Vec::new(),
            });
        }
        let a = activations.data();
        let w = weights.data();
        let cache = self.cache.as_ref();
        let plans: Vec<FoldPlan> = maps
            .iter()
            .map(|map| FoldPlan::new(&self.config, map, k))
            .collect();
        let mut lane_of: Vec<Option<ScenarioLane>> = vec![None; maps.len()];

        // Fault-free maps cannot corrupt anything: they share one fast-path
        // product (identical to the single-map fast path, cache included) —
        // one tensor, shared by reference across every fault-free scenario.
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

        let faulty: Vec<usize> = plans
            .iter()
            .enumerate()
            .filter(|(_, plan)| plan.any_fault())
            .map(|(s, _)| s)
            .collect();
        if faulty.is_empty() || m == 0 || n == 0 {
            for (fi, &s) in faulty.iter().enumerate() {
                lane_of[s] = Some(ScenarioLane::Lane(fi));
            }
            return Ok(ScenarioMatrices {
                m,
                n,
                lanes: faulty.len(),
                inter: Vec::new(),
                lane_of: lane_table(lane_of)?,
            });
        }

        let format = self.config.accumulator_format();
        let bypass = matches!(self.bypass, BypassPolicy::SkipFaulty);
        let (min_raw, max_raw) = (i64::from(format.min_raw()), i64::from(format.max_raw()));

        // Every map's fault-free columns read the maskless quantized value.
        // It is the corrupted chain *without* the mask events — the same
        // per-column q sequence folded without masks — so the batched walk
        // derives it from the q scratch it builds anyway instead of running
        // a separate clean product (an extra quantize pass over the whole
        // matrix). A sweep-shared clean product is still consumed when the
        // cache holds one, and fulfilled when the cache promotes this key.
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
                    CacheDecision::Hit(shared) => (Some(shared), None),
                    CacheDecision::Compute => (None, Some(key)),
                    CacheDecision::Skip => (None, None),
                }
            }
            None => (None, None),
        };

        // Which faulty scenarios actually walk each column fold; the rest of
        // the maps copy the shared clean value.
        let cols = self.config.cols();
        let mut fold_users: Vec<Vec<usize>> = vec![Vec::new(); cols];
        for (fi, &s) in faulty.iter().enumerate() {
            for (fold, users) in fold_users.iter_mut().enumerate() {
                if !plans[s].column_is_clean(fold) {
                    users.push(fi);
                }
            }
        }

        let spike_index = spike_index_for(activations, m, k);
        let qweights = quantized_weight_table(
            spike_index.is_some().then_some(weights),
            w,
            k,
            n,
            format,
            cache,
        );
        let fcount = faulty.len();
        // One extra lane holds the derived clean values when no shared clean
        // product is available (lane `fcount`, later fulfilled to the cache
        // if this call was promoted).
        let lanes = fcount + usize::from(shared_clean.is_none());
        let row_stride = lanes * n;
        // Interleaved output: row-major, all scenarios of one row contiguous,
        // so the row walk stays embarrassingly parallel across threads.
        let mut inter = vec![0.0f32; m * row_stride];
        let qw_slice: Option<&[i32]> = qweights.as_deref().map(Vec::as_slice);
        // Per-fold `(scenario lane, masked list)` pairs, resolved once for
        // the lane engine.
        let fold_user_masked: Vec<FoldLaneMasks<'_>> = fold_users
            .iter()
            .enumerate()
            .map(|(fold, users)| {
                users
                    .iter()
                    .map(|&fi| (fi, plans[faulty[fi]].fold_masked(fold)))
                    .collect()
            })
            .collect();
        let use_lanes = !matches!(simd::active(), Isa::Scalar);
        let cancel = self.cancel.as_ref();
        let compute_row =
            |i: usize, row_chunk: &mut [f32], nz: &mut Vec<(usize, f32)>, q: &mut Vec<i64>| {
                if cancel.is_some_and(CancelToken::is_cancelled) {
                    return;
                }
                fill_nonzeros(nz, spike_index, i, &a[i * k..(i + 1) * k]);
                let shared_row = shared_clean.as_ref().map(|v| &v[i * n..(i + 1) * n]);
                if use_lanes {
                    // Seed every scenario lane with the maskless chain (and
                    // derive it into the clean lane when the sweep cache does
                    // not share one), then overwrite the columns of each
                    // corruptible fold with the shared-q lane walk.
                    match shared_row {
                        Some(row) => {
                            for fi in 0..fcount {
                                row_chunk[fi * n..(fi + 1) * n].copy_from_slice(row);
                            }
                        }
                        None => {
                            simd::dispatch(CleanRowOp {
                                nz,
                                w,
                                qw: qw_slice,
                                out_row: &mut row_chunk[fcount * n..(fcount + 1) * n],
                                n,
                                format,
                                min_raw,
                                max_raw,
                            });
                            let (user_lanes, clean_lane) = row_chunk.split_at_mut(fcount * n);
                            for fi in 0..fcount {
                                user_lanes[fi * n..(fi + 1) * n].copy_from_slice(&clean_lane[..n]);
                            }
                        }
                    }
                    simd::dispatch(ScenarioFoldsOp {
                        folds: &fold_user_masked,
                        nz,
                        w,
                        qw: qw_slice,
                        row_chunk,
                        q,
                        n,
                        cols,
                        format,
                        min_raw,
                        max_raw,
                        bypass,
                    });
                    return;
                }
                for j in 0..n {
                    let users = &fold_users[j % cols];
                    // The quantized contribution sequence of this (row, column)
                    // is map-independent: compute it once and replay it under
                    // every map that can corrupt this fold (read straight from
                    // the weight table when binary activations allow one). With
                    // no shared clean product it is needed for every column —
                    // the clean value is the same chain folded without masks.
                    let need_q = !users.is_empty() || shared_row.is_none();
                    if need_q {
                        q.clear();
                        match &qweights {
                            Some(qw) => q.extend(nz.iter().map(|&(p, _)| i64::from(qw[p * n + j]))),
                            None => q.extend(
                                nz.iter()
                                    .map(|&(p, v)| i64::from(format.quantize(v * w[p * n + j]))),
                            ),
                        }
                    }
                    let clean_v = match shared_row {
                        Some(row) => row[j],
                        None => {
                            let mut acc = 0i64;
                            for &qv in q.iter() {
                                acc = (acc + qv).clamp(min_raw, max_raw);
                            }
                            let v = format.dequantize(acc as i32);
                            row_chunk[fcount * n + j] = v;
                            v
                        }
                    };
                    for fi in 0..fcount {
                        row_chunk[fi * n + j] = clean_v;
                    }
                    for &fi in users {
                        row_chunk[fi * n + j] = faulty_column_from_q(
                            plans[faulty[fi]].fold_masked(j),
                            nz,
                            q,
                            format,
                            min_raw,
                            max_raw,
                            bypass,
                        );
                    }
                }
            };
        if let Some(rows_per_panel) = parallel_panel_rows(m, m * n * k * fcount, 1) {
            inter
                .par_chunks_mut(rows_per_panel * row_stride)
                .enumerate()
                .for_each(|(panel, out_panel)| {
                    let row0 = panel * rows_per_panel;
                    let (mut nz, mut q) = (Vec::new(), Vec::new());
                    for (r, row_chunk) in out_panel.chunks_mut(row_stride).enumerate() {
                        compute_row(row0 + r, row_chunk, &mut nz, &mut q);
                    }
                });
        } else {
            let (mut nz, mut q) = (Vec::new(), Vec::new());
            for (i, row_chunk) in inter.chunks_mut(row_stride).enumerate() {
                compute_row(i, row_chunk, &mut nz, &mut q);
            }
        }

        // No de-interleave: faulty scenarios keep their lane in the
        // interleaved buffer and materialise on demand through the view.
        for (fi, &s) in faulty.iter().enumerate() {
            lane_of[s] = Some(ScenarioLane::Lane(fi));
        }
        if let Err(cancelled) = self.check_cancelled() {
            // The interleaved buffer is partial: release the clean-product
            // promotion (if this call held one) instead of fulfilling it.
            if let (Some(key), Some(cache)) = (fulfil_clean, cache) {
                cache.abandon(key);
            }
            return Err(cancelled);
        }
        if let (Some(key), Some(cache)) = (fulfil_clean, cache) {
            let mut data = vec![0.0f32; m * n];
            for i in 0..m {
                let src = &inter[i * row_stride + fcount * n..i * row_stride + (fcount + 1) * n];
                data[i * n..(i + 1) * n].copy_from_slice(src);
            }
            cache.fulfill(key, Arc::new(data));
        }
        Ok(ScenarioMatrices {
            m,
            n,
            lanes,
            inter,
            lane_of: lane_table(lane_of)?,
        })
    }

    /// Reference clean product computed in floating point (no quantization,
    /// no faults) — used by tests and by callers that need the ideal output.
    ///
    /// # Errors
    ///
    /// Returns a tensor error for invalid matrix shapes.
    pub fn clean_matmul(&self, activations: &Tensor, weights: &Tensor) -> Result<Tensor> {
        Ok(falvolt_tensor::ops::matmul(activations, weights)?)
    }
}

/// Runs `row_fn` over every output row of an `m x n` product — serially
/// below the parallel work threshold (tiny per-layer products, and
/// nested-parallel scenario workers, skip the fan-out machinery), otherwise
/// in row panels across threads (rows are embarrassingly parallel: fault
/// application is per-output-element). Each call receives the row index, the
/// row's activation slice and a per-panel scratch buffer for nonzero lists.
fn for_each_row_panel<F>(a: &[f32], out: &mut [f32], m: usize, k: usize, n: usize, row_fn: F)
where
    F: Fn(usize, &[f32], &mut [f32], &mut Vec<(usize, f32)>) + Sync,
{
    let Some(rows_per_panel) = parallel_panel_rows(m, m * n * k, 1) else {
        let mut scratch = Vec::new();
        for (i, out_row) in out.chunks_mut(n).enumerate() {
            row_fn(i, &a[i * k..(i + 1) * k], out_row, &mut scratch);
        }
        return;
    };
    out.par_chunks_mut(rows_per_panel * n)
        .enumerate()
        .for_each(|(panel, out_panel)| {
            let row0 = panel * rows_per_panel;
            let mut scratch = Vec::new();
            for (r, out_row) in out_panel.chunks_mut(n).enumerate() {
                row_fn(
                    row0 + r,
                    &a[(row0 + r) * k..(row0 + r + 1) * k],
                    out_row,
                    &mut scratch,
                );
            }
        });
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
            CacheDecision::Hit(shared) => return shared.as_ref().clone(),
            CacheDecision::Compute => {
                let out = Arc::new(dispatch());
                cache.fulfill(key, Arc::clone(&out));
                return out.as_ref().clone();
            }
            CacheDecision::Skip => {}
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
        CacheDecision::Hit(table) => Some(table),
        CacheDecision::Compute => {
            let table: Arc<Vec<i32>> = Arc::new(w.iter().map(|&x| format.quantize(x)).collect());
            cache.fulfill_qweights(key, Arc::clone(&table));
            Some(table)
        }
        CacheDecision::Skip => None,
    }
}

/// [`quantized_clean_element`] with the contribution read from a
/// quantized-weight table (binary activations only): same chain, same bits.
fn quantized_clean_element_tab(
    nonzero: &[(usize, f32)],
    qw: &[i32],
    n: usize,
    j: usize,
    format: QFormat,
    min_raw: i64,
    max_raw: i64,
) -> f32 {
    let mut acc = 0i64;
    for &(p, _) in nonzero {
        acc = (acc + i64::from(qw[p * n + j])).clamp(min_raw, max_raw);
    }
    format.dequantize(acc as i32)
}

/// [`faulty_column_composed`] with the contributions read from a
/// quantized-weight table (binary activations only): same adds, same
/// composed masks, same order — bit-identical.
#[allow(clippy::too_many_arguments)]
fn faulty_column_composed_tab(
    masked: &[(u32, PeMasks)],
    nonzero: &[(usize, f32)],
    qw: &[i32],
    n: usize,
    j: usize,
    format: QFormat,
    min_raw: i64,
    max_raw: i64,
    bypass: bool,
) -> f32 {
    let mut acc = 0i64;
    let mut mi = 0usize;
    if bypass {
        for &(p, _) in nonzero {
            while mi < masked.len() && (masked[mi].0 as usize) < p {
                mi += 1;
            }
            if mi < masked.len() && masked[mi].0 as usize == p {
                continue;
            }
            acc = (acc + i64::from(qw[p * n + j])).clamp(min_raw, max_raw);
        }
        return format.dequantize(acc as i32);
    }
    for &(p, _) in nonzero {
        if mi < masked.len() && (masked[mi].0 as usize) < p {
            let mut composed = masked[mi].1;
            mi += 1;
            while mi < masked.len() && (masked[mi].0 as usize) < p {
                composed = composed.then(masked[mi].1);
                mi += 1;
            }
            acc = apply_masks_raw(acc, composed, format);
        }
        acc = (acc + i64::from(qw[p * n + j])).clamp(min_raw, max_raw);
    }
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

/// One element of the maskless quantized accumulator chain: identical to the
/// fault-free fold of the faulty path (quantize-and-saturate on raw words,
/// zero contributions skipped — a zero leaves the clamped accumulator
/// unchanged).
#[allow(clippy::too_many_arguments)]
fn quantized_clean_element(
    nonzero: &[(usize, f32)],
    w: &[f32],
    n: usize,
    j: usize,
    format: QFormat,
    min_raw: i64,
    max_raw: i64,
) -> f32 {
    let mut acc = 0i64;
    for &(p, a_ip) in nonzero {
        let q = i64::from(format.quantize(a_ip * w[p * n + j]));
        acc = (acc + q).clamp(min_raw, max_raw);
    }
    format.dequantize(acc as i32)
}

/// The full maskless quantized product (every column treated as clean) — the
/// sweep-shared value that any scenario's fault-free columns can be copied
/// from. Row-parallel like the faulty path.
fn quantized_clean_product(
    a: &[f32],
    w: &[f32],
    m: usize,
    k: usize,
    n: usize,
    format: QFormat,
) -> Vec<f32> {
    let (min_raw, max_raw) = (i64::from(format.min_raw()), i64::from(format.max_raw()));
    let mut out = vec![0.0f32; m * n];
    for_each_row_panel(a, &mut out, m, k, n, |_, a_row, out_row, nz| {
        nz.clear();
        nz.extend(a_row.iter().copied().enumerate().filter(|&(_, v)| v != 0.0));
        for (j, out_elem) in out_row.iter_mut().enumerate() {
            *out_elem = quantized_clean_element(nz, w, n, j, format, min_raw, max_raw);
        }
    });
    out
}

/// Applies a composed mask pair to a raw accumulator word — exactly
/// [`PeMasks::apply`] on a [`Fixed`] carrying that raw (the accumulator is
/// kept clamped into the format's range, so `from_raw`'s clamp is a no-op).
fn apply_masks_raw(acc: i64, masks: PeMasks, format: QFormat) -> i64 {
    i64::from(masks.apply(Fixed::from_raw(acc as i32, format)).raw())
}

/// Faulty column via the composed event walk: merge the row's nonzero
/// activations with the fold's masked positions in `p` order (add before
/// mask at equal positions, exactly the original loop's order) and collapse
/// every run of masks between two adds into one composed pair. The
/// accumulator lives as a raw word with the same quantize-and-saturate chain
/// the [`Fixed`] arithmetic performs (format bounds hoisted by the caller).
#[allow(clippy::too_many_arguments)]
fn faulty_column_composed(
    masked: &[(u32, PeMasks)],
    nonzero: &[(usize, f32)],
    w: &[f32],
    n: usize,
    j: usize,
    format: QFormat,
    min_raw: i64,
    max_raw: i64,
    bypass: bool,
) -> f32 {
    let mut acc = 0i64;
    let mut mi = 0usize;
    if bypass {
        // Bypassed PEs contribute nothing and corrupt nothing: the product
        // reduces to the nonzero activations whose position is unmasked.
        for &(p, a_ip) in nonzero {
            while mi < masked.len() && (masked[mi].0 as usize) < p {
                mi += 1;
            }
            if mi < masked.len() && masked[mi].0 as usize == p {
                continue;
            }
            let q = i64::from(format.quantize(a_ip * w[p * n + j]));
            acc = (acc + q).clamp(min_raw, max_raw);
        }
        return format.dequantize(acc as i32);
    }
    for &(p, a_ip) in nonzero {
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
        let q = i64::from(format.quantize(a_ip * w[p * n + j]));
        acc = (acc + q).clamp(min_raw, max_raw);
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

/// Faulty column via the composed event walk with a **precomputed quantized
/// contribution sequence**: `q[idx]` is `quantize(a_ip * w[p, j])` for the
/// `idx`-th nonzero — exactly what [`faulty_column_composed`] computes
/// inline, so the chain (same adds, same composed masks, same order) is
/// bit-identical. The batched scenario walk shares one `q` across every
/// fault map that corrupts the column, amortising the multiply+quantize.
#[allow(clippy::too_many_arguments)]
fn faulty_column_from_q(
    masked: &[(u32, PeMasks)],
    nonzero: &[(usize, f32)],
    q: &[i64],
    format: QFormat,
    min_raw: i64,
    max_raw: i64,
    bypass: bool,
) -> f32 {
    let mut acc = 0i64;
    let mut mi = 0usize;
    if bypass {
        for (&(p, _), &qv) in nonzero.iter().zip(q) {
            while mi < masked.len() && (masked[mi].0 as usize) < p {
                mi += 1;
            }
            if mi < masked.len() && masked[mi].0 as usize == p {
                continue;
            }
            acc = (acc + qv).clamp(min_raw, max_raw);
        }
        return format.dequantize(acc as i32);
    }
    for (&(p, _), &qv) in nonzero.iter().zip(q) {
        if mi < masked.len() && (masked[mi].0 as usize) < p {
            let mut composed = masked[mi].1;
            mi += 1;
            while mi < masked.len() && (masked[mi].0 as usize) < p {
                composed = composed.then(masked[mi].1);
                mi += 1;
            }
            acc = apply_masks_raw(acc, composed, format);
        }
        acc = (acc + qv).clamp(min_raw, max_raw);
    }
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

// ---------------------------------------------------------------------------
// Lane engines: the same quantized chains, vectorised across columns. Every
// per-column accumulator chain is independent and its add/clamp/mask order is
// untouched, so each lane is bit-identical to its scalar reference — the lane
// engines only change *which columns* advance together.
// ---------------------------------------------------------------------------

/// One fold's worth of batched-scenario work: the `(scenario lane, masked
/// column list)` pairs of every scenario whose plan corrupts that fold.
type FoldLaneMasks<'a> = Vec<(usize, &'a [(u32, PeMasks)])>;

/// One row of the maskless quantized chain across `I64_LANES` contiguous
/// columns at a time; each lane bit-identical to [`quantized_clean_element`]
/// (or the `_tab` variant), which also handle the column tail.
struct CleanRowOp<'a> {
    nz: &'a [(usize, f32)],
    w: &'a [f32],
    qw: Option<&'a [i32]>,
    out_row: &'a mut [f32],
    n: usize,
    format: QFormat,
    min_raw: i64,
    max_raw: i64,
}

impl SimdOp for CleanRowOp<'_> {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLevel>(self) {
        let Self {
            nz,
            w,
            qw,
            out_row,
            n,
            format,
            min_raw,
            max_raw,
        } = self;
        let lanes = S::I64_LANES;
        let scale = (1i64 << format.frac_bits()) as f32;
        let (min_f, max_f) = (format.min_raw() as f32, format.max_raw() as f32);
        let resolution = format.resolution();
        let mut j = 0usize;
        while j + lanes <= n {
            let mut acc = S::i64_zero();
            match qw {
                Some(qw) => {
                    for &(p, _) in nz {
                        let q = S::i64_load_i32(&qw[p * n + j..]);
                        acc = S::i64_clamp(S::i64_add(acc, q), min_raw, max_raw);
                    }
                }
                None => {
                    for &(p, v) in nz {
                        let x = S::f32h_scale(S::f32h_load(&w[p * n + j..]), v);
                        let q = S::f32h_quantize(x, scale, min_f, max_f);
                        acc = S::i64_clamp(S::i64_add(acc, q), min_raw, max_raw);
                    }
                }
            }
            S::i64_dequantize_store(acc, resolution, &mut out_row[j..]);
            j += lanes;
        }
        for (j, o) in out_row.iter_mut().enumerate().take(n).skip(j) {
            *o = match qw {
                Some(qw) => quantized_clean_element_tab(nz, qw, n, j, format, min_raw, max_raw),
                None => quantized_clean_element(nz, w, n, j, format, min_raw, max_raw),
            };
        }
    }
}

/// The quantized contributions of activation event `(p, v)` for `I64_LANES`
/// same-fold columns (`stride` apart): exactly `quantize(v * w[p, j])` per
/// lane, or a table read for binary activations.
#[inline(always)]
fn strided_q<S: SimdLevel>(
    qw: Option<&[i32]>,
    w: &[f32],
    v: f32,
    base: usize,
    stride: usize,
    format: QFormat,
) -> S::I64 {
    match qw {
        Some(qw) => S::i64_from_fn(|lane| i64::from(qw[base + lane * stride])),
        None => S::i64_from_fn(|lane| i64::from(format.quantize(v * w[base + lane * stride]))),
    }
}

/// The corruptible folds of one output row: all columns of a fold share one
/// masked list, so `I64_LANES` of them walk the composed event stream
/// together — each lane bit-identical to [`faulty_column_composed`] (or the
/// `_tab` variant), which also handle the per-fold column tail.
struct FaultyFoldsOp<'a> {
    plan: &'a FoldPlan,
    nz: &'a [(usize, f32)],
    w: &'a [f32],
    qw: Option<&'a [i32]>,
    out_row: &'a mut [f32],
    n: usize,
    cols: usize,
    format: QFormat,
    min_raw: i64,
    max_raw: i64,
    bypass: bool,
}

impl SimdOp for FaultyFoldsOp<'_> {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLevel>(self) {
        let Self {
            plan,
            nz,
            w,
            qw,
            out_row,
            n,
            cols,
            format,
            min_raw,
            max_raw,
            bypass,
        } = self;
        let lanes = S::I64_LANES;
        for fold in 0..cols.min(n) {
            if plan.column_is_clean(fold) {
                continue;
            }
            let masked = plan.fold_masked(fold);
            let count = (n - fold).div_ceil(cols);
            let mut g = 0usize;
            while g + lanes <= count {
                let base = fold + g * cols;
                let mut acc = S::i64_zero();
                let mut mi = 0usize;
                if bypass {
                    for &(p, v) in nz {
                        while mi < masked.len() && (masked[mi].0 as usize) < p {
                            mi += 1;
                        }
                        if mi < masked.len() && masked[mi].0 as usize == p {
                            continue;
                        }
                        let q = strided_q::<S>(qw, w, v, p * n + base, cols, format);
                        acc = S::i64_clamp(S::i64_add(acc, q), min_raw, max_raw);
                    }
                } else {
                    for &(p, v) in nz {
                        if mi < masked.len() && (masked[mi].0 as usize) < p {
                            let mut composed = masked[mi].1;
                            mi += 1;
                            while mi < masked.len() && (masked[mi].0 as usize) < p {
                                composed = composed.then(masked[mi].1);
                                mi += 1;
                            }
                            acc = S::i64_map(acc, |raw| apply_masks_raw(raw, composed, format));
                        }
                        let q = strided_q::<S>(qw, w, v, p * n + base, cols, format);
                        acc = S::i64_clamp(S::i64_add(acc, q), min_raw, max_raw);
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
                }
                for lane in 0..lanes {
                    out_row[base + lane * cols] =
                        format.dequantize(S::i64_extract(acc, lane) as i32);
                }
                g += lanes;
            }
            while g < count {
                let j = fold + g * cols;
                out_row[j] = match qw {
                    Some(qw) => faulty_column_composed_tab(
                        masked, nz, qw, n, j, format, min_raw, max_raw, bypass,
                    ),
                    None => faulty_column_composed(
                        masked, nz, w, n, j, format, min_raw, max_raw, bypass,
                    ),
                };
                g += 1;
            }
        }
    }
}

/// The batched scenario walk: per fold, the strided q block (event-major,
/// `I64_LANES` same-fold columns per event) is built once and replayed under
/// every scenario that corrupts the fold — each lane bit-identical to
/// [`faulty_column_from_q`], which also handles the per-fold column tail.
struct ScenarioFoldsOp<'a> {
    folds: &'a [FoldLaneMasks<'a>],
    nz: &'a [(usize, f32)],
    w: &'a [f32],
    qw: Option<&'a [i32]>,
    row_chunk: &'a mut [f32],
    q: &'a mut Vec<i64>,
    n: usize,
    cols: usize,
    format: QFormat,
    min_raw: i64,
    max_raw: i64,
    bypass: bool,
}

impl SimdOp for ScenarioFoldsOp<'_> {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLevel>(self) {
        let Self {
            folds,
            nz,
            w,
            qw,
            row_chunk,
            q,
            n,
            cols,
            format,
            min_raw,
            max_raw,
            bypass,
        } = self;
        let lanes = S::I64_LANES;
        for (fold, users) in folds.iter().enumerate() {
            if users.is_empty() || fold >= n {
                continue;
            }
            let count = (n - fold).div_ceil(cols);
            let mut g = 0usize;
            while g + lanes <= count {
                let base = fold + g * cols;
                q.clear();
                match qw {
                    Some(qw) => {
                        for &(p, _) in nz {
                            q.extend(
                                (0..lanes).map(|lane| i64::from(qw[p * n + base + lane * cols])),
                            );
                        }
                    }
                    None => {
                        for &(p, v) in nz {
                            q.extend((0..lanes).map(|lane| {
                                i64::from(format.quantize(v * w[p * n + base + lane * cols]))
                            }));
                        }
                    }
                }
                for &(fi, masked) in users.iter() {
                    let acc = walk_q_block::<S>(masked, nz, q, format, min_raw, max_raw, bypass);
                    for lane in 0..lanes {
                        row_chunk[fi * n + base + lane * cols] =
                            format.dequantize(S::i64_extract(acc, lane) as i32);
                    }
                }
                g += lanes;
            }
            while g < count {
                let j = fold + g * cols;
                q.clear();
                match qw {
                    Some(qw) => q.extend(nz.iter().map(|&(p, _)| i64::from(qw[p * n + j]))),
                    None => q.extend(
                        nz.iter()
                            .map(|&(p, v)| i64::from(format.quantize(v * w[p * n + j]))),
                    ),
                }
                for &(fi, masked) in users.iter() {
                    row_chunk[fi * n + j] =
                        faulty_column_from_q(masked, nz, q, format, min_raw, max_raw, bypass);
                }
                g += 1;
            }
        }
    }
}

/// [`faulty_column_from_q`] across `I64_LANES` columns at once: `q_block` is
/// event-major (`I64_LANES` words per nonzero event). Same merged walk, same
/// composed masks, same per-lane order.
#[inline(always)]
fn walk_q_block<S: SimdLevel>(
    masked: &[(u32, PeMasks)],
    nonzero: &[(usize, f32)],
    q_block: &[i64],
    format: QFormat,
    min_raw: i64,
    max_raw: i64,
    bypass: bool,
) -> S::I64 {
    let lanes = S::I64_LANES;
    let mut acc = S::i64_zero();
    let mut mi = 0usize;
    if bypass {
        for (e, &(p, _)) in nonzero.iter().enumerate() {
            while mi < masked.len() && (masked[mi].0 as usize) < p {
                mi += 1;
            }
            if mi < masked.len() && masked[mi].0 as usize == p {
                continue;
            }
            let q = S::i64_load(&q_block[e * lanes..]);
            acc = S::i64_clamp(S::i64_add(acc, q), min_raw, max_raw);
        }
        return acc;
    }
    for (e, &(p, _)) in nonzero.iter().enumerate() {
        if mi < masked.len() && (masked[mi].0 as usize) < p {
            let mut composed = masked[mi].1;
            mi += 1;
            while mi < masked.len() && (masked[mi].0 as usize) < p {
                composed = composed.then(masked[mi].1);
                mi += 1;
            }
            acc = S::i64_map(acc, |raw| apply_masks_raw(raw, composed, format));
        }
        let q = S::i64_load(&q_block[e * lanes..]);
        acc = S::i64_clamp(S::i64_add(acc, q), min_raw, max_raw);
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
/// demand with [`ScenarioMatrices::tensor`], bit-identical to the eager
/// [`SystolicExecutor::matmul_scenarios_hinted`] output.
#[derive(Debug, Clone)]
pub struct ScenarioMatrices {
    m: usize,
    n: usize,
    /// Interleaved lane count: faulty scenarios plus the derived-clean lane
    /// when no sweep-shared clean product was available.
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
            ScenarioLane::Lane(fi) => {
                let mut data = vec![0.0f32; self.m * self.n];
                let row_stride = self.lanes * self.n;
                for i in 0..self.m {
                    let start = i * row_stride + fi * self.n;
                    data[i * self.n..(i + 1) * self.n]
                        .copy_from_slice(&self.inter[start..start + self.n]);
                }
                Ok(Tensor::from_vec(vec![self.m, self.n], data)?)
            }
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
    use crate::{Fault, PeCoord, StuckAt};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

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
        let clean = executor.clean_matmul(&a, &b).unwrap();
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
        let clean = executor.clean_matmul(&a, &b).unwrap();
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
        let clean = executor.clean_matmul(&a, &b).unwrap();
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
        let clean = executor.clean_matmul(&a, &b).unwrap();
        // LSB stuck-at-0 can change each pass by at most one resolution step.
        assert!(max_abs_diff(&out, &clean) <= 4.0 / 256.0 + 1e-6);
    }

    #[test]
    fn bypass_skips_faulty_contribution_instead_of_corrupting() {
        let config = config();
        let fault_map = FaultMap::from_faults(
            config,
            vec![Fault::new(PeCoord::new(2, 1), 15, StuckAt::One)],
        )
        .unwrap();
        let executor = SystolicExecutor::with_bypass(config, fault_map, BypassPolicy::SkipFaulty);
        let a = Tensor::ones(&[1, 4]);
        let b = Tensor::full(&[4, 4], 0.5);
        let out = executor.matmul(&a, &b).unwrap();
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
        let executor = SystolicExecutor::with_bypass(config, fault_map, BypassPolicy::SkipFaulty);
        let a = Tensor::ones(&[1, 8]);
        let b = Tensor::full(&[8, 4], 0.5);
        let out = executor.matmul(&a, &b).unwrap();
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
    fn set_fault_map_and_policy_take_effect() {
        let config = config();
        let mut executor = SystolicExecutor::new(config, FaultMap::new(config));
        let a = Tensor::ones(&[1, 4]);
        let b = Tensor::full(&[4, 4], 0.5);
        let clean = executor.matmul(&a, &b).unwrap();

        let fault_map = FaultMap::from_faults(
            config,
            vec![Fault::new(PeCoord::new(0, 0), 15, StuckAt::One)],
        )
        .unwrap();
        executor.set_fault_map(fault_map);
        let faulty = executor.matmul(&a, &b).unwrap();
        assert!(max_abs_diff(&clean, &faulty) > 1.0);

        executor.set_bypass_policy(BypassPolicy::SkipFaulty);
        assert_eq!(executor.bypass_policy(), BypassPolicy::SkipFaulty);
        let bypassed = executor.matmul(&a, &b).unwrap();
        assert!(max_abs_diff(&clean, &bypassed) <= 0.5 + 1e-3);
    }

    /// The batched multi-map product must agree bit-for-bit with installing
    /// each map on its own executor — mixed clean/faulty maps, both bypass
    /// policies, with and without a CSR spike index on the activations.
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
        for bypass in [BypassPolicy::None, BypassPolicy::SkipFaulty] {
            for a in [&spikes, &indexed, &mixed] {
                let executor = SystolicExecutor::with_bypass(config, FaultMap::new(config), bypass);
                let batched = executor.matmul_scenarios(a, &b, &maps).unwrap();
                assert_eq!(batched.len(), maps.len());
                for (s, map) in maps.iter().enumerate() {
                    let single = SystolicExecutor::with_bypass(config, map.clone(), bypass);
                    let reference = single.matmul(a, &b).unwrap();
                    assert_eq!(
                        batched[s].data(),
                        reference.data(),
                        "scenario {s} diverged ({bypass:?})"
                    );
                }
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
