//! Cache-blocked, row-parallel compute kernels.
//!
//! This module is the single execution layer behind every dense matrix
//! product in the workspace: [`crate::ops::matmul`], the convolution lowering
//! ([`crate::ops::im2col`] + matmul), the SNN `FloatBackend`, and the clean
//! path of the systolic executor all route here.
//!
//! The matmul kernel combines three classic levers:
//!
//! * **row parallelism** — output rows are independent, so the matrix is cut
//!   into row panels processed across threads (`rayon`),
//! * **k-blocking** — the reduction dimension is walked in [`KC`]-sized
//!   blocks so the active panel of `b` stays cache-resident,
//! * **register tiling** — an [`MR`]x[`NR`] accumulator tile lives in
//!   registers across the whole k-block, turning the inner loop from a
//!   load/store-bound axpy into an FMA-bound tile update.
//!
//! Accumulation visits `k` in increasing order for every output element, so
//! results differ from the naive triple loop only by floating-point
//! re-association across k-block boundaries (bounded by ~`k * eps`).
//!
//! # Accumulation contract
//!
//! [`matmul`] fixes exactly which additions each output cell receives, and
//! every kernel that claims its bits ([`matmul_spike_rhs`],
//! [`conv_input_grad_into`]) follows the same rule:
//!
//! * **Tile rows** are the first `m - m % MR` rows, grouped in [`MR`]-row
//!   tiles; the last `m % MR` rows are **tail rows**.
//! * **Strip columns** are the first `n - n % w` columns, where `w` is
//!   [`NR`] under [`Isa::Scalar`] and the vector width otherwise; the rest
//!   are **tail columns**.
//! * A cell in a tile row *and* a strip column sums each [`KC`] block of
//!   `k` separately, from `+0` in increasing `k`, and adds the block sums
//!   onto the cell block by block.
//! * Every other cell is one running chain: its products are added
//!   straight onto the cell in increasing `k`, skipping zero lhs entries.
//! * Strip columns fuse each multiply-add under a vector level (one
//!   rounding); the scalar engine and every tail column round the product
//!   and the sum separately.
//!
//! Row panels split at multiples of `MR` rows ([`parallel_panel_rows`]), so
//! a row's class, and every result bit, is the same at every thread count.
//!
//! # Event-driven kernels
//!
//! Activations downstream of a spiking layer are binary `{0, 1}` tensors
//! that are mostly zero, so multiplying them through the dense kernel wastes
//! nearly all of its FLOPs. [`matmul_dispatch`] probes the left operand
//! ([`OperandProfile`], optionally short-circuited by a caller-supplied
//! [`MatmulHint`]) and routes products whose lhs density is at most
//! [`sparse_density_cutoff`] (ISA-aware: [`SPARSE_DENSITY_CUTOFF`] under the
//! scalar reference kernels, [`SPARSE_DENSITY_CUTOFF_SIMD`] once the dense
//! tile runs vectorised) to [`matmul_sparse`], a gather-accumulate kernel
//! that walks only the nonzero activations and turns binary entries into
//! plain row additions (no multiply at all).
//!
//! # Convolution lowering
//!
//! The dense lowering copies each `[C, H, W]` input once into a zero-padded
//! `[C, H+2p, W+2p]` buffer and precomputes the `C·k·k` column offsets
//! `(ch·Hp + ky)·Wp + kx` (`PaddedTable`). Every im2col row is then a
//! branch-free gather from its window's corner `oy·s·Wp + ox·s`
//! ([`im2col_into`]); no cell needs a bounds check because the border is
//! zero.
//!
//! Spike frames skip the gather. A frame carrying a CSR spike index lowers
//! through [`im2col_spikes_into`], which walks the index, writes only the
//! cells its spikes land in (`O(nnz·k²)`) and returns the lowered matrix's
//! own CSR index; an un-indexed event-sparse frame takes
//! [`im2col_sparse_into`], the same scatter driven by a scan of the dense
//! buffer. At spike densities the scatter beats the full gather, and on
//! small, near-silent frames it costs little more than the row count.
//!
//! The convolution's input gradient is the adjoint lowering of
//! `grad_rows @ weight`. [`conv_input_grad_into`] never builds either
//! matrix. It takes one batch item's output rows a block at a time and
//! computes the block of the product transposed: one lowered column per
//! row, the block's output positions in vector lanes. Batch `b`'s
//! `grad_output` planes already hold the positions contiguously, so the
//! lanes load straight from them. Each cell still gets [`matmul`]'s bits
//! under the accumulation contract: strip columns in tile rows take the
//! per-[`KC`] block sums with the level's multiply-add, tail columns take
//! one unfused chain that skips zero gradients, and the product's tail
//! rows (the last `R % MR` of all `R` rows) are redone as chains.
//!
//! The block then goes into the image as a gather, not a scatter. For
//! each image row `iy` and each piece of up to 16 pixels, the accumulator
//! is loaded once, takes every covering window's cell in order, and is
//! stored once: output row `oy` ascending, then `kx` descending. At stride
//! 1, a piece's cells for one `(oy, kx)` are one contiguous load of the
//! block row, shifted by `kx`. A pixel `(c, iy, ix)` is covered by window
//! `(oy, ox)` at `ky = iy + p − oy·s` and `kx = ix + p − ox·s`. So at a
//! fixed `oy`, `kx` descending is `ox` ascending. Every pixel therefore
//! receives its additions in ascending lowered-row order, from `+0`, as a
//! bounds-checked walk of the windows over the whole product gives them,
//! and the result is bit-identical to it. Blocks go in ascending `oy`, so
//! the order holds across blocks too. Four channels' accumulators run side
//! by side, so the adds form four independent chains. A scatter of
//! `out_w`-long runs (one per `(oy, c, ky, kx)`) gives the same order. But
//! its read-modify-write runs overlap the previous `kx`'s at a one-element
//! shift, and the loads then wait on the stores: measured, it ran no
//! faster than a scalar scatter of whole lowered rows.
//!
//! The weight gradient `gradᵀ @ cols` of a spike lowering runs as
//! [`matmul_spike_rhs`], a walk over the lowering's CSR index that keeps
//! [`matmul`]'s accumulation contract.

use crate::simd::{self, Isa, SimdLevel, SimdOp};
use crate::spikes::SpikeIndex;
use rayon::prelude::*;
use std::ops::Range;

/// Rows per register tile.
pub const MR: usize = 4;
/// Columns per register tile (kept SIMD-width friendly).
pub const NR: usize = 8;
/// Reduction-dimension block size: one `KC x NR` panel of `b` is about
/// 8 KiB, comfortably L1-resident while a row panel streams through.
pub const KC: usize = 256;

/// Work (multiply-adds, or elements written) below which a kernel runs
/// serially: a parallel call costs more than a product this small. A
/// two-worker call costs ~58 µs even when empty, and Tiny training at 2
/// threads runs faster with none of its kernels split. The threshold is the
/// smallest power of two above the largest of them (conv1's spike product
/// and its input-gradient scatter, 2,359,296 units), so Tiny training spawns
/// no thread, while a dense 1024×256×64 product (16.8 M units) still splits.
const PARALLEL_WORK_THRESHOLD: usize = 1 << 22;

/// The grain rule every row-parallel kernel shares. `None` means run the
/// `rows` serially: this thread's budget is one thread, or `work` is below
/// the parallel threshold. `Some(h)` means split them into panels of `h`
/// rows, about two per thread so the queue stays balanced when row costs
/// vary (sparse spike rows). `h` is a nonzero multiple of `min_rows`, so a
/// kernel that groups rows by `min_rows` (the [`MR`]-row tiles of
/// [`matmul`]) sees the same groups in every panel split as in a serial
/// run, and the split never changes a result bit.
pub fn parallel_panel_rows(rows: usize, work: usize, min_rows: usize) -> Option<usize> {
    let threads = rayon::current_num_threads();
    if threads <= 1 || work < PARALLEL_WORK_THRESHOLD {
        return None;
    }
    Some(rows.div_ceil(threads * 2).max(1).next_multiple_of(min_rows))
}

/// Reference matrix product — the seed's straightforward `i-k-j` triple loop
/// (contiguous over `b` and `out`, zero-skip on `a`). Kept as the baseline
/// for benchmarks and property tests; use [`matmul`] everywhere else.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `k`, `n`.
pub fn matmul_naive(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    check_dims(a, b, m, k, n);
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        let out_row = &mut out[i * n..(i + 1) * n];
        for (p, &a_ip) in a_row.iter().enumerate() {
            if a_ip == 0.0 {
                continue;
            }
            let b_row = &b[p * n..(p + 1) * n];
            for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                *o += a_ip * b_pj;
            }
        }
    }
    out
}

/// Cache-blocked, row-parallel matrix product `a (m x k) @ b (k x n)`.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `k`, `n`.
pub fn matmul(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    let mut out = vec![0.0f32; m * n];
    matmul_into(a, b, &mut out, m, k, n);
    out
}

/// Cache-blocked, row-parallel matrix product accumulating into `out`
/// (`out` must be zero-initialised for a plain product).
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `k`, `n`.
pub fn matmul_into(a: &[f32], b: &[f32], out: &mut [f32], m: usize, k: usize, n: usize) {
    check_dims(a, b, m, k, n);
    assert_eq!(out.len(), m * n, "output buffer has the wrong length");
    if m == 0 || n == 0 {
        return;
    }
    let Some(rows_per_panel) = parallel_panel_rows(m, m * n * k, MR) else {
        matmul_panel(a, b, out, m, k, n);
        return;
    };
    out.par_chunks_mut(rows_per_panel * n)
        .enumerate()
        .for_each(|(panel, out_panel)| {
            let row0 = panel * rows_per_panel;
            let rows = out_panel.len() / n;
            matmul_panel(&a[row0 * k..(row0 + rows) * k], b, out_panel, rows, k, n);
        });
}

/// Serial blocked product of one row panel: `a_panel` is `rows x k`,
/// `out_panel` is `rows x n`. Dispatched to the active SIMD level
/// ([`crate::simd`]); [`Isa::Scalar`] runs the original scalar tile
/// unchanged.
fn matmul_panel(
    a_panel: &[f32],
    b: &[f32],
    out_panel: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    match simd::active() {
        Isa::Scalar => matmul_panel_scalar(a_panel, b, out_panel, rows, k, n),
        _ => simd::dispatch(PanelOp {
            a_panel,
            b,
            out_panel,
            rows,
            k,
            n,
        }),
    }
}

struct PanelOp<'a> {
    a_panel: &'a [f32],
    b: &'a [f32],
    out_panel: &'a mut [f32],
    rows: usize,
    k: usize,
    n: usize,
}

impl SimdOp for PanelOp<'_> {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLevel>(self) {
        matmul_panel_blocks::<S>(
            self.a_panel,
            self.b,
            self.out_panel,
            self.rows,
            self.k,
            self.n,
        );
    }
}

/// The blocked panel product in lane-block form: same k-blocking and MR-row
/// tiling as the scalar kernel, with the NR strip widened to the level's
/// vector width (two blocks per row) and FMA accumulation. Differs from the
/// scalar tile only by fused-multiply rounding (within the dense kernels'
/// 1e-5 tolerance).
#[inline(always)]
fn matmul_panel_blocks<S: SimdLevel>(
    a_panel: &[f32],
    b: &[f32],
    out_panel: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    let mut kb = 0;
    while kb < k {
        let kb_end = (kb + KC).min(k);
        let mut i = 0;
        while i + MR <= rows {
            row_tile_blocks::<S>(a_panel, b, out_panel, i, kb, kb_end, k, n);
            i += MR;
        }
        // Remaining rows: vector axpy walk of the same k-block.
        while i < rows {
            row_axpy_blocks::<S>(
                &a_panel[i * k..(i + 1) * k],
                b,
                &mut out_panel[i * n..(i + 1) * n],
                kb,
                kb_end,
                n,
            );
            i += 1;
        }
        kb = kb_end;
    }
}

/// Updates MR output rows for one k-block at level `S`: double-width vector
/// strips (2 accumulator blocks per row live across the block), then a
/// single-width strip, then scalar column tails.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn row_tile_blocks<S: SimdLevel>(
    a_panel: &[f32],
    b: &[f32],
    out_panel: &mut [f32],
    i: usize,
    kb: usize,
    kb_end: usize,
    k: usize,
    n: usize,
) {
    let w = S::F32_LANES;
    let a0 = &a_panel[i * k..(i + 1) * k];
    let a1 = &a_panel[(i + 1) * k..(i + 2) * k];
    let a2 = &a_panel[(i + 2) * k..(i + 3) * k];
    let a3 = &a_panel[(i + 3) * k..(i + 4) * k];

    let mut jc = 0;
    while jc + 2 * w <= n {
        let mut acc = [[S::f32_zero(); 2]; MR];
        for p in kb..kb_end {
            let b_row = &b[p * n + jc..];
            let b0 = S::f32_load(b_row);
            let b1 = S::f32_load(&b_row[w..]);
            let av = [a0[p], a1[p], a2[p], a3[p]];
            for (acc_row, &a_rp) in acc.iter_mut().zip(&av) {
                let s = S::f32_splat(a_rp);
                acc_row[0] = S::f32_muladd(s, b0, acc_row[0]);
                acc_row[1] = S::f32_muladd(s, b1, acc_row[1]);
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let out_row = &mut out_panel[(i + r) * n + jc..];
            S::f32_accum(out_row, acc_row[0]);
            S::f32_accum(&mut out_row[w..], acc_row[1]);
        }
        jc += 2 * w;
    }
    while jc + w <= n {
        let mut acc = [S::f32_zero(); MR];
        for p in kb..kb_end {
            let bv = S::f32_load(&b[p * n + jc..]);
            let av = [a0[p], a1[p], a2[p], a3[p]];
            for (acc_r, &a_rp) in acc.iter_mut().zip(&av) {
                *acc_r = S::f32_muladd(S::f32_splat(a_rp), bv, *acc_r);
            }
        }
        for (r, &acc_r) in acc.iter().enumerate() {
            S::f32_accum(&mut out_panel[(i + r) * n + jc..], acc_r);
        }
        jc += w;
    }
    // Column tail (n % lane width): scalar accumulators per remaining column.
    if jc < n {
        for p in kb..kb_end {
            let b_row = &b[p * n..(p + 1) * n];
            let av = [a0[p], a1[p], a2[p], a3[p]];
            for (r, &a_rp) in av.iter().enumerate() {
                if a_rp == 0.0 {
                    continue;
                }
                let out_row = &mut out_panel[(i + r) * n..(i + r) * n + n];
                for j in jc..n {
                    out_row[j] += a_rp * b_row[j];
                }
            }
        }
    }
}

/// Tail rows (fewer than MR) of one k-block: vector axpy per nonzero
/// activation (fused like the tile), scalar column tail.
#[inline(always)]
fn row_axpy_blocks<S: SimdLevel>(
    a_row: &[f32],
    b: &[f32],
    out_row: &mut [f32],
    kb: usize,
    kb_end: usize,
    n: usize,
) {
    let w = S::F32_LANES;
    for p in kb..kb_end {
        let a_ip = a_row[p];
        if a_ip == 0.0 {
            continue;
        }
        let b_row = &b[p * n..(p + 1) * n];
        let s = S::f32_splat(a_ip);
        let mut j = 0;
        while j + w <= n {
            let acc = S::f32_muladd(s, S::f32_load(&b_row[j..]), S::f32_load(&out_row[j..]));
            S::f32_store(acc, &mut out_row[j..]);
            j += w;
        }
        while j < n {
            out_row[j] += a_ip * b_row[j];
            j += 1;
        }
    }
}

/// The original scalar panel product, kept verbatim as the [`Isa::Scalar`]
/// engine (forced-scalar runs execute exactly the pre-SIMD code).
fn matmul_panel_scalar(
    a_panel: &[f32],
    b: &[f32],
    out_panel: &mut [f32],
    rows: usize,
    k: usize,
    n: usize,
) {
    let mut kb = 0;
    while kb < k {
        let kb_end = (kb + KC).min(k);
        let mut i = 0;
        // Full MR-row tiles, register-tiled across NR-column strips.
        while i + MR <= rows {
            row_tile(a_panel, b, out_panel, i, kb, kb_end, k, n);
            i += MR;
        }
        // Remaining rows: plain axpy walk of the same k-block.
        while i < rows {
            let a_row = &a_panel[i * k..(i + 1) * k];
            let out_row = &mut out_panel[i * n..(i + 1) * n];
            for p in kb..kb_end {
                let a_ip = a_row[p];
                if a_ip == 0.0 {
                    continue;
                }
                let b_row = &b[p * n..(p + 1) * n];
                for (o, &b_pj) in out_row.iter_mut().zip(b_row) {
                    *o += a_ip * b_pj;
                }
            }
            i += 1;
        }
        kb = kb_end;
    }
}

/// Updates MR output rows for one k-block, walking NR-column strips with the
/// accumulator tile held in registers across the whole block.
#[allow(clippy::too_many_arguments)]
fn row_tile(
    a_panel: &[f32],
    b: &[f32],
    out_panel: &mut [f32],
    i: usize,
    kb: usize,
    kb_end: usize,
    k: usize,
    n: usize,
) {
    let a0 = &a_panel[i * k..(i + 1) * k];
    let a1 = &a_panel[(i + 1) * k..(i + 2) * k];
    let a2 = &a_panel[(i + 2) * k..(i + 3) * k];
    let a3 = &a_panel[(i + 3) * k..(i + 4) * k];

    let mut jc = 0;
    // NR-wide strips: fixed-size array views hoist every bounds check out of
    // the p-loop and let the strip live in registers.
    while jc + NR <= n {
        let mut acc = [[0.0f32; NR]; MR];
        for p in kb..kb_end {
            let b_strip: &[f32; NR] = b[p * n + jc..p * n + jc + NR]
                .try_into()
                .expect("strip width is NR");
            let av = [a0[p], a1[p], a2[p], a3[p]];
            for (acc_row, &a_rp) in acc.iter_mut().zip(&av) {
                for (s, &b_pj) in acc_row.iter_mut().zip(b_strip) {
                    *s += a_rp * b_pj;
                }
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            let out_strip = &mut out_panel[(i + r) * n + jc..(i + r) * n + jc + NR];
            for (o, &s) in out_strip.iter_mut().zip(acc_row) {
                *o += s;
            }
        }
        jc += NR;
    }
    // Column tail (n % NR): scalar accumulators per remaining column.
    if jc < n {
        for p in kb..kb_end {
            let b_row = &b[p * n..(p + 1) * n];
            let av = [a0[p], a1[p], a2[p], a3[p]];
            for (r, &a_rp) in av.iter().enumerate() {
                if a_rp == 0.0 {
                    continue;
                }
                let out_row = &mut out_panel[(i + r) * n..(i + r) * n + n];
                for j in jc..n {
                    out_row[j] += a_rp * b_row[j];
                }
            }
        }
    }
}

fn check_dims(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "lhs has the wrong length");
    assert_eq!(b.len(), k * n, "rhs has the wrong length");
}

// ---------------------------------------------------------------------------
// Event-driven (spike-sparse) kernels
// ---------------------------------------------------------------------------

/// Lhs density at or below which [`matmul_dispatch`] selects the
/// gather-accumulate kernel **when the scalar reference kernels are
/// active**. The row-walk kernel does `density * k` row updates where the
/// blocked kernel always does `k`; with the scalar blocked kernel's register
/// tiling worth roughly a 1.5-2x constant factor, the crossover sits well
/// above 25%, so this cutoff only ever picks the sparse kernel where it
/// clearly wins. Paper-typical spike densities are <= 20%.
pub const SPARSE_DENSITY_CUTOFF: f32 = 0.25;

/// Event-kernel cutoff when a vector SIMD level is active. The SIMD dense
/// tile is ~3x faster than the scalar blocked kernel, which drags the probe
/// kernel's measured crossover down to ~10-15% lhs density (see the
/// `sparse_matmul` sweep in `BENCH_kernels.json` on AVX-512), so the
/// dispatchers tighten the cutoff rather than route break-even densities to
/// the event walk. Real spiking-layer operands sit at or below ~11% density
/// (the `kernel_choice` sweeps), so in practice this changes no layer's
/// routing — it only stops mid-density operands from losing to the faster
/// dense tile.
pub const SPARSE_DENSITY_CUTOFF_SIMD: f32 = 0.15;

/// The event-kernel density cutoff under the currently active SIMD level:
/// [`SPARSE_DENSITY_CUTOFF`] for [`Isa::Scalar`] (the pre-SIMD behaviour,
/// unchanged under `FALVOLT_SIMD=scalar`), [`SPARSE_DENSITY_CUTOFF_SIMD`]
/// for every vector level. Both dispatchers ([`matmul_dispatch`] and
/// [`matmul_dispatch_indexed`]) consult this single function, so the probe
/// and CSR paths always agree on routing — the foundation of their
/// bit-identity contract.
pub fn sparse_density_cutoff() -> f32 {
    match simd::active() {
        Isa::Scalar => SPARSE_DENSITY_CUTOFF,
        _ => SPARSE_DENSITY_CUTOFF_SIMD,
    }
}

/// Measured structure of a matmul operand (one `O(len)` pass — negligible
/// next to the `O(len * n)` product it steers).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OperandProfile {
    /// Fraction of nonzero elements, in `[0, 1]` (1.0 for empty operands).
    pub density: f32,
    /// `true` when every element is exactly `0.0` or `1.0` — the shape of a
    /// spike tensor, where accumulation needs no multiplications.
    pub binary: bool,
}

impl OperandProfile {
    /// The profile assumed when structure analysis is skipped: fully dense.
    pub fn dense() -> Self {
        Self {
            density: 1.0,
            binary: false,
        }
    }

    /// Scans `data` once, counting nonzeros and checking binariness. The
    /// counts are exact on every SIMD level, so the measured profile is
    /// identical to the scalar scan by construction.
    pub fn measure(data: &[f32]) -> Self {
        if data.is_empty() {
            return Self::dense();
        }
        let (nonzero, binary) = match simd::active() {
            Isa::Scalar => Self::count_scalar(data),
            _ => simd::dispatch(MeasureOp { data }),
        };
        Self {
            density: nonzero as f32 / data.len() as f32,
            binary,
        }
    }

    /// The original branchy scalar scan — the [`Isa::Scalar`] reference.
    fn count_scalar(data: &[f32]) -> (usize, bool) {
        let mut nonzero = 0usize;
        let mut binary = true;
        for &v in data {
            if v != 0.0 {
                nonzero += 1;
                binary &= v == 1.0;
            }
        }
        (nonzero, binary)
    }

    /// `true` when the operand is sparse enough for the event-driven kernel
    /// under the active SIMD level (see [`sparse_density_cutoff`]).
    pub fn is_event_sparse(&self) -> bool {
        self.density <= sparse_density_cutoff()
    }
}

/// Lane-parallel operand scan: per-lane nonzero counters and a per-lane
/// non-binariness flag, reduced after the pass. Counting is exact, so the
/// result matches the scalar scan bit-for-bit; the fixed 16-wide stripes
/// vectorise under whichever `#[target_feature]` trampoline dispatch picks.
struct MeasureOp<'a> {
    data: &'a [f32],
}

impl SimdOp for MeasureOp<'_> {
    type Output = (usize, bool);

    #[inline(always)]
    fn run<S: SimdLevel>(self) -> (usize, bool) {
        const STRIPE: usize = 16;
        let mut nonzero_lanes = [0u64; STRIPE];
        let mut nonbinary_lanes = [0u32; STRIPE];
        let mut chunks = self.data.chunks_exact(STRIPE);
        for chunk in chunks.by_ref() {
            for j in 0..STRIPE {
                let v = chunk[j];
                nonzero_lanes[j] += u64::from(v != 0.0);
                nonbinary_lanes[j] |= u32::from(v != 0.0 && v != 1.0);
            }
        }
        let mut nonzero = nonzero_lanes.iter().sum::<u64>() as usize;
        let mut binary = nonbinary_lanes.iter().all(|&flag| flag == 0);
        for &v in chunks.remainder() {
            if v != 0.0 {
                nonzero += 1;
                binary &= v == 1.0;
            }
        }
        (nonzero, binary)
    }
}

/// Caller-supplied structure hint for the left operand of a matrix product.
///
/// Layers that know what they feed the backend (e.g. a convolution whose
/// input is the output of a spiking layer) pass the hint down so the
/// dispatcher can skip or shrink the probe; [`MatmulHint::Dense`] is also the
/// "engine off" switch that pins execution to the blocked dense kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MatmulHint {
    /// No structural knowledge: probe the operand and dispatch on density.
    #[default]
    Auto,
    /// Operand known (or required to be treated as) dense: use the blocked
    /// kernel unconditionally, no probe.
    Dense,
    /// Operand known to be a binary spike tensor. Informational: dispatch
    /// still measures the operand (the probe is one cheap pass), but
    /// backends may use the claim to pick spike-specialised paths.
    Spikes,
}

/// Structure-aware matrix product `a (m x k) @ b (k x n)`: probes `a` as
/// directed by `hint` and routes to [`matmul_sparse`] or the blocked
/// [`matmul`].
///
/// Both kernels visit `k` in increasing order per output element, so they
/// agree to within floating-point re-association (~`k * eps`); for `k <=`
/// [`KC`] they agree bit-for-bit.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `k`, `n`.
pub fn matmul_dispatch(
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    hint: MatmulHint,
) -> Vec<f32> {
    let profile = match hint {
        MatmulHint::Dense => return matmul(a, b, m, k, n),
        // A Spikes claim is informational (the sparse kernel handles
        // non-binary nonzeros anyway); dispatch measures the operand either
        // way so there is a single source of truth for the density logic.
        MatmulHint::Auto | MatmulHint::Spikes => OperandProfile::measure(a),
    };
    if profile.is_event_sparse() {
        matmul_sparse(a, b, m, k, n)
    } else {
        matmul(a, b, m, k, n)
    }
}

/// Event-driven matrix product for a sparse left operand: each output row is
/// the sum of the `b` rows selected by the nonzero entries of the matching
/// `a` row. Binary entries (`1.0`) skip the multiplication entirely and
/// reduce to a row addition; other nonzeros fall back to an axpy update.
/// Zero rows of `a` cost nothing.
///
/// Accumulation visits the nonzero `k` indices in increasing order, matching
/// the naive kernel's order exactly and the blocked kernel's within k-block
/// re-association.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `k`, `n`.
pub fn matmul_sparse(a: &[f32], b: &[f32], m: usize, k: usize, n: usize) -> Vec<f32> {
    check_dims(a, b, m, k, n);
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        return out;
    }
    let Some(rows_per_panel) = parallel_panel_rows(m, m * n * k, 1) else {
        sparse_panel(a, b, &mut out, k, n);
        return out;
    };
    out.par_chunks_mut(rows_per_panel * n)
        .enumerate()
        .for_each(|(panel, out_panel)| {
            let row0 = panel * rows_per_panel;
            let rows = out_panel.len() / n;
            sparse_panel(&a[row0 * k..(row0 + rows) * k], b, out_panel, k, n);
        });
    out
}

/// Gather-accumulate update of one row panel (`a_panel` is `rows x k`
/// aligned with `out_panel`), dispatched to the active SIMD level;
/// [`Isa::Scalar`] runs the original row walk unchanged. Vector levels are
/// bit-identical to scalar here: the row additions use unfused lane adds in
/// the same per-element order.
fn sparse_panel(a_panel: &[f32], b: &[f32], out_panel: &mut [f32], k: usize, n: usize) {
    match simd::active() {
        Isa::Scalar => {
            for (r, out_row) in out_panel.chunks_mut(n).enumerate() {
                sparse_row(&a_panel[r * k..(r + 1) * k], b, out_row, n);
            }
        }
        _ => simd::dispatch(SparsePanelOp {
            a_panel,
            b,
            out_panel,
            k,
            n,
        }),
    }
}

struct SparsePanelOp<'a> {
    a_panel: &'a [f32],
    b: &'a [f32],
    out_panel: &'a mut [f32],
    k: usize,
    n: usize,
}

impl SimdOp for SparsePanelOp<'_> {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLevel>(self) {
        // Three tricks over the scalar scan-and-add walk, none changing
        // per-element operation order:
        //
        // * the nonzero scan tests 16-wide stripes with a vectorised
        //   any-nonzero OR-reduction first and skips all-zero stripes —
        //   at spike densities most stripes are empty, so the scan cost
        //   collapses from one store per element to one compare per lane;
        // * within the stripes that do hold spikes, positions are compacted
        //   branchlessly into a scratch list (the dense element-by-element
        //   scan branch-mispredicts at spike densities) and the event walk
        //   reads values back by position;
        // * at classifier-head widths the whole output row lives in
        //   register accumulators across that walk (same as the CSR
        //   kernel), so the row is stored once instead of once per event.
        const STRIPE: usize = 16;
        let blocks = self.n / S::F32_LANES;
        // STRIPE slack so each non-empty stripe can slice a full-width
        // compaction window at `count` even near the end of the list.
        let mut events: Vec<u32> = vec![0; self.k + STRIPE];
        for (r, out_row) in self.out_panel.chunks_mut(self.n).enumerate() {
            let a_row = &self.a_panel[r * self.k..(r + 1) * self.k];
            let mut count = 0usize;
            let mut chunks = a_row.chunks_exact(STRIPE);
            let mut base = 0u32;
            for chunk in chunks.by_ref() {
                let mut any = false;
                for &v in chunk {
                    any |= v != 0.0;
                }
                if any {
                    let slot = &mut events[count..count + STRIPE];
                    let mut c = 0usize;
                    for (j, &v) in chunk.iter().enumerate() {
                        slot[c] = base + j as u32;
                        c += usize::from(v != 0.0);
                    }
                    count += c;
                }
                base += STRIPE as u32;
            }
            for (j, &v) in chunks.remainder().iter().enumerate() {
                events[count] = base + j as u32;
                count += usize::from(v != 0.0);
            }
            let row_events = &events[..count];
            match blocks {
                1 => sparse_row_resident::<S, 1>(a_row, row_events, self.b, out_row),
                2 => sparse_row_resident::<S, 2>(a_row, row_events, self.b, out_row),
                3 => sparse_row_resident::<S, 3>(a_row, row_events, self.b, out_row),
                4 => sparse_row_resident::<S, 4>(a_row, row_events, self.b, out_row),
                5 => sparse_row_resident::<S, 5>(a_row, row_events, self.b, out_row),
                6 => sparse_row_resident::<S, 6>(a_row, row_events, self.b, out_row),
                7 => sparse_row_resident::<S, 7>(a_row, row_events, self.b, out_row),
                8 => sparse_row_resident::<S, 8>(a_row, row_events, self.b, out_row),
                _ => {
                    for &p in row_events {
                        let p = p as usize;
                        let v = a_row[p];
                        let b_row = &self.b[p * self.n..(p + 1) * self.n];
                        if v == 1.0 {
                            row_add_blocks::<S>(out_row, b_row);
                        } else {
                            row_axpy_value_blocks::<S>(out_row, b_row, v);
                        }
                    }
                }
            }
        }
    }
}

/// One gather-accumulate output row over a pre-compacted nonzero position
/// list, with the first `BLOCKS` lane blocks held in register accumulators
/// across the whole walk. Per-element add and axpy order (unfused mul then
/// add) is identical to driving [`row_add_blocks`] /
/// [`row_axpy_value_blocks`] once per nonzero of the dense scan.
#[inline(always)]
fn sparse_row_resident<S: SimdLevel, const BLOCKS: usize>(
    a_row: &[f32],
    events: &[u32],
    b: &[f32],
    out_row: &mut [f32],
) {
    let w = S::F32_LANES;
    let n = out_row.len();
    let tail = BLOCKS * w;
    let mut acc = [S::f32_zero(); BLOCKS];
    for (blk, a) in acc.iter_mut().enumerate() {
        *a = S::f32_load(&out_row[blk * w..]);
    }
    for &p in events {
        let p = p as usize;
        let v = a_row[p];
        let b_row = &b[p * n..(p + 1) * n];
        if v == 1.0 {
            for (blk, a) in acc.iter_mut().enumerate() {
                *a = S::f32_add(*a, S::f32_load(&b_row[blk * w..]));
            }
            for j in tail..n {
                out_row[j] += b_row[j];
            }
        } else {
            let s = S::f32_splat(v);
            for (blk, a) in acc.iter_mut().enumerate() {
                *a = S::f32_add(*a, S::f32_mul(s, S::f32_load(&b_row[blk * w..])));
            }
            for j in tail..n {
                out_row[j] += v * b_row[j];
            }
        }
    }
    for (blk, a) in acc.iter().enumerate() {
        S::f32_store(*a, &mut out_row[blk * w..]);
    }
}

/// `out_row += b_row` in lane blocks — unfused adds, bit-identical to the
/// scalar spike row addition.
#[inline(always)]
fn row_add_blocks<S: SimdLevel>(out_row: &mut [f32], b_row: &[f32]) {
    let w = S::F32_LANES;
    let n = out_row.len();
    let mut j = 0;
    while j + w <= n {
        let sum = S::f32_add(S::f32_load(&out_row[j..]), S::f32_load(&b_row[j..]));
        S::f32_store(sum, &mut out_row[j..]);
        j += w;
    }
    while j < n {
        out_row[j] += b_row[j];
        j += 1;
    }
}

/// `out_row += v * b_row` in lane blocks — separate mul and add roundings,
/// bit-identical to the scalar axpy.
#[inline(always)]
fn row_axpy_value_blocks<S: SimdLevel>(out_row: &mut [f32], b_row: &[f32], v: f32) {
    let w = S::F32_LANES;
    let n = out_row.len();
    let s = S::f32_splat(v);
    let mut j = 0;
    while j + w <= n {
        let sum = S::f32_add(
            S::f32_load(&out_row[j..]),
            S::f32_mul(s, S::f32_load(&b_row[j..])),
        );
        S::f32_store(sum, &mut out_row[j..]);
        j += w;
    }
    while j < n {
        out_row[j] += v * b_row[j];
        j += 1;
    }
}

/// Structure-aware product that may consume a pre-built CSR spike index for
/// the left operand. With `index = None` this is exactly [`matmul_dispatch`];
/// with an index, the density decision is O(1) (`nnz / len`, the same number
/// the probe would measure) and the sparse branch walks the index instead of
/// re-scanning rows — bit-identical to [`matmul_sparse`] because listed
/// positions are exactly the nonzeros, all `1.0`, visited in the same order.
///
/// # Panics
///
/// Panics if the slice lengths disagree with `m`, `k`, `n`, or if the index
/// geometry does not match `m x k`.
pub fn matmul_dispatch_indexed(
    a: &[f32],
    index: Option<&SpikeIndex>,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    hint: MatmulHint,
) -> Vec<f32> {
    let Some(index) = index else {
        return matmul_dispatch(a, b, m, k, n, hint);
    };
    if matches!(hint, MatmulHint::Dense) {
        return matmul(a, b, m, k, n);
    }
    // The index was validated against the data when it was attached (and
    // any mutable access drops it), so only the geometry is re-checked here.
    assert_eq!(index.rows(), m, "spike index row count must be m");
    assert_eq!(index.cols(), k, "spike index row width must be k");
    if index.density() <= sparse_density_cutoff() {
        matmul_spikes_indexed(index, b, m, k, n)
    } else {
        matmul(a, b, m, k, n)
    }
}

/// Event-stream matrix product: each output row is the sum of the `b` rows
/// listed in the CSR index row (binary spikes — pure row additions, no
/// multiply and no scan of the dense operand at all). Identical accumulation
/// order to [`matmul_sparse`] on the same operand.
///
/// # Panics
///
/// Panics if the buffer lengths disagree with `m`, `k`, `n` or the index.
pub fn matmul_spikes_indexed(
    index: &SpikeIndex,
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
) -> Vec<f32> {
    assert_eq!(index.rows(), m, "spike index row count must be m");
    assert_eq!(index.cols(), k, "spike index row width must be k");
    assert_eq!(b.len(), k * n, "rhs has the wrong length");
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        return out;
    }
    let Some(rows_per_panel) = parallel_panel_rows(m, m * n * k, 1) else {
        indexed_panel(index, 0, b, &mut out, n);
        return out;
    };
    out.par_chunks_mut(rows_per_panel * n)
        .enumerate()
        .for_each(|(panel, out_panel)| {
            indexed_panel(index, panel * rows_per_panel, b, out_panel, n);
        });
    out
}

/// CSR row-add update of one row panel starting at `row0`, dispatched to the
/// active SIMD level; [`Isa::Scalar`] runs the original row walk unchanged.
/// Vector levels share [`row_add_blocks`] with the sparse probe kernel, so
/// the two stay bit-identical on the same operand at every level.
fn indexed_panel(index: &SpikeIndex, row0: usize, b: &[f32], out_panel: &mut [f32], n: usize) {
    match simd::active() {
        Isa::Scalar => {
            for (r, out_row) in out_panel.chunks_mut(n).enumerate() {
                indexed_row(index.row(row0 + r), b, out_row, n);
            }
        }
        _ => simd::dispatch(IndexedPanelOp {
            index,
            row0,
            b,
            out_panel,
            n,
        }),
    }
}

struct IndexedPanelOp<'a> {
    index: &'a SpikeIndex,
    row0: usize,
    b: &'a [f32],
    out_panel: &'a mut [f32],
    n: usize,
}

impl SimdOp for IndexedPanelOp<'_> {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLevel>(self) {
        // Classifier-head widths fit the whole output row in registers, so
        // keep the accumulators resident across the event walk instead of
        // storing and reloading `out_row` once per event. The const-generic
        // block count lets the block loop unroll completely; per-element add
        // order is unchanged, so every variant stays bit-identical.
        let blocks = self.n / S::F32_LANES;
        for (r, out_row) in self.out_panel.chunks_mut(self.n).enumerate() {
            let events = self.index.row(self.row0 + r);
            match blocks {
                1 => indexed_row_resident::<S, 1>(events, self.b, out_row),
                2 => indexed_row_resident::<S, 2>(events, self.b, out_row),
                3 => indexed_row_resident::<S, 3>(events, self.b, out_row),
                4 => indexed_row_resident::<S, 4>(events, self.b, out_row),
                5 => indexed_row_resident::<S, 5>(events, self.b, out_row),
                6 => indexed_row_resident::<S, 6>(events, self.b, out_row),
                7 => indexed_row_resident::<S, 7>(events, self.b, out_row),
                8 => indexed_row_resident::<S, 8>(events, self.b, out_row),
                _ => {
                    for &p in events {
                        let b_row = &self.b[p as usize * self.n..(p as usize + 1) * self.n];
                        row_add_blocks::<S>(out_row, b_row);
                    }
                }
            }
        }
    }
}

/// One CSR output row with the first `BLOCKS` lane blocks held in register
/// accumulators across the whole event walk; the sub-lane tail (and nothing
/// else) still goes through memory per event. Identical per-element add
/// order to [`row_add_blocks`] driven once per event.
#[inline(always)]
fn indexed_row_resident<S: SimdLevel, const BLOCKS: usize>(
    events: &[u32],
    b: &[f32],
    out_row: &mut [f32],
) {
    let w = S::F32_LANES;
    let n = out_row.len();
    let tail = BLOCKS * w;
    let mut acc = [S::f32_zero(); BLOCKS];
    for (blk, a) in acc.iter_mut().enumerate() {
        *a = S::f32_load(&out_row[blk * w..]);
    }
    for &p in events {
        let b_row = &b[p as usize * n..(p as usize + 1) * n];
        for (blk, a) in acc.iter_mut().enumerate() {
            *a = S::f32_add(*a, S::f32_load(&b_row[blk * w..]));
        }
        for j in tail..n {
            out_row[j] += b_row[j];
        }
    }
    for (blk, a) in acc.iter().enumerate() {
        S::f32_store(*a, &mut out_row[blk * w..]);
    }
}

/// Adds the `b` rows listed in `cols` (a CSR row of spike positions) into
/// `out_row`.
fn indexed_row(cols: &[u32], b: &[f32], out_row: &mut [f32], n: usize) {
    for &p in cols {
        let b_row = &b[p as usize * n..(p as usize + 1) * n];
        for (o, &w) in out_row.iter_mut().zip(b_row) {
            *o += w;
        }
    }
}

/// `a (m x k) @ b (k x n)` for a binary right-hand side given only by its
/// CSR index (row `p` lists the columns `j` where `b[p][j] = 1`): the
/// weight gradient `gradᵀ @ cols` of a convolution whose lowering is a
/// spike matrix. Walks the spike events instead of the `k x n` matrix, so it
/// costs `O(nnz * m + k * m)` instead of `O(m * k * n)`.
///
/// For finite `a` the result equals [`matmul`] on the dense `b` bit for
/// bit, under the accumulation contract in the module docs: a product with
/// `b = 1` is the lhs entry itself (fused or not), a product with `b = 0`
/// adds a zero that leaves a sum started at `+0` unchanged, so each cell
/// receives exactly the lhs entries of its events, per `KC` block for a
/// tile-row strip-column cell and in one running chain otherwise.
/// Parallelised over output columns; a column's additions never depend on
/// the split.
///
/// # Panics
///
/// Panics if `a` is not `m x k` or the index is not `k x n`.
pub fn matmul_spike_rhs(a: &[f32], b: &SpikeIndex, m: usize, k: usize, n: usize) -> Vec<f32> {
    assert_eq!(a.len(), m * k, "lhs has the wrong length");
    assert_eq!(b.rows(), k, "spike index row count must be k");
    let mut out = vec![0.0f32; m * n];
    if m == 0 || n == 0 {
        return out;
    }
    assert_eq!(b.cols(), n, "spike index row width must be n");
    let strip_end = n - n % strip_width();
    // Accumulate transposed, one m-vector per output column, so an event
    // adds one contiguous lhs column.
    let mut out_t = vec![0.0f32; n * m];
    match parallel_panel_rows(n, b.nnz() * m, 1) {
        None => spike_rhs_columns(a, b, m, k, 0, strip_end, &mut out_t),
        Some(panel) => out_t
            .par_chunks_mut(panel * m)
            .enumerate()
            .for_each(|(p, cols)| spike_rhs_columns(a, b, m, k, p * panel, strip_end, cols)),
    }
    for (j, column) in out_t.chunks_exact(m).enumerate() {
        for (r, &v) in column.iter().enumerate() {
            out[r * n + j] = v;
        }
    }
    out
}

/// The width of [`matmul`]'s column strips under the active ISA: [`NR`] for
/// the scalar engine, the vector width for every SIMD level.
fn strip_width() -> usize {
    match simd::active() {
        Isa::Scalar => NR,
        isa => isa.f32_lanes(),
    }
}

/// Accumulates output columns `j0..` of [`matmul_spike_rhs`] into
/// `out_t` (`m` values per column). Tile rows of strip columns collect each
/// `KC` block in `block` and add it on at the block's end; every other cell
/// takes its events straight onto `out_t`.
fn spike_rhs_columns(
    a: &[f32],
    b: &SpikeIndex,
    m: usize,
    k: usize,
    j0: usize,
    strip_end: usize,
    out_t: &mut [f32],
) {
    let j1 = j0 + out_t.len() / m;
    let m_tile = m - m % MR;
    let block_cols = strip_end.clamp(j0, j1) - j0;
    let mut block = vec![0.0f32; block_cols * m_tile];
    let mut column = vec![0.0f32; m];
    let mut kb = 0;
    while kb < k {
        let kb_end = (kb + KC).min(k);
        for p in kb..kb_end {
            let events = b.row(p);
            let lo = events.partition_point(|&j| (j as usize) < j0);
            let hi = events.partition_point(|&j| (j as usize) < j1);
            if lo == hi {
                continue;
            }
            for (r, v) in column.iter_mut().enumerate() {
                *v = a[r * k + p];
            }
            for &j in &events[lo..hi] {
                let local = j as usize - j0;
                let cell = &mut out_t[local * m..(local + 1) * m];
                let chained = if local < block_cols {
                    add_into(
                        &mut block[local * m_tile..(local + 1) * m_tile],
                        &column[..m_tile],
                    );
                    m_tile
                } else {
                    0
                };
                add_into(&mut cell[chained..], &column[chained..]);
            }
        }
        if m_tile > 0 {
            for (cell, sums) in out_t
                .chunks_exact_mut(m)
                .zip(block.chunks_exact_mut(m_tile))
            {
                add_into(&mut cell[..m_tile], sums);
                sums.fill(0.0);
            }
        }
        kb = kb_end;
    }
}

/// `acc += values`, element by element.
#[inline(always)]
fn add_into(acc: &mut [f32], values: &[f32]) {
    for (a, &v) in acc.iter_mut().zip(values) {
        *a += v;
    }
}

/// Gather-accumulate update of one output row from the nonzeros of `a_row`.
fn sparse_row(a_row: &[f32], b: &[f32], out_row: &mut [f32], n: usize) {
    for (p, &v) in a_row.iter().enumerate() {
        if v == 0.0 {
            continue;
        }
        let b_row = &b[p * n..(p + 1) * n];
        if v == 1.0 {
            // Spike: pure row addition, no multiply in the inner loop.
            for (o, &w) in out_row.iter_mut().zip(b_row) {
                *o += w;
            }
        } else {
            for (o, &w) in out_row.iter_mut().zip(b_row) {
                *o += v * w;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// im2col
// ---------------------------------------------------------------------------

/// Geometry subset needed by the raw `im2col` kernel (mirrors
/// [`crate::ops::Conv2dDims`] without the tensor-level bookkeeping).
#[derive(Debug, Clone, Copy)]
pub struct Im2colGeom {
    /// Batch size.
    pub batch: usize,
    /// Input channels.
    pub channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Square kernel size.
    pub kernel: usize,
    /// Stride.
    pub stride: usize,
    /// Zero padding.
    pub padding: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Im2colGeom {
    /// Rows of the lowered matrix: `batch * out_h * out_w`.
    pub fn rows(&self) -> usize {
        self.batch * self.out_h * self.out_w
    }

    /// Columns of the lowered matrix: `channels * kernel^2`.
    pub fn cols(&self) -> usize {
        self.channels * self.kernel * self.kernel
    }
}

/// The zero-padded offset table behind the dense lowering
/// ([`im2col_into`]).
///
/// The input is copied once into a `[N, C, Hp, Wp]` buffer
/// (`Hp = H + 2p`, `Wp = W + 2p`) whose border is zero, so no window cell
/// needs a bounds check. Window `(oy, ox)` of a batch starts at
/// `oy * stride * Wp + ox * stride` in that batch's padded planes, and its
/// im2col column `(ch * k + ky) * k + kx` sits `offsets[col] =
/// (ch * Hp + ky) * Wp + kx` further on.
struct PaddedTable {
    /// Padded height `H + 2p`.
    hp: usize,
    /// Padded width `W + 2p`.
    wp: usize,
    /// One batch's padded planes, `C * Hp * Wp`.
    batch_len: usize,
    /// Window-cell offsets in im2col column order.
    offsets: Vec<usize>,
}

impl PaddedTable {
    fn new(geom: &Im2colGeom) -> Self {
        let k = geom.kernel;
        let hp = geom.in_h + 2 * geom.padding;
        let wp = geom.in_w + 2 * geom.padding;
        let mut offsets = Vec::with_capacity(geom.cols());
        for ch in 0..geom.channels {
            for ky in 0..k {
                for kx in 0..k {
                    offsets.push((ch * hp + ky) * wp + kx);
                }
            }
        }
        Self {
            hp,
            wp,
            batch_len: geom.channels * hp * wp,
            offsets,
        }
    }

    /// Offset of window `(oy, 0)` inside its batch's padded planes.
    fn stripe_base(&self, geom: &Im2colGeom, oy: usize) -> usize {
        oy * geom.stride * self.wp
    }

    /// The input in the padded layout; borrowed as-is when there is no
    /// padding (the layouts coincide).
    fn pad<'a>(&self, input: &'a [f32], geom: &Im2colGeom) -> std::borrow::Cow<'a, [f32]> {
        if geom.padding == 0 {
            return std::borrow::Cow::Borrowed(input);
        }
        let (h, w, p) = (geom.in_h, geom.in_w, geom.padding);
        let mut padded = vec![0.0f32; geom.batch * self.batch_len];
        for plane in 0..geom.batch * geom.channels {
            for iy in 0..h {
                let dst = (plane * self.hp + iy + p) * self.wp + p;
                let src = (plane * h + iy) * w;
                padded[dst..dst + w].copy_from_slice(&input[src..src + w]);
            }
        }
        std::borrow::Cow::Owned(padded)
    }
}

/// Checks an `[N, C, H, W]` image buffer and an im2col buffer against
/// `geom`.
fn check_lowering_lens(image: &[f32], lowered: &[f32], geom: &Im2colGeom) {
    assert_eq!(
        image.len(),
        geom.batch * geom.channels * geom.in_h * geom.in_w,
        "image buffer has the wrong length"
    );
    assert_eq!(
        lowered.len(),
        geom.rows() * geom.cols(),
        "im2col buffer has the wrong length"
    );
}

/// Lowers an `[N, C, H, W]` input (flat, row-major) into the im2col matrix:
/// one padded copy of the input, then every row is a gather through the
/// `PaddedTable` offsets. Parallelised over `(batch, out_y)` stripes.
///
/// # Panics
///
/// Panics if the buffer lengths disagree with `geom`.
pub fn im2col_into(input: &[f32], out: &mut [f32], geom: &Im2colGeom) {
    check_lowering_lens(input, out, geom);
    let stripe = geom.out_w * geom.cols();
    if stripe == 0 {
        return;
    }
    let table = PaddedTable::new(geom);
    let padded = table.pad(input, geom);
    match parallel_panel_rows(geom.batch * geom.out_h, out.len(), 1) {
        None => {
            for (stripe_idx, out_stripe) in out.chunks_mut(stripe).enumerate() {
                gather_stripe(&padded, &table, geom, stripe_idx, out_stripe);
            }
        }
        Some(panel) => {
            out.par_chunks_mut(panel * stripe)
                .enumerate()
                .for_each(|(p, out_panel)| {
                    for (j, out_stripe) in out_panel.chunks_mut(stripe).enumerate() {
                        gather_stripe(&padded, &table, geom, p * panel + j, out_stripe);
                    }
                });
        }
    }
}

/// Fills one `(batch, out_y)` stripe (`out_w` rows) of the im2col matrix.
fn gather_stripe(
    padded: &[f32],
    table: &PaddedTable,
    geom: &Im2colGeom,
    stripe_idx: usize,
    out_stripe: &mut [f32],
) {
    let batch = &padded[(stripe_idx / geom.out_h) * table.batch_len..];
    let mut base = table.stripe_base(geom, stripe_idx % geom.out_h);
    for row in out_stripe.chunks_exact_mut(table.offsets.len()) {
        let window = &batch[base..];
        for (cell, &off) in row.iter_mut().zip(&table.offsets) {
            *cell = window[off];
        }
        base += geom.stride;
    }
}

/// Index-driven im2col for a binary spike frame: walks the input's CSR
/// spike index (rows of the `[N, C, H]` pixel grid, width `W`) and writes a
/// `1.0` into every window cell a spike lands in, so it costs
/// `O(nnz * kernel^2 + rows)` instead of the `O(rows * cols)` of a gather.
/// `out` must be zero-filled. Returns the lowered matrix's own CSR index:
/// a counting pass sizes every row, a second pass fills them. Spikes are
/// visited in `(channel, y, x)` order, which for a fixed window is
/// ascending column order, so the index is valid CSR and equals
/// [`SpikeIndex::from_dense`] of the lowered matrix. Parallelised over
/// batches; every batch's CSR part is stitched on in order.
///
/// # Panics
///
/// Panics if the index geometry or the buffer length disagrees with `geom`.
pub fn im2col_spikes_into(index: &SpikeIndex, out: &mut [f32], geom: &Im2colGeom) -> SpikeIndex {
    assert_eq!(
        index.rows(),
        geom.batch * geom.channels * geom.in_h,
        "spike index rows must cover the [N, C, H] pixel grid"
    );
    assert_eq!(
        index.cols(),
        geom.in_w.max(1),
        "spike index width must be W"
    );
    assert_eq!(
        out.len(),
        geom.rows() * geom.cols(),
        "im2col buffer has the wrong length"
    );
    let rows = geom.rows();
    let cols = geom.cols();
    let batch_stride = geom.out_h * geom.out_w * cols;
    if batch_stride == 0 {
        return SpikeIndex::from_parts(rows, cols.max(1), vec![0u32; rows + 1], Vec::new());
    }
    let parts: Vec<(Vec<u32>, Vec<u32>)> = match parallel_panel_rows(geom.batch, out.len(), 1) {
        None => vec![scatter_spike_batches(index, geom, 0, out)],
        Some(panel) => {
            let panels: Vec<(usize, &mut [f32])> =
                out.chunks_mut(panel * batch_stride).enumerate().collect();
            panels
                .into_par_iter()
                .map(|(p, out_panel)| scatter_spike_batches(index, geom, p * panel, out_panel))
                .collect()
        }
    };
    let mut row_ptr = Vec::with_capacity(rows + 1);
    row_ptr.push(0u32);
    let mut col_idx = Vec::new();
    for (row_ends, part) in parts {
        let offset = col_idx.len() as u32;
        row_ptr.extend(row_ends.iter().map(|&end| offset + end));
        if col_idx.is_empty() {
            col_idx = part;
        } else {
            col_idx.extend_from_slice(&part);
        }
    }
    SpikeIndex::from_parts(rows, cols, row_ptr, col_idx)
}

/// Lowers the batches starting at `b0` that `out_panel` covers; returns
/// each row's end offset into the returned column list.
fn scatter_spike_batches(
    index: &SpikeIndex,
    geom: &Im2colGeom,
    b0: usize,
    out_panel: &mut [f32],
) -> (Vec<u32>, Vec<u32>) {
    let cols = geom.cols();
    let panel_rows = out_panel.len() / cols;
    let batches = b0..b0 + panel_rows / (geom.out_h * geom.out_w);
    let mut cursor = vec![0u32; panel_rows];
    for_each_spike_cell(index, geom, batches.clone(), |row, _| cursor[row] += 1);
    let mut start = 0u32;
    for slot in &mut cursor {
        let count = *slot;
        *slot = start;
        start += count;
    }
    let mut col_idx = vec![0u32; start as usize];
    for_each_spike_cell(index, geom, batches, |row, col| {
        col_idx[cursor[row] as usize] = col as u32;
        cursor[row] += 1;
        out_panel[row * cols + col] = 1.0;
    });
    // Every cursor now sits at its row's end.
    (cursor, col_idx)
}

/// Calls `cell(row, col)` for every im2col cell a spike of `batches` lands
/// in, with `row` local to the first batch. A spike at `(ch, iy, ix)` lands
/// in window `(oy, ox)` at `ky = iy + p - oy * s`, `kx = ix + p - ox * s`
/// whenever both lie in `0..k`. Spikes are visited in `(ch, iy, ix)` order;
/// within one window `ky` grows with `iy` and `kx` with `ix`, so each
/// window's calls arrive in ascending column order.
fn for_each_spike_cell(
    index: &SpikeIndex,
    geom: &Im2colGeom,
    batches: std::ops::Range<usize>,
    mut cell: impl FnMut(usize, usize),
) {
    let (c, h, k) = (geom.channels, geom.in_h, geom.kernel);
    let (stride, padding) = (geom.stride, geom.padding);
    // The windows `lo..=hi` along one axis that cover padded position `n`.
    let windows = |n: usize, out_len: usize| {
        let lo = (n + 1).saturating_sub(k).div_ceil(stride);
        let hi = (n / stride).min(out_len - 1);
        (lo, hi)
    };
    let batch_rows = geom.out_h * geom.out_w;
    let mut spans: Vec<(usize, usize, usize)> = Vec::new();
    for (local, b) in batches.enumerate() {
        for ch in 0..c {
            for iy in 0..h {
                let spikes = index.row((b * c + ch) * h + iy);
                if spikes.is_empty() {
                    continue;
                }
                spans.clear();
                spans.extend(spikes.iter().map(|&ix| {
                    let nx = ix as usize + padding;
                    let (lo, hi) = windows(nx, geom.out_w);
                    (nx, lo, hi)
                }));
                let ny = iy + padding;
                let (oy_lo, oy_hi) = windows(ny, geom.out_h);
                for oy in oy_lo..=oy_hi {
                    let row_base = local * batch_rows + oy * geom.out_w;
                    let col_base = (ch * k + ny - oy * stride) * k;
                    for &(nx, ox_lo, ox_hi) in &spans {
                        for ox in ox_lo..=ox_hi {
                            cell(row_base + ox, col_base + nx - ox * stride);
                        }
                    }
                }
            }
        }
    }
}

/// Output positions [`conv_input_grad_into`] lowers per block, rounded
/// down to whole output rows (a block holds at least one row).
const GRAD_BLOCK: usize = 64;

/// Pixels per step of the input-gradient gather: one AVX-512 vector, two
/// AVX2 vectors.
const GATHER_LANES: usize = 16;

/// Input channels whose lowered columns [`conv_input_grad_into`] computes
/// and gathers at a time (four, so a group is a multiple of four columns):
/// the group's block rows stay in the L1 cache between the two.
const GATHER_CHANNELS: usize = 4;

/// The input gradient of a convolution: the adjoint of [`im2col_into`]
/// applied to `grad_rows @ weight`, where `grad_rows` is the
/// `[N * out_h * out_w, O]` row layout of `grad_output` (`[N, O, out_h,
/// out_w]`) and `weight` is `[O, C * k * k]`. `out` (`[N, C, H, W]`) is
/// overwritten.
///
/// Neither matrix exists whole. Each batch's output rows are taken a block
/// at a time (about `GRAD_BLOCK` positions, whole rows), and the block of
/// the lowered product is computed transposed: one lowered column per row,
/// the block's positions in vector lanes, which is how batch `b`'s
/// `grad_output` planes are already laid out. Every cell gets the bits
/// [`matmul`] gives it in the whole product (see the module docs). The
/// block is then gathered into the image a pixel vector at a time: each
/// pixel adds the cells of the windows that cover it, output row `oy`
/// ascending, then `kx` descending (`ox` ascending), on an accumulator
/// held in registers and stored once. That is ascending lowered-row order,
/// the order of a bounds-checked walk of the windows over the whole
/// product, from `+0`. Parallelised over batches (a batch's pixels receive
/// additions only from that batch's rows).
///
/// # Panics
///
/// Panics if the buffer lengths disagree with `geom` and `out_channels`.
pub fn conv_input_grad_into(
    grad_output: &[f32],
    weight: &[f32],
    out_channels: usize,
    out: &mut [f32],
    geom: &Im2colGeom,
) {
    let plane = geom.out_h * geom.out_w;
    assert_eq!(
        grad_output.len(),
        geom.batch * out_channels * plane,
        "output gradient has the wrong length"
    );
    assert_eq!(
        weight.len(),
        out_channels * geom.cols(),
        "weight has the wrong length"
    );
    let image = geom.channels * geom.in_h * geom.in_w;
    assert_eq!(
        out.len(),
        geom.batch * image,
        "image buffer has the wrong length"
    );
    out.fill(0.0);
    let work = geom.rows() * out_channels * geom.cols();
    if work == 0 || image == 0 {
        return;
    }
    let isa = simd::active();
    let cols = geom.cols();
    let strip_width = match isa {
        Isa::Scalar => NR,
        isa => isa.f32_lanes(),
    };
    let rows_per_block = (GRAD_BLOCK / geom.out_w).max(1);
    let lanes = (rows_per_block * geom.out_w).next_multiple_of(2 * GATHER_LANES);
    let front = geom.kernel - 1;
    let grad = InputGrad {
        grad_output,
        weight,
        out_channels,
        geom,
        strip_end: cols - cols % strip_width,
        fused: isa != Isa::Scalar,
        rows_per_block,
        lanes,
        front,
        row_stride: front + lanes + geom.kernel + GATHER_LANES,
    };
    let run = |b: usize, image_out: &mut [f32]| {
        simd::dispatch(GradBatch {
            grad,
            b,
            out: image_out,
        })
    };
    match parallel_panel_rows(geom.batch, work, 1) {
        None => {
            for (b, image_out) in out.chunks_mut(image).enumerate() {
                run(b, image_out);
            }
        }
        Some(panel) => {
            out.par_chunks_mut(panel * image)
                .enumerate()
                .for_each(|(p, panel_out)| {
                    for (j, image_out) in panel_out.chunks_mut(image).enumerate() {
                        run(p * panel + j, image_out);
                    }
                });
        }
    }
}

/// The operands and block layout of one [`conv_input_grad_into`] call.
#[derive(Clone, Copy)]
struct InputGrad<'a> {
    grad_output: &'a [f32],
    weight: &'a [f32],
    out_channels: usize,
    geom: &'a Im2colGeom,
    /// Columns below this are strip columns of the lowered product.
    strip_end: usize,
    /// Whether strip columns fuse their multiply-adds (a vector ISA).
    fused: bool,
    /// Output rows per block.
    rows_per_block: usize,
    /// Lanes computed per block: its positions, rounded up to whole pairs
    /// of vectors.
    lanes: usize,
    /// Offset of position 0 in a block row: room for a gather load shifted
    /// left by up to `k − 1`.
    front: usize,
    /// Length of one block row (one lowered column).
    row_stride: usize,
}

/// Batch `b` of an [`InputGrad`], gathered into its zeroed image `out`.
struct GradBatch<'a> {
    grad: InputGrad<'a>,
    b: usize,
    out: &'a mut [f32],
}

impl SimdOp for GradBatch<'_> {
    type Output = ();

    #[inline(always)]
    fn run<S: SimdLevel>(self) {
        let GradBatch { grad, b, out } = self;
        let geom = grad.geom;
        let (o, cols) = (grad.out_channels, geom.cols());
        let (lanes, front, row_stride) = (grad.lanes, grad.front, grad.row_stride);
        let plane = geom.out_h * geom.out_w;
        let rows = geom.rows();
        // Rows from here on are tail rows of the whole product.
        let tile_end = rows - rows % MR;
        let kk = geom.kernel * geom.kernel;
        // `lhs[ch]` holds the block's positions of output channel `ch`;
        // block row `col − col0` the lowered product's column `col` at
        // them, starting `front` cells in, for the columns of one group of
        // `GATHER_CHANNELS` input channels (a multiple of four columns).
        let mut lhs = vec![0.0f32; o * lanes];
        let mut block = vec![0.0f32; GATHER_CHANNELS * kk * row_stride];
        let mut oy0 = 0;
        while oy0 < geom.out_h {
            let oy1 = (oy0 + grad.rows_per_block).min(geom.out_h);
            let (p0, p1) = (oy0 * geom.out_w, oy1 * geom.out_w);
            let len = p1 - p0;
            for (ch, lhs_row) in lhs.chunks_exact_mut(lanes).enumerate() {
                let src = (b * o + ch) * plane + p0;
                lhs_row[..len].copy_from_slice(&grad.grad_output[src..src + len]);
            }
            // Tail rows exist only at the end of the last batch; their
            // cells are one running chain each, like every tail cell.
            let first_tail = tile_end.saturating_sub(b * plane).clamp(p0, p1);
            for c0 in (0..geom.channels).step_by(GATHER_CHANNELS) {
                let c1 = (c0 + GATHER_CHANNELS).min(geom.channels);
                let group = c0 * kk..c1 * kk;
                grad_strip_columns::<S>(&lhs, &grad, &mut block, group.clone(), len);
                grad_tail_columns(&lhs, &grad, &mut block, group.clone());
                for p in first_tail..p1 {
                    for col in group.clone() {
                        let fused = grad.fused && col < grad.strip_end;
                        let mut cell = 0.0f32;
                        for ch in 0..o {
                            let g = grad.grad_output[(b * o + ch) * plane + p];
                            if g == 0.0 {
                                continue;
                            }
                            let w = grad.weight[ch * cols + col];
                            cell = if fused {
                                g.mul_add(w, cell)
                            } else {
                                cell + g * w
                            };
                        }
                        block[(col - group.start) * row_stride + front + p - p0] = cell;
                    }
                }
                gather_block(&block, out, &grad, c0..c1, oy0..oy1);
            }
            oy0 = oy1;
        }
    }
}

/// The strip columns `0..strip_end` of a transposed lowered block: each
/// cell sums each [`KC`] block of output channels from `+0` in increasing
/// order with the level's multiply-add, and adds the block sums onto the
/// cell — a tile-row strip-column cell of [`matmul`]. Four columns by up to
/// four vectors of positions (two where the level has 16 registers) share
/// each channel's loads.
#[inline(always)]
fn grad_strip_columns<S: SimdLevel>(
    lhs: &[f32],
    grad: &InputGrad<'_>,
    block: &mut [f32],
    group: Range<usize>,
    len: usize,
) {
    let w = S::F32_LANES;
    let lanes = len.next_multiple_of(w);
    let wide = if w >= 16 { 4 } else { 2 };
    let block = &mut block[..(group.end - group.start) * grad.row_stride];
    // Groups start on multiples of four columns, and strip widths are
    // multiples of four, so the strip columns split into fours.
    for j in (group.start..grad.strip_end.min(group.end)).step_by(4) {
        let block = &mut block[(j - group.start) * grad.row_stride..];
        let mut q = 0;
        while q + wide * w <= lanes {
            if wide == 4 {
                grad_strip_tile::<S, 4>(lhs, grad, block, j, q);
            } else {
                grad_strip_tile::<S, 2>(lhs, grad, block, j, q);
            }
            q += wide * w;
        }
        while q < lanes {
            grad_strip_tile::<S, 1>(lhs, grad, block, j, q);
            q += w;
        }
    }
}

/// Columns `j..j + 4` at positions `q..q + V·lanes` of
/// [`grad_strip_columns`], into block rows `0..4`.
#[inline(always)]
fn grad_strip_tile<S: SimdLevel, const V: usize>(
    lhs: &[f32],
    grad: &InputGrad<'_>,
    block: &mut [f32],
    j: usize,
    q: usize,
) {
    let w = S::F32_LANES;
    let (o, cols, lanes) = (grad.out_channels, grad.geom.cols(), grad.lanes);
    let mut kb = 0;
    while kb < o {
        let kb_end = (kb + KC).min(o);
        let mut acc = [[S::f32_zero(); V]; 4];
        let g_rows = lhs[kb * lanes..kb_end * lanes].chunks_exact(lanes);
        let w_rows = grad.weight[kb * cols..kb_end * cols].chunks_exact(cols);
        for (g_row, w_row) in g_rows.zip(w_rows) {
            let g = &g_row[q..q + V * w];
            let gv: [S::F32; V] = std::array::from_fn(|v| S::f32_load(&g[v * w..]));
            for (acc_c, &wv) in acc.iter_mut().zip(&w_row[j..j + 4]) {
                let s = S::f32_splat(wv);
                for (a, &g) in acc_c.iter_mut().zip(&gv) {
                    *a = S::f32_muladd(s, g, *a);
                }
            }
        }
        for (c, acc_c) in acc.iter().enumerate() {
            let dst = &mut block[c * grad.row_stride + grad.front + q..];
            for (v, &a) in acc_c.iter().enumerate() {
                if kb == 0 {
                    // The cell starts at `+0`: `+0 + a`, as an accumulate
                    // onto a zeroed cell gives.
                    S::f32_store(S::f32_add(S::f32_zero(), a), &mut dst[v * w..]);
                } else {
                    S::f32_accum(&mut dst[v * w..], a);
                }
            }
        }
        kb = kb_end;
    }
}

/// The tail columns `strip_end..cols` of a transposed lowered block: each
/// cell is one running chain over the output
/// channels in increasing order, skipping zero gradients, with the product
/// and the sum rounded separately — a tail-column cell of [`matmul`].
#[inline(always)]
fn grad_tail_columns(lhs: &[f32], grad: &InputGrad<'_>, block: &mut [f32], group: Range<usize>) {
    let cols = grad.geom.cols();
    for col in grad.strip_end.max(group.start)..group.end {
        let start = (col - group.start) * grad.row_stride + grad.front;
        let row = &mut block[start..start + grad.lanes];
        for (q, cells) in row.chunks_exact_mut(GATHER_LANES).enumerate() {
            // The chain runs in registers; channels are the outer loop.
            let mut acc = [0.0f32; GATHER_LANES];
            for ch in 0..grad.out_channels {
                let w = grad.weight[ch * cols + col];
                let g = &lhs[ch * grad.lanes + q * GATHER_LANES..][..GATHER_LANES];
                for (a, &g) in acc.iter_mut().zip(g) {
                    let sum = *a + g * w;
                    *a = if g != 0.0 { sum } else { *a };
                }
            }
            cells.copy_from_slice(&acc);
        }
    }
}

/// Adds the cells of a transposed lowered block (output rows `oys` of one
/// batch, the columns of input channels `channels`) into the pixels their
/// windows cover. Pixel `(c, iy, ix)` is covered by window `(oy, ox)` at
/// `ky = iy + p − oy·s`, `kx = ix + p − ox·s`; it takes those cells `oy`
/// ascending, then `kx` descending, which is `ox` ascending, on an
/// accumulator loaded and stored once per block.
#[inline(always)]
fn gather_block(
    block: &[f32],
    out: &mut [f32],
    grad: &InputGrad<'_>,
    channels: Range<usize>,
    oys: Range<usize>,
) {
    let geom = grad.geom;
    let (h, w, k) = (geom.in_h, geom.in_w, geom.kernel);
    let (stride, pad) = (geom.stride, geom.padding);
    // Image rows the block's windows cover (padded rows `ny = iy + p`).
    let ny_end = (oys.end - 1) * stride + k;
    let iy_range = (oys.start * stride).saturating_sub(pad)..ny_end.saturating_sub(pad).min(h);
    for iy in iy_range {
        let ny = iy + pad;
        let gather = Gather {
            block,
            grad,
            col0: channels.start * k * k,
            iy,
            oy0: oys.start,
            oys: oys.start.max((ny + 1).saturating_sub(k).div_ceil(stride))
                ..oys.end.min(ny / stride + 1),
        };
        if stride != 1 {
            for c in channels.clone() {
                gather.strided(c, &mut out[(c * h + iy) * w..(c * h + iy + 1) * w]);
            }
            continue;
        }
        let mut c = channels.start;
        while c < channels.end {
            // Four channels' accumulators at once: four independent add
            // chains instead of one.
            if c + 4 <= channels.end {
                gather.row::<4>(c, out);
                c += 4;
            } else {
                gather.row::<1>(c, out);
                c += 1;
            }
        }
    }
}

/// One image row `iy` of [`gather_block`]: the windows `oys` that reach it.
struct Gather<'a> {
    block: &'a [f32],
    grad: &'a InputGrad<'a>,
    /// Lowered column of block row 0.
    col0: usize,
    iy: usize,
    /// First output row of the block.
    oy0: usize,
    oys: Range<usize>,
}

impl Gather<'_> {
    /// Row `iy` of channels `c..c + NC` at stride 1, in pieces of 16, 8
    /// and 4 pixels, then single pixels.
    #[inline(always)]
    fn row<const NC: usize>(&self, c: usize, out: &mut [f32]) {
        let w = self.grad.geom.in_w;
        let mut x0 = 0;
        while x0 + 16 <= w {
            self.piece::<NC, 16>(c, x0, out);
            x0 += 16;
        }
        if x0 + 8 <= w {
            self.piece::<NC, 8>(c, x0, out);
            x0 += 8;
        }
        if x0 + 4 <= w {
            self.piece::<NC, 4>(c, x0, out);
            x0 += 4;
        }
        while x0 < w {
            self.piece::<NC, 1>(c, x0, out);
            x0 += 1;
        }
    }

    /// Pixels `x0..x0 + L` of row `iy` of channels `c..c + NC`, at stride
    /// one. Lane `l` of step `(oy, kx)` reads window `ox = x0 + p − kx + l`,
    /// one contiguous load per channel; lanes whose window falls off the
    /// row keep their sum.
    #[inline(always)]
    fn piece<const NC: usize, const L: usize>(&self, c: usize, x0: usize, out: &mut [f32]) {
        let geom = self.grad.geom;
        let (h, w, k, pad) = (geom.in_h, geom.in_w, geom.kernel, geom.padding);
        let (front, row_stride) = (self.grad.front, self.grad.row_stride);
        let pixel = |i: usize| ((c + i) * h + self.iy) * w + x0;
        let mut acc = [[0.0f32; L]; NC];
        for (i, acc) in acc.iter_mut().enumerate() {
            acc.copy_from_slice(&out[pixel(i)..pixel(i) + L]);
        }
        for oy in self.oys.clone() {
            let ky = self.iy + pad - oy;
            let row = front + (oy - self.oy0) * geom.out_w;
            for kx in (0..k).rev() {
                // Lanes `lo..hi` have a window in this output row.
                let ox0 = (x0 + pad) as isize - kx as isize;
                let lo = (-ox0).clamp(0, L as isize) as u32;
                let hi = (geom.out_w as isize - ox0).clamp(0, L as isize) as u32;
                // `front >= kx` keeps the start inside the block row.
                let start = row + x0 + pad - kx;
                for (i, acc) in acc.iter_mut().enumerate() {
                    let r = ((c + i) * k + ky) * k + kx - self.col0;
                    let src = &self.block[r * row_stride + start..][..L];
                    for (l, (a, &v)) in acc.iter_mut().zip(src).enumerate() {
                        let sum = *a + v;
                        let l = l as u32;
                        *a = if l >= lo && l < hi { sum } else { *a };
                    }
                }
            }
        }
        for (i, acc) in acc.iter().enumerate() {
            out[pixel(i)..pixel(i) + L].copy_from_slice(acc);
        }
    }

    /// Row `iy` of channel `c` (`pixels`) at any stride, pixel by pixel.
    fn strided(&self, c: usize, pixels: &mut [f32]) {
        let geom = self.grad.geom;
        let (k, stride, pad) = (geom.kernel, geom.stride, geom.padding);
        let row_stride = self.grad.row_stride;
        for (ix, pixel) in pixels.iter_mut().enumerate() {
            let nx = ix + pad;
            for oy in self.oys.clone() {
                let ky = self.iy + pad - oy * stride;
                let row = self.grad.front + (oy - self.oy0) * geom.out_w;
                for kx in (0..k).rev() {
                    if nx < kx || (nx - kx) % stride != 0 || (nx - kx) / stride >= geom.out_w {
                        continue;
                    }
                    let r = (c * k + ky) * k + kx - self.col0;
                    *pixel += self.block[r * row_stride + row + (nx - kx) / stride];
                }
            }
        }
    }
}

/// Spike-aware im2col: assumes `out` is zero-filled and scatters only the
/// nonzero input pixels into their window positions, costing
/// `O(nnz * kernel^2)` instead of `O(rows * cols)`. Produces exactly the
/// matrix [`im2col_into`] builds (distinct pixels land in distinct cells).
///
/// Parallelised over batches when the output is large enough.
///
/// # Panics
///
/// Panics if the buffer lengths disagree with `geom`.
pub fn im2col_sparse_into(input: &[f32], out: &mut [f32], geom: &Im2colGeom) {
    check_lowering_lens(input, out, geom);
    let batch_stride = geom.out_h * geom.out_w * geom.cols();
    if batch_stride == 0 {
        return;
    }
    match parallel_panel_rows(geom.batch, out.len(), 1) {
        None => {
            for (b, out_batch) in out.chunks_mut(batch_stride).enumerate() {
                im2col_scatter_batch(input, out_batch, geom, b);
            }
        }
        Some(panel) => {
            out.par_chunks_mut(panel * batch_stride)
                .enumerate()
                .for_each(|(p, out_panel)| {
                    for (j, out_batch) in out_panel.chunks_mut(batch_stride).enumerate() {
                        im2col_scatter_batch(input, out_batch, geom, p * panel + j);
                    }
                });
        }
    }
}

/// Scatters the nonzero pixels of batch `b` into its slice of the im2col
/// matrix. For pixel `(ch, iy, ix)` and kernel offset `(ky, kx)`, the output
/// position `(oy, ox)` satisfies `iy = oy * stride + ky - padding`, so the
/// pixel lands in row `(oy * out_w + ox)`, column `(ch * k + ky) * k + kx`.
fn im2col_scatter_batch(input: &[f32], out_batch: &mut [f32], geom: &Im2colGeom, b: usize) {
    let (c, h, w, k) = (geom.channels, geom.in_h, geom.in_w, geom.kernel);
    let (stride, padding) = (geom.stride, geom.padding);
    let cols = geom.cols();
    for ch in 0..c {
        for iy in 0..h {
            let in_row = &input[((b * c + ch) * h + iy) * w..((b * c + ch) * h + iy + 1) * w];
            for (ix, &v) in in_row.iter().enumerate() {
                if v == 0.0 {
                    continue;
                }
                for ky in 0..k {
                    let oy_num = iy + padding;
                    if oy_num < ky || (oy_num - ky) % stride != 0 {
                        continue;
                    }
                    let oy = (oy_num - ky) / stride;
                    if oy >= geom.out_h {
                        continue;
                    }
                    for kx in 0..k {
                        let ox_num = ix + padding;
                        if ox_num < kx || (ox_num - kx) % stride != 0 {
                            continue;
                        }
                        let ox = (ox_num - kx) / stride;
                        if ox >= geom.out_w {
                            continue;
                        }
                        let row = oy * geom.out_w + ox;
                        let col = (ch * k + ky) * k + kx;
                        out_batch[row * cols + col] = v;
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn assert_close(a: &[f32], b: &[f32], tol: f32) {
        assert_eq!(a.len(), b.len());
        for (i, (x, y)) in a.iter().zip(b).enumerate() {
            assert!(
                (x - y).abs() <= tol * x.abs().max(y.abs()).max(1.0),
                "mismatch at {i}: {x} vs {y}"
            );
        }
    }

    fn pseudo(i: usize, salt: usize) -> f32 {
        // Deterministic, sign-mixing pattern without an RNG dependency.
        (((i * 2654435761 + salt * 40503) % 2048) as f32 - 1024.0) / 512.0
    }

    #[test]
    fn blocked_matches_naive_on_awkward_shapes() {
        // Shapes straddling every tile boundary: MR, NR and KC tails.
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (4, 8, 8),
            (5, 9, 17),
            (16, 300, 33),
            (37, 64, 40),
        ] {
            let a: Vec<f32> = (0..m * k).map(|i| pseudo(i, 1)).collect();
            let b: Vec<f32> = (0..k * n).map(|i| pseudo(i, 2)).collect();
            let fast = matmul(&a, &b, m, k, n);
            let slow = matmul_naive(&a, &b, m, k, n);
            assert_close(&fast, &slow, 1e-5);
        }
    }

    #[test]
    fn blocked_handles_sparse_spike_rows() {
        let (m, k, n) = (9, 70, 13);
        let a: Vec<f32> = (0..m * k).map(|i| ((i % 3) == 0) as u8 as f32).collect();
        let b: Vec<f32> = (0..k * n).map(|i| pseudo(i, 3)).collect();
        assert_close(
            &matmul(&a, &b, m, k, n),
            &matmul_naive(&a, &b, m, k, n),
            1e-5,
        );
    }

    #[test]
    fn matmul_into_accumulates() {
        let (m, k, n) = (2, 3, 2);
        let a = vec![1.0; m * k];
        let b = vec![1.0; k * n];
        let mut out = vec![10.0; m * n];
        matmul_into(&a, &b, &mut out, m, k, n);
        assert_eq!(out, vec![13.0; m * n]);
    }

    #[test]
    fn empty_dims_are_noops() {
        assert!(matmul(&[], &[], 0, 0, 5).is_empty());
        let out = matmul(&[], &[0.0; 6], 0, 2, 3);
        assert!(out.is_empty());
        let out = matmul(&[0.0; 4], &[], 2, 2, 0);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn dimension_mismatch_panics() {
        let _ = matmul(&[0.0; 5], &[0.0; 6], 2, 3, 2);
    }

    fn spike_matrix(len: usize, density: f32, salt: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                let r = ((i * 2654435761 + salt * 97) % 1000) as f32 / 1000.0;
                (r < density) as u8 as f32
            })
            .collect()
    }

    #[test]
    fn operand_profile_measures_density_and_binariness() {
        let spikes = spike_matrix(1000, 0.1, 1);
        let profile = OperandProfile::measure(&spikes);
        assert!(profile.binary);
        assert!((profile.density - 0.1).abs() < 0.05);
        assert!(profile.is_event_sparse());

        let dense: Vec<f32> = (0..100).map(|i| pseudo(i, 4)).collect();
        let profile = OperandProfile::measure(&dense);
        assert!(!profile.binary);
        assert!(profile.density > 0.9);
        assert!(!profile.is_event_sparse());

        assert_eq!(OperandProfile::measure(&[]), OperandProfile::dense());
    }

    #[test]
    fn sparse_matmul_matches_dense_across_densities() {
        let (m, k, n) = (13, 90, 17);
        let b: Vec<f32> = (0..k * n).map(|i| pseudo(i, 5)).collect();
        for &density in &[0.0f32, 0.05, 0.5, 1.0] {
            let a = spike_matrix(m * k, density, 9);
            let sparse = matmul_sparse(&a, &b, m, k, n);
            let dense = matmul(&a, &b, m, k, n);
            assert_close(&sparse, &dense, 1e-5);
        }
    }

    #[test]
    fn sparse_matmul_handles_nonbinary_values() {
        let (m, k, n) = (5, 40, 7);
        let a: Vec<f32> = (0..m * k)
            .map(|i| if i % 6 == 0 { pseudo(i, 6) } else { 0.0 })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|i| pseudo(i, 7)).collect();
        assert_close(
            &matmul_sparse(&a, &b, m, k, n),
            &matmul_naive(&a, &b, m, k, n),
            1e-5,
        );
    }

    #[test]
    fn dispatch_honours_hints_and_density() {
        let (m, k, n) = (9, 50, 11);
        let sparse_a = spike_matrix(m * k, 0.08, 3);
        let dense_a: Vec<f32> = (0..m * k).map(|i| pseudo(i, 8)).collect();
        let b: Vec<f32> = (0..k * n).map(|i| pseudo(i, 9)).collect();
        for a in [&sparse_a, &dense_a] {
            let reference = matmul(a, &b, m, k, n);
            for hint in [MatmulHint::Auto, MatmulHint::Dense, MatmulHint::Spikes] {
                assert_close(&matmul_dispatch(a, &b, m, k, n, hint), &reference, 1e-5);
            }
        }
    }

    #[test]
    fn indexed_matmul_is_bit_identical_to_sparse_probe_kernel() {
        let (m, k, n) = (13, 90, 17);
        let b: Vec<f32> = (0..k * n).map(|i| pseudo(i, 5)).collect();
        for &density in &[0.0f32, 0.05, 0.2, 0.6] {
            let a = spike_matrix(m * k, density, 11);
            let index = SpikeIndex::from_dense(&a, k).unwrap();
            let via_index = matmul_spikes_indexed(&index, &b, m, k, n);
            let via_probe = matmul_sparse(&a, &b, m, k, n);
            assert_eq!(via_index, via_probe, "density {density}");
        }
    }

    #[test]
    fn indexed_dispatch_matches_probe_dispatch_decisions() {
        let (m, k, n) = (9, 50, 11);
        let b: Vec<f32> = (0..k * n).map(|i| pseudo(i, 9)).collect();
        for &density in &[0.05f32, 0.6] {
            let a = spike_matrix(m * k, density, 3);
            let index = SpikeIndex::from_dense(&a, k).unwrap();
            for hint in [MatmulHint::Auto, MatmulHint::Dense, MatmulHint::Spikes] {
                let with_index = matmul_dispatch_indexed(&a, Some(&index), &b, m, k, n, hint);
                let without = matmul_dispatch(&a, &b, m, k, n, hint);
                assert_eq!(with_index, without, "density {density}, hint {hint:?}");
            }
        }
    }

    #[test]
    fn indexed_im2col_matches_dense_lowering_and_emits_valid_index() {
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let (batch, channels, in_h, in_w, kernel) = (2, 3, 6, 5, 3);
            let out_h = (in_h + 2 * padding - kernel) / stride + 1;
            let out_w = (in_w + 2 * padding - kernel) / stride + 1;
            let geom = Im2colGeom {
                batch,
                channels,
                in_h,
                in_w,
                kernel,
                stride,
                padding,
                out_h,
                out_w,
            };
            let input = spike_matrix(batch * channels * in_h * in_w, 0.25, 17);
            let index = SpikeIndex::from_dense(&input, in_w).unwrap();
            let mut dense_out = vec![0.0f32; geom.rows() * geom.cols()];
            im2col_into(&input, &mut dense_out, &geom);
            let mut indexed_out = vec![0.0f32; geom.rows() * geom.cols()];
            let out_index = im2col_spikes_into(&index, &mut indexed_out, &geom);
            assert_eq!(dense_out, indexed_out, "stride {stride} padding {padding}");
            assert!(
                out_index.matches_dense(&indexed_out),
                "stride {stride} padding {padding}: output index diverges"
            );
        }
    }

    #[test]
    fn sparse_im2col_matches_dense_lowering() {
        for &(stride, padding) in &[(1usize, 0usize), (1, 1), (2, 1)] {
            let (batch, channels, in_h, in_w, kernel) = (2, 3, 6, 5, 3);
            let out_h = (in_h + 2 * padding - kernel) / stride + 1;
            let out_w = (in_w + 2 * padding - kernel) / stride + 1;
            let geom = Im2colGeom {
                batch,
                channels,
                in_h,
                in_w,
                kernel,
                stride,
                padding,
                out_h,
                out_w,
            };
            let input = spike_matrix(batch * channels * in_h * in_w, 0.2, 13);
            let mut dense_out = vec![0.0f32; geom.rows() * geom.cols()];
            im2col_into(&input, &mut dense_out, &geom);
            let mut sparse_out = vec![0.0f32; geom.rows() * geom.cols()];
            im2col_sparse_into(&input, &mut sparse_out, &geom);
            assert_eq!(
                dense_out, sparse_out,
                "stride {stride} padding {padding} mismatch"
            );
        }
    }
}
