//! Property-based tests for the tensor substrate.

use falvolt_tensor::{kernels, ops, reduce, simd, SpikeIndex, Tensor};
use proptest::prelude::*;

fn small_matrix() -> impl Strategy<Value = (usize, usize, Vec<f32>)> {
    (1usize..6, 1usize..6).prop_flat_map(|(r, c)| {
        proptest::collection::vec(-10.0f32..10.0, r * c).prop_map(move |v| (r, c, v))
    })
}

proptest! {
    #[test]
    fn addition_is_commutative((r, c, data) in small_matrix(), scale in -3.0f32..3.0) {
        let a = Tensor::from_vec(vec![r, c], data.clone()).unwrap();
        let b = a.mul_scalar(scale);
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert_eq!(ab, ba);
    }

    #[test]
    fn transpose_is_involutive((r, c, data) in small_matrix()) {
        let a = Tensor::from_vec(vec![r, c], data).unwrap();
        let t = ops::transpose2d(&a).unwrap();
        let tt = ops::transpose2d(&t).unwrap();
        prop_assert_eq!(a, tt);
    }

    #[test]
    fn matmul_identity_is_noop((r, c, data) in small_matrix()) {
        let a = Tensor::from_vec(vec![r, c], data).unwrap();
        let identity = Tensor::from_fn(&[c, c], |i| if i / c == i % c { 1.0 } else { 0.0 });
        let prod = ops::matmul(&a, &identity).unwrap();
        for (x, y) in a.data().iter().zip(prod.data()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    #[test]
    fn matmul_distributes_over_addition(
        (r, k, a_data) in small_matrix(),
        scale in -2.0f32..2.0,
        cols in 1usize..5,
    ) {
        let a = Tensor::from_vec(vec![r, k], a_data).unwrap();
        let b = Tensor::from_fn(&[k, cols], |i| ((i * 7 % 13) as f32 - 6.0) * 0.3);
        let c = b.mul_scalar(scale);
        let left = ops::matmul(&a, &b.add(&c).unwrap()).unwrap();
        let right = ops::matmul(&a, &b).unwrap().add(&ops::matmul(&a, &c).unwrap()).unwrap();
        for (x, y) in left.data().iter().zip(right.data()) {
            prop_assert!((x - y).abs() < 1e-2, "{} vs {}", x, y);
        }
    }

    #[test]
    fn sum_matches_axis0_sum((r, c, data) in small_matrix()) {
        let a = Tensor::from_vec(vec![r, c], data).unwrap();
        let total = reduce::sum(&a);
        let by_axis = reduce::sum(&reduce::sum_axis0(&a).unwrap());
        prop_assert!((total - by_axis).abs() < 1e-3);
    }

    #[test]
    fn reshape_preserves_sum((r, c, data) in small_matrix()) {
        let a = Tensor::from_vec(vec![r, c], data).unwrap();
        let b = a.reshape(&[c * r]).unwrap();
        prop_assert!((reduce::sum(&a) - reduce::sum(&b)).abs() < 1e-5);
    }

    #[test]
    fn one_hot_rows_sum_to_one(labels in proptest::collection::vec(0usize..10, 1..20)) {
        let t = reduce::one_hot(&labels, 10).unwrap();
        for i in 0..labels.len() {
            let row = t.slice_axis0(i, i + 1).unwrap();
            prop_assert!((reduce::sum(&row) - 1.0).abs() < 1e-6);
        }
        prop_assert_eq!(reduce::argmax_rows(&t).unwrap(), labels);
    }

    #[test]
    fn avg_pool_preserves_mean(n in 1usize..3, c in 1usize..3) {
        let t = Tensor::from_fn(&[n, c, 4, 4], |i| (i % 17) as f32 * 0.25);
        let pooled = ops::avg_pool2d_forward(&t, 2).unwrap();
        prop_assert!((reduce::mean(&t) - reduce::mean(&pooled)).abs() < 1e-4);
    }

    #[test]
    fn blocked_parallel_matmul_matches_naive_reference(
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        // Shapes deliberately straddle the MR/NR/KC tile boundaries; data is
        // dense and sign-mixed so cancellation errors would surface.
        let salt = seed.wrapping_mul(0x9E37_79B9);
        let a: Vec<f32> = (0..m * k)
            .map(|i| ((i as u64).wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f32 / 250.0 - 2.0)
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i as u64).wrapping_mul(2246822519).wrapping_add(salt) % 1000) as f32 / 250.0 - 2.0)
            .collect();
        let fast = kernels::matmul(&a, &b, m, k, n);
        let slow = kernels::matmul_naive(&a, &b, m, k, n);
        for (i, (x, y)) in fast.iter().zip(&slow).enumerate() {
            let scale = x.abs().max(y.abs()).max(1.0);
            prop_assert!(
                (x - y).abs() <= 1e-5 * scale,
                "element {}: blocked {} vs naive {}", i, x, y
            );
        }
    }

    #[test]
    fn ops_matmul_routes_through_the_same_kernel(
        m in 1usize..12,
        k in 1usize..12,
        n in 1usize..12,
    ) {
        let a = Tensor::from_fn(&[m, k], |i| ((i * 7 % 23) as f32 - 11.0) * 0.125);
        let b = Tensor::from_fn(&[k, n], |i| ((i * 5 % 19) as f32 - 9.0) * 0.25);
        let via_ops = ops::matmul(&a, &b).unwrap();
        let via_kernel = kernels::matmul(a.data(), b.data(), m, k, n);
        prop_assert_eq!(via_ops.data(), &via_kernel[..]);
    }

    #[test]
    fn sparse_spike_matmul_matches_dense_blocked_at_all_densities(
        m in 1usize..24,
        k in 1usize..80,
        n in 1usize..24,
        seed in 0u64..1000,
        density_idx in 0usize..4,
    ) {
        // The event-driven gather-accumulate kernel must agree with the
        // dense blocked kernel within 1e-5 at the paper-relevant spike
        // densities: fully silent, sparse, half-on and fully dense.
        let density = [0.0f32, 0.05, 0.5, 1.0][density_idx];
        let salt = seed.wrapping_mul(0x9E37_79B9);
        let a: Vec<f32> = (0..m * k)
            .map(|i| {
                let r = ((i as u64).wrapping_mul(2654435761).wrapping_add(salt) % 1000) as f32
                    / 1000.0;
                (r < density) as u8 as f32
            })
            .collect();
        let b: Vec<f32> = (0..k * n)
            .map(|i| ((i as u64).wrapping_mul(2246822519).wrapping_add(salt) % 1000) as f32 / 250.0 - 2.0)
            .collect();
        let sparse = kernels::matmul_sparse(&a, &b, m, k, n);
        let dense = kernels::matmul(&a, &b, m, k, n);
        for (i, (x, y)) in sparse.iter().zip(&dense).enumerate() {
            let scale = x.abs().max(y.abs()).max(1.0);
            prop_assert!(
                (x - y).abs() <= 1e-5 * scale,
                "density {}, element {}: sparse {} vs dense {}", density, i, x, y
            );
        }
        // The dispatcher must agree with the same tolerance whatever the
        // caller claims about the operand.
        for hint in [
            kernels::MatmulHint::Auto,
            kernels::MatmulHint::Dense,
            kernels::MatmulHint::Spikes,
        ] {
            let dispatched = kernels::matmul_dispatch(&a, &b, m, k, n, hint);
            for (x, y) in dispatched.iter().zip(&dense) {
                let scale = x.abs().max(y.abs()).max(1.0);
                prop_assert!((x - y).abs() <= 1e-5 * scale);
            }
        }
    }

    #[test]
    fn sparse_im2col_scatter_matches_dense_copy(
        batch in 1usize..3,
        channels in 1usize..4,
        size in 3usize..8,
        kernel in 1usize..4,
        stride in 1usize..3,
        padding in 0usize..2,
        seed in 0u64..500,
    ) {
        // kernel <= 3 and size >= 3, so the kernel always fits the input.
        let dims = ops::Conv2dDims::new(batch, channels, 1, size, size, kernel, stride, padding)
            .unwrap();
        let salt = seed.wrapping_mul(0x517C_C1B7);
        let input = Tensor::from_fn(&[batch, channels, size, size], |i| {
            let r = ((i as u64).wrapping_mul(2654435761).wrapping_add(salt) % 100) as f32 / 100.0;
            (r < 0.15) as u8 as f32
        });
        let dense = ops::im2col(&input, &dims).unwrap();
        let profile = kernels::OperandProfile::measure(input.data());
        let sparse = ops::im2col_with_profile(&input, &dims, profile).unwrap();
        prop_assert_eq!(dense.data(), sparse.data());
    }
}

// ---------------------------------------------------------------------------
// SIMD dispatch properties: every lifted kernel agrees with the forced-scalar
// engine at every ISA the CPU supports, including odd tail lengths (sizes
// deliberately straddle the widest lane count). The dispatch override is
// process-global, so each test holds the shared lock for its whole body.
// ---------------------------------------------------------------------------

fn hashed(i: usize, salt: u64, amp: f32) -> f32 {
    let r = ((i as u64).wrapping_mul(2_654_435_761).wrapping_add(salt) % 2000) as f32;
    (r / 1000.0 - 1.0) * amp
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dense_matmul_matches_scalar_on_every_isa(
        m in 1usize..7,
        k in 1usize..24,
        n in 1usize..40,
        seed in 0u64..500,
    ) {
        let _lock = simd::test_override_lock();
        let a: Vec<f32> = (0..m * k).map(|i| hashed(i, seed, 2.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|i| hashed(i, seed ^ 0xABCD, 1.5)).collect();
        let scalar = {
            let _g = simd::force(Some(simd::Isa::Scalar));
            kernels::matmul(&a, &b, m, k, n)
        };
        for isa in simd::available() {
            let _g = simd::force(Some(isa));
            let vectored = kernels::matmul(&a, &b, m, k, n);
            for (x, y) in vectored.iter().zip(&scalar) {
                let scale = x.abs().max(y.abs()).max(1.0);
                prop_assert!(
                    (x - y).abs() <= 1e-5 * scale,
                    "isa {} diverged: {} vs {}", isa, x, y
                );
            }
        }
    }

    #[test]
    fn spike_row_adds_are_bit_identical_on_every_isa(
        m in 1usize..7,
        k in 1usize..24,
        n in 1usize..40,
        density_pct in 0usize..70,
        seed in 0u64..500,
    ) {
        // The row-add kernels use unfused lane mul/add, so sparse and
        // indexed products must match the scalar engine *exactly* on every
        // ISA — not just within tolerance.
        let _lock = simd::test_override_lock();
        let a: Vec<f32> = (0..m * k)
            .map(|i| {
                let r = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(seed) % 100;
                f32::from(u8::from((r as usize) < density_pct))
            })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|i| hashed(i, seed ^ 0x5EED, 1.0)).collect();
        let index = SpikeIndex::from_dense(&a, k).unwrap();
        let (scalar_sparse, scalar_indexed) = {
            let _g = simd::force(Some(simd::Isa::Scalar));
            (
                kernels::matmul_sparse(&a, &b, m, k, n),
                kernels::matmul_spikes_indexed(&index, &b, m, k, n),
            )
        };
        prop_assert_eq!(&scalar_sparse, &scalar_indexed);
        for isa in simd::available() {
            let _g = simd::force(Some(isa));
            let sparse = kernels::matmul_sparse(&a, &b, m, k, n);
            let indexed = kernels::matmul_spikes_indexed(&index, &b, m, k, n);
            prop_assert_eq!(&sparse, &scalar_sparse, "sparse isa {}", isa);
            prop_assert_eq!(&indexed, &scalar_indexed, "indexed isa {}", isa);
        }
    }

    #[test]
    fn mixed_value_sparse_rows_stay_bit_identical_on_every_isa(
        m in 1usize..5,
        k in 1usize..16,
        n in 1usize..40,
        seed in 0u64..500,
    ) {
        // Non-binary nonzeros take the value-scaled row-add (axpy) lanes;
        // those are unfused too, so exact equality must still hold.
        let _lock = simd::test_override_lock();
        let a: Vec<f32> = (0..m * k)
            .map(|i| {
                let r = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(seed) % 100;
                if r < 30 { hashed(i, seed, 1.0) } else { 0.0 }
            })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|i| hashed(i, seed ^ 0x77, 1.0)).collect();
        let scalar = {
            let _g = simd::force(Some(simd::Isa::Scalar));
            kernels::matmul_sparse(&a, &b, m, k, n)
        };
        for isa in simd::available() {
            let _g = simd::force(Some(isa));
            prop_assert_eq!(
                &kernels::matmul_sparse(&a, &b, m, k, n),
                &scalar,
                "isa {}",
                isa
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Padded-table lowering against the bounds-checked kernels it replaced. The
// reference bodies below are the previous per-element kernels kept verbatim
// (their parallel splits reduced to serial loops, which never changed a
// bit), so the lowering, its CSR index and the conv backward (streamed input
// gradient, spike-indexed weight gradient) are checked bit for bit against
// an independent implementation that builds every matrix whole.
// ---------------------------------------------------------------------------

mod reference {
    use falvolt_tensor::kernels::Im2colGeom;
    use falvolt_tensor::ops::Conv2dDims;
    use falvolt_tensor::{kernels, ops, simd, SpikeIndex, Tensor};

    /// Bounds-checked dense im2col: one `(batch, out_y)` stripe per call.
    pub fn im2col(input: &[f32], geom: &Im2colGeom) -> Vec<f32> {
        let mut out = vec![0.0f32; geom.rows() * geom.cols()];
        let stripe = geom.out_w * geom.cols();
        if stripe == 0 {
            return out;
        }
        for (stripe_idx, out_stripe) in out.chunks_mut(stripe).enumerate() {
            im2col_stripe(input, out_stripe, geom, stripe_idx);
        }
        out
    }

    fn im2col_stripe(input: &[f32], out_stripe: &mut [f32], geom: &Im2colGeom, stripe_idx: usize) {
        let (c, h, w, k) = (geom.channels, geom.in_h, geom.in_w, geom.kernel);
        let b = stripe_idx / geom.out_h;
        let oy = stripe_idx % geom.out_h;
        let cols = geom.cols();
        for ox in 0..geom.out_w {
            let row = &mut out_stripe[ox * cols..(ox + 1) * cols];
            for ch in 0..c {
                for ky in 0..k {
                    let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                    for kx in 0..k {
                        let ix = (ox * geom.stride + kx) as isize - geom.padding as isize;
                        let col = (ch * k + ky) * k + kx;
                        row[col] = if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                            input[((b * c + ch) * h + iy as usize) * w + ix as usize]
                        } else {
                            0.0
                        };
                    }
                }
            }
        }
    }

    /// Index-transform im2col: walks the input's CSR spike index with one
    /// binary search per output row × channel × ky.
    pub fn im2col_indexed(index: &SpikeIndex, geom: &Im2colGeom) -> (Vec<f32>, SpikeIndex) {
        let rows = geom.rows();
        let cols = geom.cols();
        let mut out = vec![0.0f32; rows * cols];
        let batch_rows = geom.out_h * geom.out_w;
        let batch_stride = batch_rows * cols;
        if batch_stride == 0 {
            let row_ptr = vec![0u32; rows + 1];
            return (
                out,
                SpikeIndex::from_parts(rows, cols.max(1), row_ptr, Vec::new()),
            );
        }
        let parts: Vec<(Vec<u32>, Vec<u32>)> = (0..geom.batch)
            .map(|b| im2col_index_batch(index, geom, b))
            .collect();
        let mut row_ptr = Vec::with_capacity(rows + 1);
        row_ptr.push(0u32);
        let mut col_idx = Vec::new();
        for (b, (rp, ci)) in parts.into_iter().enumerate() {
            let out_batch = &mut out[b * batch_stride..(b + 1) * batch_stride];
            for local_row in 0..batch_rows {
                let row = &ci[rp[local_row] as usize..rp[local_row + 1] as usize];
                for &col in row {
                    out_batch[local_row * cols + col as usize] = 1.0;
                }
            }
            let base = col_idx.len() as u32;
            for &offset in &rp[1..] {
                row_ptr.push(base + offset);
            }
            col_idx.extend_from_slice(&ci);
        }
        (out, SpikeIndex::from_parts(rows, cols, row_ptr, col_idx))
    }

    fn im2col_index_batch(index: &SpikeIndex, geom: &Im2colGeom, b: usize) -> (Vec<u32>, Vec<u32>) {
        let (c, h, w, k) = (geom.channels, geom.in_h, geom.in_w, geom.kernel);
        let mut row_ptr = Vec::with_capacity(geom.out_h * geom.out_w + 1);
        let mut col_idx: Vec<u32> = Vec::new();
        row_ptr.push(0u32);
        for oy in 0..geom.out_h {
            for ox in 0..geom.out_w {
                let x0 = (ox * geom.stride) as isize - geom.padding as isize;
                let lo = x0.max(0) as u32;
                let hi = (x0 + k as isize).min(w as isize);
                for ch in 0..c {
                    for ky in 0..k {
                        let iy = (oy * geom.stride + ky) as isize - geom.padding as isize;
                        if iy < 0 || iy as usize >= h || hi <= lo as isize {
                            continue;
                        }
                        let src = index.row((b * c + ch) * h + iy as usize);
                        let start = src.partition_point(|&ix| ix < lo);
                        for &ix in &src[start..] {
                            if (ix as isize) >= hi {
                                break;
                            }
                            let kx = (ix as isize - x0) as usize;
                            col_idx.push(((ch * k + ky) * k + kx) as u32);
                        }
                    }
                }
                row_ptr.push(col_idx.len() as u32);
            }
        }
        (row_ptr, col_idx)
    }

    /// Bounds-checked col2im: walks every window cell in (row, column)
    /// order and adds the in-bounds ones.
    pub fn col2im(data: &[f32], dims: &Conv2dDims) -> Vec<f32> {
        let (n, c, h, w) = (dims.batch, dims.in_channels, dims.in_h, dims.in_w);
        let k = dims.kernel;
        let mut out = vec![0.0f32; n * c * h * w];
        let ncols = dims.col_cols();
        for b in 0..n {
            for oy in 0..dims.out_h {
                for ox in 0..dims.out_w {
                    let row = (b * dims.out_h + oy) * dims.out_w + ox;
                    let base = row * ncols;
                    for ch in 0..c {
                        for ky in 0..k {
                            let iy = (oy * dims.stride + ky) as isize - dims.padding as isize;
                            for kx in 0..k {
                                let ix = (ox * dims.stride + kx) as isize - dims.padding as isize;
                                if iy >= 0 && ix >= 0 && (iy as usize) < h && (ix as usize) < w {
                                    let col = (ch * k + ky) * k + kx;
                                    out[((b * c + ch) * h + iy as usize) * w + ix as usize] +=
                                        data[base + col];
                                }
                            }
                        }
                    }
                }
            }
        }
        out
    }

    /// Conv backward through `feature_map_to_rows` + `transpose2d`, with
    /// the reference col2im: `(grad_input, grad_weight, grad_bias)`.
    pub fn conv2d_backward(
        grad_output: &Tensor,
        cols: &Tensor,
        weight: &Tensor,
        dims: &Conv2dDims,
    ) -> (Vec<f32>, Vec<f32>, Vec<f32>) {
        let grad_rows = ops::feature_map_to_rows(grad_output, dims).unwrap(); // [R, O]
        let grad_rows_t = ops::transpose2d(&grad_rows).unwrap(); // [O, R]
        let grad_weight = ops::matmul(&grad_rows_t, cols).unwrap(); // [O, C*k*k]
        let grad_cols = ops::matmul(&grad_rows, weight).unwrap(); // [R, C*k*k]
        let grad_input = col2im(grad_cols.data(), dims);
        let o = dims.out_channels;
        let mut grad_bias = vec![0.0f32; o];
        let rows = grad_rows.data();
        for r in 0..dims.col_rows() {
            for ch in 0..o {
                grad_bias[ch] += rows[r * o + ch];
            }
        }
        (grad_input, grad_weight.data().to_vec(), grad_bias)
    }

    /// `a (m x k) @ b (k x n)` written cell by cell from the accumulation
    /// contract in the `kernels` module docs, for the ISA `isa`: tile-row
    /// strip-column cells sum each KC block from +0 and add the block sums
    /// on; every other cell is one running chain that skips zero lhs
    /// entries. Strip columns fuse under a vector ISA.
    pub fn contract_matmul(
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        isa: simd::Isa,
    ) -> Vec<f32> {
        let scalar = isa == simd::Isa::Scalar;
        let width = if scalar { kernels::NR } else { isa.f32_lanes() };
        let (m_tile, strip_end) = (m - m % kernels::MR, n - n % width);
        let step = |acc: f32, x: f32, y: f32, fused: bool| {
            if fused {
                x.mul_add(y, acc)
            } else {
                acc + x * y
            }
        };
        let mut out = vec![0.0f32; m * n];
        for r in 0..m {
            for j in 0..n {
                let fused = !scalar && j < strip_end;
                let cell = &mut out[r * n + j];
                if r < m_tile && j < strip_end {
                    for kb in (0..k).step_by(kernels::KC) {
                        let mut acc = 0.0f32;
                        for p in kb..(kb + kernels::KC).min(k) {
                            acc = step(acc, a[r * k + p], b[p * n + j], fused);
                        }
                        *cell += acc;
                    }
                } else {
                    for p in 0..k {
                        if a[r * k + p] != 0.0 {
                            *cell = step(*cell, a[r * k + p], b[p * n + j], fused);
                        }
                    }
                }
            }
        }
        out
    }
}

fn bits(values: &[f32]) -> Vec<u32> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// A conv geometry from raw draws: stride 1–3, kernel 1–5, padding
/// `0..=kernel`, and an input that fits the padded kernel (possibly smaller
/// than the kernel itself when padded).
fn conv_dims(
    batch: usize,
    channels: usize,
    out_channels: usize,
    extra: (usize, usize),
    kernel: usize,
    stride: usize,
    pad_draw: usize,
) -> ops::Conv2dDims {
    let padding = pad_draw % (kernel + 1);
    let min_side = kernel.saturating_sub(2 * padding).max(1);
    ops::Conv2dDims::new(
        batch,
        channels,
        out_channels,
        min_side + extra.0,
        min_side + extra.1,
        kernel,
        stride,
        padding,
    )
    .unwrap()
}

fn spike_frame(shape: &[usize], density_pct: u64, seed: u64) -> Tensor {
    Tensor::from_fn(shape, |i| {
        let r = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(seed) % 100;
        f32::from(u8::from(r < density_pct))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn padded_lowering_matches_bounds_checked_reference(
        batch in 1usize..3,
        channels in 1usize..4,
        extra_h in 0usize..7,
        extra_w in 0usize..90,
        kernel in 1usize..6,
        stride in 1usize..4,
        pad_draw in 0usize..6,
        seed in 0u64..1000,
    ) {
        let dims = conv_dims(batch, channels, 1, (extra_h, extra_w), kernel, stride, pad_draw);
        let geom = dims.geom();
        let shape = [batch, channels, dims.in_h, dims.in_w];
        // Dense, sign-mixed input (including -0.0 and exact zeros).
        let input = Tensor::from_fn(&shape, |i| match i % 11 {
            0 => 0.0,
            1 => -0.0,
            _ => hashed(i, seed, 3.0),
        });
        let expected = reference::im2col(input.data(), &geom);
        let lowered = ops::im2col(&input, &dims).unwrap();
        prop_assert_eq!(bits(lowered.data()), bits(&expected));
    }

    #[test]
    fn indexed_lowering_matches_reference_bytes_and_csr(
        batch in 1usize..3,
        channels in 1usize..4,
        extra_h in 0usize..7,
        extra_w in 0usize..90,
        kernel in 1usize..6,
        stride in 1usize..4,
        pad_draw in 0usize..6,
        density_pct in 0u64..60,
        seed in 0u64..1000,
    ) {
        let dims = conv_dims(batch, channels, 1, (extra_h, extra_w), kernel, stride, pad_draw);
        let geom = dims.geom();
        let frame = spike_frame(&[batch, channels, dims.in_h, dims.in_w], density_pct, seed);
        let index = SpikeIndex::from_dense(frame.data(), dims.in_w).unwrap();
        let (expected, expected_index) = reference::im2col_indexed(&index, &geom);

        let mut lowered = vec![0.0f32; geom.rows() * geom.cols()];
        let lowered_index = kernels::im2col_spikes_into(&index, &mut lowered, &geom);
        prop_assert_eq!(bits(&lowered), bits(&expected));
        prop_assert_eq!(&lowered_index, &expected_index);
        prop_assert_eq!(
            &lowered_index,
            &SpikeIndex::from_dense(&lowered, geom.cols()).unwrap()
        );

        // Through the tensor API: an indexed input takes the same path and
        // the lowered tensor carries the index.
        let indexed_frame = frame.clone().with_spike_index(std::sync::Arc::new(index));
        let profile = kernels::OperandProfile::measure(frame.data());
        let cols = ops::im2col_with_profile(&indexed_frame, &dims, profile).unwrap();
        prop_assert_eq!(bits(cols.data()), bits(&expected));
        prop_assert_eq!(cols.spike_index().map(|ix| ix.as_ref()), Some(&expected_index));
    }

    #[test]
    fn conv_backward_matches_reference_bits(
        batch in 1usize..3,
        channels in 1usize..4,
        out_channels in 1usize..5,
        extra_h in 0usize..6,
        extra_w in 0usize..70,
        kernel in 1usize..6,
        stride in 1usize..4,
        pad_draw in 0usize..6,
        seed in 0u64..1000,
    ) {
        // The dense products must run on one ISA throughout: hold the
        // dispatch-override lock so no other test forces a level mid-case.
        let _lock = simd::test_override_lock();
        let dims = conv_dims(
            batch, channels, out_channels, (extra_h, extra_w), kernel, stride, pad_draw,
        );
        let input = Tensor::from_fn(&[batch, channels, dims.in_h, dims.in_w], |i| {
            hashed(i, seed, 1.0)
        });
        let cols = ops::im2col(&input, &dims).unwrap();
        let weight = Tensor::from_fn(&[out_channels, dims.col_cols()], |i| {
            hashed(i, seed ^ 0xC0DE, 0.5)
        });
        let grad_output = Tensor::from_fn(
            &[batch, out_channels, dims.out_h, dims.out_w],
            |i| hashed(i, seed ^ 0xBEEF, 2.0) * [1.0, 1e-3, 1e3][i % 3],
        );
        let (grad_input, grad_weight, grad_bias) =
            reference::conv2d_backward(&grad_output, &cols, &weight, &dims);
        let grads = ops::conv2d_backward(&grad_output, &cols, &weight, &dims).unwrap();
        prop_assert_eq!(bits(grads.grad_input.data()), bits(&grad_input));
        prop_assert_eq!(bits(grads.grad_weight.data()), bits(&grad_weight));
        prop_assert_eq!(bits(grads.grad_bias.data()), bits(&grad_bias));
        let (param_weight, param_bias) = ops::conv2d_param_grads(&grad_output, &cols, &dims).unwrap();
        prop_assert_eq!(bits(param_weight.data()), bits(&grad_weight));
        prop_assert_eq!(bits(param_bias.data()), bits(&grad_bias));
    }

    #[test]
    fn spike_lowered_conv_backward_matches_reference_bits(
        batch_draw in 0usize..3,
        channels in 1usize..4,
        out_channels in 1usize..10,
        extra_h in 0usize..6,
        extra_w in 0usize..40,
        kernel in 1usize..6,
        stride in 1usize..4,
        pad_draw in 0usize..6,
        density_pct in 0u64..60,
        seed in 0u64..1000,
    ) {
        // A spike frame's lowering kept only as its CSR index: the weight
        // gradient walks its events and must still equal the dense product
        // on every ISA, with enough rows (R > KC) for several k-blocks.
        let _lock = simd::test_override_lock();
        let one = conv_dims(1, channels, out_channels, (extra_h, extra_w), kernel, stride, pad_draw);
        let batch = batch_draw + kernels::KC / (one.out_h * one.out_w) + 1;
        let dims = conv_dims(
            batch, channels, out_channels, (extra_h, extra_w), kernel, stride, pad_draw,
        );
        prop_assert!(dims.col_rows() > kernels::KC);
        let frame = spike_frame(&[batch, channels, dims.in_h, dims.in_w], density_pct, seed);
        let index = SpikeIndex::from_dense(frame.data(), dims.in_w).unwrap();
        let frame = frame.with_spike_index(std::sync::Arc::new(index));
        let profile = kernels::OperandProfile::measure(frame.data());
        let cols = ops::im2col_with_profile(&frame, &dims, profile).unwrap();
        let lowered = std::sync::Arc::clone(cols.spike_index().unwrap());
        let weight = Tensor::from_fn(&[out_channels, dims.col_cols()], |i| {
            hashed(i, seed ^ 0xC0DE, 0.5)
        });
        let grad_output = Tensor::from_fn(
            &[batch, out_channels, dims.out_h, dims.out_w],
            |i| hashed(i, seed ^ 0xBEEF, 2.0) * [1.0, 1e-3, 1e3][i % 3],
        );
        for isa in simd::available() {
            let _g = simd::force(Some(isa));
            let (grad_input, grad_weight, grad_bias) =
                reference::conv2d_backward(&grad_output, &cols, &weight, &dims);
            let grads =
                ops::conv2d_backward(&grad_output, ops::Lowering::Spikes(&lowered), &weight, &dims).unwrap();
            prop_assert_eq!(bits(grads.grad_input.data()), bits(&grad_input), "isa {}", isa);
            prop_assert_eq!(bits(grads.grad_weight.data()), bits(&grad_weight), "isa {}", isa);
            prop_assert_eq!(bits(grads.grad_bias.data()), bits(&grad_bias), "isa {}", isa);
            let (param_weight, _) =
                ops::conv2d_param_grads(&grad_output, ops::Lowering::Spikes(&lowered), &dims).unwrap();
            prop_assert_eq!(bits(param_weight.data()), bits(&grad_weight), "isa {}", isa);
        }
    }
}

// ---------------------------------------------------------------------------
// Thread-count independence. The worker-count override is process-global:
// these tests serialise on one lock and clear the override on drop, and every
// other computation in this binary is worker-count-independent anyway.
// ---------------------------------------------------------------------------

/// Runs `f` with the kernels' thread budget forced to `threads`.
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    static LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    struct ClearOverride;
    impl Drop for ClearOverride {
        fn drop(&mut self) {
            rayon::set_thread_count_override(0);
        }
    }
    let _lock = LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    let _clear = ClearOverride;
    rayon::set_thread_count_override(threads);
    f()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn spike_rhs_gather_matches_dense_matmul_bits(
        m in 1usize..14,
        k in 1usize..(3 * kernels::KC),
        n in 1usize..40,
        density_pct in 0u64..70,
        seed in 0u64..500,
    ) {
        let _lock = simd::test_override_lock();
        let a: Vec<f32> = (0..m * k)
            .map(|i| hashed(i, seed, 2.0) * [1.0, 1e-3, 1e3][i % 3])
            .collect();
        let b = spike_frame(&[k, n], density_pct, seed ^ 0x5EED);
        let index = SpikeIndex::from_dense(b.data(), n).unwrap();
        for isa in simd::available() {
            let _g = simd::force(Some(isa));
            for threads in [1usize, 3] {
                let (dense, gathered) = with_threads(threads, || {
                    (
                        kernels::matmul(&a, b.data(), m, k, n),
                        kernels::matmul_spike_rhs(&a, &index, m, k, n),
                    )
                });
                prop_assert_eq!(
                    bits(&gathered),
                    bits(&dense),
                    "isa {} threads {}",
                    isa,
                    threads
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn blocked_matmul_follows_the_accumulation_contract(
        m in 1usize..11,
        k in 1usize..(3 * kernels::KC),
        n in 1usize..45,
        zero_pct in 0u64..40,
        seed in 0u64..500,
    ) {
        // Mixed magnitudes and exact zeros in the lhs make every choice of
        // block sums, chains, fusion and zero skips visible in the bits.
        let _lock = simd::test_override_lock();
        let a: Vec<f32> = (0..m * k)
            .map(|i| {
                let r = (i as u64).wrapping_mul(2_654_435_761).wrapping_add(seed) % 100;
                if r < zero_pct { 0.0 } else { hashed(i, seed, 2.0) * [1.0, 1e-3, 1e3][i % 3] }
            })
            .collect();
        let b: Vec<f32> = (0..k * n).map(|i| hashed(i, seed ^ 0xFACE, 1.0)).collect();
        for isa in simd::available() {
            let _g = simd::force(Some(isa));
            prop_assert_eq!(
                bits(&kernels::matmul(&a, &b, m, k, n)),
                bits(&reference::contract_matmul(&a, &b, m, k, n, isa)),
                "isa {}",
                isa
            );
        }
    }
}

/// Runs `f` at 1 thread and at 2 to 6, asserting that every multi-thread
/// run split its rows (through the shim's call counter) and that no split
/// changed an output bit.
fn assert_splits_without_changing_bits(name: &str, f: impl Fn() -> Vec<f32>) {
    let serial = with_threads(1, &f);
    for threads in 2..=6 {
        let (parallel, calls) = with_threads(threads, || {
            let before = rayon::parallel_calls();
            let out = f();
            (out, rayon::parallel_calls() - before)
        });
        assert!(calls > 0, "{name} did not split at {threads} threads");
        assert_eq!(
            bits(&parallel),
            bits(&serial),
            "{name} at {threads} threads"
        );
    }
}

#[test]
fn blocked_matmul_bits_do_not_depend_on_the_thread_count() {
    // k > KC makes tile rows and tail rows round differently, so a panel
    // split that moved a row between the two classes would show here. Both
    // shapes are above the parallel work threshold.
    let _lock = simd::test_override_lock();
    for &(m, k, n) in &[(72usize, 600usize, 100usize), (130, 300, 128)] {
        let a: Vec<f32> = (0..m * k).map(|i| hashed(i, 3, 1.0)).collect();
        let b: Vec<f32> = (0..k * n).map(|i| hashed(i, 4, 1.0)).collect();
        assert_splits_without_changing_bits(&format!("matmul m{m} k{k} n{n}"), || {
            kernels::matmul(&a, &b, m, k, n)
        });
    }
}

#[test]
fn sparse_and_spike_products_split_above_the_grain_without_changing_a_bit() {
    let _lock = simd::test_override_lock();
    // 80·512·128 = 5.2 M multiply-adds, above the parallel work threshold.
    let (m, k, n) = (80usize, 512usize, 128usize);
    let b: Vec<f32> = (0..k * n).map(|i| hashed(i, 21, 1.0)).collect();
    let sparse: Vec<f32> = (0..m * k)
        .map(|i| if i % 5 == 0 { hashed(i, 22, 2.0) } else { 0.0 })
        .collect();
    assert_splits_without_changing_bits("matmul_sparse", || {
        kernels::matmul_sparse(&sparse, &b, m, k, n)
    });
    let spikes = spike_frame(&[m, k], 20, 23);
    let index = SpikeIndex::from_dense(spikes.data(), k).unwrap();
    assert_splits_without_changing_bits("matmul_spikes_indexed", || {
        kernels::matmul_spikes_indexed(&index, &b, m, k, n)
    });
    // The spike-rhs walk's work is nnz(rhs)·m: ~26 K spikes × 256 rows.
    let (m, k, n) = (256usize, 512usize, 128usize);
    let a: Vec<f32> = (0..m * k).map(|i| hashed(i, 24, 1.0)).collect();
    let rhs = spike_frame(&[k, n], 40, 25);
    let rhs_index = SpikeIndex::from_dense(rhs.data(), n).unwrap();
    assert_splits_without_changing_bits("matmul_spike_rhs", || {
        kernels::matmul_spike_rhs(&a, &rhs_index, m, k, n)
    });
}

#[test]
fn lowerings_and_input_gradient_split_above_the_grain_without_changing_a_bit() {
    let _lock = simd::test_override_lock();
    // 8·64·64 windows × 16·3·3 columns = 4.7 M lowered cells, above the
    // parallel work threshold.
    let dims = ops::Conv2dDims::new(8, 16, 4, 64, 64, 3, 1, 1).unwrap();
    let geom = dims.geom();
    let frame = spike_frame(&[8, 16, 64, 64], 15, 31);
    let lowered = || vec![0.0f32; geom.rows() * geom.cols()];
    assert_splits_without_changing_bits("im2col_into", || {
        let mut out = lowered();
        kernels::im2col_into(frame.data(), &mut out, &geom);
        out
    });
    assert_splits_without_changing_bits("im2col_sparse_into", || {
        let mut out = lowered();
        kernels::im2col_sparse_into(frame.data(), &mut out, &geom);
        out
    });
    let index = SpikeIndex::from_dense(frame.data(), 64).unwrap();
    assert_splits_without_changing_bits("im2col_spikes_into", || {
        let mut out = lowered();
        kernels::im2col_spikes_into(&index, &mut out, &geom);
        out
    });
    // 4·32·32 rows × 16 output channels × 8·3·3 columns = 4.7 M.
    let dims = ops::Conv2dDims::new(4, 8, 16, 32, 32, 3, 1, 1).unwrap();
    let geom = dims.geom();
    let grad_output: Vec<f32> = (0..4 * 16 * dims.out_h * dims.out_w)
        .map(|i| hashed(i, 32, 2.0) * [1.0, 1e-3, 1e3][i % 3])
        .collect();
    let weight: Vec<f32> = (0..16 * geom.cols()).map(|i| hashed(i, 33, 0.5)).collect();
    assert_splits_without_changing_bits("conv_input_grad_into", || {
        let mut out = vec![0.0f32; 4 * 8 * 32 * 32];
        kernels::conv_input_grad_into(&grad_output, &weight, 16, &mut out, &geom);
        out
    });
}

#[test]
fn lowering_matches_reference_on_a_wide_single_channel_input() {
    // W > 64 and C = 1 pinned (the proptest geometries reach them only by
    // chance).
    for &(kernel, stride, padding) in &[(3usize, 1usize, 1usize), (5, 2, 2), (2, 3, 0)] {
        let dims = ops::Conv2dDims::new(4, 1, 1, 33, 97, kernel, stride, padding).unwrap();
        let geom = dims.geom();
        let frame = spike_frame(&[4, 1, 33, 97], 20, kernel as u64);
        let index = SpikeIndex::from_dense(frame.data(), 97).unwrap();
        let (expected, expected_index) = reference::im2col_indexed(&index, &geom);
        assert_eq!(
            bits(&reference::im2col(frame.data(), &geom)),
            bits(&expected)
        );

        let dense = ops::im2col(&frame, &dims).unwrap();
        assert_eq!(bits(dense.data()), bits(&expected));
        let mut lowered = vec![0.0f32; geom.rows() * geom.cols()];
        let lowered_index = kernels::im2col_spikes_into(&index, &mut lowered, &geom);
        assert_eq!(bits(&lowered), bits(&expected));
        assert_eq!(lowered_index, expected_index);

        // The adjoint: the streamed input gradient of a one-channel conv
        // against the reference `col2im(grad_rows @ weight)`.
        let weight = Tensor::from_fn(&[1, dims.col_cols()], |i| hashed(i, 5, 0.5));
        let grad_output = Tensor::from_fn(&[4, 1, dims.out_h, dims.out_w], |i| {
            hashed(i, 7, 1.0) * [1.0, 1e-3, 1e4][i % 3]
        });
        let (expected_input, _, _) =
            reference::conv2d_backward(&grad_output, &dense, &weight, &dims);
        let grads = ops::conv2d_backward(&grad_output, &dense, &weight, &dims).unwrap();
        assert_eq!(bits(grads.grad_input.data()), bits(&expected_input));
    }
}

#[test]
fn input_gradient_matches_the_reference_on_every_isa() {
    // (N, C, O, H, W, k, stride, padding): row widths 7, 8, 16 and 28,
    // widths that split into 16/8/4/1-pixel pieces (13, 40), stride 2,
    // padding 0 and 2, O > KC, row counts with R % MR != 0, and a plane
    // smaller than MR (tail rows spanning batch items).
    let cases = [
        (2, 3, 5, 7, 7, 3, 1, 1),
        (3, 2, 4, 8, 8, 3, 1, 1),
        (1, 4, 6, 16, 16, 3, 1, 1),
        (1, 2, 3, 28, 28, 3, 1, 1),
        (2, 2, 3, 5, 13, 3, 1, 1),
        (1, 3, 4, 12, 40, 5, 1, 2),
        (2, 3, 4, 9, 11, 3, 2, 1),
        (2, 5, 3, 7, 9, 3, 1, 0),
        (1, 2, 3, 6, 6, 3, 1, 2),
        (1, 2, kernels::KC + 10, 5, 6, 3, 1, 1),
        (5, 1, 2, 3, 3, 3, 1, 1),
        (3, 2, 3, 1, 1, 1, 1, 0),
    ];
    let _lock = simd::test_override_lock();
    for (case, &(n, c, o, h, w, k, stride, padding)) in cases.iter().enumerate() {
        let dims = ops::Conv2dDims::new(n, c, o, h, w, k, stride, padding).unwrap();
        let input = Tensor::from_fn(&[n, c, h, w], |i| hashed(i, 40 + case as u64, 1.0));
        let cols = ops::im2col(&input, &dims).unwrap();
        let weight = Tensor::from_fn(&[o, dims.col_cols()], |i| hashed(i, 41, 0.5));
        // Zeros of both signs and subnormals among ordinary magnitudes.
        let grad_output = Tensor::from_fn(&[n, o, dims.out_h, dims.out_w], |i| match i % 7 {
            0 => 0.0,
            1 => -0.0,
            2 => f32::from_bits(3 + i as u32 % 64),
            _ => hashed(i, 42, 2.0) * [1.0, 1e-3, 1e3][i % 3],
        });
        for isa in simd::available() {
            let _g = simd::force(Some(isa));
            let (expected, _, _) = reference::conv2d_backward(&grad_output, &cols, &weight, &dims);
            let grads = ops::conv2d_backward(&grad_output, &cols, &weight, &dims).unwrap();
            assert_eq!(
                bits(grads.grad_input.data()),
                bits(&expected),
                "case {case} {:?}, isa {isa}",
                (n, c, o, h, w, k, stride, padding)
            );
        }
    }
}

#[test]
fn streamed_input_gradient_keeps_tile_rows_across_stripes() {
    // O > KC gives the `grad_rows @ weight` product two k-blocks, so a tile
    // row and a tail row round differently; out_w = 7 and 7x5 planes put
    // MR-row tiles across stripe and batch boundaries. The streamed input
    // gradient must still classify every row as the whole product does.
    let _lock = simd::test_override_lock();
    let out_channels = kernels::KC + 44;
    let dims = ops::Conv2dDims::new(3, 2, out_channels, 5, 7, 3, 1, 1).unwrap();
    let input = Tensor::from_fn(&[3, 2, 5, 7], |i| hashed(i, 11, 1.0));
    let cols = ops::im2col(&input, &dims).unwrap();
    let weight = Tensor::from_fn(&[out_channels, dims.col_cols()], |i| hashed(i, 12, 0.5));
    let grad_output = Tensor::from_fn(&[3, out_channels, dims.out_h, dims.out_w], |i| {
        hashed(i, 13, 2.0) * [1.0, 1e-3, 1e3][i % 3]
    });
    for isa in simd::available() {
        let _g = simd::force(Some(isa));
        let (expected, _, _) = reference::conv2d_backward(&grad_output, &cols, &weight, &dims);
        let grads = ops::conv2d_backward(&grad_output, &cols, &weight, &dims).unwrap();
        assert_eq!(bits(grads.grad_input.data()), bits(&expected), "isa {isa}");
    }
}
