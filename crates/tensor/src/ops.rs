//! Linear-algebra and convolution kernels.
//!
//! All functions operate on dense row-major [`Tensor`]s. Convolutions use the
//! classic `im2col` lowering so that the heavy lifting is a single matrix
//! multiplication — exactly the lowering a weight-stationary systolic array
//! executes, which lets the systolic simulator replace [`matmul`] with its
//! fault-injecting equivalent.

use crate::{Result, SpikeIndex, Tensor, TensorError};

/// Geometry of a 2-D convolution (or pooling) over `[N, C, H, W]` inputs.
///
/// # Example
///
/// ```
/// use falvolt_tensor::ops::Conv2dDims;
///
/// # fn main() -> Result<(), falvolt_tensor::TensorError> {
/// let dims = Conv2dDims::new(1, 3, 8, 16, 16, 3, 1, 1)?;
/// assert_eq!(dims.out_h, 16);
/// assert_eq!(dims.out_w, 16);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dDims {
    /// Batch size `N`.
    pub batch: usize,
    /// Input channels `C`.
    pub in_channels: usize,
    /// Output channels `O`.
    pub out_channels: usize,
    /// Input height `H`.
    pub in_h: usize,
    /// Input width `W`.
    pub in_w: usize,
    /// Kernel size (square kernels only).
    pub kernel: usize,
    /// Stride (same along both axes).
    pub stride: usize,
    /// Zero padding (same along both axes).
    pub padding: usize,
    /// Output height.
    pub out_h: usize,
    /// Output width.
    pub out_w: usize,
}

impl Conv2dDims {
    /// Computes the full convolution geometry.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidConvConfig`] when the kernel does not fit
    /// into the padded input or when `stride == 0`.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        batch: usize,
        in_channels: usize,
        out_channels: usize,
        in_h: usize,
        in_w: usize,
        kernel: usize,
        stride: usize,
        padding: usize,
    ) -> Result<Self> {
        if stride == 0 {
            return Err(TensorError::InvalidConvConfig {
                reason: "stride must be non-zero".into(),
            });
        }
        if kernel == 0 {
            return Err(TensorError::InvalidConvConfig {
                reason: "kernel size must be non-zero".into(),
            });
        }
        let padded_h = in_h + 2 * padding;
        let padded_w = in_w + 2 * padding;
        if kernel > padded_h || kernel > padded_w {
            return Err(TensorError::InvalidConvConfig {
                reason: format!("kernel {kernel} larger than padded input {padded_h}x{padded_w}"),
            });
        }
        let out_h = (padded_h - kernel) / stride + 1;
        let out_w = (padded_w - kernel) / stride + 1;
        Ok(Self {
            batch,
            in_channels,
            out_channels,
            in_h,
            in_w,
            kernel,
            stride,
            padding,
            out_h,
            out_w,
        })
    }

    /// Number of rows of the `im2col` matrix: `N * out_h * out_w`.
    pub fn col_rows(&self) -> usize {
        self.batch * self.out_h * self.out_w
    }

    /// Number of columns of the `im2col` matrix: `C * k * k`.
    pub fn col_cols(&self) -> usize {
        self.in_channels * self.kernel * self.kernel
    }

    /// The raw geometry consumed by the `im2col` kernel layer.
    pub fn geom(&self) -> crate::kernels::Im2colGeom {
        crate::kernels::Im2colGeom {
            batch: self.batch,
            channels: self.in_channels,
            in_h: self.in_h,
            in_w: self.in_w,
            kernel: self.kernel,
            stride: self.stride,
            padding: self.padding,
            out_h: self.out_h,
            out_w: self.out_w,
        }
    }
}

// ---------------------------------------------------------------------------
// Matrix multiplication
// ---------------------------------------------------------------------------

/// Computes the matrix product `a @ b` of two rank-2 tensors.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs and
/// [`TensorError::MatmulDimMismatch`] when the inner dimensions disagree.
///
/// # Example
///
/// ```
/// use falvolt_tensor::{ops, Tensor};
///
/// # fn main() -> Result<(), falvolt_tensor::TensorError> {
/// let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0])?;
/// let b = Tensor::from_vec(vec![3, 1], vec![1.0, 1.0, 1.0])?;
/// let c = ops::matmul(&a, &b)?;
/// assert_eq!(c.data(), &[6.0, 15.0]);
/// # Ok(())
/// # }
/// ```
pub fn matmul(a: &Tensor, b: &Tensor) -> Result<Tensor> {
    // All dense products run through the shared blocked-parallel kernel
    // layer ([`MatmulHint::Dense`] pins the dispatcher to it).
    matmul_hinted(a, b, crate::kernels::MatmulHint::Dense)
}

/// Structure-aware matrix product: like [`matmul`], but routes through the
/// kernel dispatcher so sparse/binary left operands (spike activations) take
/// the event-driven gather-accumulate kernel. [`MatmulHint::Dense`]
/// reproduces [`matmul`] exactly.
///
/// [`MatmulHint::Dense`]: crate::kernels::MatmulHint::Dense
///
/// # Errors
///
/// Returns the same errors as [`matmul`].
pub fn matmul_hinted(a: &Tensor, b: &Tensor, hint: crate::kernels::MatmulHint) -> Result<Tensor> {
    let (m, k) = as_matrix_dims(a)?;
    let (k2, n) = as_matrix_dims(b)?;
    if k != k2 {
        return Err(TensorError::MatmulDimMismatch {
            left_cols: k,
            right_rows: k2,
        });
    }
    // A spike tensor's CSR index turns the structure probe into an O(1)
    // density read and the sparse kernel into a pure index walk; the
    // dispatcher produces bit-identical results either way.
    let index = a
        .spike_index()
        .filter(|ix| ix.rows() == m && ix.cols() == k)
        .map(|ix| ix.as_ref());
    let out = crate::kernels::matmul_dispatch_indexed(a.data(), index, b.data(), m, k, n, hint);
    Tensor::from_vec(vec![m, n], out)
}

/// Transposes a rank-2 tensor.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for non-matrix inputs.
pub fn transpose2d(a: &Tensor) -> Result<Tensor> {
    let (m, n) = as_matrix_dims(a)?;
    let data = a.data();
    let mut out = vec![0.0f32; m * n];
    for i in 0..m {
        for j in 0..n {
            out[j * m + i] = data[i * n + j];
        }
    }
    Tensor::from_vec(vec![n, m], out)
}

impl Tensor {
    /// Matrix product of two rank-2 tensors; see [`matmul`].
    ///
    /// # Errors
    ///
    /// Returns the same errors as the free function [`matmul`].
    pub fn matmul(&self, other: &Tensor) -> Result<Tensor> {
        matmul(self, other)
    }

    /// Transpose of a rank-2 tensor; see [`transpose2d`].
    ///
    /// # Errors
    ///
    /// Returns the same errors as the free function [`transpose2d`].
    pub fn transposed(&self) -> Result<Tensor> {
        transpose2d(self)
    }
}

fn as_matrix_dims(t: &Tensor) -> Result<(usize, usize)> {
    if t.ndim() != 2 {
        return Err(TensorError::RankMismatch {
            expected: 2,
            actual: t.ndim(),
        });
    }
    Ok((t.shape()[0], t.shape()[1]))
}

// ---------------------------------------------------------------------------
// im2col
// ---------------------------------------------------------------------------

/// Lowers an `[N, C, H, W]` input into the `im2col` matrix
/// `[N * out_h * out_w, C * k * k]` described by `dims`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the input shape disagrees with
/// `dims`.
pub fn im2col(input: &Tensor, dims: &Conv2dDims) -> Result<Tensor> {
    check_input_shape(input, dims)?;
    let geom = dims.geom();
    let mut out = vec![0.0f32; dims.col_rows() * dims.col_cols()];
    crate::kernels::im2col_into(input.data(), &mut out, &geom);
    Tensor::from_vec(vec![dims.col_rows(), dims.col_cols()], out)
}

/// Structure-aware im2col lowering. A spike frame carrying a CSR index
/// lowers through [`crate::kernels::im2col_spikes_into`], which walks the
/// index and returns the lowered matrix with its own index; an un-indexed
/// input whose `profile` reports it event-sparse scatters only its nonzero
/// pixels ([`crate::kernels::im2col_sparse_into`]); anything else takes the
/// dense gather. All paths produce the identical matrix.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the input shape disagrees with
/// `dims`.
pub fn im2col_with_profile(
    input: &Tensor,
    dims: &Conv2dDims,
    profile: crate::kernels::OperandProfile,
) -> Result<Tensor> {
    check_input_shape(input, dims)?;
    let geom = dims.geom();
    let shape = vec![dims.col_rows(), dims.col_cols()];
    let mut out = vec![0.0f32; dims.col_rows() * dims.col_cols()];
    // The lowering of a spike tensor is itself a spike tensor: attaching its
    // index lets the downstream product (and the systolic executor's event
    // walk) skip re-probing it.
    let index = input
        .spike_index()
        .filter(|ix| ix.rows() == dims.batch * dims.in_channels * dims.in_h);
    if let Some(index) = index.filter(|_| dims.col_cols() > 0) {
        let index = crate::kernels::im2col_spikes_into(index, &mut out, &geom);
        return Ok(Tensor::from_vec(shape, out)?.with_spike_index(std::sync::Arc::new(index)));
    }
    if profile.is_event_sparse() {
        crate::kernels::im2col_sparse_into(input.data(), &mut out, &geom);
    } else {
        crate::kernels::im2col_into(input.data(), &mut out, &geom);
    }
    Tensor::from_vec(shape, out)
}

fn check_input_shape(input: &Tensor, dims: &Conv2dDims) -> Result<()> {
    let expected = [dims.batch, dims.in_channels, dims.in_h, dims.in_w];
    if input.shape() != expected {
        return Err(TensorError::ShapeMismatch {
            left: input.shape().to_vec(),
            right: expected.to_vec(),
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Convolution built on im2col + matmul
// ---------------------------------------------------------------------------

/// Reorders a `[N * out_h * out_w, O]` matrix-multiply result into the
/// `[N, O, out_h, out_w]` feature-map layout.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `rows` does not have the shape
/// implied by `dims`.
pub fn rows_to_feature_map(rows: &Tensor, dims: &Conv2dDims) -> Result<Tensor> {
    let expected = [dims.col_rows(), dims.out_channels];
    if rows.shape() != expected {
        return Err(TensorError::ShapeMismatch {
            left: rows.shape().to_vec(),
            right: expected.to_vec(),
        });
    }
    let (n, o, oh, ow) = (dims.batch, dims.out_channels, dims.out_h, dims.out_w);
    let data = rows.data();
    let mut out = vec![0.0f32; n * o * oh * ow];
    for b in 0..n {
        for y in 0..oh {
            for x in 0..ow {
                let row = (b * oh + y) * ow + x;
                for ch in 0..o {
                    out[((b * o + ch) * oh + y) * ow + x] = data[row * o + ch];
                }
            }
        }
    }
    Tensor::from_vec(vec![n, o, oh, ow], out)
}

/// Reorders a `[N, O, out_h, out_w]` feature map into the row layout
/// `[N * out_h * out_w, O]` (the adjoint of [`rows_to_feature_map`]).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `fm` does not have the shape
/// implied by `dims`.
pub fn feature_map_to_rows(fm: &Tensor, dims: &Conv2dDims) -> Result<Tensor> {
    let expected = [dims.batch, dims.out_channels, dims.out_h, dims.out_w];
    if fm.shape() != expected {
        return Err(TensorError::ShapeMismatch {
            left: fm.shape().to_vec(),
            right: expected.to_vec(),
        });
    }
    let (n, o, oh, ow) = (dims.batch, dims.out_channels, dims.out_h, dims.out_w);
    let data = fm.data();
    let mut out = vec![0.0f32; n * o * oh * ow];
    for b in 0..n {
        for ch in 0..o {
            for y in 0..oh {
                for x in 0..ow {
                    let row = (b * oh + y) * ow + x;
                    out[row * o + ch] = data[((b * o + ch) * oh + y) * ow + x];
                }
            }
        }
    }
    Tensor::from_vec(vec![dims.col_rows(), o], out)
}

/// Direct 2-D convolution forward pass: `input [N,C,H,W]`, `weight [O, C*k*k]`
/// and optional `bias [O]`, producing `[N, O, out_h, out_w]`.
///
/// # Errors
///
/// Propagates shape errors from the underlying `im2col`/`matmul` steps.
pub fn conv2d_forward(
    input: &Tensor,
    weight: &Tensor,
    bias: Option<&Tensor>,
    dims: &Conv2dDims,
) -> Result<Tensor> {
    let cols = im2col(input, dims)?;
    let w_t = transpose2d(weight)?;
    let rows = matmul(&cols, &w_t)?;
    let mut fm = rows_to_feature_map(&rows, dims)?;
    if let Some(bias) = bias {
        add_channel_bias(&mut fm, bias)?;
    }
    Ok(fm)
}

/// Adds a per-channel bias `[O]` onto a `[N, O, H, W]` feature map in place.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the bias length differs from
/// the channel count.
pub fn add_channel_bias(fm: &mut Tensor, bias: &Tensor) -> Result<()> {
    if fm.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: fm.ndim(),
        });
    }
    let (n, o, h, w) = (fm.shape()[0], fm.shape()[1], fm.shape()[2], fm.shape()[3]);
    if bias.shape() != [o] {
        return Err(TensorError::ShapeMismatch {
            left: bias.shape().to_vec(),
            right: vec![o],
        });
    }
    let bias_data = bias.data().to_vec();
    let data = fm.data_mut();
    for b in 0..n {
        for (ch, &bias_ch) in bias_data.iter().enumerate() {
            let base = ((b * o) + ch) * h * w;
            for v in &mut data[base..base + h * w] {
                *v += bias_ch;
            }
        }
    }
    Ok(())
}

/// Gradients of a 2-D convolution.
#[derive(Debug, Clone)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `[N, C, H, W]`.
    pub grad_input: Tensor,
    /// Gradient w.r.t. the weight, `[O, C*k*k]`.
    pub grad_weight: Tensor,
    /// Gradient w.r.t. the bias, `[O]`.
    pub grad_bias: Tensor,
}

/// The `im2col` lowering a convolution's forward pass saved for its
/// backward pass.
#[derive(Debug, Clone, Copy)]
pub enum Lowering<'a> {
    /// The dense `[N * out_h * out_w, C * k * k]` matrix.
    Dense(&'a Tensor),
    /// The CSR index of a binary lowering (the lowering of a spike frame);
    /// the `{0, 1}` matrix itself is not needed.
    Spikes(&'a SpikeIndex),
}

impl<'a> From<&'a Tensor> for Lowering<'a> {
    fn from(cols: &'a Tensor) -> Self {
        Lowering::Dense(cols)
    }
}

/// Backward pass of [`conv2d_forward`].
///
/// `grad_output` has shape `[N, O, out_h, out_w]`; `cols` is the `im2col`
/// lowering saved from the forward pass, dense or as a spike index. The
/// input gradient streams through [`crate::kernels::conv_input_grad_into`]
/// and the parameter gradients come from [`conv2d_param_grads`]; both are
/// bit-identical to lowering `grad_rows @ weight` and `grad_rowsᵀ @ cols`
/// whole with [`matmul`] and unlowering the former.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `grad_output`, `cols` or
/// `weight` disagree with `dims`.
pub fn conv2d_backward<'a>(
    grad_output: &Tensor,
    cols: impl Into<Lowering<'a>>,
    weight: &Tensor,
    dims: &Conv2dDims,
) -> Result<Conv2dGrads> {
    let (grad_weight, grad_bias) = conv2d_param_grads(grad_output, cols, dims)?;
    let expected = [dims.out_channels, dims.col_cols()];
    if weight.shape() != expected {
        return Err(TensorError::ShapeMismatch {
            left: weight.shape().to_vec(),
            right: expected.to_vec(),
        });
    }
    let (n, c, h, w) = (dims.batch, dims.in_channels, dims.in_h, dims.in_w);
    let mut grad_input = vec![0.0f32; n * c * h * w];
    crate::kernels::conv_input_grad_into(
        grad_output.data(),
        weight.data(),
        dims.out_channels,
        &mut grad_input,
        &dims.geom(),
    );
    Ok(Conv2dGrads {
        grad_input: Tensor::from_vec(vec![n, c, h, w], grad_input)?,
        grad_weight,
        grad_bias,
    })
}

/// The parameter half of [`conv2d_backward`]: the weight gradient
/// `[O, C*k*k]` and the bias gradient `[O]`, without the input gradient.
/// Bit-identical to the corresponding fields of [`conv2d_backward`]. A
/// spike lowering takes [`crate::kernels::matmul_spike_rhs`], which walks
/// its events and keeps [`matmul`]'s bits.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `grad_output` does not have
/// the `[N, O, out_h, out_w]` shape implied by `dims` or a spike lowering
/// is not `[N * out_h * out_w, C * k * k]`, and propagates shape errors
/// from the product with dense `cols`.
pub fn conv2d_param_grads<'a>(
    grad_output: &Tensor,
    cols: impl Into<Lowering<'a>>,
    dims: &Conv2dDims,
) -> Result<(Tensor, Tensor)> {
    let expected = [dims.batch, dims.out_channels, dims.out_h, dims.out_w];
    if grad_output.shape() != expected {
        return Err(TensorError::ShapeMismatch {
            left: grad_output.shape().to_vec(),
            right: expected.to_vec(),
        });
    }
    // grad_rowsᵀ [O, R], R = N * out_h * out_w: channel `o`'s row is the
    // concatenation of the `[b, o]` planes of `grad_output` over `b`.
    let (o, r, plane) = (dims.out_channels, dims.col_rows(), dims.out_h * dims.out_w);
    let go = grad_output.data();
    let mut rows_t = vec![0.0f32; o * r];
    for b in 0..dims.batch {
        for ch in 0..o {
            let src = (b * o + ch) * plane;
            let dst = ch * r + b * plane;
            rows_t[dst..dst + plane].copy_from_slice(&go[src..src + plane]);
        }
    }
    // Bias gradient: sum of grad_output over batch and spatial positions,
    // accumulated in row order from +0.0.
    let grad_bias: Vec<f32> = (0..o)
        .map(|ch| {
            rows_t[ch * r..(ch + 1) * r]
                .iter()
                .fold(0.0f32, |acc, &g| acc + g)
        })
        .collect();
    let grad_weight = match cols.into() {
        Lowering::Dense(cols) => matmul(&Tensor::from_vec(vec![o, r], rows_t)?, cols)?,
        Lowering::Spikes(index) => {
            let ckk = dims.col_cols();
            if index.rows() != r || index.cols() != ckk {
                return Err(TensorError::ShapeMismatch {
                    left: vec![index.rows(), index.cols()],
                    right: vec![r, ckk],
                });
            }
            let grad = crate::kernels::matmul_spike_rhs(&rows_t, index, o, r, ckk);
            Tensor::from_vec(vec![o, ckk], grad)?
        }
    }; // [O, C*k*k]
    Ok((grad_weight, Tensor::from_vec(vec![o], grad_bias)?))
}

// ---------------------------------------------------------------------------
// Pooling
// ---------------------------------------------------------------------------

/// Average-pools a `[N, C, H, W]` tensor with a square window and equal
/// stride (`kernel == stride`, non-overlapping), producing
/// `[N, C, H/kernel, W/kernel]`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidConvConfig`] when the spatial extents are not
/// divisible by `kernel`.
pub fn avg_pool2d_forward(input: &Tensor, kernel: usize) -> Result<Tensor> {
    let (n, c, h, w) = as_nchw(input)?;
    if kernel == 0 || h % kernel != 0 || w % kernel != 0 {
        return Err(TensorError::InvalidConvConfig {
            reason: format!("pool kernel {kernel} does not evenly divide {h}x{w}"),
        });
    }
    let oh = h / kernel;
    let ow = w / kernel;
    let scale = 1.0 / (kernel * kernel) as f32;
    let data = input.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let mut acc = 0.0;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = oy * kernel + ky;
                            let ix = ox * kernel + kx;
                            acc += data[((b * c + ch) * h + iy) * w + ix];
                        }
                    }
                    out[((b * c + ch) * oh + oy) * ow + ox] = acc * scale;
                }
            }
        }
    }
    Tensor::from_vec(vec![n, c, oh, ow], out)
}

/// Backward pass of [`avg_pool2d_forward`]: spreads each output gradient
/// uniformly over its pooling window.
///
/// # Errors
///
/// Returns [`TensorError::RankMismatch`] for a non-4-D `input_shape`,
/// [`TensorError::InvalidConvConfig`] when `kernel` is zero or does not
/// evenly divide the spatial extents (as [`avg_pool2d_forward`] does), and
/// [`TensorError::ShapeMismatch`] when `grad_output` does not match the
/// pooled shape of `input_shape`.
pub fn avg_pool2d_backward(
    grad_output: &Tensor,
    input_shape: &[usize],
    kernel: usize,
) -> Result<Tensor> {
    if input_shape.len() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: input_shape.len(),
        });
    }
    let (n, c, h, w) = (
        input_shape[0],
        input_shape[1],
        input_shape[2],
        input_shape[3],
    );
    if kernel == 0 || h % kernel != 0 || w % kernel != 0 {
        return Err(TensorError::InvalidConvConfig {
            reason: format!("pool kernel {kernel} does not evenly divide {h}x{w}"),
        });
    }
    let oh = h / kernel;
    let ow = w / kernel;
    if grad_output.shape() != [n, c, oh, ow] {
        return Err(TensorError::ShapeMismatch {
            left: grad_output.shape().to_vec(),
            right: vec![n, c, oh, ow],
        });
    }
    let scale = 1.0 / (kernel * kernel) as f32;
    let go = grad_output.data();
    let mut out = vec![0.0f32; n * c * h * w];
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    let g = go[((b * c + ch) * oh + oy) * ow + ox] * scale;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = oy * kernel + ky;
                            let ix = ox * kernel + kx;
                            out[((b * c + ch) * h + iy) * w + ix] += g;
                        }
                    }
                }
            }
        }
    }
    Tensor::from_vec(vec![n, c, h, w], out)
}

/// Max-pools a `[N, C, H, W]` tensor, returning the pooled tensor and the
/// flat argmax index of every window (used by the backward pass).
///
/// # Errors
///
/// Returns [`TensorError::InvalidConvConfig`] when the spatial extents are not
/// divisible by `kernel`.
pub fn max_pool2d_forward(input: &Tensor, kernel: usize) -> Result<(Tensor, Vec<usize>)> {
    let (n, c, h, w) = as_nchw(input)?;
    if kernel == 0 || h % kernel != 0 || w % kernel != 0 {
        return Err(TensorError::InvalidConvConfig {
            reason: format!("pool kernel {kernel} does not evenly divide {h}x{w}"),
        });
    }
    let oh = h / kernel;
    let ow = w / kernel;
    let data = input.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut argmax = vec![0usize; n * c * oh * ow];
    for b in 0..n {
        for ch in 0..c {
            for oy in 0..oh {
                for ox in 0..ow {
                    // Start at the window's first cell, so a window with
                    // no value above -inf (all -inf or NaN) still records
                    // an index inside itself.
                    let mut best = f32::NEG_INFINITY;
                    let mut best_idx = ((b * c + ch) * h + oy * kernel) * w + ox * kernel;
                    for ky in 0..kernel {
                        for kx in 0..kernel {
                            let iy = oy * kernel + ky;
                            let ix = ox * kernel + kx;
                            let idx = ((b * c + ch) * h + iy) * w + ix;
                            if data[idx] > best {
                                best = data[idx];
                                best_idx = idx;
                            }
                        }
                    }
                    let oidx = ((b * c + ch) * oh + oy) * ow + ox;
                    out[oidx] = best;
                    argmax[oidx] = best_idx;
                }
            }
        }
    }
    Ok((Tensor::from_vec(vec![n, c, oh, ow], out)?, argmax))
}

/// Backward pass of [`max_pool2d_forward`]: routes each output gradient to the
/// input position recorded in `argmax`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] when `argmax` length differs from
/// `grad_output` or an `argmax` entry lies outside `input_shape`.
pub fn max_pool2d_backward(
    grad_output: &Tensor,
    input_shape: &[usize],
    argmax: &[usize],
) -> Result<Tensor> {
    if grad_output.len() != argmax.len() {
        return Err(TensorError::InvalidArgument {
            reason: "argmax length must match grad_output".into(),
        });
    }
    let total: usize = input_shape.iter().product();
    let mut out = vec![0.0f32; total];
    for (g, &idx) in grad_output.data().iter().zip(argmax) {
        let Some(cell) = out.get_mut(idx) else {
            return Err(TensorError::InvalidArgument {
                reason: format!("argmax entry {idx} outside an input of {total} elements"),
            });
        };
        *cell += g;
    }
    Tensor::from_vec(input_shape.to_vec(), out)
}

fn as_nchw(t: &Tensor) -> Result<(usize, usize, usize, usize)> {
    if t.ndim() != 4 {
        return Err(TensorError::RankMismatch {
            expected: 4,
            actual: t.ndim(),
        });
    }
    Ok((t.shape()[0], t.shape()[1], t.shape()[2], t.shape()[3]))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx_eq(a: &[f32], b: &[f32]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert!((x - y).abs() < 1e-5, "{a:?} != {b:?}");
        }
    }

    #[test]
    fn matmul_matches_hand_computed_product() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let b = Tensor::from_vec(vec![3, 2], vec![7.0, 8.0, 9.0, 10.0, 11.0, 12.0]).unwrap();
        let c = matmul(&a, &b).unwrap();
        approx_eq(c.data(), &[58.0, 64.0, 139.0, 154.0]);
    }

    #[test]
    fn matmul_validates_shapes() {
        let a = Tensor::zeros(&[2, 3]);
        let b = Tensor::zeros(&[4, 2]);
        assert!(matches!(
            matmul(&a, &b),
            Err(TensorError::MatmulDimMismatch { .. })
        ));
        let v = Tensor::zeros(&[3]);
        assert!(matches!(
            matmul(&v, &b),
            Err(TensorError::RankMismatch { .. })
        ));
    }

    #[test]
    fn transpose_roundtrips() {
        let a = Tensor::from_vec(vec![2, 3], vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0]).unwrap();
        let t = transpose2d(&a).unwrap();
        assert_eq!(t.shape(), &[3, 2]);
        assert_eq!(t.get(&[2, 1]), 6.0);
        let tt = transpose2d(&t).unwrap();
        assert_eq!(tt, a);
    }

    #[test]
    fn conv_dims_validate() {
        assert!(Conv2dDims::new(1, 1, 1, 4, 4, 3, 1, 0).is_ok());
        assert!(Conv2dDims::new(1, 1, 1, 2, 2, 3, 1, 0).is_err());
        assert!(Conv2dDims::new(1, 1, 1, 4, 4, 3, 0, 0).is_err());
        assert!(Conv2dDims::new(1, 1, 1, 4, 4, 0, 1, 0).is_err());
        let d = Conv2dDims::new(2, 3, 8, 16, 16, 3, 1, 1).unwrap();
        assert_eq!((d.out_h, d.out_w), (16, 16));
        assert_eq!(d.col_rows(), 2 * 16 * 16);
        assert_eq!(d.col_cols(), 3 * 9);
    }

    #[test]
    fn identity_kernel_convolution_reproduces_input() {
        // 1x1 kernel with weight 1.0 must reproduce the input exactly.
        let dims = Conv2dDims::new(1, 1, 1, 3, 3, 1, 1, 0).unwrap();
        let input =
            Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|i| i as f32).collect()).unwrap();
        let weight = Tensor::ones(&[1, 1]);
        let out = conv2d_forward(&input, &weight, None, &dims).unwrap();
        approx_eq(out.data(), input.data());
    }

    #[test]
    fn conv_forward_matches_manual_3x3() {
        // Single 3x3 all-ones kernel, no padding: output is the sum of the
        // 3x3 neighbourhood.
        let dims = Conv2dDims::new(1, 1, 1, 3, 3, 3, 1, 0).unwrap();
        let input =
            Tensor::from_vec(vec![1, 1, 3, 3], (1..=9).map(|i| i as f32).collect()).unwrap();
        let weight = Tensor::ones(&[1, 9]);
        let out = conv2d_forward(&input, &weight, None, &dims).unwrap();
        assert_eq!(out.shape(), &[1, 1, 1, 1]);
        approx_eq(out.data(), &[45.0]);
    }

    #[test]
    fn conv_bias_is_added_per_channel() {
        let dims = Conv2dDims::new(1, 1, 2, 2, 2, 1, 1, 0).unwrap();
        let input = Tensor::ones(&[1, 1, 2, 2]);
        let weight = Tensor::from_vec(vec![2, 1], vec![1.0, 2.0]).unwrap();
        let bias = Tensor::from_vec(vec![2], vec![10.0, 20.0]).unwrap();
        let out = conv2d_forward(&input, &weight, Some(&bias), &dims).unwrap();
        assert_eq!(out.shape(), &[1, 2, 2, 2]);
        approx_eq(
            out.data(),
            &[11.0, 11.0, 11.0, 11.0, 22.0, 22.0, 22.0, 22.0],
        );
    }

    #[test]
    fn conv_backward_weight_gradient_matches_finite_difference() {
        let dims = Conv2dDims::new(1, 1, 1, 3, 3, 2, 1, 0).unwrap();
        let input = Tensor::from_fn(&[1, 1, 3, 3], |i| (i as f32 * 0.37).sin());
        let weight = Tensor::from_fn(&[1, 4], |i| 0.1 * (i as f32 + 1.0));
        let cols = im2col(&input, &dims).unwrap();

        // Loss = sum of outputs; analytic gradient.
        let grad_output = Tensor::ones(&[1, 1, 2, 2]);
        let grads = conv2d_backward(&grad_output, &cols, &weight, &dims).unwrap();

        // Finite differences on each weight element.
        let eps = 1e-3;
        for wi in 0..4 {
            let mut wp = weight.clone();
            wp.data_mut()[wi] += eps;
            let mut wm = weight.clone();
            wm.data_mut()[wi] -= eps;
            let lp: f32 = conv2d_forward(&input, &wp, None, &dims)
                .unwrap()
                .data()
                .iter()
                .sum();
            let lm: f32 = conv2d_forward(&input, &wm, None, &dims)
                .unwrap()
                .data()
                .iter()
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.grad_weight.data()[wi];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "weight grad mismatch at {wi}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn conv_backward_input_gradient_matches_finite_difference() {
        let dims = Conv2dDims::new(1, 1, 1, 3, 3, 2, 1, 0).unwrap();
        let input = Tensor::from_fn(&[1, 1, 3, 3], |i| (i as f32 * 0.31).cos());
        let weight = Tensor::from_fn(&[1, 4], |i| 0.2 * (i as f32 + 1.0));
        let cols = im2col(&input, &dims).unwrap();
        let grad_output = Tensor::ones(&[1, 1, 2, 2]);
        let grads = conv2d_backward(&grad_output, &cols, &weight, &dims).unwrap();

        let eps = 1e-3;
        for xi in 0..9 {
            let mut xp = input.clone();
            xp.data_mut()[xi] += eps;
            let mut xm = input.clone();
            xm.data_mut()[xi] -= eps;
            let lp: f32 = conv2d_forward(&xp, &weight, None, &dims)
                .unwrap()
                .data()
                .iter()
                .sum();
            let lm: f32 = conv2d_forward(&xm, &weight, None, &dims)
                .unwrap()
                .data()
                .iter()
                .sum();
            let numeric = (lp - lm) / (2.0 * eps);
            let analytic = grads.grad_input.data()[xi];
            assert!(
                (numeric - analytic).abs() < 1e-2,
                "input grad mismatch at {xi}: numeric {numeric} vs analytic {analytic}"
            );
        }
    }

    #[test]
    fn bias_gradient_counts_positions() {
        let dims = Conv2dDims::new(2, 1, 3, 4, 4, 3, 1, 1).unwrap();
        let input = Tensor::ones(&[2, 1, 4, 4]);
        let weight = Tensor::zeros(&[3, 9]);
        let cols = im2col(&input, &dims).unwrap();
        let grad_output = Tensor::ones(&[2, 3, 4, 4]);
        let grads = conv2d_backward(&grad_output, &cols, &weight, &dims).unwrap();
        // Each channel receives N * out_h * out_w = 2*4*4 = 32 unit gradients.
        approx_eq(grads.grad_bias.data(), &[32.0, 32.0, 32.0]);
    }

    #[test]
    fn padding_produces_same_spatial_size() {
        let dims = Conv2dDims::new(1, 2, 4, 8, 8, 3, 1, 1).unwrap();
        let input = Tensor::ones(&[1, 2, 8, 8]);
        let weight = Tensor::ones(&[4, 18]);
        let out = conv2d_forward(&input, &weight, None, &dims).unwrap();
        assert_eq!(out.shape(), &[1, 4, 8, 8]);
        // Centre pixels see the full 3x3x2 = 18 ones; corners see 2x2x2 = 8.
        assert_eq!(out.get(&[0, 0, 4, 4]), 18.0);
        assert_eq!(out.get(&[0, 0, 0, 0]), 8.0);
    }

    #[test]
    fn conv_input_gradient_counts_window_hits() {
        // With a unit weight and a unit output gradient, the input gradient
        // counts how many windows each input position participates in;
        // with stride 1, kernel 2 on 3x3, the centre is hit 4 times.
        let dims = Conv2dDims::new(1, 1, 1, 3, 3, 2, 1, 0).unwrap();
        let ones = Tensor::ones(&[1, 1, 3, 3]);
        let cols = im2col(&ones, &dims).unwrap();
        let grads = conv2d_backward(
            &Tensor::ones(&[1, 1, 2, 2]),
            &cols,
            &Tensor::ones(&[1, 4]),
            &dims,
        )
        .unwrap();
        approx_eq(
            grads.grad_input.data(),
            &[1.0, 2.0, 1.0, 2.0, 4.0, 2.0, 1.0, 2.0, 1.0],
        );
    }

    #[test]
    fn avg_pool_forward_and_backward() {
        let input = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 2.0, 3.0, 4.0]).unwrap();
        let out = avg_pool2d_forward(&input, 2).unwrap();
        approx_eq(out.data(), &[2.5]);
        let grad = avg_pool2d_backward(&Tensor::ones(&[1, 1, 1, 1]), &[1, 1, 2, 2], 2).unwrap();
        approx_eq(grad.data(), &[0.25; 4]);
        assert!(avg_pool2d_forward(&Tensor::ones(&[1, 1, 3, 3]), 2).is_err());
    }

    #[test]
    fn max_pool_forward_and_backward() {
        let input = Tensor::from_vec(vec![1, 1, 2, 2], vec![1.0, 5.0, 3.0, 4.0]).unwrap();
        let (out, argmax) = max_pool2d_forward(&input, 2).unwrap();
        approx_eq(out.data(), &[5.0]);
        assert_eq!(argmax, vec![1]);
        let grad =
            max_pool2d_backward(&Tensor::ones(&[1, 1, 1, 1]), &[1, 1, 2, 2], &argmax).unwrap();
        approx_eq(grad.data(), &[0.0, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn max_pool_argmax_stays_inside_an_all_neg_inf_window() {
        // Second 2x2 window (columns 2..4) is all -inf: its argmax must be
        // its own first cell (flat 2), not element 0 of the input.
        let ninf = f32::NEG_INFINITY;
        let input = Tensor::from_vec(
            vec![1, 1, 2, 4],
            vec![1.0, 2.0, ninf, ninf, 3.0, 4.0, ninf, ninf],
        )
        .unwrap();
        let (out, argmax) = max_pool2d_forward(&input, 2).unwrap();
        assert_eq!(out.data(), &[4.0, ninf]);
        assert_eq!(argmax, vec![5, 2]);
        let grad =
            max_pool2d_backward(&Tensor::ones(&[1, 1, 1, 2]), &[1, 1, 2, 4], &argmax).unwrap();
        assert_eq!(grad.data(), &[0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0, 0.0]);
        // A NaN window behaves the same way.
        let nan = Tensor::from_vec(vec![1, 1, 2, 2], vec![f32::NAN; 4]).unwrap();
        let (_, argmax) = max_pool2d_forward(&nan, 2).unwrap();
        assert_eq!(argmax, vec![0]);
    }

    #[test]
    fn avg_pool_backward_rejects_a_zero_kernel() {
        let grad = Tensor::ones(&[1, 1, 1, 1]);
        assert!(matches!(
            avg_pool2d_backward(&grad, &[1, 1, 2, 2], 0),
            Err(TensorError::InvalidConvConfig { .. })
        ));
    }

    #[test]
    fn avg_pool_backward_rejects_a_kernel_that_does_not_divide_the_input() {
        // 3x3 input, kernel 2: the forward rejects it, so must the backward
        // (it used to accept the truncated [1, 1, 1, 1] gradient).
        assert!(avg_pool2d_forward(&Tensor::ones(&[1, 1, 3, 3]), 2).is_err());
        let grad = Tensor::ones(&[1, 1, 1, 1]);
        assert!(matches!(
            avg_pool2d_backward(&grad, &[1, 1, 3, 3], 2),
            Err(TensorError::InvalidConvConfig { .. })
        ));
    }

    #[test]
    fn max_pool_backward_rejects_an_out_of_range_argmax() {
        let grad = Tensor::ones(&[1, 1, 1, 1]);
        assert!(matches!(
            max_pool2d_backward(&grad, &[1, 1, 2, 2], &[4]),
            Err(TensorError::InvalidArgument { .. })
        ));
        assert!(max_pool2d_backward(&grad, &[1, 1, 2, 2], &[3]).is_ok());
    }

    #[test]
    fn feature_map_row_roundtrip() {
        let dims = Conv2dDims::new(2, 1, 3, 4, 4, 3, 1, 1).unwrap();
        let fm = Tensor::from_fn(&[2, 3, 4, 4], |i| i as f32);
        let rows = feature_map_to_rows(&fm, &dims).unwrap();
        let back = rows_to_feature_map(&rows, &dims).unwrap();
        assert_eq!(back, fm);
    }
}
