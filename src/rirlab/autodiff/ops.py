"""Differentiable operators: exactly the set the estimator, discriminator,
and losses need. All forward functions record their backward closure on the
tape. Each op computes and allocates in the dtype of its tensor inputs
(float32 or float64), and an op whose tensor operands differ in dtype
raises.

A record keeps as little as its backward needs: masks, im2col columns and
normalized activations are recomputed from the op's input in backward
rather than kept from the forward. batchnorm_prelu is prelu(batchnorm1d())
as one op whose record holds one activation where the pair holds two; the
estimator's decoder runs it, and batchnorm1d and prelu stay as the
reference it is tested against, bit for bit."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dsp import BandPartition, DftBasis, band_power, decay_relief, framed_dft
from ..errors import InvalidConfigError, InvalidInputError, ShapeMismatchError
from .tensor import Tensor, check_same_dtype, record


def _as_3d(x: Tensor, name: str) -> tuple[int, int, int]:
    if x.data.ndim != 3:
        raise ShapeMismatchError(f"{name} must be [batch, channels, length], got {x.shape}")
    return x.shape


def _overlap_add(
    y: np.ndarray, weight: np.ndarray, stride: int, offset: int, length: int
) -> np.ndarray:
    """Transposed-convolution kernel, shared by conv1d's input gradient and
    conv_transpose1d's forward: y [B,Ci,N] through weight [Ci,Co,K], input
    position n's tap k added in at n*stride + k. Returns the window
    [offset, offset+length) of that sum as a fresh [B,Co,length] array;
    positions no tap reaches are 0."""
    (B, Ci, N), (_, Co, K) = y.shape, weight.shape
    # The input's [Ci, B*N] copy is a temporary of this one expression, so it
    # is freed before the adds below.
    cols = (weight.reshape(Ci, Co * K).T @ y.transpose(1, 0, 2).reshape(Ci, B * N)).reshape(
        Co, K, B, N
    )
    out = np.zeros((B, Co, length), dtype=y.dtype)
    for k in range(K):
        n0 = max(0, -((k - offset) // stride))  # first n with n*stride + k >= offset
        n1 = min(N, (offset + length - 1 - k) // stride + 1)
        if n1 > n0:
            start = n0 * stride + k - offset
            out[:, :, start : start + (n1 - n0) * stride : stride] += cols[
                :, k, :, n0:n1
            ].transpose(1, 0, 2)
    return out


# The correlate direction (conv1d's forward and weight gradient,
# conv_transpose1d's two gradients) runs as im2col GEMMs. conv1d lays its
# columns out [B*Lout, Cin*K] and conv_transpose1d [Cout*K, B*L]: each
# layout, with its GEMMs' operand order, gives the bits of the code it
# replaced on every shape of both profiles. Either one transposed changes
# the last bits of some of the toy profile's small float64 GEMMs.
# conv1d's forward GEMM is weight-first, W [Cout, Cin*K] @ cols.T, so the
# weight (10-21 MB on the full encoder) is the untransposed left operand that
# BLAS packs cheaply, and the [Cout, B*Lout] result already is the output at
# batch 1. It is bit-equal to cols @ W.T on every conv shape of both
# profiles at batches 1 to 16, with one and two BLAS threads; columns laid
# out C-contiguous [Cin*K, B*Lout] are not. The backward rebuilds the columns
# from x_pad, so the record does not hold enc0's [B*64, 8193] columns.
# The scatter direction (conv_transpose1d's forward, conv1d's input gradient)
# is _overlap_add, the col2im adjoint of that im2col (Dumoulin & Visin, 2016):
# one GEMM W^T [Co*K, Ci] @ y [Ci, B*N] gives every tap of every input
# position, and each tap's [B, Co, N] slice is added at stride straight into
# the zeroed output window, so neither caller crops or copies. Each element
# is 0 + tap_0 + tap_1 + ... in tap order; TestForwardReferences pins those
# bits to a reference kernel on every layer shape. Laying the GEMM out
# input-first ([B*N, Co*K], with channels-last adds and one transpose, or
# adds through a transposed view) was slower on the full decoder's dec4 and
# dec5.
def conv1d(
    x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0
) -> Tensor:
    """Cross-correlation of [B,Cin,L] with [Cout,Cin,K] -> [B,Cout,Lout],
    Lout = floor((L + 2*padding - K)/stride) + 1."""
    B, Cin, L = _as_3d(x, "conv1d input")
    if weight.data.ndim != 3 or weight.shape[1] != Cin:
        raise ShapeMismatchError(
            f"conv1d weight {weight.shape} incompatible with input {x.shape}"
        )
    Cout, _, K = weight.shape
    check_same_dtype("conv1d", x, weight, bias)
    if stride < 1:
        raise InvalidConfigError(f"stride must be >= 1, got {stride}")
    Lp = L + 2 * padding
    if K > Lp:
        raise ShapeMismatchError(f"kernel {K} longer than padded input {Lp}")
    if bias is not None and bias.shape != (Cout,):
        raise ShapeMismatchError(f"bias {bias.shape} must be ({Cout},)")
    x_pad = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)))
    Lout = (Lp - K) // stride + 1

    def im2col() -> np.ndarray:
        """[B*Lout, Cin*K]: one row of Cin*K taps per output position."""
        windows = sliding_window_view(x_pad, K, axis=2)[:, :, ::stride, :]  # [B,Cin,Lout,K]
        return np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(B * Lout, Cin * K)

    out_data = weight.data.reshape(Cout, Cin * K) @ im2col().T  # [Cout, B*Lout]
    out_data = np.ascontiguousarray(out_data.reshape(Cout, B, Lout).transpose(1, 0, 2))
    if bias is not None:
        out_data += bias.data[None, :, None]
    out = Tensor(out_data)

    def backward_fn(g):
        gw = (
            (g.transpose(0, 2, 1).reshape(B * Lout, Cout).T @ im2col()).reshape(Cout, Cin, K)
            if weight.requires_grad
            else None
        )
        gb = g.sum(axis=(0, 2)) if bias is not None and bias.requires_grad else None
        gx = None
        if x.requires_grad:
            gx = _overlap_add(g, weight.data, stride, padding, L)
        return (gx, gw, gb) if bias is not None else (gx, gw)

    record(out, (x, weight, bias) if bias is not None else (x, weight), backward_fn)
    return out


def conv_transpose1d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    output_padding: int = 0,
) -> Tensor:
    """Adjoint of conv1d: [B,Cin,L] with weight [Cin,Cout,K] ->
    [B,Cout,(L-1)*stride - 2*padding + K + output_padding]."""
    B, Cin, L = _as_3d(x, "conv_transpose1d input")
    if weight.data.ndim != 3 or weight.shape[0] != Cin:
        raise ShapeMismatchError(
            f"conv_transpose1d weight {weight.shape} incompatible with input {x.shape}"
        )
    _, Cout, K = weight.shape
    check_same_dtype("conv_transpose1d", x, weight, bias)
    if stride < 1:
        raise InvalidConfigError(f"stride must be >= 1, got {stride}")
    if output_padding >= stride:
        raise InvalidConfigError(
            f"output_padding {output_padding} must be smaller than stride {stride}"
        )
    L_full = (L - 1) * stride + K
    L_out = (L - 1) * stride - 2 * padding + K + output_padding
    if L_out < 1:
        raise ShapeMismatchError(f"output length {L_out} is not positive")

    if bias is not None and bias.shape != (Cout,):
        raise ShapeMismatchError(f"bias {bias.shape} must be ({Cout},)")
    out_data = _overlap_add(x.data, weight.data, stride, padding, L_out)
    if bias is not None:
        out_data += bias.data[None, :, None]
    out = Tensor(out_data)
    span = min(L_full, padding + L_out) - padding

    def backward_fn(g):
        gfull = np.zeros((B, Cout, L_full), dtype=g.dtype)
        if span > 0:
            gfull[:, :, padding : padding + span] = g[:, :, :span]
        gwin = sliding_window_view(gfull, K, axis=2)[:, :, ::stride, :][:, :, :L, :]
        cols = np.ascontiguousarray(gwin.transpose(1, 3, 0, 2)).reshape(Cout * K, B * L)
        del gfull, gwin
        gx = None
        if x.requires_grad:
            gx = (weight.data.reshape(Cin, Cout * K) @ cols).reshape(Cin, B, L).transpose(1, 0, 2)
        gw = None
        if weight.requires_grad:
            # cols @ x^T written through a transposed view: numpy runs that
            # GEMM as it is and the gradient comes out C-contiguous, so
            # neither backward nor rmsprop_step has to copy it. The GEMM
            # x^T-first (x2 @ cols.T) is C-contiguous too, but it rounds
            # differently from this one on some toy float64 shapes.
            gw = np.empty((Cin, Cout * K), dtype=g.dtype)
            np.matmul(cols, x.data.transpose(0, 2, 1).reshape(B * L, Cin), out=gw.T)
            gw = gw.reshape(Cin, Cout, K)
        gb = g.sum(axis=(0, 2)) if bias is not None and bias.requires_grad else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    record(out, (x, weight, bias) if bias is not None else (x, weight), backward_fn)
    return out


@dataclass
class BatchNormState:
    """Running statistics for one batchnorm layer (eval-mode source)."""

    running_mean: np.ndarray
    running_var: np.ndarray
    momentum: float = 0.1
    eps: float = 1e-5

    @classmethod
    def for_channels(cls, n_channels: int) -> "BatchNormState":
        return cls(running_mean=np.zeros(n_channels), running_var=np.ones(n_channels))


def _batchnorm_stats(
    op: str, x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, train: bool
) -> tuple[np.ndarray, np.ndarray]:
    """(mean, inv) that normalize x of [B,C,L]: batch statistics in train
    mode (batch of >= 2 required), which also update the running
    statistics, and running statistics in eval mode. Every check runs
    before the running statistics change."""
    B, C, L = _as_3d(x, f"{op} input")
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeMismatchError(f"gamma/beta must be ({C},), got {gamma.shape}/{beta.shape}")
    check_same_dtype(op, x, gamma, beta)
    stat_dtypes = {state.running_mean.dtype, state.running_var.dtype}
    if stat_dtypes != {x.data.dtype}:
        raise InvalidInputError(
            f"{op} running statistics are {sorted(d.name for d in stat_dtypes)}, "
            f"the input is {x.data.dtype.name}"
        )
    if train:
        if B < 2:
            raise InvalidInputError(f"{op} needs a batch of at least 2 in train mode")
        mean = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        m = state.momentum
        state.running_mean = (1 - m) * state.running_mean + m * mean
        state.running_var = (1 - m) * state.running_var + m * var
    else:
        mean, var = state.running_mean, state.running_var
    return mean, 1.0 / np.sqrt(var + state.eps)


def _normalized(x: np.ndarray, mean: np.ndarray, inv: np.ndarray) -> np.ndarray:
    """xhat = (x - mean) * inv, built in one buffer."""
    t = x - mean[None, :, None]
    t *= inv[None, :, None]
    return t


def _batchnorm_out(
    x: np.ndarray, mean: np.ndarray, inv: np.ndarray, gamma: np.ndarray, beta: np.ndarray
) -> np.ndarray:
    """The ops of gamma * xhat + beta, in their order, in xhat's buffer."""
    t = _normalized(x, mean, inv)
    t *= gamma[None, :, None]
    t += beta[None, :, None]
    return t


def _batchnorm_grads(g, xhat, x: Tensor, gamma: Tensor, beta: Tensor, inv, train: bool):
    """(gx, ggamma, gbeta) of batchnorm's output gradient g, given the
    normalized input xhat. Callers recompute xhat from x rather than keep it
    from the forward, so a record holds no activation-sized array of its
    own."""
    gbeta = g.sum(axis=(0, 2)) if beta.requires_grad else None
    ggamma = (g * xhat).sum(axis=(0, 2)) if gamma.requires_grad else None
    gx = None
    if x.requires_grad:
        gxhat = g * gamma.data[None, :, None]
        if train:
            gx = inv[None, :, None] * (
                gxhat
                - gxhat.mean(axis=(0, 2), keepdims=True)
                - xhat * (gxhat * xhat).mean(axis=(0, 2), keepdims=True)
            )
        else:
            gx = gxhat * inv[None, :, None]
    return gx, ggamma, gbeta


def batchnorm1d(
    x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, train: bool
) -> Tensor:
    """Per-channel normalization of [B,C,L]; batch statistics in train mode
    (batch of >= 2 required), which also update the running statistics, and
    running statistics in eval mode."""
    mean, inv = _batchnorm_stats("batchnorm1d", x, gamma, beta, state, train)
    out = Tensor(_batchnorm_out(x.data, mean, inv, gamma.data, beta.data))
    record(
        out,
        (x, gamma, beta),
        lambda g: _batchnorm_grads(g, _normalized(x.data, mean, inv), x, gamma, beta, inv, train),
    )
    return out


# The leaky activations scale by a factor f that is exactly 1 where x > 0
# and exactly the slope s elsewhere: f = s*(1 - m) + m with m = (x > 0) in
# x's dtype, so x*f and g*f carry the bits of np.where(x > 0, x, s*x) and
# np.where(x > 0, g, s*g) for every finite slope (at s = -0.0 only a zero's
# sign can differ). np.where with a mask that follows the data's sign runs
# about 5x slower than a plain ufunc over the same array, because its
# per-element branch is taken at random; these kernels stay branch-free.
def _leaky_scale(a: np.ndarray, mask: np.ndarray, slope) -> np.ndarray:
    """a * f in a fresh array, f = 1 where mask else slope."""
    f = np.subtract(1, mask, dtype=a.dtype)
    f *= slope
    f += mask
    f *= a
    return f


def leaky_relu(x: Tensor, slope: float = 0.2) -> Tensor:
    s = x.data.dtype.type(slope)
    out = Tensor(_leaky_scale(x.data, x.data > 0, s))
    # The mask is recomputed from x rather than kept from the forward.
    record(out, (x,), lambda g: (_leaky_scale(g, x.data > 0, s),))
    return out


def _check_prelu(op: str, x: Tensor, slope: Tensor) -> np.ndarray:
    """The slope broadcast over [B,C,L] x, after checking both."""
    B, C, L = _as_3d(x, f"{op} input")
    if slope.shape != (C,):
        raise ShapeMismatchError(f"{op} slope must be ({C},), got {slope.shape}")
    check_same_dtype(op, x, slope)
    return slope.data[None, :, None]


def _prelu_grads(g, x: np.ndarray, s, slope: Tensor, want_gx: bool):
    """(gx, gslope) of prelu's output gradient g at input x; the mask is
    recomputed rather than kept from the forward."""
    mask = x > 0
    gx = _leaky_scale(g, mask, s) if want_gx else None
    gs = (g * x * (~mask)).sum(axis=(0, 2)) if slope.requires_grad else None
    return gx, gs


def prelu(x: Tensor, slope: Tensor) -> Tensor:
    """Leaky activation with one learnable slope per channel of [B,C,L]."""
    s = _check_prelu("prelu", x, slope)
    out = Tensor(_leaky_scale(x.data, x.data > 0, s))
    record(out, (x, slope), lambda g: _prelu_grads(g, x.data, s, slope, x.requires_grad))
    return out


def batchnorm_prelu(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    slope: Tensor,
    state: BatchNormState,
    train: bool,
) -> Tensor:
    """prelu(batchnorm1d(x, gamma, beta, state, train), slope) as one op.

    The output, the running statistics and the gradients of x, gamma, beta
    and slope are those of the two ops, bit for bit: the same IEEE
    operations run in the same order. The difference is what the record
    holds. The two ops' records hold the batchnorm input and the batchnorm
    output; this one holds only x, and its backward recomputes the
    batchnorm output from x and the statistics of the forward.
    """
    s = _check_prelu("batchnorm_prelu", x, slope)
    mean, inv = _batchnorm_stats("batchnorm_prelu", x, gamma, beta, state, train)
    y = _batchnorm_out(x.data, mean, inv, gamma.data, beta.data)
    out = Tensor(_leaky_scale(y, y > 0, s))

    def backward_fn(g):
        # y = xhat * gamma + beta has the bits of _batchnorm_out's in-place
        # ops on xhat's buffer, so xhat serves both backwards.
        xhat = _normalized(x.data, mean, inv)
        y = xhat * gamma.data[None, :, None]
        y += beta.data[None, :, None]
        gy, gs = _prelu_grads(g, y, s, slope, True)
        del y
        gx, ggamma, gbeta = _batchnorm_grads(gy, xhat, x, gamma, beta, inv, train)
        return (gx, ggamma, gbeta, gs)

    record(out, (x, gamma, beta, slope), backward_fn)
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)
    record(out, (x,), lambda g: (g * (1.0 - y * y),))
    return out


def framed_band_energy(x: Tensor, basis: DftBasis, partition: BandPartition) -> Tensor:
    """Differentiable decay relief of [B,1,L]: dsp.band_power's per-band
    frame power, reverse-cumulated over frames -> [B, bands, frames]. The
    same kernel scores validation and evaluation, so the loss and the metric
    agree bit for bit on the same samples, dtype and basis."""
    B, C, L = _as_3d(x, "framed_band_energy input")
    if C != 1:
        raise ShapeMismatchError(f"expected single-channel input, got {C} channels")
    out = Tensor(decay_relief(band_power(x.data[:, 0, :], basis, partition)))

    def backward_fn(g):
        # The framed spectra are recomputed rather than kept from the forward.
        re, im = framed_dft(x.data[:, 0, :], basis)  # [B,T,bins]
        dtype, (_, T, bins), cfg = x.data.dtype, re.shape, basis.cfg
        gband = np.swapaxes(np.cumsum(g, axis=2), 1, 2)  # [B,T,bands]
        gpower = gband @ partition.band_matrix(bins).astype(dtype, copy=False)
        real, imag = basis.real.astype(dtype, copy=False), basis.imag.astype(dtype, copy=False)
        gframes = (2.0 * re * gpower) @ real + (2.0 * im * gpower) @ imag
        gx = np.zeros((B, L), dtype=dtype)
        for t in range(T):
            gx[:, t * cfg.hop : t * cfg.hop + cfg.window_size] += gframes[:, t]
        return (gx[:, None, :],)

    record(out, (x,), backward_fn)
    return out


def mse_loss(a: Tensor, b: Tensor) -> Tensor:
    """Mean squared difference as a scalar tensor."""
    if a.shape != b.shape:
        raise ShapeMismatchError(f"mse_loss shapes differ: {a.shape} vs {b.shape}")
    check_same_dtype("mse_loss", a, b)
    diff = a.data - b.data
    n = diff.size
    out = Tensor(np.mean(diff**2))

    def backward_fn(g):
        scale = 2.0 * float(g) / n
        ga = scale * diff if a.requires_grad else None
        gb = -scale * diff if b.requires_grad else None
        return (ga, gb)

    record(out, (a, b), backward_fn)
    return out


def bce_logit_loss(logits: Tensor, targets: np.ndarray) -> Tensor:
    """Binary cross-entropy on raw logits via the stable softplus form, so
    saturated sigmoids never hit log(0)."""
    y = np.asarray(targets, dtype=logits.data.dtype)
    if y.shape != logits.shape:
        raise ShapeMismatchError(f"targets {y.shape} must match logits {logits.shape}")
    if not np.all((y == 0.0) | (y == 1.0)):
        raise InvalidInputError("targets must be 0 or 1")
    z = logits.data
    loss = np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))
    out = Tensor(np.mean(loss))

    def backward_fn(g):
        # exp(-z) overflows to inf below z of about -88 in float32 (-709 in
        # float64); 1/(1+inf) is then the right limit, 0.
        with np.errstate(over="ignore"):
            e = np.exp(-z)
        sig = 1.0 / (1.0 + e)
        return (float(g) * (sig - y) / z.size,)

    record(out, (logits,), backward_fn)
    return out


def concat_channels(a: Tensor, b: Tensor) -> Tensor:
    """Concatenate [B,Ca,L] and [B,Cb,L] along the channel axis."""
    Ba, Ca, La = _as_3d(a, "concat input a")
    Bb, Cb, Lb = _as_3d(b, "concat input b")
    if (Ba, La) != (Bb, Lb):
        raise ShapeMismatchError(f"concat batch/length differ: {a.shape} vs {b.shape}")
    check_same_dtype("concat_channels", a, b)
    out = Tensor(np.concatenate([a.data, b.data], axis=1))
    record(out, (a, b), lambda g: (g[:, :Ca], g[:, Ca:]))
    return out


def flatten(x: Tensor) -> Tensor:
    """[B, ...] -> [B, features]."""
    shape = x.shape
    out = Tensor(x.data.reshape(shape[0], -1))
    record(out, (x,), lambda g: (g.reshape(shape),))
    return out


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """[B,F] @ [F,O] (+ bias[O])."""
    if x.data.ndim != 2 or weight.data.ndim != 2 or x.shape[1] != weight.shape[0]:
        raise ShapeMismatchError(f"linear shapes incompatible: {x.shape} @ {weight.shape}")
    check_same_dtype("linear", x, weight, bias)
    out_data = x.data @ weight.data
    if bias is not None:
        out_data = out_data + bias.data[None, :]
    out = Tensor(out_data)

    def backward_fn(g):
        gx = g @ weight.data.T if x.requires_grad else None
        gw = x.data.T @ g if weight.requires_grad else None
        gb = g.sum(axis=0) if bias is not None and bias.requires_grad else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    record(out, (x, weight, bias) if bias is not None else (x, weight), backward_fn)
    return out
