"""Differentiable operators: exactly the set the estimator, discriminator,
and losses need. All forward functions record their backward closure on the
tape. Each op computes and allocates in the dtype of its tensor inputs
(float32 or float64), and an op whose tensor operands differ in dtype
raises."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from ..dsp import BandPartition, StftConfig, make_window
from ..errors import InvalidConfigError, InvalidInputError, ShapeMismatchError
from .tensor import Tensor, check_same_dtype, record


def _as_3d(x: Tensor, name: str) -> tuple[int, int, int]:
    if x.data.ndim != 3:
        raise ShapeMismatchError(f"{name} must be [batch, channels, length], got {x.shape}")
    return x.shape


def _overlap_add(y: np.ndarray, weight: np.ndarray, stride: int, length: int) -> np.ndarray:
    """Transposed-convolution kernel, shared by conv1d's input gradient and
    conv_transpose1d's forward: y [B,Ci,N] through weight [Ci,Co,K], each
    input position's K taps added in at stride -> [B,Co,length], where
    length >= (N-1)*stride + K."""
    cols = np.einsum("bil,iok->bolk", y, weight, optimize=True)
    out = np.zeros((y.shape[0], weight.shape[1], length), dtype=y.dtype)
    for k in range(weight.shape[2]):
        out[:, :, k : k + stride * y.shape[2] : stride] += cols[:, :, :, k]
    return out


# The correlate direction (conv1d's forward and weight gradient,
# conv_transpose1d's two gradients) runs as im2col GEMMs. conv1d lays its
# columns out [B*Lout, Cin*K] and conv_transpose1d [Cout*K, B*L]: each
# layout, with its GEMMs' operand order, gives the bits of the code it
# replaced on every shape of both profiles. Either one transposed changes
# the last bits of some of the toy profile's small float64 GEMMs.
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
    x_pad = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)))
    windows = sliding_window_view(x_pad, K, axis=2)[:, :, ::stride, :]  # [B,Cin,Lout,K]
    Lout = windows.shape[2]
    # im2col: one row of Cin*K taps per output position, shared by the
    # forward and the weight-gradient GEMMs.
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(B * Lout, Cin * K)
    out_data = np.ascontiguousarray(
        (cols @ weight.data.reshape(Cout, Cin * K).T).reshape(B, Lout, Cout).transpose(0, 2, 1)
    )
    if bias is not None:
        if bias.shape != (Cout,):
            raise ShapeMismatchError(f"bias {bias.shape} must be ({Cout},)")
        out_data += bias.data[None, :, None]
    out = Tensor(out_data)

    def backward_fn(g):
        gw = (
            (g.transpose(0, 2, 1).reshape(B * Lout, Cout).T @ cols).reshape(Cout, Cin, K)
            if weight.requires_grad
            else None
        )
        gb = g.sum(axis=(0, 2)) if bias is not None and bias.requires_grad else None
        gx = None
        if x.requires_grad:
            gx = _overlap_add(g, weight.data, stride, Lp)[:, :, padding : padding + L]
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

    full = _overlap_add(x.data, weight.data, stride, L_full)
    out_data = np.zeros((B, Cout, L_out), dtype=x.data.dtype)
    span = min(L_full, padding + L_out) - padding
    if span > 0:
        out_data[:, :, :span] = full[:, :, padding : padding + span]
    if bias is not None:
        if bias.shape != (Cout,):
            raise ShapeMismatchError(f"bias {bias.shape} must be ({Cout},)")
        out_data = out_data + bias.data[None, :, None]
    out = Tensor(out_data)

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


def batchnorm1d(
    x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, train: bool
) -> Tensor:
    """Per-channel normalization of [B,C,L]; batch statistics in train mode
    (batch of >= 2 required), which also update the running statistics, and
    running statistics in eval mode."""
    B, C, L = _as_3d(x, "batchnorm1d input")
    if gamma.shape != (C,) or beta.shape != (C,):
        raise ShapeMismatchError(f"gamma/beta must be ({C},), got {gamma.shape}/{beta.shape}")
    check_same_dtype("batchnorm1d", x, gamma, beta)
    stat_dtypes = {state.running_mean.dtype, state.running_var.dtype}
    if stat_dtypes != {x.data.dtype}:
        raise InvalidInputError(
            f"batchnorm1d running statistics are {sorted(d.name for d in stat_dtypes)}, "
            f"the input is {x.data.dtype.name}"
        )
    if train:
        if B < 2:
            raise InvalidInputError("batchnorm1d needs a batch of at least 2 in train mode")
        mean = x.data.mean(axis=(0, 2))
        var = x.data.var(axis=(0, 2))
        m = state.momentum
        state.running_mean = (1 - m) * state.running_mean + m * mean
        state.running_var = (1 - m) * state.running_var + m * var
    else:
        mean, var = state.running_mean, state.running_var
    inv = 1.0 / np.sqrt(var + state.eps)

    def normalized():
        return (x.data - mean[None, :, None]) * inv[None, :, None]

    out = Tensor(gamma.data[None, :, None] * normalized() + beta.data[None, :, None])

    def backward_fn(g):
        # xhat is recomputed from x rather than kept from the forward, so
        # the record holds no activation-sized array of its own.
        xhat = normalized()
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
        return (gx, ggamma, gbeta)

    record(out, (x, gamma, beta), backward_fn)
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


def prelu(x: Tensor, slope: Tensor) -> Tensor:
    """Leaky activation with one learnable slope per channel of [B,C,L]."""
    B, C, L = _as_3d(x, "prelu input")
    if slope.shape != (C,):
        raise ShapeMismatchError(f"prelu slope must be ({C},), got {slope.shape}")
    check_same_dtype("prelu", x, slope)
    s = slope.data[None, :, None]
    out = Tensor(_leaky_scale(x.data, x.data > 0, s))

    def backward_fn(g):
        mask = x.data > 0  # recomputed rather than kept from the forward
        gx = _leaky_scale(g, mask, s) if x.requires_grad else None
        gs = (g * x.data * (~mask)).sum(axis=(0, 2)) if slope.requires_grad else None
        return (gx, gs)

    record(out, (x, slope), backward_fn)
    return out


def tanh(x: Tensor) -> Tensor:
    y = np.tanh(x.data)
    out = Tensor(y)
    record(out, (x,), lambda g: (g * (1.0 - y * y),))
    return out


@dataclass(frozen=True)
class DftBasis:
    """Fixed windowed-DFT matrices so framed spectra are plain matmuls."""

    window_size: int
    hop: int
    real: np.ndarray  # [bins x window_size]
    imag: np.ndarray


def make_dft_basis(cfg: StftConfig) -> DftBasis:
    win = make_window(cfg.window, cfg.window_size)
    n = np.arange(cfg.window_size)
    k = np.arange(cfg.n_bins)
    angle = 2.0 * np.pi * np.outer(k, n) / cfg.window_size
    return DftBasis(
        window_size=cfg.window_size,
        hop=cfg.hop,
        real=np.cos(angle) * win[None, :],
        imag=-np.sin(angle) * win[None, :],
    )


def framed_band_energy(x: Tensor, basis: DftBasis, partition: BandPartition) -> Tensor:
    """Differentiable decay relief of [B,1,L]: windowed-DFT power summed per
    octave band, then reverse-cumulated over frames -> [B, bands, frames].

    Numerically equal to the FFT-based metric on the same config.
    """
    B, C, L = _as_3d(x, "framed_band_energy input")
    if C != 1:
        raise ShapeMismatchError(f"expected single-channel input, got {C} channels")
    if partition.fft_size != basis.window_size:
        raise InvalidConfigError(
            f"partition fft_size {partition.fft_size} does not match basis window "
            f"{basis.window_size}"
        )
    W, hop = basis.window_size, basis.hop
    if L < W:
        raise InvalidInputError(f"input length {L} shorter than analysis window {W}")
    T = (L - W) // hop + 1
    dtype = x.data.dtype
    real, imag = basis.real.astype(dtype, copy=False), basis.imag.astype(dtype, copy=False)
    frames = sliding_window_view(x.data[:, 0, :], W, axis=1)[:, ::hop, :][:, :T]  # [B,T,W]
    re = frames @ real.T  # [B,T,bins]
    im = frames @ imag.T
    power = re**2 + im**2
    band_m = partition.band_matrix(real.shape[0]).astype(dtype, copy=False)  # [bands x bins]
    band = np.swapaxes(power @ band_m.T, 1, 2)  # [B,bands,T]
    out = Tensor(np.flip(np.cumsum(np.flip(band, axis=2), axis=2), axis=2))

    def backward_fn(g):
        gband = np.swapaxes(np.cumsum(g, axis=2), 1, 2)  # [B,T,bands]
        gpower = gband @ band_m
        gframes = (2.0 * re * gpower) @ real + (2.0 * im * gpower) @ imag
        gx = np.zeros((B, L), dtype=dtype)
        for t in range(T):
            gx[:, t * hop : t * hop + W] += gframes[:, t]
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
        sig = 1.0 / (1.0 + np.exp(-z))
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
