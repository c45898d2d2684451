"""Differentiable operators: exactly the set the estimator, discriminator,
and losses need. All forward functions record their backward closure on the
tape. Each op computes and allocates in the dtype of its tensor inputs
(float32 or float64), and an op whose tensor operands differ in dtype
raises.

A record keeps as little as its backward needs, and one array of an
activation's size at most: masks, im2col columns, conv1d's padded input and
normalized activations are recomputed from the op's input in backward
rather than kept from the forward. batchnorm_prelu_conv_transpose1d is
conv_transpose1d(prelu(batchnorm1d())) as one op, whose record holds the
batchnorm input where the three ops' records hold it, the batchnorm output
and the PReLU output; its backward recomputes the PReLU output, which only
the weight gradient reads. The estimator's decoder runs it wherever a
batchnorm and PReLU feed a transposed convolution. It runs BatchNorm and
PReLU on per-example channel tiles that stay in cache (TILE), and
BatchNorm's backward is written from per-channel sums of the output
gradient, so it streams the activation about half as often as whole-array
numpy would. batchnorm1d and prelu, which no network runs, are whole-array
numpy: the references the fused op is tested against, bit for bit."""

from __future__ import annotations

import math
from contextlib import contextmanager
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


def activation_bound(weight_size: int, example_size: int) -> bool:
    """Whether a layer whose parameters hold weight_size elements is
    activation-bound: they hold no more elements than one example's output
    (example_size), so a batched GEMM saves little weight traffic and its
    batch-sized temporaries set the memory peak. The transposed-convolution
    kernels below run such a layer's GEMMs one example at a time (_groups),
    in train and eval mode alike."""
    return weight_size <= example_size


def _groups(B: int, weight_size: int, example_size: int) -> list[slice]:
    """The equal batch slices, in order, that a transposed-convolution kernel
    runs one GEMM each on: single examples if activation-bound, else all B."""
    if B > 1 and activation_bound(weight_size, example_size):
        return [slice(b, b + 1) for b in range(B)]
    return [slice(0, B)]


def _overlap_add(
    y_of, shape: tuple[int, int, int], weight: np.ndarray, stride: int, offset: int, length: int
) -> np.ndarray:
    """Transposed-convolution kernel, shared by conv1d's input gradient and
    the transposed convolutions' forwards: y, of shape [B,Ci,N], through
    weight [Ci,Co,K], input position n's tap k added in at n*stride + k.
    Returns the window [offset, offset+length) of that sum as a fresh
    [B,Co,length] array; positions no tap reaches are 0. The GEMM runs once
    per group of examples (_groups), each adding its columns into its own
    examples' output, so it holds one group's columns; y_of(grp) gives that
    group's [n,Ci,N] slice of y, and the output is allocated after the
    first group's GEMM."""
    (B, Ci, N), (_, Co, K) = shape, weight.shape
    w_t = weight.reshape(Ci, Co * K).T
    taps = _taps(K, N, stride, offset, length)
    out = None
    for grp in _groups(B, weight.size, Co * length):
        n = grp.stop - grp.start
        # The group's y and its [Ci, n*N] copy are temporaries of this one
        # expression (a view for one example), so they are freed before the
        # output is allocated.
        cols = (w_t @ y_of(grp).transpose(1, 0, 2).reshape(Ci, n * N)).reshape(Co, K, n, N)
        if out is None:
            out = np.zeros((B, Co, length), dtype=cols.dtype)
        for k, src, dst in taps:
            out[grp, :, dst] += cols[:, k, :, src].transpose(1, 0, 2)
        del cols  # before the next group's columns are computed
    return out


def _taps(K: int, N: int, stride: int, offset: int, length: int) -> list[tuple[int, slice, slice]]:
    """(k, src, dst) for each tap k, in tap order, that reaches the window
    [offset, offset+length) from N input positions: the positions src whose
    tap k lands inside it, at the window positions dst."""
    taps = []
    for k in range(K):
        n0 = max(0, -((k - offset) // stride))  # first n with n*stride + k >= offset
        n1 = min(N, (offset + length - 1 - k) // stride + 1)
        if n1 > n0:
            start = n0 * stride + k - offset
            taps.append((k, slice(n0, n1), slice(start, start + (n1 - n0) * stride, stride)))
    return taps


# The correlate direction (conv1d's forward and weight gradient,
# conv_transpose1d's two gradients) runs as im2col GEMMs. conv1d lays its
# columns out [B*Lout, Cin*K] and conv_transpose1d [Cout*K, B*L], each the
# faster layout for its own op. conv1d on [C*K, B*L] columns made full-train
# slower in 7 of 8 alternating benchmark pairs (examples_per_s median 17.66
# -> 16.79, against a quartile spread of 2.60) and raised its peak RSS from
# 254.1 to 258.0 MB in 8 of 8; conv_transpose1d's backward on
# [B*L, C*K] columns took dec5 from 14.6 to 20.5 ms at batch 4. Either
# layout transposed also changes the last bits of some of the toy profile's
# small float64 GEMMs.
# conv1d's forward GEMM is weight-first, W [Cout, Cin*K] @ cols.T, so the
# weight (10-21 MB on the full encoder) is the untransposed left operand that
# BLAS packs cheaply, and the [Cout, B*Lout] result already is the output at
# batch 1. It is bit-equal to cols @ W.T on every conv shape of both
# profiles at batches 1 to 16, with one and two BLAS threads; columns laid
# out C-contiguous [Cin*K, B*Lout] are not. The backward pads x again and
# rebuilds the columns from it, so the record holds neither enc0's
# [B*64, 8193] columns nor a padded copy of its input.
# The scatter direction (the transposed convolutions' forwards, conv1d's
# input gradient) is _overlap_add, the col2im adjoint of that im2col
# (Dumoulin & Visin, 2016): per group of n examples, one GEMM
# W^T [Co*K, Ci] @ y [Ci, n*N] gives every tap of every input position, and
# each tap's [n, Co, N] slice is added at stride straight into the zeroed
# output window, so no caller crops or copies. Each element is 0 + tap_0 + tap_1 + ... in tap order;
# TestForwardReferences pins those bits to a reference kernel on every layer
# shape. A group of one example gives the batch GEMM's bits and holds one
# example's columns; at batch 4, dec5's for the whole batch would be 21 MB,
# 5x its output. Laying the GEMM out input-first
# ([B*N, Co*K], with channels-last adds and one transpose, or adds through a
# transposed view) was slower on the full decoder's dec4 and dec5.
def _check_conv(
    op: str, x: Tensor, weight: Tensor, bias: Tensor | None, stride: int, cin_axis: int
) -> tuple[int, int, int, int, int]:
    """(B, Cin, L, Cout, K) of a convolution of x through weight, whose
    input channels lie on axis cin_axis (1 for conv1d's [Cout,Cin,K], 0 for
    conv_transpose1d's [Cin,Cout,K]), after checking x, weight, bias and
    stride."""
    B, Cin, L = _as_3d(x, f"{op} input")
    if weight.data.ndim != 3 or weight.shape[cin_axis] != Cin:
        raise ShapeMismatchError(f"{op} weight {weight.shape} incompatible with input {x.shape}")
    Cout, K = weight.shape[1 - cin_axis], weight.shape[2]
    check_same_dtype(op, x, weight, bias)
    if stride < 1:
        raise InvalidConfigError(f"stride must be >= 1, got {stride}")
    if bias is not None and bias.shape != (Cout,):
        raise ShapeMismatchError(f"bias {bias.shape} must be ({Cout},)")
    return B, Cin, L, Cout, K


def conv1d(
    x: Tensor, weight: Tensor, bias: Tensor | None = None, stride: int = 1, padding: int = 0
) -> Tensor:
    """Cross-correlation of [B,Cin,L] with [Cout,Cin,K] -> [B,Cout,Lout],
    Lout = floor((L + 2*padding - K)/stride) + 1."""
    B, Cin, L, Cout, K = _check_conv("conv1d", x, weight, bias, stride, 1)
    Lp = L + 2 * padding
    if K > Lp:
        raise ShapeMismatchError(f"kernel {K} longer than padded input {Lp}")
    Lout = (Lp - K) // stride + 1

    def im2col() -> np.ndarray:
        """[B*Lout, Cin*K]: one row of Cin*K taps per output position, read
        from a padded copy of x that is freed on return."""
        x_pad = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)))
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
            gx = _overlap_add(lambda grp: g[grp], g.shape, weight.data, stride, padding, L)
        return (gx, gw, gb) if bias is not None else (gx, gw)

    record(out, (x, weight, bias) if bias is not None else (x, weight), backward_fn)
    return out


def _check_conv_transpose1d(
    op: str, x: Tensor, weight: Tensor, bias: Tensor | None, stride: int, padding: int,
    output_padding: int,
) -> int:
    """The output length of conv_transpose1d on x, after checking its
    operands and arguments."""
    _, _, L, _, K = _check_conv(op, x, weight, bias, stride, 0)
    if output_padding >= stride:
        raise InvalidConfigError(
            f"output_padding {output_padding} must be smaller than stride {stride}"
        )
    L_out = (L - 1) * stride - 2 * padding + K + output_padding
    if L_out < 1:
        raise ShapeMismatchError(f"output length {L_out} is not positive")
    return L_out


def _conv_transpose1d_backward(
    g: np.ndarray, weight: np.ndarray, stride: int, padding: int, L: int, x_of,
    want_gx: bool, want_gw: bool,
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(gx, gw) of the output gradient g [B,Cout,L_out] of a transposed
    convolution through weight [Cin,Cout,K] of an input of length L, each
    None unless wanted. One loop over the groups of examples (_groups):
    each builds its columns, the windows of its zero-padded gradient, which
    it frees before its GEMMs, then writes its slice of gx and adds its
    term of gw, in group order. x_of(grp) gives the input's examples grp,
    [n,Cin,L]; it is called once per group, after the group's gx GEMM, and
    only for gw."""
    (B, Cout, L_out), (Cin, _, K) = g.shape, weight.shape
    L_full = (L - 1) * stride + K
    span = min(L_full, padding + L_out) - padding
    w2 = weight.reshape(Cin, Cout * K)
    groups = _groups(B, weight.size, Cout * L_out)
    n = B // len(groups)
    for i, grp in enumerate(groups):
        gfull = np.zeros((n, Cout, L_full), dtype=g.dtype)
        if span > 0:
            gfull[:, :, padding : padding + span] = g[grp, :, :span]
        # [Cout, K, n, L]: what tap k of input position l sent out.
        gwin = sliding_window_view(gfull, K, axis=2)[:, :, ::stride, :][:, :, :L, :]
        cols = np.ascontiguousarray(gwin.transpose(1, 3, 0, 2)).reshape(Cout * K, n * L)
        del gfull, gwin  # before the GEMMs, and before the gradients are allocated
        if i == 0:
            # Group i's GEMM writes gx[i] in place, so gx is [B, Cin, L] for
            # single examples and a view of [Cin, B, L] for the batch.
            gx = np.empty((len(groups), Cin, n, L), g.dtype) if want_gx else None
            gw = np.empty((Cin, Cout * K), g.dtype) if want_gw else None
            term = np.empty_like(gw) if gw is not None and n < B else None
        if gx is not None:
            np.matmul(w2, cols, out=gx[i].reshape(Cin, n * L))
        if gw is not None:
            # cols @ x^T written through a transposed view: numpy runs
            # that GEMM as it is and the gradient comes out C-contiguous,
            # so neither backward nor rmsprop_step has to copy it. The
            # GEMM x^T-first (x2 @ cols.T) is C-contiguous too, but it
            # rounds differently from this one on some toy float64 shapes.
            # gw sums the groups' GEMMs in group order.
            x2 = x_of(grp).transpose(0, 2, 1).reshape(n * L, Cin)
            np.matmul(cols, x2, out=(term if i else gw).T)
            if i:
                gw += term
            del x2  # and the input x_of built, before the next group's
        del cols  # before the next group's columns are built
    if gx is not None:
        gx = gx.transpose(0, 2, 1, 3).reshape(B, Cin, L)
    if gw is not None:
        gw = gw.reshape(Cin, Cout, K)
    return gx, gw


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
    L_out = _check_conv_transpose1d(
        "conv_transpose1d", x, weight, bias, stride, padding, output_padding
    )
    out_data = _overlap_add(
        lambda grp: x.data[grp], x.shape, weight.data, stride, padding, L_out
    )
    if bias is not None:
        out_data += bias.data[None, :, None]
    out = Tensor(out_data)

    def backward_fn(g):
        gx, gw = _conv_transpose1d_backward(
            g, weight.data, stride, padding, x.shape[2], lambda grp: x.data[grp],
            x.requires_grad, weight.requires_grad,
        )
        gb = g.sum(axis=(0, 2)) if bias is not None and bias.requires_grad else None
        return (gx, gw, gb) if bias is not None else (gx, gw)

    record(out, (x, weight, bias) if bias is not None else (x, weight), backward_fn)
    return out


BN_MOMENTUM = 0.1  # weight of a batch's statistics in the running ones
BN_EPS = 1e-5  # added to the variance before its square root

# The fused op's BatchNorm and PReLU, and the batch statistics of every
# BatchNorm, run on per-example channel tiles, x[b, c0:c1] of about
# TILE elements (one channel at least), so each pass over a tile reads what
# the pass before it left in cache instead of streaming the whole
# activation again. Tiles take channels in order and, within them, examples
# in order. No result depends on TILE: the ops are elementwise, and each
# per-channel sum adds one row sum per example, in example order, each row
# summed whole by numpy.
TILE = 1 << 16


# numpy 2.4 runs a ufunc with an operand broadcast along rows shorter than
# its buffer (8192 elements by default) about 3x slower than with the buffer
# no longer than a row: a [16, 4096] float32 tile times a [16, 1] column
# took 32 us against 10 us, which made dec5's BatchNorm+PReLU about 30%
# slower. So the tile kernels shrink the buffer to a row for rows of
# LONG_ROW elements or more. Shorter rows keep it: at 64 elements the fused
# op ran 1.7x slower with the buffer at one row. The buffer size sets no
# result's bits: numpy buffers these elementwise ops, and reductions that
# need no cast, only to batch their inner loops.
LONG_ROW = 1024


@contextmanager
def _channel_tiles(x: np.ndarray, *dtypes):
    """The tiles of [B,C,L] x, as a list of (channels, scratch): a slice of
    TILE // L channels (at least one, at most C), and one [channels, L]
    scratch array per dtype given, shared by all tiles. Within the block,
    rows of LONG_ROW elements or more run unbuffered."""
    _, C, L = x.shape
    step = max(1, min(C, TILE // max(L, 1)))
    buffers = [np.empty((step, L), dtype) for dtype in dtypes]
    slices = [slice(c0, min(C, c0 + step)) for c0 in range(0, C, step)]
    tiles = [(cs, [buf[: cs.stop - cs.start] for buf in buffers]) for cs in slices]
    if L < LONG_ROW:
        yield tiles
        return
    old = np.setbufsize(min(np.getbufsize(), L - L % 16))  # numpy 1.x takes multiples of 16
    try:
        yield tiles
    finally:
        np.setbufsize(old)


def _batch_stats(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """x.mean(axis=(0, 2)) and x.var(axis=(0, 2)), bit for bit, from
    per-example row sums: numpy's reductions over those axes add the same
    row sums in the same order. var takes this mean rather than computing
    it again."""
    B, C, L = x.shape
    mean, var = np.zeros(C, x.dtype), np.zeros(C, x.dtype)
    with _channel_tiles(x, x.dtype) as tiles:
        for cs, (d,) in tiles:
            for b in range(B):
                mean[cs] += x[b, cs].sum(axis=1)
            mean[cs] /= B * L
            for b in range(B):
                np.subtract(x[b, cs], mean[cs, None], out=d)
                d *= d
                var[cs] += d.sum(axis=1)
            var[cs] /= B * L
    return mean, var


@dataclass
class BatchNormState:
    """Running statistics for one batchnorm layer (eval-mode source)."""

    running_mean: np.ndarray
    running_var: np.ndarray

    @classmethod
    def for_channels(cls, n_channels: int, dtype=np.float64) -> "BatchNormState":
        return cls(
            running_mean=np.zeros(n_channels, dtype), running_var=np.ones(n_channels, dtype)
        )


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
        mean, var = _batch_stats(x.data)
        state.running_mean = (1 - BN_MOMENTUM) * state.running_mean + BN_MOMENTUM * mean
        state.running_var = (1 - BN_MOMENTUM) * state.running_var + BN_MOMENTUM * var
    else:
        mean, var = state.running_mean, state.running_var
    return mean, 1.0 / np.sqrt(var + BN_EPS)


def _batchnorm_tile(x, mean, inv, gamma, beta, out) -> None:
    """out = ((x - mean) * inv) * gamma + beta on one tile, per-channel
    values as [channels, 1] columns."""
    np.subtract(x, mean, out=out)
    out *= inv
    out *= gamma
    out += beta


def _prelu_tile(y, s, out, scratch) -> None:
    """out = max(y, -0) + s*min(0, y) on one tile: np.where(y > 0, y, s*y)
    up to the sign of a zero, without its slow per-element branch or a
    factor array. scratch may be y.

    Where y <= 0 the first term is -0, which keeps the sign of any zero
    s*y. Where y is a zero, the sign of the result hangs on which operand
    numpy's maximum and minimum return for two equal zeros; with the
    second, as on x86, this operand order gives np.where's bits exactly."""
    np.maximum(y, -0.0, out=out)
    np.minimum(0, y, out=scratch)
    scratch *= s
    out += scratch


def _prelu_grad_tile(g, y, s, gy, mask, scratch) -> np.ndarray:
    """PReLU's backward on one tile: writes gy = g*f into gy, f as
    _leaky_scale builds it, and returns the row sums of g*min(y, 0), the
    slope gradient's terms. scratch may be y."""
    np.greater(y, 0, out=mask)
    _leaky_scale(g, mask, s, out=gy)
    np.minimum(y, 0, out=scratch)
    scratch *= g
    return scratch.sum(axis=1)


def _bn_prelu_forward(x, mean, inv, gamma, beta, s) -> np.ndarray:
    """PReLU's output, with s the [C, 1] slopes, of batchnorm's output of
    x [B,C,L], in a fresh array. The batchnorm output of a tile stays in
    cache for the PReLU."""
    B = x.shape[0]
    out = np.empty(x.shape, x.dtype)
    mean, inv, gamma, beta = (v[:, None] for v in (mean, inv, gamma, beta))
    with _channel_tiles(x, x.dtype) as tiles:
        for cs, (y,) in tiles:
            for b in range(B):
                _batchnorm_tile(x[b, cs], mean[cs], inv[cs], gamma[cs], beta[cs], y)
                _prelu_tile(y, s[cs], out[b, cs], y)
    return out


def _bn_prelu_backward(g, x, mean, inv, gamma, beta, train: bool, s, want_gx: bool):
    """(gx, ggamma, gbeta, gslope) of the output gradient g of
    _bn_prelu_forward(x, mean, inv, gamma, beta, s). gx is None unless
    want_gx, and no other array of x's size is made.

    Pass 1 rebuilds d = x - mean, the batchnorm output y and its sign mask,
    writes batchnorm's output gradient gy into the gx buffer and adds the
    per-channel sums of gy, gy*d and g*min(y, 0). Once a channel tile has
    all its examples' sums, pass 2 turns its gy into
    gx = a*gy - a*sum(gy)/n - d*(a*inv^2*sum(gy*d)/n) in place, a =
    inv*gamma, n = B*L, from the sums as Ioffe & Szegedy (2015, sec. 3)
    write the gradient; in eval mode gx = a*gy. gamma's gradient is
    inv*sum(gy*d) and beta's sum(gy)."""
    B, C, L = x.shape
    n = B * L
    gx = np.empty(x.shape, x.dtype)
    sum_gy, sum_gyd = np.zeros((C, 1), x.dtype), np.zeros((C, 1), x.dtype)
    gslope = np.zeros(C, x.dtype)
    mean, inv, gamma, beta = (v[:, None] for v in (mean, inv, gamma, beta))
    a = inv * gamma
    with _channel_tiles(x, x.dtype, x.dtype, bool) as tiles:
        for cs, (d, t, mask) in tiles:
            for b in range(B):
                gy = gx[b, cs]
                np.subtract(x[b, cs], mean[cs], out=d)
                np.multiply(d, inv[cs], out=t)
                t *= gamma[cs]
                t += beta[cs]
                gslope[cs] += _prelu_grad_tile(g[b, cs], t, s[cs], gy, mask, t)
                sum_gy[cs, 0] += gy.sum(axis=1)
                np.multiply(gy, d, out=t)
                sum_gyd[cs, 0] += t.sum(axis=1)
            if not want_gx:
                continue
            c1 = a[cs] * sum_gy[cs] / n
            c2 = a[cs] * inv[cs] * inv[cs] * sum_gyd[cs] / n
            for b in range(B):
                gy = gx[b, cs]
                gy *= a[cs]
                if train:
                    gy -= c1
                    np.subtract(x[b, cs], mean[cs], out=d)
                    d *= c2
                    gy -= d
    return (gx if want_gx else None), (inv * sum_gyd)[:, 0], sum_gy[:, 0], gslope


def batchnorm1d(
    x: Tensor, gamma: Tensor, beta: Tensor, state: BatchNormState, train: bool
) -> Tensor:
    """Per-channel normalization of [B,C,L]; batch statistics in train mode
    (batch of >= 2 required), which also update the running statistics, and
    running statistics in eval mode. Whole-array numpy that runs the fused
    op's IEEE operations in the same order."""
    mean, inv = _batchnorm_stats("batchnorm1d", x, gamma, beta, state, train)
    mean, inv, gamma_c = mean[:, None], inv[:, None], gamma.data[:, None]
    out = np.empty(x.shape, x.data.dtype)
    _batchnorm_tile(x.data, mean, inv, gamma_c, beta.data[:, None], out)
    out = Tensor(out)

    def backward_fn(g):
        # Ioffe & Szegedy's gradient from per-channel sums, as
        # _bn_prelu_backward writes it.
        n = x.shape[0] * x.shape[2]
        d = x.data - mean
        a = inv * gamma_c
        sum_gy = g.sum(axis=(0, 2), keepdims=True)[0]
        sum_gyd = (g * d).sum(axis=(0, 2), keepdims=True)[0]
        gx = None
        if x.requires_grad:
            gx = g * a
            if train:
                gx -= a * sum_gy / n
                gx -= d * (a * inv * inv * sum_gyd / n)
        return gx, (inv * sum_gyd)[:, 0], sum_gy[:, 0]

    record(out, (x, gamma, beta), backward_fn)
    return out


# The PReLU backwards (leaky_relu's, prelu's and the fused op's tile
# kernel, _prelu_grad_tile) scale by a factor f that is exactly 1 where the
# mask is set and exactly the slope s elsewhere: f = s*(1 - m) + m with m
# the mask in the data's dtype, so g*f carries the bits of
# np.where(x > 0, g, s*g) for every finite slope (at s = -0.0 only a zero's
# sign can differ). np.where with a mask that follows the data's sign runs
# about 5x slower than a plain ufunc over the same array, because its
# per-element branch is taken at random; these kernels stay branch-free.
# The forwards need no factor: _prelu_tile's max(y, -0) + s*min(0, y) gives
# np.where(x > 0, x, s*x)'s bits, up to a zero's sign off x86, in four ufunc
# passes where the mask and factor take five.
def _leaky_scale(a: np.ndarray, mask: np.ndarray, slope, out=None) -> np.ndarray:
    """a * f, f = 1 where mask else slope, into out or a fresh array."""
    f = np.subtract(1, mask, dtype=a.dtype, out=out)
    f *= slope
    f += mask
    f *= a
    return f


LEAKY_SLOPE = 0.2  # of leaky_relu, the encoder's and discriminator's activation


def _prelu_forward(x: np.ndarray, s) -> np.ndarray:
    """_prelu_tile over the whole of x, slopes s, into a fresh array."""
    out = np.empty_like(x)
    _prelu_tile(x, s, out, np.empty_like(x))
    return out


def leaky_relu(x: Tensor) -> Tensor:
    s = x.data.dtype.type(LEAKY_SLOPE)
    out = Tensor(_prelu_forward(x.data, s))
    # The mask is recomputed from x rather than kept from the forward.
    record(out, (x,), lambda g: (_leaky_scale(g, x.data > 0, s),))
    return out


def _check_prelu(op: str, x: Tensor, slope: Tensor) -> np.ndarray:
    """The slope as a [C, 1] column for [B,C,L] x, after checking both."""
    B, C, L = _as_3d(x, f"{op} input")
    if slope.shape != (C,):
        raise ShapeMismatchError(f"{op} slope must be ({C},), got {slope.shape}")
    check_same_dtype(op, x, slope)
    return slope.data[:, None]


def prelu(x: Tensor, slope: Tensor) -> Tensor:
    """Leaky activation with one learnable slope per channel of [B,C,L]."""
    s = _check_prelu("prelu", x, slope)
    out = Tensor(_prelu_forward(x.data, s))

    def backward_fn(g):
        # The mask is recomputed from x rather than kept from the forward.
        return _leaky_scale(g, x.data > 0, s), (np.minimum(x.data, 0) * g).sum(axis=(0, 2))

    record(out, (x, slope), backward_fn)
    return out


def batchnorm_prelu_conv_transpose1d(
    x: Tensor,
    gamma: Tensor,
    beta: Tensor,
    slope: Tensor,
    state: BatchNormState,
    train: bool,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
    output_padding: int = 0,
) -> Tensor:
    """conv_transpose1d(prelu(batchnorm1d(x, gamma, beta, state, train),
    slope), weight, bias, stride, padding, output_padding) as one op.

    The output, the running statistics and every gradient are those of the
    three ops, bit for bit: the same IEEE operations run in the same order.
    Their records hold x, the batchnorm output and the PReLU output h; this
    one holds x and the batch statistics alone. Its backward computes h's gradient, recomputes
    h from x one GEMM group at a time for the weight gradient
    (_conv_transpose1d_backward's x_of), then runs BatchNorm+PReLU's
    backward. Every check runs before the running statistics change.
    """
    op = "batchnorm_prelu_conv_transpose1d"
    s = _check_prelu(op, x, slope)
    L_out = _check_conv_transpose1d(op, x, weight, bias, stride, padding, output_padding)
    mean, inv = _batchnorm_stats(op, x, gamma, beta, state, train)

    def h_of(grp) -> np.ndarray:
        return _bn_prelu_forward(x.data[grp], mean, inv, gamma.data, beta.data, s)

    out_data = _overlap_add(h_of, x.shape, weight.data, stride, padding, L_out)
    if bias is not None:
        out_data += bias.data[None, :, None]
    out = Tensor(out_data)

    def backward_fn(g):
        gh, gw = _conv_transpose1d_backward(
            g, weight.data, stride, padding, x.shape[2], h_of,
            any(t.requires_grad for t in (x, gamma, beta, slope)), weight.requires_grad,
        )
        gb = g.sum(axis=(0, 2)) if bias is not None and bias.requires_grad else None
        grads = (None,) * 4
        if gh is not None:
            grads = _bn_prelu_backward(
                gh, x.data, mean, inv, gamma.data, beta.data, train, s, x.requires_grad
            )
        return (*grads, gw, gb) if bias is not None else (*grads, gw)

    inputs = (x, gamma, beta, slope, weight)
    record(out, inputs + (bias,) if bias is not None else inputs, backward_fn)
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
        dtype, T, cfg = x.data.dtype, re.shape[1], basis.cfg
        gband = np.swapaxes(np.cumsum(g, axis=2), 1, 2)  # [B,T,bands]
        gpower = gband @ partition.band_matrix().astype(dtype, copy=False)
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
    """[B, ...] -> [B, features]; an empty batch too."""
    shape = x.shape
    out = Tensor(x.data.reshape(shape[0], math.prod(shape[1:])))
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
