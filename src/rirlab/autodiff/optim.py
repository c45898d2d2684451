"""RMSprop parameter updates."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..errors import ShapeMismatchError
from .tensor import Tensor, check_same_dtype

RHO = 0.99  # decay of the mean-square accumulators
EPS = 1e-8  # added to the RMS before it divides a gradient


@dataclass
class RmspropState:
    """Per-parameter running mean-square accumulators plus step size."""

    lr: float
    square_avg: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def for_params(cls, params: list[Tensor], lr: float):
        return cls(lr=lr, square_avg=[np.zeros_like(p.data) for p in params])


CHUNK = 1 << 15  # elements per block: two scratch blocks stay in cache


def rmsprop_step(
    params: list[Tensor], grads: list[np.ndarray | None], state: RmspropState
) -> None:
    """acc <- RHO*acc + (1-RHO)*g^2;  p <- p - lr*g/(sqrt(acc) + EPS).

    A None gradient decays its accumulator and leaves the parameter alone.
    Updates happen in place on the parameter tensors and the state, in the
    parameters' dtype, which all of them share (they come from one network).
    Each parameter is walked in blocks of CHUNK elements, so every pass over
    a block reads it from cache; the operations and their rounding order are
    those of the expressions above, evaluated left to right.
    """
    if len(params) != len(grads) or len(params) != len(state.square_avg):
        raise ShapeMismatchError(
            f"got {len(params)} params, {len(grads)} grads, {len(state.square_avg)} accumulators"
        )
    lr = state.lr
    check_same_dtype("rmsprop_step", *params)
    dtype = params[0].data.dtype if params else np.float64
    scratch1, scratch2 = np.empty(CHUNK, dtype), np.empty(CHUNK, dtype)
    for p, g, acc in zip(params, grads, state.square_avg):
        if acc.shape != p.data.shape:
            raise ShapeMismatchError(f"accumulator {acc.shape} does not match param {p.shape}")
        if g is None:
            acc *= RHO
            continue
        if g.shape != p.data.shape:
            raise ShapeMismatchError(f"gradient {g.shape} does not match param {p.shape}")
        # reshape(-1) is a view of a contiguous array and a copy of any
        # other; a copy is written back after the blocks below.
        p_flat, acc_flat, g_flat = p.data.reshape(-1), acc.reshape(-1), g.reshape(-1)
        for start in range(0, g_flat.size, CHUNK):
            stop = min(start + CHUNK, g_flat.size)
            gc, ac, pc = g_flat[start:stop], acc_flat[start:stop], p_flat[start:stop]
            t1, t2 = scratch1[: stop - start], scratch2[: stop - start]
            ac *= RHO
            np.multiply(gc, 1.0 - RHO, out=t1)
            t1 *= gc
            ac += t1
            np.sqrt(ac, out=t1)
            t1 += EPS
            np.multiply(gc, lr, out=t2)
            t2 /= t1
            pc -= t2
        for whole, flat in ((p.data, p_flat), (acc, acc_flat)):
            if not np.may_share_memory(whole, flat):
                whole[...] = flat.reshape(whole.shape)
