"""Reverse-mode differentiation: tensors and the recording tape.

Forward operators append (output id, inputs, backward closure) records to a
global tape whenever gradients are enabled and any input requires them.
backward() sweeps the records in reverse, accumulates adjoints additively
across fan-out, deposits .grad on leaf tensors, and consumes the tape; a
second backward without new recorded work is an error.
"""

from __future__ import annotations

import itertools
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from ..errors import InvalidInputError, ShapeMismatchError

_ids = itertools.count()


class Tensor:
    """A float64 array with an optional gradient slot."""

    __slots__ = ("data", "requires_grad", "grad", "node_id")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node_id = next(_ids)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        if self.data.size != 1:
            raise InvalidInputError(f"item() needs a scalar, got shape {self.shape}")
        return float(self.data.reshape(()))

    def detach(self) -> "Tensor":
        return Tensor(self.data.copy())

    def zero_grad(self) -> None:
        self.grad = None

    def __add__(self, other: "Tensor") -> "Tensor":
        if not isinstance(other, Tensor):
            raise ShapeMismatchError("add expects a Tensor operand")
        if self.shape != other.shape:
            raise ShapeMismatchError(f"add shapes differ: {self.shape} vs {other.shape}")
        out = Tensor(self.data + other.data)
        record(out, (self, other), lambda g: (g, g))
        return out

    def __mul__(self, scalar: float) -> "Tensor":
        c = float(scalar)
        out = Tensor(self.data * c)
        record(out, (self,), lambda g: (g * c,))
        return out

    __rmul__ = __mul__

    def sum(self) -> "Tensor":
        out = Tensor(np.sum(self.data))
        record(out, (self,), lambda g: (np.full(self.data.shape, float(g)),))
        return out

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class Tape:
    """Ordered operation records; recording order is topological."""

    def __init__(self):
        self.entries: list[tuple[int, tuple[Tensor, ...], Callable]] = []

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        self.entries.clear()


_tape = Tape()
_grad_enabled = True


def active_tape() -> Tape:
    return _tape


def is_grad_enabled() -> bool:
    return _grad_enabled


@contextmanager
def no_grad():
    """Disable tape recording inside the block (eval-mode forwards)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


def record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> None:
    """Register out = f(inputs) on the tape if any input carries gradients.

    backward_fn maps the upstream gradient array to one gradient array (or
    None) per input, in order.
    """
    if _grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        _tape.entries.append((out.node_id, tuple(inputs), backward_fn))


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss; deposits .grad on leaf tensors.

    Gradients accumulate additively when a tensor feeds several consumers.
    The tape is consumed: calling backward again before recording new work
    raises.
    """
    if loss.data.size != 1:
        raise InvalidInputError(f"backward needs a scalar loss, got shape {loss.shape}")
    if not _tape.entries:
        raise InvalidInputError("tape is empty; backward was already called or nothing was recorded")

    produced = {out_id for out_id, _, _ in _tape.entries}
    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    for out_id, inputs, backward_fn in reversed(_tape.entries):
        g = grads.pop(out_id, None)
        if g is None:
            continue
        input_grads = backward_fn(g)
        for tensor, gi in zip(inputs, input_grads):
            if gi is None or not tensor.requires_grad:
                continue
            if gi.shape != tensor.data.shape:
                raise ShapeMismatchError(
                    f"gradient shape {gi.shape} does not match tensor shape {tensor.data.shape}"
                )
            if tensor.node_id in produced:
                acc = grads.get(tensor.node_id)
                grads[tensor.node_id] = gi if acc is None else acc + gi
            else:
                tensor.grad = gi.copy() if tensor.grad is None else tensor.grad + gi
    _tape.clear()
