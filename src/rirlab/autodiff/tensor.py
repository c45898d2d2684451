"""Reverse-mode differentiation: tensors and the recording tape.

Forward operators append (output id, inputs, backward closure) records to the
calling thread's tape whenever its grad mode is on and any input requires
gradients. The tape and the grad mode are per thread, so a no_grad block in
one thread never switches recording off or on in another.

backward(loss) sweeps the records in reverse, accumulates adjoints additively
across fan-out and deposits .grad on leaf tensors. It consumes only the
records it reaches from loss; records of other graphs stay on the tape for a
later backward. A second backward on the same loss finds no record that
produces it, which is an error; so is a backward whose graph reaches a tensor
whose record an earlier backward consumed.
"""

from __future__ import annotations

import itertools
import threading
from contextlib import contextmanager
from typing import Callable, Sequence

import numpy as np

from ..errors import InvalidInputError, ShapeMismatchError

_ids = itertools.count()


FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


class Tensor:
    """A float32 or float64 array with an optional gradient slot. Data of
    any other dtype (ints, bools, lists) is turned into float64."""

    __slots__ = ("data", "requires_grad", "grad", "node_id", "recorded")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype in FLOAT_DTYPES else data.astype(np.float64)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self.node_id = next(_ids)
        self.recorded = False  # set once a tape record produces this tensor

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
        check_same_dtype("add", self, other)
        out = Tensor(self.data + other.data)
        record(out, (self, other), lambda g: (g, g))
        return out

    def __mul__(self, scalar: float) -> "Tensor":
        # A scalar of the data's own dtype: NumPy before 2.0 turns a float32
        # 0-d array times a Python float into float64.
        c = self.data.dtype.type(scalar)
        out = Tensor(self.data * c)
        record(out, (self,), lambda g: (g * c,))
        return out

    __rmul__ = __mul__

    def sum(self) -> "Tensor":
        out = Tensor(np.sum(self.data))
        record(out, (self,), lambda g: (np.full(self.data.shape, g, dtype=self.data.dtype),))
        return out

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


def check_same_dtype(op: str, *tensors: "Tensor | None") -> None:
    """Raise unless every given tensor holds the same dtype: a float32 array
    meeting a float64 one would be promoted and leave the BLAS fast path."""
    dtypes = {t.data.dtype for t in tensors if t is not None}
    if len(dtypes) > 1:
        raise InvalidInputError(
            f"{op} operands mix dtypes {sorted(d.name for d in dtypes)}; cast them to one"
        )


class Tape:
    """Ordered operation records; recording order is topological."""

    def __init__(self):
        self.entries: list[tuple[int, tuple[Tensor, ...], Callable]] = []

    def __len__(self) -> int:
        return len(self.entries)

    def clear(self) -> None:
        self.entries.clear()


class _ThreadState(threading.local):
    """Each thread starts with an empty tape and grad mode on."""

    def __init__(self):
        self.tape = Tape()
        self.grad_enabled = True


_state = _ThreadState()


def active_tape() -> Tape:
    """The calling thread's tape."""
    return _state.tape


def is_grad_enabled() -> bool:
    """Whether the calling thread records operations."""
    return _state.grad_enabled


@contextmanager
def no_grad():
    """Disable tape recording in the calling thread inside the block
    (eval-mode forwards)."""
    prev = _state.grad_enabled
    _state.grad_enabled = False
    try:
        yield
    finally:
        _state.grad_enabled = prev


def record(out: Tensor, inputs: Sequence[Tensor], backward_fn: Callable) -> None:
    """Register out = f(inputs) on the tape if any input carries gradients.

    backward_fn maps the upstream gradient array to one gradient array (or
    None) per input, in order.
    """
    state = _state
    if state.grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.recorded = True
        state.tape.entries.append((out.node_id, tuple(inputs), backward_fn))


def backward(loss: Tensor) -> None:
    """Reverse sweep from a scalar loss; deposits .grad on leaf tensors.

    Gradients accumulate additively when a tensor feeds several consumers.
    The records reachable from loss are removed from the tape; the others
    stay. Calling backward on a loss that no record on the tape produces,
    such as the same loss a second time, raises. So does a graph that reaches
    a tensor whose record is gone (consumed by an earlier backward, or
    cleared): it would otherwise be taken for a leaf and its inputs would get
    no gradient. Both checks run before any .grad is touched.
    """
    if loss.data.size != 1:
        raise InvalidInputError(f"backward needs a scalar loss, got shape {loss.shape}")
    tape = _state.tape
    produced = {out_id for out_id, _, _ in tape.entries}
    if loss.node_id not in produced:
        raise InvalidInputError(
            "no record on the tape produces this loss; backward was already called "
            "or nothing was recorded"
        )

    reached = {loss.node_id}
    mine, kept = [], []
    for entry in reversed(tape.entries):
        if entry[0] in reached:
            mine.append(entry)
            reached.update(t.node_id for t in entry[1])
        else:
            kept.append(entry)
    if any(t.recorded and t.node_id not in produced for _, inputs, _ in mine for t in inputs):
        raise InvalidInputError(
            "this graph reaches a tensor whose record is no longer on the tape; "
            "an earlier backward consumed it or the tape was cleared"
        )

    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    for out_id, inputs, backward_fn in mine:
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
            if gi.dtype != tensor.data.dtype:
                raise InvalidInputError(
                    f"gradient dtype {gi.dtype} does not match tensor dtype {tensor.data.dtype}"
                )
            if tensor.node_id in produced:
                acc = grads.get(tensor.node_id)
                grads[tensor.node_id] = gi if acc is None else acc + gi
            else:
                tensor.grad = gi.copy() if tensor.grad is None else tensor.grad + gi
    kept.reverse()
    tape.entries = kept
