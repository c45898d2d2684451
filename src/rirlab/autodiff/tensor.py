"""Reverse-mode differentiation: tensors and the recording tape.

Forward operators append (output id, inputs, backward closure) records to the
calling thread's tape, a plain list, whenever its grad mode is on and any
input requires gradients. The tape and the grad mode are per thread, so a
no_grad block in one thread never switches recording off or on in another.

backward(loss) sweeps the records in reverse, sums gradients across fan-out
and hands each leaf's gradient over once, as soon as the last record that
feeds the leaf has run: to an on_leaf callback if one is given, otherwise
into the leaf's .grad. It consumes only the records it reaches from loss;
records of other graphs stay on the tape for a later backward. Each consumed
record is dropped, with its closure and the arrays the closure holds, as soon
as its closure has run, so activations are freed during the sweep rather than
when it ends. A second backward on the same loss finds no record that
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


class _ThreadState(threading.local):
    """Each thread starts with an empty tape and grad mode on."""

    def __init__(self):
        self.tape: list[tuple[int, tuple[Tensor, ...], Callable]] = []
        self.grad_enabled = True


_state = _ThreadState()


def active_tape() -> list[tuple[int, tuple[Tensor, ...], Callable]]:
    """The calling thread's tape: (output id, inputs, backward closure)
    records in recording order, which is topological."""
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
    None) per input, in order. It must not modify the upstream gradient.
    backward may hand a returned array over as a leaf's gradient without
    copying it (the upstream gradient and its views are copied, and so is an
    array returned for two inputs), so backward_fn must return fresh arrays:
    never one that it keeps for later, nor a view of a tensor's .data.
    """
    state = _state
    if state.grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.recorded = True
        state.tape.append((out.node_id, tuple(inputs), backward_fn))


def backward(
    loss: Tensor, on_leaf: Callable[[Tensor, np.ndarray], None] | None = None
) -> None:
    """Reverse sweep from a scalar loss; hands each leaf's gradient to
    on_leaf(leaf, grad), by default _add_to_grad, which adds it into .grad.

    on_leaf is called once for each leaf that a gradient reaches, with the
    sum of the gradients of all its consumers, as soon as the last record
    that feeds the leaf has run and been dropped; the sweep then drops its
    own reference. So a caller can apply and discard each gradient while the
    sweep goes on, and no full set of gradients is ever held. Leaves are
    handed over in the order their last records run, and a record's leaves
    in its input order. A leaf that loss does not reach, or that only None
    gradients reach, gets no call. grad shares memory with no other
    gradient, so on_leaf may keep it. on_leaf must not change the .data of a
    tensor that a record still to run reads: the leaves it is handed are
    safe, as no record still to run takes them as input.

    The records that loss does not reach go back onto the tape before the
    sweep starts; each reached record is dropped, with its closure, once its
    closure has run. Calling backward on a loss that no record on the tape
    produces, such as the same loss a second time, raises. So does a graph
    that reaches a tensor whose record is gone (consumed by an earlier
    backward, or cleared): it would otherwise be taken for a leaf and its
    inputs would get no gradient. Both checks run before the first hand-over.

    If a closure raises, returns a gradient of the wrong shape or dtype, or
    on_leaf raises, the error propagates: the tape then holds only the
    records that loss does not reach. The hand-overs already made stand (the
    parameters a caller updated in them stay updated), and the gradients not
    yet handed over are dropped.
    """
    if loss.data.size != 1:
        raise InvalidInputError(f"backward needs a scalar loss, got shape {loss.shape}")
    if on_leaf is None:
        on_leaf = _add_to_grad
    tape = _state.tape
    produced = {out_id for out_id, _, _ in tape}
    if loss.node_id not in produced:
        raise InvalidInputError(
            "no record on the tape produces this loss; backward was already called "
            "or nothing was recorded"
        )

    reached = {loss.node_id}
    mine, kept = [], []
    for entry in reversed(tape):
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
    kept.reverse()
    tape[:] = kept  # in place: callers hold the list
    mine.reverse()  # so pop() takes the latest record first

    # Each leaf, listed under the id of the last record to run that feeds it
    # (the earliest-recorded one).
    finishing: dict[int, list[Tensor]] = {}
    leaves: set[int] = set()
    for out_id, inputs, _ in mine:
        for t in inputs:
            if t.requires_grad and not t.recorded and t.node_id not in leaves:
                leaves.add(t.node_id)
                finishing.setdefault(out_id, []).append(t)

    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    while mine:
        out_id, inputs, backward_fn = mine.pop()
        g = grads.pop(out_id, None)
        if g is not None:
            _deposit(inputs, backward_fn(g), g, grads)
        # The record, its closure and its upstream gradient go before on_leaf
        # gets the leaves the record completed, and each handed-over
        # gradient goes before the next closure runs.
        del inputs, backward_fn, g
        for leaf in finishing.pop(out_id, ()):
            grad = grads.pop(leaf.node_id, None)
            if grad is not None:
                on_leaf(leaf, grad)
            del grad


def _add_to_grad(leaf: Tensor, grad: np.ndarray) -> None:
    """backward's default hand-over."""
    leaf.grad = grad if leaf.grad is None else leaf.grad + grad


def _deposit(
    inputs: tuple[Tensor, ...],
    input_grads: Sequence[np.ndarray | None],
    g: np.ndarray,
    grads: dict[int, np.ndarray],
) -> None:
    """Sum one closure's input gradients into grads."""
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
        acc = grads.get(tensor.node_id)
        if acc is not None:
            gi = acc + gi
        elif not tensor.recorded and (
            np.may_share_memory(gi, g) or sum(e is gi for e in input_grads) > 1
        ):
            # A leaf's gradient is handed over as its own: g and its views
            # may still reach other records, and add returns (g, g).
            gi = gi.copy()
        grads[tensor.node_id] = gi
