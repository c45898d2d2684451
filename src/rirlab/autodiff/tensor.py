"""Reverse-mode differentiation: tensors and the recording tape.

Forward operators append (output id, inputs, backward closure) records to the
calling thread's tape whenever its grad mode is on and any input requires
gradients. The tape and the grad mode are per thread, so a no_grad block in
one thread never switches recording off or on in another.

backward(loss) sweeps the records in reverse, accumulates adjoints additively
across fan-out and deposits .grad on leaf tensors, or, given an on_leaf
callback, hands each leaf's summed gradient to it as soon as the last record
that feeds the leaf has run. It consumes only the
records it reaches from loss; records of other graphs stay on the tape for a
later backward. Each consumed record is dropped, with its closure and the
arrays the closure holds, as soon as its closure has run, so activations are
freed during the sweep rather than when it ends. A second backward on the
same loss finds no record that produces it, which is an error; so is a
backward whose graph reaches a tensor whose record an earlier backward
consumed.
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
    None) per input, in order. It must not modify the upstream gradient.
    backward may store a returned array as a leaf's .grad without copying
    it (the upstream gradient and its views are copied), so backward_fn must
    return fresh arrays: never one that it keeps for later, nor a view of a
    tensor's .data.
    """
    state = _state
    if state.grad_enabled and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        out.recorded = True
        state.tape.entries.append((out.node_id, tuple(inputs), backward_fn))


def backward(
    loss: Tensor, on_leaf: Callable[[Tensor, np.ndarray], None] | None = None
) -> None:
    """Reverse sweep from a scalar loss; deposits .grad on leaf tensors, or
    hands each leaf's gradient to on_leaf.

    Gradients accumulate additively when a tensor feeds several consumers.
    The records that loss does not reach go back onto the tape before the
    sweep starts; each reached record is dropped, with its closure, once its
    closure has run. Calling backward on a loss that no record on the tape
    produces, such as the same loss a second time, raises. So does a graph
    that reaches a tensor whose record is gone (consumed by an earlier
    backward, or cleared): it would otherwise be taken for a leaf and its
    inputs would get no gradient. Both checks run before any .grad is
    touched and before on_leaf is first called.

    Without on_leaf, a gradient that reaches a leaf whose .grad is None
    becomes that .grad as the closure returned it; it is copied only if it
    is the closure's upstream gradient or a view of it, or if another leaf
    already holds the same array.

    With on_leaf, no .grad is read or written. on_leaf(leaf, grad) is called
    once for each leaf that a gradient reaches, with the sum of the
    gradients of all its consumers, as soon as the last record that feeds
    the leaf has run and been dropped; the sweep then drops the gradient.
    So a caller can apply and discard each gradient while the sweep goes on,
    and no full set of gradients is ever held. Leaves are handed over in the
    order their last records run, and a record's leaves in its input order.
    A leaf that loss does not reach, or that only None gradients reach, gets
    no call. grad may be shared with other leaves or be a closure's upstream
    gradient, so on_leaf must not modify it, and it must not change the
    .data of a tensor that a record still to run reads: the leaves it is
    handed are safe, as no record still to run takes them as input.

    If a closure raises, returns a gradient of the wrong shape or dtype, or
    on_leaf raises, the error propagates: the tape then holds only the
    records that loss does not reach, and all of this graph's records are
    gone. Without on_leaf, the leaves reached before the failure keep the
    gradients deposited so far. With on_leaf, the calls already made stand
    (the parameters a caller updated in them stay updated), and the
    gradients of leaves not yet handed over are dropped.
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
    kept.reverse()
    tape.entries = kept
    mine.reverse()  # so pop() takes the latest record first

    # Ids whose gradients sum in grads: recorded tensors, and with on_leaf
    # the leaves too, each listed under the id of the last record to run
    # that feeds it (the earliest-recorded one).
    pooled, finishing = produced, {}
    if on_leaf is not None:
        leaves: set[int] = set()
        for out_id, inputs, _ in mine:
            for t in inputs:
                if t.requires_grad and t.node_id not in produced and t.node_id not in leaves:
                    leaves.add(t.node_id)
                    finishing.setdefault(out_id, []).append(t)
        pooled = produced | leaves

    grads: dict[int, np.ndarray] = {loss.node_id: np.ones_like(loss.data)}
    stored: set[int] = set()  # ids of the arrays deposited uncopied as .grad
    while mine:
        out_id, inputs, backward_fn = mine.pop()
        g = grads.pop(out_id, None)
        if g is not None:
            _deposit(inputs, backward_fn(g), g, grads, pooled, stored)
        # The record, its closure and its upstream gradient go before on_leaf
        # gets the leaves the record completed, and each handed-over
        # gradient goes before the next closure runs.
        del inputs, backward_fn, g
        for leaf in finishing.pop(out_id, ()):
            grad = grads.pop(leaf.node_id, None)
            if grad is not None:
                on_leaf(leaf, grad)
            del grad


def _deposit(
    inputs: tuple[Tensor, ...],
    input_grads: Sequence[np.ndarray | None],
    g: np.ndarray,
    grads: dict[int, np.ndarray],
    pooled: set[int],
    stored: set[int],
) -> None:
    """Add one closure's input gradients to grads for the ids in pooled and
    to the .grad of other leaves."""
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
        if tensor.node_id in pooled:
            acc = grads.get(tensor.node_id)
            grads[tensor.node_id] = gi if acc is None else acc + gi
        elif tensor.grad is not None:
            tensor.grad = tensor.grad + gi
        else:
            # g and its views may still reach other records, and one array
            # may reach two leaves (add returns (g, g)): those are copied.
            if id(gi) in stored or np.may_share_memory(gi, g):
                gi = gi.copy()
            tensor.grad = gi
            stored.add(id(gi))
