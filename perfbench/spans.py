"""Outside-in span tracing of rirlab's layers.

Nothing in the package is edited: for the length of a traced run, public
functions are replaced by wrappers that time each call, and the originals are
put back afterwards. A function is replaced in every rirlab module that holds
a reference to it, so each call is seen from its caller whichever name the
caller imported it under.

A span is (id, parent id, trace id, name, start ns, end ns, thread). Span
stacks are thread-local because ``rirlab evaluate`` runs a thread pool. All
spans under one train step, one evaluated example or one estimate call share
a trace id. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import itertools
import json
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

_now = time.perf_counter_ns

# Operators with per-layer metrics; concat_channels and flatten are traced too
# but are pure copies.
OPS = (
    "conv1d",
    "conv_transpose1d",
    "batchnorm1d",
    "prelu",
    "leaky_relu",
    "tanh",
    "framed_band_energy",
    "mse_loss",
    "bce_logit_loss",
    "linear",
)
CONV_OPS = ("conv1d", "conv_transpose1d")

# Spans that start a new trace id: one train step, one evaluated example, one
# estimate call made by the benchmark's own client loop.
UNIT_SPANS = ("training.train_step", "cli.evaluate_example", "client.estimate")


class Tracer:
    """In-memory span and counter store."""

    def __init__(self):
        self.spans: list[tuple] = []
        self.counts: dict[str, float] = {}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    def reset(self) -> None:
        self.spans = []
        self.counts = {}

    def add(self, name: str, amount: float) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def call(self, name: str, fn, *args, **kwargs):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        parent = stack[-1] if stack else None
        span_id = next(self._ids)
        trace_id = span_id if parent is None or name in UNIT_SPANS else parent[1]
        stack.append((span_id, trace_id))
        start = _now()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _now()
            stack.pop()
            # list.append is atomic under the interpreter lock.
            self.spans.append(
                (span_id, parent[0] if parent else 0, trace_id, name, start, end,
                 threading.get_ident())
            )

    def wrap(self, name: str, fn, after=None):
        """fn timed as span ``name``; after(result, args) adds counters."""

        def traced(*args, **kwargs):
            result = self.call(name, fn, *args, **kwargs)
            if after is not None:
                after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def dump(self, path: str) -> None:
        """Write spans as JSON lines: a header with the field names, then one
        array per span in start order."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"fields": ["id", "parent", "trace", "name", "start_ns",
                                            "end_ns", "thread"]}) + "\n")
            for span in sorted(self.spans, key=lambda s: s[4]):
                fh.write(json.dumps(span) + "\n")


class Patches:
    """Attribute replacements, undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def everywhere(self, fn, replacement) -> None:
        """Replace every module-level reference to fn inside rirlab."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "rirlab" or name.startswith("rirlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.set(module, attr, replacement)

    def undo(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer) -> Patches:
    """Wrap rirlab's public functions; returns the patches to undo."""
    import rirlab.autodiff.ops as ops_mod
    import rirlab.autodiff.optim as optim_mod
    import rirlab.autodiff.tensor as tensor_mod
    from rirlab import cli, dsp, metrics, models, synth, training, wavio

    patches = Patches()

    def wrap_everywhere(fn, name, after=None):
        patches.everywhere(fn, tracer.wrap(name, fn, after))

    # autodiff.ops: forward spans, plus conv work computed from shapes.
    for op in OPS + ("concat_channels", "flatten"):
        after = None
        if op in CONV_OPS:
            def after(out, args, op=op):
                tracer.add(f"autodiff.ops.{op}.flop", _conv_flop(op, args[0], args[1], out))
        wrap_everywhere(getattr(ops_mod, op), f"autodiff.ops.{op}", after)

    # autodiff.tensor.record: time each backward closure under its op's name.
    record = tensor_mod.record

    def traced_record(out, inputs, backward_fn):
        op = backward_fn.__qualname__.split(".<locals>")[0].split(".")[-1].strip("_")
        layer = backward_fn.__module__.rsplit(".", 1)[-1]
        name = f"autodiff.{layer}.{op}.bwd"
        if op in CONV_OPS:
            fwd_flop = _conv_flop(op, inputs[0], inputs[1], out)

            def timed(g):
                grads = tracer.call(name, backward_fn, g)
                # gx and gw each cost one forward's worth of work.
                done = sum(gi is not None for gi in grads[:2])
                tracer.add(f"autodiff.ops.{op}.flop", done * fwd_flop)
                return grads
        else:

            def timed(g):
                return tracer.call(name, backward_fn, g)

        record(out, inputs, timed)
        if out.requires_grad:
            tracer.add("autodiff.tensor.tape_records", 1)

    patches.everywhere(record, traced_record)
    wrap_everywhere(tensor_mod.backward, "autodiff.tensor.backward")

    def rmsprop_bytes(_, args):
        params, grads = args[0], args[1]
        # With a gradient: read p, g, acc and write p, acc. Without: acc only.
        tracer.add(
            "autodiff.optim.bytes",
            sum(p.data.nbytes * (5 if g is not None else 2) for p, g in zip(params, grads)),
        )

    wrap_everywhere(optim_mod.rmsprop_step, "autodiff.optim.rmsprop", rmsprop_bytes)

    # models: one span per entry of Network.layers, per network forward, and
    # per checkpoint save or load.
    for cls in (models.Estimator, models.Discriminator):
        init = cls.__init__

        def traced_init(self, *args, _init=init, **kwargs):
            _init(self, *args, **kwargs)
            for layer_name, layer in self.layers:
                layer.forward = tracer.wrap(f"models.{self.kind}.{layer_name}", layer.forward)

        patches.set(cls, "__init__", traced_init)
        patches.set(cls, "forward", tracer.wrap(f"models.{cls.kind}.forward", cls.forward))

    def checkpoint_size(_, args):
        tracer.add("models.checkpoint_bytes", os.path.getsize(args[1] if len(args) > 1 else args[0]))
        tracer.add("models.checkpoint_files", 1)

    wrap_everywhere(models.save_checkpoint, "models.save_checkpoint", checkpoint_size)
    wrap_everywhere(models.load_checkpoint, "models.load_checkpoint", checkpoint_size)
    wrap_everywhere(models.estimate, "models.estimate")

    # training
    # Named explicitly: train_step may already be wrapped by the step timer.
    wrap_everywhere(training.train_step, "training.train_step")
    wrap_everywhere(training.validation_edr, "training.validation_edr")
    wrap_everywhere(training.train, "training.train")

    # metrics, dsp, wavio, synth, as seen from their callers.
    for fn in (metrics.edr_loss, metrics.edr, metrics.metric_report, metrics.ere,
               metrics.drr, metrics.mse):
        wrap_everywhere(fn, f"metrics.{fn.__name__}")
    for fn in (dsp.stft, dsp.fft_convolve, dsp.spectral_deconvolve):
        wrap_everywhere(fn, f"dsp.{fn.__name__}")
    wrap_everywhere(wavio.read_wav, "wavio.read_wav")
    wrap_everywhere(
        wavio.write_wav,
        "wavio.write_wav",
        lambda _, args: tracer.add("wavio.bytes_written", os.path.getsize(args[0])),
    )
    for fn in (synth.synth_rir, synth.build_dataset, synth.load_manifest):
        wrap_everywhere(fn, f"synth.{fn.__name__}")

    # cli: the commands, each evaluated example, and the evaluate pool.
    for command in ("synth", "train", "estimate", "evaluate"):
        fn = getattr(cli, f"cmd_{command}")
        patches.set(cli, f"cmd_{command}", tracer.wrap(f"cli.{command}", fn))
    patches.set(
        cli, "_estimate_for_entry", tracer.wrap("cli.evaluate_example", cli._estimate_for_entry)
    )

    class TracedPool(ThreadPoolExecutor):
        def __init__(self, max_workers=None, *args, **kwargs):
            super().__init__(max_workers, *args, **kwargs)
            tracer.add("cli.pool_workers", self._max_workers)
            tracer.add("cli.pools", 1)

        def map(self, fn, *iterables, **kwargs):
            # The caller consumes every result at once; the span is its wait.
            results = super().map(fn, *iterables, **kwargs)
            return iter(tracer.call("cli.pool_wait", list, results))

    patches.set(cli, "ThreadPoolExecutor", TracedPool)
    return patches


def _conv_flop(op: str, x, weight, out) -> float:
    """Forward multiply-add work x2 of one conv call, computed from shapes:
    conv1d 2*B*Cout*Cin*K*Lout; conv_transpose1d 2*B*Cin*Cout*K*Lin."""
    if op == "conv1d":
        _, cin, k = weight.shape
        return 2.0 * out.size * cin * k
    _, cout, k = weight.shape
    return 2.0 * x.size * cout * k


def span_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, total duration and self time in ns. Self time is
    the duration minus the time covered by child spans."""
    child_ns: dict[int, int] = {}
    for span_id, parent, _, _, start, end, _ in spans:
        if parent:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)
    table: dict[str, dict[str, float]] = {}
    for span_id, _, _, name, start, end, _ in spans:
        row = table.setdefault(name, {"calls": 0, "ns": 0, "self_ns": 0})
        row["calls"] += 1
        row["ns"] += end - start
        row["self_ns"] += end - start - child_ns.get(span_id, 0)
    return table


def count_under(spans, name: str, ancestors: tuple[str, ...]) -> int:
    """Number of ``name`` spans with an ancestor whose name is in ancestors."""
    by_id = {s[0]: (s[1], s[3]) for s in spans}
    total = 0
    for span_id, parent, _, span_name, *_ in spans:
        if span_name != name:
            continue
        while parent:
            parent, parent_name = by_id[parent]
            if parent_name in ancestors:
                total += 1
                break
    return total
