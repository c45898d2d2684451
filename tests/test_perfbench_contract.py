"""The benchmark's contract with the package: every name that a traced
benchmark run patches, and every call its workloads make into rirlab
between repeats, must exist. perfbench/ is imported here read-only."""

import sys
from pathlib import Path

import numpy as np

from rirlab import autodiff as ad
from rirlab import models
from rirlab.autodiff import Tensor

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import spans  # noqa: E402
import workloads  # noqa: E402


def _rirlab_attributes() -> dict:
    """(owner, attribute name) -> value for every module-level name of the
    imported rirlab modules and the methods a trace replaces on the networks."""
    found = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "rirlab" or name.startswith("rirlab.")):
            for attr, value in vars(module).items():
                found[(module, attr)] = value
    for cls in (models.Estimator, models.Discriminator):
        for attr in ("__init__", "forward"):
            found[(cls, attr)] = getattr(cls, attr)
    return found


class TestTraceInstall:
    def test_install_patches_and_undo_restores_every_attribute(self):
        from rirlab import cli, dsp
        from rirlab.autodiff import ops

        before = _rirlab_attributes()
        tracer = spans.Tracer()
        patches = spans.install(tracer)
        try:
            for owner, attr in ((cli, "ThreadPoolExecutor"), (dsp, "stft"),
                                (ops, "batchnorm1d"), (ad, "backward")):
                assert getattr(owner, attr) is not before[(owner, attr)], attr
            ad.tanh(Tensor(np.zeros(3)))
            assert [span[3] for span in tracer.spans] == ["autodiff.ops.tanh"]
        finally:
            patches.undo()
        changed = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for (owner, attr), value in before.items()
            if getattr(owner, attr) is not value
        ]
        assert changed == []


class TestResetGradState:
    def test_leaked_record_is_counted_and_cleared(self, tmp_path):
        run = workloads.Run(seed=0, seconds=1.0, traced=False, work=tmp_path)
        tape = ad.active_tape()
        Tensor(np.ones(2), requires_grad=True) * 2.0  # a record no backward consumes
        assert len(tape) == 1
        workloads._reset_grad_state(run)
        assert run.counters["autodiff.tensor.tape_leaked"] == 1
        assert run.counters["autodiff.tensor.grad_mode_leaks"] == 0
        assert ad.active_tape() is tape and len(tape) == 0
