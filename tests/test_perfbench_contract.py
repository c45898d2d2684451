"""The benchmark's contract with the package: every name that a traced
benchmark run patches, and every call its workloads make into rirlab
between repeats, must exist. perfbench/ is imported here read-only."""

import dataclasses
import math
import sys
from pathlib import Path

import numpy as np
import pytest

from rirlab import autodiff as ad
from rirlab import models, training
from rirlab.autodiff import Tensor
from rirlab.dsp import octave_bands
from rirlab.profiles import get_profile

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


def _set_up(name: str, batch: int):
    """The calls workloads.full_train and workloads.full_infer make between
    repeats, in their order and with their argument forms: (cfg, estimator,
    discriminator, est_opt, disc_opt, basis, partition)."""
    profile = get_profile(name)
    cfg = dataclasses.replace(profile.train, batch_size=batch, seed=0)
    estimator = models.build_estimator(profile.estimator, seed=cfg.seed)
    discriminator = models.build_discriminator(profile.discriminator, seed=cfg.seed + 1)
    est_opt = ad.RmspropState.for_params(estimator.parameters(), lr=cfg.lr_init)
    disc_opt = ad.RmspropState.for_params(discriminator.parameters(), lr=cfg.lr_init)
    basis = ad.make_dft_basis(cfg.stft())
    partition = octave_bands(profile.estimator.sample_rate, cfg.stft_window,
                             list(cfg.band_centers))
    return cfg, estimator, discriminator, est_opt, disc_opt, basis, partition


class TestWorkloadSetUp:
    def test_full_profile_set_up_calls(self):
        profile = get_profile("full")
        assert profile.rir_len == profile.estimator.rir_len == profile.discriminator.rir_len
        cfg, estimator, discriminator, est_opt, disc_opt, basis, partition = _set_up("full", 4)
        assert isinstance(estimator, models.Estimator)
        assert isinstance(discriminator, models.Discriminator)
        assert len(est_opt.square_avg) == len(estimator.parameters())
        assert len(disc_opt.square_avg) == len(discriminator.parameters())
        assert basis.cfg == cfg.stft()
        assert partition.sample_rate == profile.estimator.sample_rate

    @pytest.mark.parametrize("name", ["full", "toy"])
    def test_spelled_out_analysis_setup_is_the_profile_s(self, name):
        # The benchmark times train_step on the setup that train builds.
        *_, basis, partition = _set_up(name, 4)
        want_basis, want_partition = get_profile(name).analysis()
        assert basis.cfg == want_basis.cfg
        assert np.array_equal(basis.real, want_basis.real)
        assert np.array_equal(basis.imag, want_basis.imag)
        assert partition == want_partition

    def test_toy_train_step_takes_the_benchmark_positional_signature(self):
        cfg, estimator, discriminator, est_opt, disc_opt, basis, partition = _set_up("toy", 4)
        profile = get_profile("toy")
        rng = np.random.default_rng(0)
        rev = rng.uniform(-0.9, 0.9, (4, profile.estimator.input_len))
        rir = rng.uniform(-0.9, 0.9, (4, profile.rir_len))
        b = slice(0, 4)
        losses = training.train_step(
            estimator, discriminator, (rev[b], rir[b]), cfg, est_opt, disc_opt, basis,
            partition, context="step 0",
        )
        assert all(math.isfinite(v) for v in dataclasses.astuple(losses))
