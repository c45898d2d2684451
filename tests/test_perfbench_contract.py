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
from rirlab.dsp import StftConfig, octave_bands
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


FUSED_OP = "batchnorm_prelu_conv_transpose1d"


def _op_calls() -> dict:
    """Op name -> a call of that op on small float64 inputs that all carry a
    gradient, for each op with per-layer metrics and the fused decoder op."""
    rng = np.random.default_rng(0)

    def t(*shape):
        return Tensor(rng.standard_normal(shape), requires_grad=True)

    basis = ad.make_dft_basis(StftConfig(16, 8))
    partition = octave_bands(256, 16, [16, 32, 64])
    state = ad.BatchNormState.for_channels(3)
    return {
        "conv1d": lambda: ad.conv1d(t(2, 3, 20), t(4, 3, 5), t(4), stride=2, padding=1),
        "conv_transpose1d": lambda: ad.conv_transpose1d(
            t(2, 3, 9), t(3, 4, 6), t(4), stride=3, padding=1, output_padding=1
        ),
        "batchnorm1d": lambda: ad.batchnorm1d(t(2, 3, 8), t(3), t(3), state, True),
        "prelu": lambda: ad.prelu(t(2, 3, 8), t(3)),
        "leaky_relu": lambda: ad.leaky_relu(t(2, 3, 8)),
        "tanh": lambda: ad.tanh(t(2, 3, 8)),
        "framed_band_energy": lambda: ad.framed_band_energy(t(2, 1, 64), basis, partition),
        "mse_loss": lambda: ad.mse_loss(t(3, 5), t(3, 5)),
        "bce_logit_loss": lambda: ad.bce_logit_loss(t(4, 1), np.array([[0.0], [1.0]] * 2)),
        "linear": lambda: ad.linear(t(3, 5), t(5, 2), t(2)),
        FUSED_OP: lambda: ad.batchnorm_prelu_conv_transpose1d(
            t(2, 3, 8), t(3), t(3), t(3), state, True, t(3, 2, 4), stride=2
        ),
    }


class TestOpSpans:
    """A traced run names each op's forward span autodiff.ops.<op> and its
    backward span autodiff.ops.<op>.bwd, after the backward closure's
    qualified name: the per-layer metrics are read under those names."""

    @pytest.mark.parametrize("op", spans.OPS + (FUSED_OP,))
    def test_forward_and_backward_spans_carry_the_op_s_name(self, op):
        call = _op_calls()[op]
        tracer = spans.Tracer()
        patches = spans.install(tracer)
        try:
            out = call()
            ad.backward(out if out.data.ndim == 0 else out.sum())
        finally:
            patches.undo()
        names = {span[3] for span in tracer.spans}
        assert f"autodiff.ops.{op}.bwd" in names
        # spans wraps every op in OPS, but not the fused op's forward.
        assert (f"autodiff.ops.{op}" in names) == (op != FUSED_OP)


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
