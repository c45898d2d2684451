"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured numbers. Run with `pytest tests/test_acceptance.py -v -s`.

The toy training context (dataset seed 42: 200 train / 25 val / 25 test,
batch 16, 60 epochs) is built once, lazily, and shared by the criteria that
need it; its wall time is part of what criterion 6 asserts.
"""

import dataclasses
import time
from pathlib import Path

import numpy as np
import pytest

from conftest import numeric_grad, relative_error
from rirlab import autodiff as ad
from rirlab import cli, metrics, training
from rirlab.autodiff import Tensor
from rirlab.dsp import Signal, StftConfig, fft_convolve, octave_bands, spectral_deconvolve, stft
from rirlab.models import build_estimator, estimate, load_checkpoint, save_checkpoint
from rirlab.profiles import get_profile
from rirlab.synth import build_dataset
from rirlab.wavio import read_wav, write_wav

GRAD_TOL = 1e-4
FD_STEP = 1e-5

_CONTEXT: dict = {}


def toy_context(tmp_path_factory) -> dict:
    """Dataset + full training run, built once and memoized for the session."""
    if not _CONTEXT:
        profile = get_profile("toy")
        t0 = time.monotonic()
        dataset = build_dataset(
            out_dir=tmp_path_factory.mktemp("accept_ds"),
            n_examples=250,
            ranges=profile.ranges,
            sample_rate=profile.estimator.sample_rate,
            example_len=profile.estimator.input_len,
            rir_len=profile.estimator.rir_len,
            splits=(0.8, 0.1, 0.1),
            seed=42,
        )
        run_dir = tmp_path_factory.mktemp("accept_run")
        result = training.train(dataset, profile, run_dir)
        elapsed = time.monotonic() - t0
        _CONTEXT.update(
            profile=profile, dataset=dataset, result=result, run_dir=run_dir, elapsed=elapsed
        )
    return _CONTEXT


def _rand_kind(rng, low, high):
    return int(rng.integers(low, high + 1))


def _check(analytic, f, arr, label, worst, counts):
    err = relative_error(analytic, numeric_grad(f, arr, FD_STEP))
    worst[label] = max(worst.get(label, 0.0), err)
    counts[label] = counts.get(label, 0) + 1
    assert err < GRAD_TOL, f"{label}: relative error {err:.3e}"


class TestCriterion1GradientIntegrity:
    def test_every_operator_passes_finite_difference_checks(self):
        t0 = time.monotonic()
        worst: dict = {}
        counts: dict = {}
        rng = np.random.default_rng(2024)

        for _ in range(20):
            # conv1d
            B, cin, cout = _rand_kind(rng, 1, 3), _rand_kind(rng, 1, 3), _rand_kind(rng, 1, 3)
            L, K = _rand_kind(rng, 5, 11), _rand_kind(rng, 1, 4)
            stride, padding = _rand_kind(rng, 1, 3), _rand_kind(rng, 0, 2)
            x = Tensor(rng.standard_normal((B, cin, L)), requires_grad=True)
            w = Tensor(rng.standard_normal((cout, cin, K)), requires_grad=True)
            b = Tensor(rng.standard_normal(cout), requires_grad=True)
            target = rng.standard_normal(
                ad.conv1d(Tensor(x.data), Tensor(w.data), Tensor(b.data), stride, padding).shape
            )
            ad.backward(ad.mse_loss(ad.conv1d(x, w, b, stride, padding), Tensor(target)))

            def f_conv():
                out = ad.conv1d(Tensor(x.data), Tensor(w.data), Tensor(b.data), stride, padding)
                return float(np.mean((out.data - target) ** 2))

            for t, name in ((x, "conv1d/x"), (w, "conv1d/w"), (b, "conv1d/b")):
                _check(t.grad, f_conv, t.data, name, worst, counts)

            # conv_transpose1d
            out_pad = _rand_kind(rng, 0, stride - 1)
            xt = Tensor(rng.standard_normal((B, cin, L)), requires_grad=True)
            wt = Tensor(rng.standard_normal((cin, cout, K)), requires_grad=True)
            bt = Tensor(rng.standard_normal(cout), requires_grad=True)
            ref = ad.conv_transpose1d(
                Tensor(xt.data), Tensor(wt.data), Tensor(bt.data), stride, padding, out_pad
            )
            if ref.shape[2] < 1:
                continue
            target_t = rng.standard_normal(ref.shape)
            ad.backward(
                ad.mse_loss(
                    ad.conv_transpose1d(xt, wt, bt, stride, padding, out_pad), Tensor(target_t)
                )
            )

            def f_tconv():
                out = ad.conv_transpose1d(
                    Tensor(xt.data), Tensor(wt.data), Tensor(bt.data), stride, padding, out_pad
                )
                return float(np.mean((out.data - target_t) ** 2))

            for t, name in ((xt, "tconv/x"), (wt, "tconv/w"), (bt, "tconv/b")):
                _check(t.grad, f_tconv, t.data, name, worst, counts)

            # batchnorm1d
            Bn, C, Ln = _rand_kind(rng, 2, 4), _rand_kind(rng, 1, 3), _rand_kind(rng, 3, 8)
            xb = Tensor(rng.standard_normal((Bn, C, Ln)), requires_grad=True)
            gamma = Tensor(rng.uniform(0.5, 1.5, C), requires_grad=True)
            beta = Tensor(rng.standard_normal(C), requires_grad=True)
            target_b = rng.standard_normal((Bn, C, Ln))
            out = ad.batchnorm1d(
                xb, gamma, beta, ad.BatchNormState.for_channels(C), train=True,
            )
            ad.backward(ad.mse_loss(out, Tensor(target_b)))

            def f_bn():
                o = ad.batchnorm1d(
                    Tensor(xb.data), Tensor(gamma.data), Tensor(beta.data),
                    ad.BatchNormState.for_channels(C), train=True,
                )
                return float(np.mean((o.data - target_b) ** 2))

            for t, name in ((xb, "batchnorm/x"), (gamma, "batchnorm/gamma"), (beta, "batchnorm/beta")):
                _check(t.grad, f_bn, t.data, name, worst, counts)

            # activations (inputs kept away from the relu kinks)
            data = rng.standard_normal((B, C, Ln))
            data[np.abs(data) < 0.05] = 0.2
            for op_name, make_out in (
                ("leaky_relu", ad.leaky_relu),
                ("tanh", ad.tanh),
            ):
                xa = Tensor(data.copy(), requires_grad=True)
                target_a = rng.standard_normal(data.shape)
                ad.backward(ad.mse_loss(make_out(xa), Tensor(target_a)))

                def f_act(make=make_out, base=xa, tgt=target_a):
                    return float(np.mean((make(Tensor(base.data)).data - tgt) ** 2))

                _check(xa.grad, f_act, xa.data, f"{op_name}/x", worst, counts)

            xp = Tensor(data.copy(), requires_grad=True)
            slope = Tensor(rng.uniform(0.1, 0.5, C), requires_grad=True)
            target_p = rng.standard_normal(data.shape)
            ad.backward(ad.mse_loss(ad.prelu(xp, slope), Tensor(target_p)))

            def f_prelu():
                o = ad.prelu(Tensor(xp.data), Tensor(slope.data))
                return float(np.mean((o.data - target_p) ** 2))

            _check(xp.grad, f_prelu, xp.data, "prelu/x", worst, counts)
            _check(slope.grad, f_prelu, slope.data, "prelu/slope", worst, counts)

            # framed_band_energy
            cfg16 = StftConfig(16, _rand_kind(rng, 4, 8))
            basis = ad.make_dft_basis(cfg16)
            part = octave_bands(256, 16, [16, 32, 64])
            Lf = _rand_kind(rng, 16, 48)
            xf = Tensor(rng.uniform(-1, 1, (B, 1, Lf)), requires_grad=True)
            ref_f = ad.framed_band_energy(Tensor(xf.data), basis, part)
            target_f = rng.uniform(0, 1, ref_f.shape)
            ad.backward(ad.mse_loss(ad.framed_band_energy(xf, basis, part), Tensor(target_f)))

            def f_fbe():
                o = ad.framed_band_energy(Tensor(xf.data), basis, part)
                return float(np.mean((o.data - target_f) ** 2))

            _check(xf.grad, f_fbe, xf.data, "framed_band_energy/x", worst, counts)

            # mse_loss on both arguments
            a = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
            bb = Tensor(rng.standard_normal((3, 5)), requires_grad=True)
            ad.backward(ad.mse_loss(a, bb))

            def f_mse_a():
                return float(np.mean((a.data - bb.data) ** 2))

            _check(a.grad, f_mse_a, a.data, "mse_loss/a", worst, counts)
            _check(bb.grad, f_mse_a, bb.data, "mse_loss/b", worst, counts)

            # bce_logit_loss
            z = Tensor(rng.standard_normal((4, 1)) * 3, requires_grad=True)
            y = (rng.uniform(0, 1, (4, 1)) > 0.5).astype(float)
            ad.backward(ad.bce_logit_loss(z, y))

            def f_bce():
                zz = z.data
                return float(np.mean(np.maximum(zz, 0) - zz * y + np.log1p(np.exp(-np.abs(zz)))))

            _check(z.grad, f_bce, z.data, "bce_logit_loss/z", worst, counts)

        elapsed = time.monotonic() - t0
        assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
        assert all(c >= 20 for c in counts.values()), counts
        assert len(counts) == 17  # every gradient input across the 9 operators
        worst_label = max(worst, key=worst.get)
        print(
            f"[PASS] criterion 1: 9 operators x 20 shapes, worst relative error "
            f"{worst[worst_label]:.2e} ({worst_label}), {elapsed:.1f}s"
        )


class TestCriterion2AdjointIdentity:
    def test_conv_pair_is_adjoint(self):
        rng = np.random.default_rng(7)
        worst = 0.0
        checked = 0
        while checked < 50:
            B, cin, cout = _rand_kind(rng, 1, 3), _rand_kind(rng, 1, 4), _rand_kind(rng, 1, 4)
            L, K = _rand_kind(rng, 6, 16), _rand_kind(rng, 1, 5)
            stride, padding = _rand_kind(rng, 1, 4), _rand_kind(rng, 0, 3)
            if L + 2 * padding < K:
                continue
            x = Tensor(rng.standard_normal((B, cin, L)))
            w = Tensor(rng.standard_normal((cout, cin, K)))
            y_fwd = ad.conv1d(x, w, stride=stride, padding=padding)
            y = Tensor(rng.standard_normal(y_fwd.shape))
            out_pad = L - ((y_fwd.shape[2] - 1) * stride - 2 * padding + K)
            if not 0 <= out_pad < stride:
                continue
            back = ad.conv_transpose1d(y, w, stride=stride, padding=padding,
                                       output_padding=out_pad)
            lhs = float(np.sum(y_fwd.data * y.data))
            rhs = float(np.sum(x.data * back.data))
            rel = abs(lhs - rhs) / max(abs(lhs), abs(rhs), 1e-30)
            worst = max(worst, rel)
            assert rel < 1e-10
            checked += 1
        print(f"[PASS] criterion 2: adjoint identity on 50 instances, worst {worst:.2e}")


class TestCriterion3DeconvolutionClosure:
    def test_oracle_recovers_100_synthetic_pairs(self):
        t0 = time.monotonic()
        rng = np.random.default_rng(11)
        worst = 0.0
        for i in range(100):
            clean = Signal(rng.standard_normal(1024), 16000)
            rir_len = int(rng.integers(32, 128))
            rir = Signal(rng.standard_normal(rir_len) * 0.3, 16000)
            reverberant = fft_convolve(clean, rir)
            recovered = spectral_deconvolve(reverberant, clean, out_len=rir_len)
            err = float(np.mean((recovered.samples - rir.samples) ** 2))
            worst = max(worst, err)
            assert err < 1e-8
        elapsed = time.monotonic() - t0
        assert elapsed < 30.0
        print(f"[PASS] criterion 3: 100 closures, worst MSE {worst:.2e}, {elapsed:.1f}s")


class TestCriterion4EdrCorrectness:
    CFG = StftConfig(64, 32)
    PART = octave_bands(8000, 64, [125, 250, 500, 1000, 2000])

    def test_differentiable_path_equals_fft_path(self):
        rng = np.random.default_rng(13)
        basis = ad.make_dft_basis(self.CFG)
        worst = 0.0
        for _ in range(20):
            x = rng.uniform(-1, 1, 320)
            # The FFT path: per-band |dsp.stft|^2, reverse-cumulated over frames.
            power = np.abs(stft(Signal(x, 8000), self.CFG)) ** 2
            band = self.PART.band_matrix() @ power.T
            ref = np.flip(np.cumsum(np.flip(band, axis=1), axis=1), axis=1)
            out = ad.framed_band_energy(Tensor(x[None, None, :]), basis, self.PART).data[0]
            worst = max(worst, float(np.max(np.abs(out - ref))))
        assert worst < 1e-8

        rng = np.random.default_rng(17)
        for _ in range(200):
            x = rng.uniform(-1, 1, int(rng.integers(64, 400)))
            values = metrics.edr(Signal(x, 8000), basis, self.PART).values
            assert np.all(np.diff(values, axis=1) <= 1e-12)

        a = Signal(rng.uniform(-1, 1, 256), 8000)
        b = Signal(rng.uniform(-1, 1, 256), 8000)
        assert metrics.edr_loss(a, a, basis, self.PART)[0] == 0.0
        forward = metrics.edr_loss(a, b, basis, self.PART)[0]
        backward = metrics.edr_loss(b, a, basis, self.PART)[0]
        assert forward == backward
        print(
            f"[PASS] criterion 4: differentiable vs FFT decay relief within {worst:.2e}; "
            "200 monotone surfaces; loss symmetric with exact zero on identical inputs"
        )


class TestCriterion5MetricAnalytics:
    def test_analytic_metric_values(self):
        impulse = np.zeros(16000)
        impulse[0] = 1.0
        assert metrics.ere(Signal(impulse, 16000)) == 0.0

        x = np.zeros(16000)
        x[0] = 1.0
        x[800] = 0.5
        measured = metrics.drr(Signal(x, 16000))
        assert measured == pytest.approx(6.0206, abs=0.01)

        worst = 0.0
        for t60 in (0.1, 0.2, 0.4):
            n = int(16000 * t60)
            t = np.arange(n) / 16000
            est = metrics.schroeder_t60(Signal(np.exp(-6.908 * t / t60), 16000))
            worst = max(worst, abs(est - t60) / t60)
            assert abs(est - t60) / t60 < 0.05
        print(
            f"[PASS] criterion 5: impulse ERE 0 dB, DRR {measured:.4f} dB, "
            f"T60 recovery worst deviation {worst * 100:.2f}%"
        )


class TestCriterion6ToyTrainingConvergence:
    def test_single_example_overfit(self, tmp_path_factory):
        ctx = toy_context(tmp_path_factory)
        dataset, profile = ctx["dataset"], ctx["profile"]
        entry = dataset.split_entries("train")[0]
        rev = read_wav(dataset.path(entry.reverberant)).samples
        rir = read_wav(dataset.path(entry.rir)).samples
        net = build_estimator(profile.estimator, seed=0)
        rev_t = Tensor(np.stack([rev, rev])[:, None, :])
        # in the network's dtype, as train_step casts its rir_t
        rir_t = Tensor(np.stack([rir, rir])[:, None, :].astype(net.dtype))

        opt = ad.RmspropState.for_params(net.parameters(), lr=3e-4)
        first = last = None
        for _ in range(200):
            loss = ad.mse_loss(net.forward(rev_t, train=True), rir_t)
            last = loss.item()
            if first is None:
                first = last
            net.zero_grad()
            ad.backward(loss)
            ad.rmsprop_step(net.parameters(), [p.grad for p in net.parameters()], opt)
        ratio = first / last
        assert ratio >= 100.0
        print(f"[PASS] criterion 6a: single-example MSE fell {ratio:.0f}x in 200 steps")

    def test_validation_loss_halves(self, tmp_path_factory):
        ctx = toy_context(tmp_path_factory)
        profile = ctx["profile"]
        epoch0 = ctx["result"].log.records[0].val_edr
        best = ctx["result"].best_val_edr
        assert best <= 0.5 * epoch0
        # also true against the pre-training validation value: the estimator
        # train starts from, scored on the same split
        val_rev, val_rir = training._load_split(ctx["dataset"], "val")
        initial = training.validation_edr(
            build_estimator(profile.estimator, seed=profile.train.seed),
            val_rev,
            val_rir,
            *profile.analysis(),
        )
        assert best <= 0.5 * initial
        assert ctx["elapsed"] < 600.0
        print(
            f"[PASS] criterion 6b: best validation decay-relief loss {best:.4f} <= "
            f"0.5 x epoch-0 value {epoch0:.4f}; dataset+training took {ctx['elapsed']:.0f}s"
        )

    def test_beats_trivial_predictors_on_held_out_split(self, tmp_path_factory):
        ctx = toy_context(tmp_path_factory)
        dataset, profile = ctx["dataset"], ctx["profile"]
        basis, partition = profile.analysis()
        net = load_checkpoint(ctx["result"].best_path)
        test_entries = dataset.split_entries("test")
        truths = [read_wav(dataset.path(e.rir)) for e in test_entries]
        revs = [read_wav(dataset.path(e.reverberant)) for e in test_entries]
        train_rirs = np.stack(
            [read_wav(dataset.path(e.rir)).samples for e in dataset.split_entries("train")]
        )

        def scores(preds):
            edr_losses = [
                metrics.edr_loss(p, t, basis, partition)[0] for p, t in zip(preds, truths)
            ]
            ere_errs = [abs(metrics.ere(p) - metrics.ere(t)) for p, t in zip(preds, truths)]
            return float(np.mean(edr_losses)), float(np.mean(ere_errs))

        model_edr, model_ere = scores([estimate(net, r) for r in revs])
        zeros = Signal(np.zeros(profile.estimator.rir_len), profile.estimator.sample_rate)
        zeros_edr, zeros_ere = scores([zeros] * len(truths))
        mean_rir = Signal(train_rirs.mean(axis=0), profile.estimator.sample_rate)
        mean_edr, mean_ere = scores([mean_rir] * len(truths))

        assert model_edr < zeros_edr and model_edr < mean_edr
        assert model_ere < zeros_ere and model_ere < mean_ere
        print(
            f"[PASS] criterion 6c: trained decay-relief loss {model_edr:.4f} / ERE MAE "
            f"{model_ere:.2f} dB beat zeros ({zeros_edr:.4f} / {zeros_ere:.1f}) and "
            f"mean-rir ({mean_edr:.4f} / {mean_ere:.1f})"
        )


class TestCriterion7RelativeOrdering:
    def test_baseline_near_exact_and_training_helps(self, tmp_path_factory):
        ctx = toy_context(tmp_path_factory)
        dataset, profile = ctx["dataset"], ctx["profile"]
        basis, partition = profile.analysis()
        test_entries = dataset.split_entries("test")
        truths = [read_wav(dataset.path(e.rir)) for e in test_entries]
        revs = [read_wav(dataset.path(e.reverberant)) for e in test_entries]

        baseline_mse = float(
            np.mean(
                [
                    metrics.mse(
                        spectral_deconvolve(
                            read_wav(dataset.path(e.reverberant)),
                            read_wav(dataset.path(e.clean)),
                            out_len=profile.estimator.rir_len,
                        ),
                        t,
                    )
                    for e, t in zip(test_entries, truths)
                ]
            )
        )
        assert baseline_mse < 1e-8

        trained = load_checkpoint(ctx["result"].best_path)
        untrained = build_estimator(profile.estimator, seed=12345)

        def scores(net):
            preds = [estimate(net, r) for r in revs]
            edr_losses = [
                metrics.edr_loss(p, t, basis, partition)[0] for p, t in zip(preds, truths)
            ]
            ere_errs = [abs(metrics.ere(p) - metrics.ere(t)) for p, t in zip(preds, truths)]
            return float(np.mean(edr_losses)), float(np.mean(ere_errs))

        trained_edr, trained_ere = scores(trained)
        untrained_edr, untrained_ere = scores(untrained)
        assert trained_edr < untrained_edr
        assert trained_ere < untrained_ere
        print(
            f"[PASS] criterion 7: oracle baseline MSE {baseline_mse:.2e}; trained "
            f"({trained_edr:.4f}, {trained_ere:.2f} dB) < untrained "
            f"({untrained_edr:.4f}, {untrained_ere:.2f} dB) on decay relief and ERE"
        )


class TestCriterion8DeterminismPersistence:
    def test_training_checkpoints_and_wav_round_trips(self, tmp_path_factory, tmp_path):
        ctx = toy_context(tmp_path_factory)
        dataset, profile = ctx["dataset"], ctx["profile"]
        cfg = dataclasses.replace(profile.train, epochs=3)
        for name in ("repeat_a", "repeat_b"):
            training.train(dataset, dataclasses.replace(profile, train=cfg), tmp_path / name)
        identical = all(
            (tmp_path / "repeat_a" / f).read_bytes() == (tmp_path / "repeat_b" / f).read_bytes()
            for f in ("log.csv", "best.ckpt", "last.ckpt")
        )
        assert identical

        net = load_checkpoint(ctx["result"].best_path)
        path = save_checkpoint(net, tmp_path / "again.ckpt")
        reloaded = load_checkpoint(path)
        probe = read_wav(dataset.path(dataset.entries[0].reverberant))
        np.testing.assert_array_equal(
            estimate(net, probe).samples, estimate(reloaded, probe).samples
        )

        rng = np.random.default_rng(3)
        samples = rng.uniform(-1, 1, 777).astype(np.float32).astype(np.float64)
        write_wav(tmp_path / "rt.wav", Signal(samples, 16000))
        np.testing.assert_array_equal(read_wav(tmp_path / "rt.wav").samples, samples)
        print(
            "[PASS] criterion 8: byte-identical repeat runs, bit-identical checkpoint "
            "round-trip forward, exact float32 WAV round-trip"
        )


class TestCriterion9HarnessSelfTest:
    def test_identity_evaluation_reports_floor(self, tmp_path_factory, tmp_path):
        ctx = toy_context(tmp_path_factory)
        manifest_path = Path(ctx["dataset"].root) / "manifest.json"
        out = tmp_path / "identity.csv"
        code = cli.main(
            ["evaluate", "--manifest", str(manifest_path), "--split", "test",
             "--method", "identity", "--out", str(out)]
        )
        assert code == 0
        lines = [l for l in out.read_text().strip().split("\n") if not l.startswith("#")]
        bands = 0
        for line in lines[1:-1]:
            _, log_loss, ere_mae = line.split(",")
            assert float(log_loss) == -12.0
            assert float(ere_mae) == 0.0
            bands += 1
        _, drr_mae, mse_val = lines[-1].split(",")
        assert float(drr_mae) == 0.0 and float(mse_val) == 0.0
        assert bands >= 5
        print(
            f"[PASS] criterion 9: identity evaluation floor-valued on all {bands} bands "
            "with zero ERE/DRR/MSE"
        )
