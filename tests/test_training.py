"""Adversarial training loop: loss composition, isolation of the two
updates, divergence handling, schedules, and reproducibility."""

import dataclasses
import hashlib
import os
import weakref
from pathlib import Path

import numpy as np
import pytest

from rirlab import autodiff as ad
from rirlab import metrics, training
from rirlab.autodiff import Tensor
from rirlab.dsp import Signal, octave_bands
from rirlab.errors import InvalidConfigError, InvalidInputError, TrainingDivergedError
from rirlab.models import build_discriminator, build_estimator, load_checkpoint, make_condition
from rirlab.profiles import get_profile
from rirlab.synth import build_dataset
from rirlab.training import TrainConfig, train, train_step
from rirlab.wavio import read_wav


@pytest.fixture(scope="module")
def toy_profile():
    return get_profile("toy")


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory, toy_profile):
    return build_dataset(
        out_dir=tmp_path_factory.mktemp("tinyds"),
        n_examples=12,
        ranges=toy_profile.ranges,
        sample_rate=toy_profile.estimator.sample_rate,
        example_len=toy_profile.estimator.input_len,
        splits=(0.7, 0.2, 0.1),
        seed=9,
    )


@pytest.fixture()
def step_setup(toy_profile):
    cfg = toy_profile.train
    estimator = build_estimator(toy_profile.estimator, seed=cfg.seed)
    discriminator = build_discriminator(toy_profile.discriminator, seed=cfg.seed + 1)
    est_opt = ad.RmspropState.for_params(estimator.parameters(), lr=cfg.lr_init)
    disc_opt = ad.RmspropState.for_params(discriminator.parameters(), lr=cfg.lr_init)
    basis = ad.make_dft_basis(cfg.stft())
    partition = octave_bands(
        toy_profile.estimator.sample_rate, cfg.stft_window, list(cfg.band_centers)
    )
    rng = np.random.default_rng(0)
    batch = (
        rng.uniform(-0.9, 0.9, (4, toy_profile.estimator.input_len)),
        rng.uniform(-0.9, 0.9, (4, toy_profile.estimator.rir_len)),
    )
    return cfg, estimator, discriminator, est_opt, disc_opt, basis, partition, batch


def _param_digest(net):
    h = hashlib.sha256()
    for _, p in net.named_parameters():
        h.update(p.data.tobytes())
    return h.hexdigest()


class TestTrainStep:
    def test_zero_weights_degenerate_to_adversarial_loss(self, step_setup):
        cfg, est, disc, eo, do, basis, part, batch = step_setup
        cfg0 = dataclasses.replace(cfg, lambda_edr=0.0, lambda_mse=0.0)
        losses = train_step(est, disc, batch, cfg0, eo, do, basis, part)
        assert losses.l_e_total == losses.l_cgan

    def test_composite_equals_weighted_sum(self, step_setup):
        cfg, est, disc, eo, do, basis, part, batch = step_setup
        losses = train_step(est, disc, batch, cfg, eo, do, basis, part)
        recomputed = (
            losses.l_cgan + cfg.lambda_edr * losses.l_edr + cfg.lambda_mse * losses.l_mse
        )
        assert abs(losses.l_e_total - recomputed) < 1e-12

    def test_half_steps_do_not_cross_mutate(self, step_setup):
        cfg, est, disc, eo, do, basis, part, batch = step_setup
        rev, rir = batch
        cond = make_condition(rev, disc.config.condition_len, disc.config.rir_len)

        # discriminator half-step leaves the estimator untouched
        est_before = _param_digest(est)
        with ad.no_grad():
            fake = est.forward(Tensor(rev[:, None, :]), train=True).detach()
        real_logits = disc.forward(Tensor(rir[:, None, :]), Tensor(cond), train=True)
        fake_logits = disc.forward(fake, Tensor(cond), train=True)
        l_d = ad.bce_logit_loss(real_logits, np.ones(real_logits.shape)) + ad.bce_logit_loss(
            fake_logits, np.zeros(fake_logits.shape)
        )
        disc.zero_grad()
        ad.backward(l_d)
        assert all(p.grad is None for p in est.parameters())
        ad.rmsprop_step(disc.parameters(), [p.grad for p in disc.parameters()], do)
        assert _param_digest(est) == est_before

        # estimator half-step leaves the discriminator untouched
        disc_before = _param_digest(disc)
        out = est.forward(Tensor(rev[:, None, :]), train=True)
        logits = disc.forward(out, Tensor(cond), train=True)
        loss = (
            ad.bce_logit_loss(logits, np.ones(logits.shape))
            + cfg.lambda_edr * ad.mse_loss(
                ad.framed_band_energy(out, basis, part),
                ad.framed_band_energy(Tensor(rir[:, None, :]), basis, part),
            )
            + cfg.lambda_mse * ad.mse_loss(out, Tensor(rir[:, None, :]))
        )
        est.zero_grad()
        disc.zero_grad()
        ad.backward(loss)
        ad.rmsprop_step(est.parameters(), [p.grad for p in est.parameters()], eo)
        assert _param_digest(disc) == disc_before

    def test_both_networks_actually_update(self, step_setup):
        cfg, est, disc, eo, do, basis, part, batch = step_setup
        est_before, disc_before = _param_digest(est), _param_digest(disc)
        train_step(est, disc, batch, cfg, eo, do, basis, part)
        assert _param_digest(est) != est_before
        assert _param_digest(disc) != disc_before

    def test_nan_input_raises_diverged(self, step_setup):
        cfg, est, disc, eo, do, basis, part, batch = step_setup
        rev = batch[0].copy()
        rev[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError, match="epoch 3 step 1"):
            train_step(
                est, disc, (rev, batch[1]), cfg, eo, do, basis, part,
                context="epoch 3 step 1",
            )


def _two_forward_step(est, disc, batch, cfg, eo, do, basis, part):
    """The step as written before it shared one estimator forward: a no_grad
    estimator forward for the discriminator half-step, with the batchnorm
    running statistics restored after it, then a second forward with grad."""
    rev, rir = batch
    cond = make_condition(rev, disc.config.condition_len, disc.config.rir_len)
    rev_t, rir_t = Tensor(rev[:, None, :]), Tensor(rir[:, None, :])
    saved = [(holder, attr, getattr(holder, attr)) for _, holder, attr in est.named_buffers()]
    with ad.no_grad():
        fake_detached = est.forward(rev_t, train=True).detach()
    for holder, attr, value in saved:
        setattr(holder, attr, value)
    real_logits = disc.forward(rir_t, Tensor(cond), train=True)
    fake_logits = disc.forward(fake_detached, Tensor(cond), train=True)
    l_d = ad.bce_logit_loss(real_logits, np.ones(real_logits.shape)) + ad.bce_logit_loss(
        fake_logits, np.zeros(fake_logits.shape)
    )
    disc.zero_grad()
    ad.backward(l_d)
    ad.rmsprop_step(disc.parameters(), [p.grad for p in disc.parameters()], do)

    fake = est.forward(rev_t, train=True)
    adv_logits = disc.forward(fake, Tensor(cond), train=True)
    l_cgan = ad.bce_logit_loss(adv_logits, np.ones(adv_logits.shape))
    l_edr = ad.mse_loss(
        ad.framed_band_energy(fake, basis, part), ad.framed_band_energy(rir_t, basis, part)
    )
    l_mse = ad.mse_loss(fake, rir_t)
    total = l_cgan + cfg.lambda_edr * l_edr + cfg.lambda_mse * l_mse
    est.zero_grad()
    disc.zero_grad()
    ad.backward(total)
    ad.rmsprop_step(est.parameters(), [p.grad for p in est.parameters()], eo)
    return training.StepLosses(
        l_edr=l_edr.item(), l_mse=l_mse.item(), l_cgan=l_cgan.item(),
        l_e_total=total.item(), l_d=l_d.item(),
    )


def _state_bytes(net, opt):
    arrays = [p.data for p in net.parameters()]
    arrays += [getattr(holder, attr) for _, holder, attr in net.named_buffers()]
    return [a.tobytes() for a in arrays + opt.square_avg]


class TestSingleEstimatorForward:
    def test_bit_identical_to_two_forward_reference(self, step_setup, toy_profile):
        cfg, est, disc, eo, do, basis, part, batch = step_setup
        ref_est = build_estimator(toy_profile.estimator, seed=cfg.seed)
        ref_disc = build_discriminator(toy_profile.discriminator, seed=cfg.seed + 1)
        ref_eo = ad.RmspropState.for_params(ref_est.parameters(), lr=cfg.lr_init)
        ref_do = ad.RmspropState.for_params(ref_disc.parameters(), lr=cfg.lr_init)
        for _ in range(2):
            got = train_step(est, disc, batch, cfg, eo, do, basis, part)
            want = _two_forward_step(ref_est, ref_disc, batch, cfg, ref_eo, ref_do, basis, part)
            assert got == want
        assert _state_bytes(est, eo) == _state_bytes(ref_est, ref_eo)
        assert _state_bytes(disc, do) == _state_bytes(ref_disc, ref_do)

    def test_estimator_forward_runs_once_per_step(self, step_setup, monkeypatch):
        cfg, est, disc, eo, do, basis, part, batch = step_setup
        calls = []
        forward = est.forward
        monkeypatch.setattr(est, "forward", lambda *a, **k: calls.append(1) or forward(*a, **k))
        train_step(est, disc, batch, cfg, eo, do, basis, part)
        train_step(est, disc, batch, cfg, eo, do, basis, part)
        assert len(calls) == 2

    def test_estimator_gradients_cleared_before_its_forward(self, step_setup, monkeypatch):
        # The updates consume the gradients: no parameter of either network
        # holds a .grad after a step, and the estimator's forward starts
        # with none, also when a caller left gradients on both networks.
        cfg, est, disc, eo, do, basis, part, batch = step_setup
        train_step(est, disc, batch, cfg, eo, do, basis, part)
        assert all(p.grad is None for p in est.parameters() + disc.parameters())
        for p in est.parameters() + disc.parameters():
            p.grad = np.ones_like(p.data)
        seen = []
        forward = est.forward

        def checked(*args, **kwargs):
            seen.append([p.grad is None for p in est.parameters()])
            return forward(*args, **kwargs)

        monkeypatch.setattr(est, "forward", checked)
        train_step(est, disc, batch, cfg, eo, do, basis, part)
        assert len(seen) == 1 and all(seen[0])
        assert all(p.grad is None for p in est.parameters() + disc.parameters())

    def test_tape_empty_after_step_and_after_divergence(self, step_setup):
        cfg, est, disc, eo, do, basis, part, batch = step_setup
        train_step(est, disc, batch, cfg, eo, do, basis, part)
        assert len(ad.active_tape()) == 0
        rev = batch[0].copy()
        rev[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError):
            train_step(est, disc, (rev, batch[1]), cfg, eo, do, basis, part)
        assert len(ad.active_tape()) == 0


class TestUpdatesConsumeGradients:
    """Each half-step applies rmsprop_step to a parameter as soon as its
    gradient is complete, with the bits of one update after the sweep."""

    def test_full_profile_estimator_update_holds_no_other_gradient(self, monkeypatch):
        profile = get_profile("full")
        cfg = dataclasses.replace(profile.train, batch_size=2)
        est = build_estimator(profile.estimator, seed=0)
        disc = build_discriminator(profile.discriminator, seed=1)
        eo = ad.RmspropState.for_params(est.parameters(), lr=cfg.lr_init)
        do = ad.RmspropState.for_params(disc.parameters(), lr=cfg.lr_init)
        part = octave_bands(
            profile.estimator.sample_rate, cfg.stft_window, list(cfg.band_centers)
        )
        rng = np.random.default_rng(3)
        batch = (
            rng.uniform(-0.9, 0.9, (2, profile.estimator.input_len)),
            rng.uniform(-0.9, 0.9, (2, profile.estimator.rir_len)),
        )
        est_ids = {p.node_id for p in est.parameters()}
        earlier, updated = [], []
        step = ad.rmsprop_step

        def checked(params, grads, state):
            if params[0].node_id in est_ids:
                assert all(p.grad is None for p in est.parameters())
                assert all(ref() is None for ref in earlier), "an earlier gradient is alive"
                earlier.extend(weakref.ref(g) for g in grads)
                updated.extend(p.node_id for p in params)
            return step(params, grads, state)

        monkeypatch.setattr(ad, "rmsprop_step", checked)
        train_step(est, disc, batch, cfg, eo, do, ad.make_dft_basis(cfg.stft()), part)
        assert sorted(updated) == sorted(est_ids)

    def test_unreached_parameter_decays_its_accumulator_only(self):
        rng = np.random.default_rng(4)
        w, u = (Tensor(rng.standard_normal(5), requires_grad=True) for _ in range(2))
        ref_w, ref_u = Tensor(w.data.copy(), requires_grad=True), Tensor(u.data.copy())
        opt = ad.RmspropState.for_params([w, u], lr=1e-3)
        ref = ad.RmspropState.for_params([ref_w, ref_u], lr=1e-3)
        for acc in opt.square_avg + ref.square_avg:
            acc[:] = np.linspace(0.1, 0.5, 5)
        training._backward_and_update((w * 3.0).sum(), [w, u], opt)
        ad.backward((ref_w * 3.0).sum())
        ad.rmsprop_step([ref_w, ref_u], [ref_w.grad, None], ref)
        for got, want in ((w.data, ref_w.data), (u.data, ref_u.data)):
            np.testing.assert_array_equal(got, want)
        for got, want in zip(opt.square_avg, ref.square_avg):
            np.testing.assert_array_equal(got, want)
        assert not np.array_equal(opt.square_avg[1], np.linspace(0.1, 0.5, 5))
        assert w.grad is None and u.grad is None

    def test_error_in_the_estimator_sweep_keeps_the_updates_made(self, step_setup):
        # A record that raises in backward sits between enc1 and enc2: the
        # sweep updates the decoder and enc2 before it reaches the record,
        # and never reaches enc0 or enc1.
        cfg, est, disc, eo, do, basis, part, batch = step_setup
        layers = dict(est.layers)
        forward = layers["enc2_conv"].forward

        def boom(g):
            raise RuntimeError("boom")

        def raising_then_forward(x, train):
            y = Tensor(x.data.copy())
            ad.record(y, (x,), boom)
            return forward(y, train)

        layers["enc2_conv"].forward = raising_then_forward
        before = {name: p.data.copy() for name, p in est.named_parameters()}
        disc_before = _param_digest(disc)
        with pytest.raises(RuntimeError, match="boom"):
            train_step(est, disc, batch, cfg, eo, do, basis, part)
        assert _param_digest(disc) != disc_before
        for name, p in est.named_parameters():
            changed = not np.array_equal(p.data, before[name])
            assert changed == (not name.startswith(("enc0", "enc1"))), name
            assert p.grad is None
        assert len(ad.active_tape()) == 0


class TestTrainConfig:
    def test_full_scale_defaults_and_schedule(self):
        cfg = TrainConfig()
        assert cfg.batch_size == 128
        assert cfg.epochs == 200
        assert cfg.lr_init == 8e-5
        assert cfg.lr_at(0) == 8e-5
        assert cfg.lr_at(39) == 8e-5
        assert cfg.lr_at(40) == pytest.approx(8e-5 * 0.7)
        assert cfg.lr_at(80) == pytest.approx(8e-5 * 0.49)

    def test_validation(self):
        with pytest.raises(InvalidInputError):
            TrainConfig(lambda_edr=-1.0)
        with pytest.raises(InvalidInputError):
            TrainConfig(batch_size=1)
        with pytest.raises(InvalidInputError):
            TrainConfig(epochs=0)
        with pytest.raises(InvalidInputError):
            TrainConfig(lr_every=0)

    @pytest.mark.parametrize(
        "key, value",
        [("seed", -1), ("seed", 1.0), ("seed", True), ("lambda_edr", float("nan")),
         ("lambda_mse", float("inf")), ("lr_init", 0.0), ("lr_init", float("nan")),
         ("lr_decay", -0.5), ("lr_decay", float("inf")), ("stft_hop", 0),
         ("stft_hop", 512), ("stft_window", 100)],
    )
    def test_bad_value_names_its_key(self, key, value):
        with pytest.raises(InvalidInputError, match=key):
            TrainConfig(**{key: value})


class TestTrain:
    def test_short_run_reproducibility_and_selection(self, tmp_path, toy_profile, tiny_dataset):
        cfg = dataclasses.replace(toy_profile.train, epochs=3)
        r1 = train(tiny_dataset, toy_profile.estimator, toy_profile.discriminator, cfg,
                   tmp_path / "a")
        r2 = train(tiny_dataset, toy_profile.estimator, toy_profile.discriminator, cfg,
                   tmp_path / "b")
        for name in ("log.csv", "best.ckpt", "last.ckpt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
        vals = [rec.val_edr for rec in r1.log.records]
        assert r1.best_epoch == int(np.argmin(vals))
        assert r1.best_val_edr == min(vals)
        assert len(r1.log.records) == 3
        assert all(np.isfinite(v) for v in vals)
        assert r1.log.initial_val_edr is not None

    def test_run_files_are_replaced_whole(self, tmp_path, monkeypatch, toy_profile, tiny_dataset):
        replaced = []
        replace = os.replace

        def recording(src, dst):
            replaced.append(Path(dst).name)
            return replace(src, dst)

        monkeypatch.setattr(os, "replace", recording)
        cfg = dataclasses.replace(toy_profile.train, epochs=1)
        train(tiny_dataset, toy_profile.estimator, toy_profile.discriminator, cfg,
              tmp_path / "r", echo={"profile": "toy"})
        files = ["best.ckpt", "config.json", "last.ckpt", "log.csv"]
        assert sorted(set(replaced)) == files
        assert sorted(p.name for p in (tmp_path / "r").iterdir()) == files

    def test_log_csv_layout(self, tmp_path, toy_profile, tiny_dataset):
        cfg = dataclasses.replace(toy_profile.train, epochs=1)
        train(tiny_dataset, toy_profile.estimator, toy_profile.discriminator, cfg, tmp_path / "r")
        lines = (tmp_path / "r" / "log.csv").read_text().strip().split("\n")
        assert lines[0] == "epoch,l_edr,l_mse,l_cgan,l_d,val_edr,lr"
        assert len(lines) == 2
        assert lines[1].startswith("0,")

    def test_empty_split_rejected(self, tmp_path, toy_profile):
        manifest = build_dataset(
            out_dir=tmp_path / "noval",
            n_examples=4,
            ranges=toy_profile.ranges,
            sample_rate=toy_profile.estimator.sample_rate,
            example_len=toy_profile.estimator.input_len,
            splits=(1.0, 0.0, 0.0),
            seed=1,
        )
        with pytest.raises(InvalidInputError):
            train(manifest, toy_profile.estimator, toy_profile.discriminator,
                  toy_profile.train, tmp_path / "run")
        assert not (tmp_path / "run").exists()


    def test_splits_load_in_float32_with_the_wav_values(self, toy_profile, tiny_dataset):
        rev, rir = training._load_split(tiny_dataset, "train", toy_profile.estimator)
        assert rev.dtype == rir.dtype == np.float32
        entries = tiny_dataset.split_entries("train")
        for i, entry in enumerate(entries):
            assert np.array_equal(rev[i], read_wav(tiny_dataset.path(entry.reverberant)).samples)
            assert np.array_equal(rir[i], read_wav(tiny_dataset.path(entry.rir)).samples)


class TestValidationEdr:
    def test_mean_of_per_example_edr_loss(self, toy_profile):
        # A float32 estimator on 11 examples in chunks of 4, so the last
        # chunk is short.
        est_cfg = dataclasses.replace(toy_profile.estimator, dtype="float32")
        estimator = build_estimator(est_cfg, seed=3)
        cfg, sr = toy_profile.train, est_cfg.sample_rate
        partition = octave_bands(sr, cfg.stft_window, list(cfg.band_centers))
        rng = np.random.default_rng(4)
        rev = rng.uniform(-0.9, 0.9, (11, est_cfg.input_len)).astype(np.float32)
        rir = rng.uniform(-0.9, 0.9, (11, est_cfg.rir_len)).astype(np.float32)
        basis = ad.make_dft_basis(cfg.stft())
        got = training.validation_edr(estimator, rev, rir, basis, partition, 4)
        losses = []
        with ad.no_grad():
            for start in range(0, 11, 4):
                chunk = Tensor(rev[start : start + 4, None, :])
                est = estimator.forward(chunk, train=False).data[:, 0, :]
                assert est.dtype == np.float32
                for e, r in zip(est, rir[start : start + 4]):
                    pair = (Signal(e, sr), Signal(r, sr))
                    losses.append(metrics.edr_loss(*pair, cfg.stft(), partition)[0])
        assert len(losses) == 11
        assert got == pytest.approx(np.mean(losses), rel=1e-12)

    def test_non_finite_validation_diverges_with_the_log_kept(
        self, tmp_path, monkeypatch, toy_profile, tiny_dataset
    ):
        monkeypatch.setattr(training, "validation_edr", lambda *args: float("nan"))
        cfg = dataclasses.replace(toy_profile.train, epochs=2)
        with pytest.raises(TrainingDivergedError, match="epoch 0 validation"):
            train(tiny_dataset, toy_profile.estimator, toy_profile.discriminator, cfg,
                  tmp_path / "r")
        assert (tmp_path / "r" / "log.csv").read_text().count("\n") == 2
        assert not (tmp_path / "r" / "best.ckpt").exists()


class TestFloat32Training:
    def test_full_profile_step_stays_float32(self, monkeypatch):
        profile = get_profile("full")
        cfg = dataclasses.replace(profile.train, batch_size=2)
        estimator = build_estimator(profile.estimator, seed=0)
        discriminator = build_discriminator(profile.discriminator, seed=1)
        est_opt = ad.RmspropState.for_params(estimator.parameters(), lr=cfg.lr_init)
        disc_opt = ad.RmspropState.for_params(discriminator.parameters(), lr=cfg.lr_init)
        partition = octave_bands(
            profile.estimator.sample_rate, cfg.stft_window, list(cfg.band_centers)
        )
        rng = np.random.default_rng(1)
        batch = (
            rng.uniform(-0.9, 0.9, (2, profile.estimator.input_len)),
            rng.uniform(-0.9, 0.9, (2, profile.rir_len)),
        )
        # The updates consume the gradients, so they are read where
        # rmsprop_step receives them.
        received = {}
        step = ad.rmsprop_step

        def capture(params, grads, state):
            for p, g in zip(params, grads):
                received[p.node_id] = None if g is None else g.dtype
            return step(params, grads, state)

        monkeypatch.setattr(ad, "rmsprop_step", capture)
        losses = train_step(estimator, discriminator, batch, cfg, est_opt, disc_opt,
                            ad.make_dft_basis(cfg.stft()), partition)
        assert all(np.isfinite(v) for v in dataclasses.astuple(losses))
        for net, opt in ((estimator, est_opt), (discriminator, disc_opt)):
            for name, p in net.named_parameters():
                assert p.data.dtype == np.float32, name
                assert received[p.node_id] == np.float32, name
            assert all(acc.dtype == np.float32 for acc in opt.square_avg)
            for name, holder, attr in net.named_buffers():
                assert getattr(holder, attr).dtype == np.float32, name
        assert len(ad.active_tape()) == 0

    def test_float32_toy_run_writes_float32_checkpoints(self, tmp_path, toy_profile, tiny_dataset):
        est_cfg = dataclasses.replace(toy_profile.estimator, dtype="float32")
        disc_cfg = dataclasses.replace(toy_profile.discriminator, dtype="float32")
        cfg = dataclasses.replace(toy_profile.train, epochs=2)
        result = train(tiny_dataset, est_cfg, disc_cfg, cfg, tmp_path / "r")
        assert all(np.isfinite(rec.val_edr) for rec in result.log.records)
        best = load_checkpoint(result.best_path)
        assert best.config == est_cfg
        assert all(p.data.dtype == np.float32 for p in best.parameters())

    def test_mixed_network_dtypes_rejected(self, tmp_path, toy_profile, tiny_dataset):
        disc_cfg = dataclasses.replace(toy_profile.discriminator, dtype="float32")
        with pytest.raises(InvalidConfigError, match="dtype"):
            train(tiny_dataset, toy_profile.estimator, disc_cfg, toy_profile.train, tmp_path / "r")
        assert not (tmp_path / "r").exists()
