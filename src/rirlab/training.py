"""Alternating adversarial training with decay-relief model selection.

Each step updates the discriminator on (real, fake) pairs conditioned on the
reverberant speech, then updates the estimator on the composite loss
adversarial + lambda_edr * decay-relief + lambda_mse * waveform-MSE. After
every epoch the estimator is scored by its validation decay-relief loss in
eval mode; the best-scoring epoch's checkpoint is kept.
"""

from __future__ import annotations

import io
import json
from dataclasses import astuple, dataclass, field, fields, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import autodiff as ad
from . import metrics
from .autodiff import Tensor
from .dsp import StftConfig, band_power
from .errors import InvalidInputError, TrainingDivergedError, check_count, check_real
from .fileio import atomic_write
from .models import (
    Discriminator,
    Estimator,
    build_discriminator,
    build_estimator,
    make_condition,
    save_checkpoint,
)
from .synth import DatasetManifest

if TYPE_CHECKING:  # profiles imports this module for TrainConfig
    from .profiles import Profile


LR_DECAY = 0.7  # factor on the learning rate every lr_every epochs
# Examples per eval forward, in validation_edr and cli's evaluate alike, kept
# small for memory: the full-profile estimates of 128 examples traced a peak
# of 13.6 MiB in chunks of 4, 39.0 MiB in chunks of 16 and 307.3 MiB in one
# chunk, while the time per example moved as much between two passes as
# between chunk sizes (16.3-21.6, 16.8-17.5 and 21.3-21.6 ms).
EVAL_BATCH = 4


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters of one training run; profiles.py holds each profile's.
    Profile.analysis() builds the STFT and band fields into the setup train
    selects on, and `rirlab train --set` cannot change them, so evaluate and
    plot-data score a run with the setup it was selected on."""

    lambda_edr: float
    lambda_mse: float
    batch_size: int
    epochs: int
    lr_init: float
    lr_every: int
    seed: int
    stft_window: int
    stft_hop: int
    band_centers: tuple[float, ...]

    def __post_init__(self):
        # batch_size >= 2: train-mode batchnorm needs two examples.
        for key, low in (("seed", 0), ("batch_size", 2), ("epochs", 1), ("lr_every", 1),
                         ("stft_window", 1), ("stft_hop", 1)):
            check_count(key, getattr(self, key), low)
        for key, bound in (("lambda_edr", ">= 0"), ("lambda_mse", ">= 0"), ("lr_init", "> 0")):
            check_real(key, getattr(self, key), bound)
        self.stft()

    def lr_at(self, epoch: int) -> float:
        return self.lr_init * LR_DECAY ** (epoch // self.lr_every)

    def stft(self) -> StftConfig:
        return StftConfig(self.stft_window, self.stft_hop)


@dataclass(frozen=True)
class StepLosses:
    l_edr: float
    l_mse: float
    l_cgan: float
    l_e_total: float
    l_d: float


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    l_edr: float
    l_mse: float
    l_cgan: float
    l_d: float
    val_edr: float
    lr: float


@dataclass
class TrainLog:
    records: list[EpochRecord] = field(default_factory=list)

    def to_csv(self) -> str:
        """log.csv: EpochRecord's fields, in order, as the header, then one
        row of their reprs per epoch."""
        out = io.StringIO()
        out.write(",".join(f.name for f in fields(EpochRecord)) + "\n")
        for r in self.records:
            out.write(",".join(repr(v) for v in astuple(r)) + "\n")
        return out.getvalue()

    def save(self, path: str | Path) -> None:
        with atomic_write(path) as fh:
            fh.write(self.to_csv())


@dataclass(frozen=True)
class TrainResult:
    log: TrainLog
    best_epoch: int
    best_val_edr: float
    best_path: Path


def _check_finite(losses: dict[str, float], context: str) -> None:
    bad = [name for name, value in losses.items() if not np.isfinite(value)]
    if bad:
        raise TrainingDivergedError(f"non-finite loss ({', '.join(bad)}) at {context}")


def _backward_and_update(loss: Tensor, params: list[Tensor], opt: ad.RmspropState) -> None:
    """backward(loss), with rmsprop_step run on each parameter of params as
    soon as backward hands over its gradient, which is then dropped: no full
    set of gradients is ever held, and no .grad is written. Gradients that
    reach other leaves are dropped unused; a caller that does not want them
    computed clears those leaves' requires_grad until this returns, since
    the closures read it as they run. The accumulator of a parameter that
    loss does not reach decays, as rmsprop_step's does for a None gradient.
    If the sweep raises, the parameters updated so far stay updated."""
    index = {p.node_id: i for i, p in enumerate(params)}
    unreached = dict.fromkeys(range(len(params)))

    def one(indices: list[int]) -> ad.RmspropState:
        return replace(opt, square_avg=[opt.square_avg[i] for i in indices])

    def update(leaf: Tensor, grad: np.ndarray) -> None:
        i = index.get(leaf.node_id)
        if i is not None:
            del unreached[i]
            ad.rmsprop_step([leaf], [grad], one([i]))

    ad.backward(loss, on_leaf=update)
    if unreached:
        ad.rmsprop_step([params[i] for i in unreached], [None] * len(unreached), one(unreached))


def train_step(
    estimator: Estimator,
    discriminator: Discriminator,
    batch: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    est_opt: ad.RmspropState,
    disc_opt: ad.RmspropState,
    basis: ad.DftBasis,
    partition,
    context: str = "step",
) -> StepLosses:
    """One alternation: a discriminator update on real/fake pairs with the
    fake detached, then an estimator update on the composite loss.

    The estimator runs forward once, before the discriminator update, which
    leaves the estimator's parameters alone; both half-steps use that output.
    Every tape record the step adds is consumed by its two backward sweeps,
    or dropped if the step raises.

    Each half-step's update consumes its gradients: rmsprop_step runs on
    each parameter as soon as the backward sweep has summed its gradient,
    and the gradient is dropped then, so a step never holds the full set
    (about 70 MB on the full profile). The estimator sweep computes no
    discriminator weight gradients: the discriminator's parameters do not
    require grad from its adversarial forward until that sweep has run, and
    require it again when the step returns or raises. The result is the
    bits of a sweep followed by one rmsprop_step over all parameters. Both
    networks' .grad are cleared when the step starts and no parameter holds
    a .grad after it. If a sweep raises, the parameters it updated stay
    updated.
    """
    rev, rir = batch
    cond = make_condition(rev, discriminator.config)
    rev_t = Tensor(rev[:, None, :])
    rir_t = Tensor(rir[:, None, :].astype(estimator.dtype, copy=False))  # meets fake in the losses
    tape = ad.active_tape()
    mark = len(tape)
    estimator.zero_grad()
    discriminator.zero_grad()
    try:
        fake = estimator.forward(rev_t, train=True)

        # Discriminator half-step: descend the negation of its objective.
        real_logits = discriminator.forward(rir_t, Tensor(cond), train=True)
        fake_logits = discriminator.forward(fake.detach(), Tensor(cond), train=True)
        ones = np.ones(real_logits.shape)
        zeros = np.zeros(fake_logits.shape)
        l_d = ad.bce_logit_loss(real_logits, ones) + ad.bce_logit_loss(fake_logits, zeros)
        _check_finite({"l_d": l_d.item()}, context)
        _backward_and_update(l_d, discriminator.parameters(), disc_opt)

        # Estimator half-step, with the non-saturating generator loss.
        for p in discriminator.parameters():
            p.requires_grad = False
        adv_logits = discriminator.forward(fake, Tensor(cond), train=True)
        l_cgan = ad.bce_logit_loss(adv_logits, ones)
        l_edr = ad.mse_loss(
            ad.framed_band_energy(fake, basis, partition),
            ad.framed_band_energy(rir_t, basis, partition),
        )
        l_mse = ad.mse_loss(fake, rir_t)
        total = l_cgan + cfg.lambda_edr * l_edr + cfg.lambda_mse * l_mse
        losses = StepLosses(
            l_edr=l_edr.item(),
            l_mse=l_mse.item(),
            l_cgan=l_cgan.item(),
            l_e_total=total.item(),
            l_d=l_d.item(),
        )
        _check_finite(
            {"l_edr": losses.l_edr, "l_mse": losses.l_mse, "l_cgan": losses.l_cgan}, context
        )
        _backward_and_update(total, estimator.parameters(), est_opt)
        return losses
    finally:
        for p in discriminator.parameters():
            p.requires_grad = True
        # Records added before the step are never reached from its losses,
        # so they stay at the front of the tape.
        del tape[mark:]


def validation_edr(
    estimator: Estimator,
    rev: np.ndarray,
    rir: np.ndarray,
    basis: ad.DftBasis,
    partition,
) -> float:
    """Mean decay-relief loss over a split, eval-mode forward in chunks of
    EVAL_BATCH examples. Each chunk's estimates and responses are scored in
    one float64 band_power call; an example's loss is the one
    metrics.edr_loss gives its pair."""
    losses = []
    with ad.no_grad():
        for start in range(0, rev.shape[0], EVAL_BATCH):
            chunk = rev[start : start + EVAL_BATCH]
            est = estimator.forward(Tensor(chunk[:, None, :]), train=False).data[:, 0, :]
            rows = np.concatenate([est, rir[start : start + len(chunk)]]).astype(np.float64)
            power = band_power(rows, basis, partition)
            losses.append(metrics.decay_relief_loss(power[: len(chunk)], power[len(chunk) :])[0])
    return float(np.mean(np.concatenate(losses)))


def _load_split(manifest: DatasetManifest, split: str) -> tuple[np.ndarray, np.ndarray]:
    """A split's [n, example_len] reverberant and [n, rir_len] response rows,
    in float32, each file read by manifest.read. float32 holds every sample
    exactly: rirlab writes float32 WAVs, and a PCM16 sample over 32768 has 16
    significant bits. A row is widened, exactly, where it meets a float64
    computation."""
    entries = manifest.split_entries(split)
    if not entries:
        raise InvalidInputError(f"manifest has no entries in split {split!r}")
    rev = np.empty((len(entries), manifest.example_len), dtype=np.float32)
    rir = np.empty((len(entries), manifest.rir_len), dtype=np.float32)
    for i, entry in enumerate(entries):
        rev[i] = manifest.read(entry, "reverberant").samples
        rir[i] = manifest.read(entry, "rir").samples
    return rev, rir


def train(
    manifest: DatasetManifest,
    profile: Profile,
    out_dir: str | Path,
    echo: dict | None = None,
) -> TrainResult:
    """Full training run over a manifest's train split, with the profile's
    train config and its two networks: the estimator and the discriminator
    derived from it, which shares its response length and dtype.

    Writes log.csv, best.ckpt (argmin validation decay-relief loss) and
    last.ckpt into out_dir, which is created only once both splits have
    loaded and both networks and the analysis setup are built, along with
    the echo, if given, as config.json. Each file is replaced whole
    (fileio.atomic_write), so a kill mid-write leaves its previous version.
    Epoch shuffling, initialization and the learning-rate schedule are all
    pure functions of the config and seed. On divergence the log is flushed
    before the error propagates. The manifest's header must fit the
    estimator (DatasetManifest.check_fit), which is checked before any WAV
    is read, and its train split must hold the 2 examples that a step needs.
    """
    cfg, est_cfg = profile.train, profile.estimator
    manifest.check_fit(est_cfg, "the manifest", f"the {profile.name} estimator")
    basis, partition = profile.analysis()
    train_rev, train_rir = _load_split(manifest, "train")
    val_rev, val_rir = _load_split(manifest, "val")
    n_train = train_rev.shape[0]
    if n_train < 2:
        raise InvalidInputError(
            f"the train split holds {n_train} example; a step needs at least 2 (batchnorm)"
        )
    estimator = build_estimator(est_cfg, seed=cfg.seed)
    discriminator = build_discriminator(profile.discriminator, seed=cfg.seed + 1)
    est_opt = ad.RmspropState.for_params(estimator.parameters(), lr=cfg.lr_init)
    disc_opt = ad.RmspropState.for_params(discriminator.parameters(), lr=cfg.lr_init)

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if echo is not None:
        with atomic_write(out_dir / "config.json") as fh:
            fh.write(json.dumps(echo, indent=2) + "\n")

    log = TrainLog()
    best_epoch, best_val = -1, np.inf
    best_path = out_dir / "best.ckpt"

    try:
        for epoch in range(cfg.epochs):
            lr = cfg.lr_at(epoch)
            est_opt.lr = lr
            disc_opt.lr = lr
            order = np.random.default_rng(
                np.random.SeedSequence(entropy=cfg.seed, spawn_key=(epoch,))
            ).permutation(n_train)
            sums = np.zeros(4)  # l_edr, l_mse, l_cgan, l_d
            n_steps = 0
            for step, start in enumerate(range(0, n_train, cfg.batch_size)):
                idx = order[start : start + cfg.batch_size]
                if idx.size < 2:
                    continue
                losses = train_step(
                    estimator,
                    discriminator,
                    (train_rev[idx], train_rir[idx]),
                    cfg,
                    est_opt,
                    disc_opt,
                    basis,
                    partition,
                    context=f"epoch {epoch} step {step}",
                )
                sums += (losses.l_edr, losses.l_mse, losses.l_cgan, losses.l_d)
                n_steps += 1
            val_edr = validation_edr(estimator, val_rev, val_rir, basis, partition)
            means = sums / n_steps
            log.records.append(
                EpochRecord(
                    epoch=epoch,
                    l_edr=float(means[0]),
                    l_mse=float(means[1]),
                    l_cgan=float(means[2]),
                    l_d=float(means[3]),
                    val_edr=val_edr,
                    lr=lr,
                )
            )
            _check_finite({"val_edr": val_edr}, f"epoch {epoch} validation")
            log.save(out_dir / "log.csv")
            if val_edr < best_val:
                best_val = val_edr
                best_epoch = epoch
                save_checkpoint(estimator, best_path)
    except TrainingDivergedError:
        log.save(out_dir / "log.csv")
        raise

    save_checkpoint(estimator, out_dir / "last.ckpt")
    return TrainResult(
        log=log, best_epoch=best_epoch, best_val_edr=float(best_val), best_path=best_path
    )
