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
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import autodiff as ad
from . import metrics
from .autodiff import Tensor
from .dsp import StftConfig, band_power, octave_bands
from .errors import InvalidConfigError, InvalidInputError, TrainingDivergedError
from .fileio import atomic_write
from .models import (
    Discriminator,
    DiscriminatorConfig,
    Estimator,
    EstimatorConfig,
    build_discriminator,
    build_estimator,
    make_condition,
    save_checkpoint,
)
from .synth import DatasetManifest
from .wavio import read_wav


@dataclass(frozen=True)
class TrainConfig:
    """Hyperparameters; the full-scale defaults are batch 128, 200 epochs,
    initial rate 8e-5 decayed by 0.7 every 40 epochs."""

    lambda_edr: float = 1.0
    lambda_mse: float = 50.0
    batch_size: int = 128
    epochs: int = 200
    lr_init: float = 8e-5
    lr_decay: float = 0.7
    lr_every: int = 40
    seed: int = 0
    stft_window: int = 256
    stft_hop: int = 128
    band_centers: tuple[float, ...] = (
        16.0, 32.0, 63.0, 125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0
    )

    def __post_init__(self):
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise InvalidInputError(f"seed must be an integer >= 0, got {self.seed!r}")
        for key in ("lambda_edr", "lambda_mse"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value >= 0):
                raise InvalidInputError(f"{key} must be finite and >= 0, got {value!r}")
        for key in ("lr_init", "lr_decay"):
            value = getattr(self, key)
            if not (math.isfinite(value) and value > 0):
                raise InvalidInputError(f"{key} must be finite and > 0, got {value!r}")
        try:
            self.stft()
        except InvalidConfigError as exc:
            raise InvalidInputError(
                f"stft_window={self.stft_window}, stft_hop={self.stft_hop}: {exc}"
            ) from exc
        if self.batch_size < 2:
            raise InvalidInputError("batch_size must be >= 2 (batchnorm constraint)")
        if self.epochs < 1 or self.lr_every < 1:
            raise InvalidInputError("epochs and lr_every must be >= 1")

    def lr_at(self, epoch: int) -> float:
        return self.lr_init * self.lr_decay ** (epoch // self.lr_every)

    def stft(self) -> StftConfig:
        return StftConfig(self.stft_window, self.stft_hop, "hann")


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
    initial_val_edr: float | None = None

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("epoch,l_edr,l_mse,l_cgan,l_d,val_edr,lr\n")
        for r in self.records:
            out.write(
                f"{r.epoch},{r.l_edr!r},{r.l_mse!r},{r.l_cgan!r},{r.l_d!r},"
                f"{r.val_edr!r},{r.lr!r}\n"
            )
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
    reach other leaves are dropped unused. The accumulator of a parameter
    that loss does not reach decays, as rmsprop_step's does for a None
    gradient. If the sweep raises, the parameters updated so far stay
    updated."""
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
    (about 70 MB on the full profile). The discriminator gradients of the
    estimator sweep are dropped as they complete. The result is the bits of
    a sweep followed by one rmsprop_step over all parameters. Both networks'
    .grad are cleared when the step starts and no parameter holds a .grad
    after it. If a sweep raises, the parameters it updated stay updated.
    """
    rev, rir = batch
    cond = make_condition(
        rev, discriminator.config.condition_len, discriminator.config.rir_len
    )
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
        # Records added before the step are never reached from its losses,
        # so they stay at the front of the tape.
        del tape.entries[mark:]


def validation_edr(
    estimator: Estimator,
    rev: np.ndarray,
    rir: np.ndarray,
    basis: ad.DftBasis,
    partition,
    batch_size: int,
) -> float:
    """Mean decay-relief loss over a split, eval-mode forward. Each chunk's
    estimates and responses are scored in one float64 band_power call; an
    example's loss is the one metrics.edr_loss gives its pair."""
    losses = []
    with ad.no_grad():
        for start in range(0, rev.shape[0], batch_size):
            chunk = rev[start : start + batch_size]
            est = estimator.forward(Tensor(chunk[:, None, :]), train=False).data[:, 0, :]
            rows = np.concatenate([est, rir[start : start + len(chunk)]]).astype(np.float64)
            power = band_power(rows, basis, partition)
            losses.append(metrics.decay_relief_loss(power[: len(chunk)], power[len(chunk) :])[0])
    return float(np.mean(np.concatenate(losses)))


def _stack_wavs(paths: list[Path], length: int, name: str) -> np.ndarray:
    """[len(paths), length] float32 samples of WAVs that must each hold the
    estimator's length, named name. float32 holds every sample exactly: rirlab
    writes float32 WAVs, and a PCM16 sample over 32768 has 16 significant
    bits. A row is widened, exactly, where it meets a float64 computation."""
    out = np.empty((len(paths), length), dtype=np.float32)
    for row, path in zip(out, paths):
        samples = read_wav(path).samples
        if len(samples) != length:
            raise InvalidInputError(
                f"{path} has {len(samples)} samples, the estimator's {name} is {length}"
            )
        row[:] = samples
    return out


def _load_split(
    manifest: DatasetManifest, split: str, est_cfg: EstimatorConfig
) -> tuple[np.ndarray, np.ndarray]:
    entries = manifest.split_entries(split)
    if not entries:
        raise InvalidInputError(f"manifest has no entries in split {split!r}")
    rev = [manifest.path(e.reverberant) for e in entries]
    rir = [manifest.path(e.rir) for e in entries]
    return (
        _stack_wavs(rev, est_cfg.input_len, "input_len"),
        _stack_wavs(rir, est_cfg.rir_len, "rir_len"),
    )


def train(
    manifest: DatasetManifest,
    est_cfg: EstimatorConfig,
    disc_cfg: DiscriminatorConfig,
    cfg: TrainConfig,
    out_dir: str | Path,
    echo: dict | None = None,
) -> TrainResult:
    """Full training run over a manifest's train split.

    Writes log.csv, best.ckpt (argmin validation decay-relief loss) and
    last.ckpt into out_dir, which is created only once both splits have
    loaded, along with the echo, if given, as config.json. Each file is
    replaced whole (fileio.atomic_write), so a kill mid-write leaves its
    previous version. Epoch shuffling, initialization and the learning-rate
    schedule are all pure functions of the config and seed. On divergence
    the log is flushed before the error propagates. The two networks must
    share one dtype.
    """
    if est_cfg.dtype != disc_cfg.dtype:
        raise InvalidConfigError(
            f"estimator dtype {est_cfg.dtype} and discriminator dtype {disc_cfg.dtype} differ"
        )
    if cfg.stft_window > est_cfg.rir_len:
        raise InvalidInputError(
            f"stft_window {cfg.stft_window} is longer than the estimator's rir_len "
            f"{est_cfg.rir_len}"
        )
    train_rev, train_rir = _load_split(manifest, "train", est_cfg)
    val_rev, val_rir = _load_split(manifest, "val", est_cfg)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    if echo is not None:
        with atomic_write(out_dir / "config.json") as fh:
            fh.write(json.dumps(echo, indent=2) + "\n")

    estimator = build_estimator(est_cfg, seed=cfg.seed)
    discriminator = build_discriminator(disc_cfg, seed=cfg.seed + 1)
    est_opt = ad.RmspropState.for_params(estimator.parameters(), lr=cfg.lr_init)
    disc_opt = ad.RmspropState.for_params(discriminator.parameters(), lr=cfg.lr_init)
    basis = ad.make_dft_basis(cfg.stft())
    partition = octave_bands(manifest.sample_rate, cfg.stft_window, list(cfg.band_centers))

    log = TrainLog()
    log.initial_val_edr = validation_edr(
        estimator, val_rev, val_rir, basis, partition, cfg.batch_size
    )
    best_epoch, best_val = -1, np.inf
    best_path = out_dir / "best.ckpt"
    n_train = train_rev.shape[0]

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
            val_edr = validation_edr(estimator, val_rev, val_rir, basis, partition, cfg.batch_size)
            means = sums / max(n_steps, 1)
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
