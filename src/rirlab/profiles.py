"""The two built-in scales, and the one home of every number in them.

full: the paper's scale, one-second examples of 16 kHz speech.
toy: small networks and short schedules sized for CI-speed training on a
laptop CPU.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

from .dsp import BandPartition, DftBasis, make_dft_basis, octave_bands
from .errors import InvalidConfigError, InvalidInputError
from .models import DiscriminatorConfig, EstimatorConfig
from .synth import RirParamRanges
from .training import TrainConfig


@dataclass(frozen=True)
class Profile:
    """A named scale. The estimator config holds the sample rate, the input
    length, the response length and the dtype; the train config holds the
    STFT and band setup, which analysis() builds. The discriminator scores the
    estimator's output, so the profile keeps only its own schedule
    (condition_len, discriminator_blocks) and derives the rest from the estimator
    config: dataclasses.replace(profile, estimator=...) changes both networks."""

    name: str
    ranges: RirParamRanges
    train: TrainConfig
    estimator: EstimatorConfig
    condition_len: int
    discriminator_blocks: tuple[dict, ...]

    @property
    def discriminator(self) -> DiscriminatorConfig:
        return DiscriminatorConfig(
            rir_len=self.estimator.rir_len,
            condition_len=self.condition_len,
            blocks=self.discriminator_blocks,
            dtype=self.estimator.dtype,
        )

    @property
    def rir_len(self) -> int:
        return self.estimator.rir_len

    def analysis(self) -> tuple[DftBasis, BandPartition]:
        """The DFT basis and octave bands that train selects on and evaluate and
        plot-data score with: the train config's STFT and band setup at the
        estimator's sample rate. The window must fit in one response."""
        cfg, est_cfg = self.train, self.estimator
        if cfg.stft_window > est_cfg.rir_len:
            raise InvalidConfigError(
                f"stft_window {cfg.stft_window} is longer than the estimator's rir_len "
                f"{est_cfg.rir_len}"
            )
        return make_dft_basis(cfg.stft()), octave_bands(
            est_cfg.sample_rate, cfg.stft_window, list(cfg.band_centers)
        )


_FULL = Profile(
    name="full",
    ranges=RirParamRanges(t60=(0.1, 0.5), drr=(2.0, 12.0), n_early=(2, 12), direct_delay=(0, 32)),
    train=TrainConfig(
        lambda_edr=1.0,
        lambda_mse=50.0,
        batch_size=128,
        epochs=200,
        lr_init=8e-5,
        lr_every=40,
        seed=0,
        stft_window=256,
        stft_hop=128,
        band_centers=(16.0, 32.0, 63.0, 125.0, 250.0, 500.0, 1000.0, 2000.0, 4000.0),
    ),
    estimator=EstimatorConfig(
        sample_rate=16000,
        input_len=16000,
        rir_len=4096,
        encoder=(
            {"out_channels": 512, "kernel": 8193, "stride": 250, "padding": 4096},
            {"out_channels": 1024, "kernel": 5, "stride": 2, "padding": 2},
            {"out_channels": 1024, "kernel": 5, "stride": 2, "padding": 2},
        ),
        decoder=(
            {"out_channels": 512, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 256, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 128, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 64, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 64, "kernel": 5, "stride": 1, "padding": 2, "output_padding": 0},
        ),
        collapse={"kernel": 5, "stride": 1, "padding": 2, "output_padding": 0},
        dtype="float32",
    ),
    condition_len=512,
    discriminator_blocks=(
        {"out_channels": 16, "kernel": 16, "stride": 4, "padding": 6},
        {"out_channels": 32, "kernel": 16, "stride": 4, "padding": 6},
        {"out_channels": 64, "kernel": 16, "stride": 4, "padding": 6},
        {"out_channels": 64, "kernel": 16, "stride": 4, "padding": 6},
    ),
)

_TOY = Profile(
    name="toy",
    ranges=RirParamRanges(t60=(0.06, 0.15), drr=(3.0, 10.0), n_early=(0, 6), direct_delay=(0, 8)),
    train=TrainConfig(
        lambda_edr=20.0,
        lambda_mse=2000.0,
        batch_size=16,
        epochs=60,
        lr_init=1e-3,
        lr_every=20,
        seed=0,
        stft_window=64,
        stft_hop=32,
        # 4000 Hz would sit at Nyquist for the 8 kHz profile, so the toy ladder stops at 2000.
        band_centers=(16.0, 32.0, 63.0, 125.0, 250.0, 500.0, 1000.0, 2000.0),
    ),
    estimator=EstimatorConfig(
        sample_rate=8000,
        input_len=8000,
        rir_len=256,
        encoder=(
            {"out_channels": 32, "kernel": 513, "stride": 500, "padding": 256},
            {"out_channels": 64, "kernel": 5, "stride": 2, "padding": 2},
            {"out_channels": 64, "kernel": 5, "stride": 2, "padding": 2},
        ),
        decoder=(
            {"out_channels": 32, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 16, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 8, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 8, "kernel": 5, "stride": 1, "padding": 2, "output_padding": 0},
        ),
        collapse={"kernel": 5, "stride": 1, "padding": 2, "output_padding": 0},
        dtype="float64",
    ),
    condition_len=256,
    discriminator_blocks=(
        {"out_channels": 8, "kernel": 8, "stride": 4, "padding": 2},
        {"out_channels": 16, "kernel": 8, "stride": 4, "padding": 2},
        {"out_channels": 32, "kernel": 8, "stride": 4, "padding": 2},
        {"out_channels": 32, "kernel": 4, "stride": 2, "padding": 1},
    ),
)

_PROFILES = {"full": _FULL, "toy": _TOY}
PROFILES = tuple(_PROFILES)  # the names get_profile takes


def get_profile(name: str) -> Profile:
    """A copy of the named profile. The schedule blocks are dicts, so each
    caller gets its own: an assignment through one reaches no later copy."""
    if name not in _PROFILES:
        raise InvalidInputError(f"unknown profile {name!r}, expected one of {PROFILES}")
    return copy.deepcopy(_PROFILES[name])


def profile_for_sample_rate(sample_rate: int) -> Profile:
    """A copy of the profile whose sample rate matches a manifest."""
    for name, profile in _PROFILES.items():
        if profile.estimator.sample_rate == sample_rate:
            return get_profile(name)
    raise InvalidInputError(f"no profile uses sample rate {sample_rate}")
