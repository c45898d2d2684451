"""Room-acoustic metrics and losses on impulse-response pairs.

Energy decay relief (per-band remaining energy over time), its squared-error
loss, early reflection energy, direct-to-reverberant ratio, waveform MSE,
backward-integration T60, and an aggregate report matching the evaluation
CSV emitted by the CLI. Every banded value comes from one float64 call of
``dsp.band_power``, the training loss's kernel, per signal or per pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .dsp import BandPartition, DftBasis, Signal, band_power, decay_relief, widen
from .errors import EstimationFailedError, InvalidConfigError, InvalidInputError
from .fileio import write_csv

ENERGY_FLOOR = 1e-12  # applied before every log10; bounds dB outputs at -120
EARLY_WINDOW_S = 0.080
DIRECT_WINDOW_S = 0.0025


def _check_pair(a: Signal, b: Signal) -> None:
    if a.sample_rate != b.sample_rate:
        raise InvalidInputError(f"sample-rate mismatch: {a.sample_rate} vs {b.sample_rate}")
    if len(a) != len(b):
        raise InvalidInputError(f"length mismatch: {len(a)} vs {len(b)}")


def _band_power(signals: tuple[Signal, ...], basis: DftBasis, partition: BandPartition):
    """dsp.band_power of the signals stacked as rows: [len(signals), bands, frames]."""
    for signal in signals[1:]:
        _check_pair(signals[0], signal)
    if partition.sample_rate != signals[0].sample_rate:
        raise InvalidConfigError(
            f"partition built for {partition.sample_rate} Hz, signal is {signals[0].sample_rate} Hz"
        )
    return band_power(np.stack([widen(signal.samples) for signal in signals]), basis, partition)


@dataclass(frozen=True)
class EdrMatrix:
    """Remaining energy per (band, frame) for one impulse response.

    values[b][t] is the energy still present from frame t onward in band b,
    so every row is non-increasing and row heads hold total band energy.
    """

    values: np.ndarray  # [bands x frames]
    frame_times: np.ndarray  # seconds, window centers

    def in_db(self) -> np.ndarray:
        return 10.0 * np.log10(np.maximum(self.values, ENERGY_FLOOR))


def edr(rir: Signal, basis: DftBasis, partition: BandPartition) -> EdrMatrix:
    """Energy decay relief of an impulse response.

    Per band and frame: windowed-DFT power summed over the band's bins and
    over all frames from that frame to the end (a per-band Schroeder curve).
    """
    values = decay_relief(_band_power((rir,), basis, partition)[0])
    return EdrMatrix(values, basis.cfg.frame_times(values.shape[1], rir.sample_rate))


def decay_relief_loss(est: np.ndarray, truth: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean squared difference of the decay reliefs of band powers
    [..., bands, frames]: (mean over bands and frames, per-band frame-means)."""
    diff = decay_relief(est) - decay_relief(truth)
    per_band = np.mean(diff**2, axis=-1)
    return np.mean(per_band, axis=-1), per_band


def edr_loss(
    estimated: Signal, truth: Signal, basis: DftBasis, partition: BandPartition
) -> tuple[float, np.ndarray]:
    """Mean squared difference of the two decay-relief surfaces.

    Returns (mean over bands and frames, per-band frame-means). Symmetric in
    its arguments and exactly zero for identical inputs.
    """
    power = _band_power((estimated, truth), basis, partition)
    total, per_band = decay_relief_loss(power[0], power[1])
    return float(total), per_band


def ere(rir: Signal) -> float:
    """Early reflection energy: dB energy in the first 80 ms."""
    if len(rir) < 1:
        raise InvalidInputError("empty signal")
    n_early = int(np.floor(EARLY_WINDOW_S * rir.sample_rate)) + 1
    energy = float(np.sum(widen(rir.samples[:n_early]) ** 2))
    return 10.0 * np.log10(max(energy, ENERGY_FLOOR))


def drr(rir: Signal) -> float:
    """Direct-to-reverberant ratio in dB.

    Direct sound is the +-2.5 ms window around the absolute peak sample
    (clamped to the signal); everything else counts as reverberant.
    """
    samples = widen(rir.samples)
    if len(rir) < 1 or not np.any(samples):
        raise InvalidInputError("cannot locate a peak in an all-zero signal")
    peak = int(np.argmax(np.abs(samples)))
    half = int(round(DIRECT_WINDOW_S * rir.sample_rate))
    lo = max(0, peak - half)
    hi = min(len(rir), peak + half + 1)
    direct = float(np.sum(samples[lo:hi] ** 2))
    rest = float(np.sum(samples**2)) - direct
    return 10.0 * np.log10(direct / max(rest, ENERGY_FLOOR))


def mse(estimated: Signal, truth: Signal) -> float:
    """Mean squared sample difference of the raw amplitudes."""
    _check_pair(estimated, truth)
    return float(np.mean((widen(truth.samples) - widen(estimated.samples)) ** 2))


def schroeder_t60(rir: Signal) -> float:
    """Reverberation time from the backward-integrated energy decay curve.

    Fits a least-squares line to the -5 dB..-25 dB segment of the decay and
    extrapolates the time to fall 60 dB. Scale-invariant by construction.
    """
    energy = widen(rir.samples) ** 2
    total = float(np.sum(energy))
    if total <= 0:
        raise InvalidInputError("signal has no energy")
    edc = np.flip(np.cumsum(np.flip(energy)))
    valid = edc > 0
    db = np.full(edc.shape, -np.inf)
    db[valid] = 10.0 * np.log10(edc[valid] / edc[0])
    seg = np.nonzero((db <= -5.0) & (db >= -25.0))[0]
    if seg.size < 3:
        raise EstimationFailedError(
            f"decay segment between -5 and -25 dB has only {seg.size} points"
        )
    t = seg / rir.sample_rate
    slope, _ = np.polyfit(t, db[seg], 1)
    if slope >= 0:
        raise EstimationFailedError("energy decay curve is not decreasing over the fit segment")
    return float(-60.0 / slope)


@dataclass(frozen=True)
class MetricReport:
    """Aggregate metrics over a set of (estimated, truth) pairs."""

    centers: tuple[float, ...]
    per_band_log_edr_loss: np.ndarray
    per_band_ere_mae: np.ndarray
    drr_mae: float
    mse: float
    n_pairs: int
    merged: tuple[tuple[float, float], ...] = ()
    # (edr_loss, ere_err_db, drr_err_db, mse) per pair, in pair order.
    examples: tuple[tuple[float, float, float, float], ...] = ()


def metric_report(
    pairs: list[tuple[Signal, Signal]], basis: DftBasis, partition: BandPartition
) -> MetricReport:
    """Evaluate a batch of estimates against their ground truths.

    Per band: log10 of the mean decay-relief loss across pairs, and the mean
    absolute error of band-restricted early energy in dB. Plus broadband
    DRR mean absolute error and mean waveform MSE. ``examples`` holds one
    row per pair: decay-relief loss, absolute broadband ERE and DRR errors
    in dB, and waveform MSE.
    """
    if not pairs:
        raise InvalidInputError("metric_report needs at least one pair")
    band_losses, ere_errors, examples = [], [], []
    for estimated, truth in pairs:
        power = _band_power((estimated, truth), basis, partition)  # [2, bands, frames]
        loss, per_band = decay_relief_loss(power[0], power[1])
        band_losses.append(per_band)
        # Band-restricted early energy: frames whose window centers fall in [0, 80 ms].
        early = basis.cfg.frame_times(power.shape[2], truth.sample_rate) <= EARLY_WINDOW_S
        early_db = 10.0 * np.log10(np.maximum(power[:, :, early].sum(axis=2), ENERGY_FLOOR))
        ere_errors.append(np.abs(early_db[0] - early_db[1]))
        examples.append(
            (
                float(loss),
                float(abs(ere(estimated) - ere(truth))),
                float(abs(drr(estimated) - drr(truth))),
                mse(estimated, truth),
            )
        )
    mean_band_loss = np.mean(band_losses, axis=0)
    return MetricReport(
        centers=partition.centers,
        per_band_log_edr_loss=np.log10(np.maximum(mean_band_loss, ENERGY_FLOOR)),
        per_band_ere_mae=np.mean(ere_errors, axis=0),
        drr_mae=float(np.mean([row[2] for row in examples])),
        mse=float(np.mean([row[3] for row in examples])),
        n_pairs=len(pairs),
        merged=partition.merged,
        examples=tuple(examples),
    )


def write_report(report: MetricReport, path: Path, reverberant) -> Path:
    """Write evaluate's CSV files and return the second's path: at path, one
    (center_hz, log_edr_loss, ere_mae_db) row per band and a summary row of
    (drr_mae_db, mse), after a comment line naming any bands the partition
    merged; beside it, *_examples.csv, each pair's index, reverberant name
    and row of report.examples."""
    merged = ";".join(f"{int(src)}Hz->{int(dst)}Hz" for src, dst in report.merged)
    bands = zip([f"{c:g}" for c in report.centers], report.per_band_log_edr_loss,
                report.per_band_ere_mae)
    write_csv(path, ("center_hz", "log_edr_loss", "ere_mae_db"),
              [*bands, ("summary", report.drr_mae, report.mse)],
              comment=merged and f"merged_bands: {merged}")
    per_example = path.with_name(path.stem + "_examples.csv")
    write_csv(per_example,
              ("example", "reverberant", "edr_loss", "ere_err_db", "drr_err_db", "mse"),
              [(i, name, *row) for i, (name, row) in enumerate(zip(reverberant, report.examples))])
    return per_example
