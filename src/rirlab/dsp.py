"""Deterministic signal-processing kernels.

STFT framing, the windowed-DFT band-power kernel of every decay relief,
octave-band partitioning of FFT bins, FFT convolution and regularized
spectral-division deconvolution. Everything here is a pure function of its
inputs and safe to call concurrently.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError, InvalidInputError, check_arg, check_count, finite_real

DECONVOLVE_EPS = 1e-12  # spectral_deconvolve's regularizer


def next_pow2(n: int) -> int:
    """Smallest power of two >= n."""
    p = 1
    while p < n:
        p <<= 1
    return p


def widen(samples: np.ndarray) -> np.ndarray:
    """samples in float64: the array itself if it is float64, else its exact
    float64 copy. Every kernel that computes in float64 on Signal samples,
    which may be float32, widens them through this on entry; numpy runs
    the FFT of float32 input in single precision, so a kernel that did not
    would change its result with the dtype the samples are stored in."""
    return np.asarray(samples, dtype=np.float64)


@dataclass(frozen=True, eq=False)
class Signal:
    """A mono waveform with its sample rate.

    A float32 or float64 array of samples is kept as given, so a signal
    read from a float32 or PCM16 WAV holds 4 bytes a sample; anything else
    (a list, integers, float16, another byte order) is converted to
    float64. NaN/Inf samples are rejected. Kernels that compute in float64
    widen the samples on entry (widen). The sample rate must pass
    errors.check_arg as an integer >= 1 (a numpy integer does, a bool or a
    float does not) and is stored as an int.
    """

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        samples = np.asarray(self.samples)
        if samples.dtype not in (np.float32, np.float64):
            samples = np.asarray(self.samples, dtype=np.float64)
        if samples.ndim != 1:
            raise InvalidInputError(f"signal must be 1-D, got shape {samples.shape}")
        if samples.size and not np.all(np.isfinite(samples)):
            raise InvalidInputError("signal contains NaN or Inf samples")
        check_arg("sample_rate", self.sample_rate, 1)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "sample_rate", int(self.sample_rate))

    def __len__(self) -> int:
        return self.samples.size


@dataclass(frozen=True)
class StftConfig:
    """Framing parameters for the short-time transform, whose window is
    always the periodic Hann window.

    window_size must be an integer power of two; hop an integer in (0, window_size].
    """

    window_size: int
    hop: int

    def __post_init__(self):
        check_count("window_size", self.window_size, 1)
        check_count("hop", self.hop, 1)
        if self.window_size & (self.window_size - 1):
            raise InvalidConfigError(f"window_size must be a power of two, got {self.window_size}")
        if self.hop > self.window_size:
            raise InvalidConfigError(f"hop must be in (0, window_size], got {self.hop}")

    @property
    def n_bins(self) -> int:
        return self.window_size // 2 + 1

    def frame_count(self, n_samples: int) -> int:
        if n_samples < self.window_size:
            raise InvalidInputError(
                f"signal of {n_samples} samples is shorter than one window ({self.window_size})"
            )
        return (n_samples - self.window_size) // self.hop + 1

    def frame_times(self, n_frames: int, sample_rate: int) -> np.ndarray:
        """Window-center time in seconds for each frame."""
        starts = np.arange(n_frames) * self.hop
        return (starts + self.window_size / 2.0) / sample_rate


def hann_window(size: int) -> np.ndarray:
    """The periodic Hann analysis window."""
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(size) / size)


def frame_signal(samples: np.ndarray, cfg: StftConfig) -> np.ndarray:
    """View waveforms [..., length] as [..., frames, window_size] frames."""
    cfg.frame_count(samples.shape[-1])  # rejects a signal shorter than one window
    view = np.lib.stride_tricks.sliding_window_view(samples, cfg.window_size, axis=-1)
    return view[..., :: cfg.hop, :]


def stft(signal: Signal, cfg: StftConfig) -> np.ndarray:
    """One-sided short-time Fourier transform.

    Parameters
    ----------
    signal : Signal
        Input waveform; must be at least one window long.
    cfg : StftConfig
        Framing parameters.

    Returns
    -------
    ndarray, complex, shape (frames, window_size // 2 + 1)
        Frame count is floor((len - window_size) / hop) + 1; no padding is
        applied at either end.
    """
    frames = frame_signal(widen(signal.samples), cfg)
    win = hann_window(cfg.window_size)
    return np.fft.rfft(frames * win, axis=-1)


@dataclass(frozen=True)
class DftBasis:
    """The windowed one-sided DFT as [bins x window_size] matrices."""

    cfg: StftConfig
    real: np.ndarray
    imag: np.ndarray


def make_dft_basis(cfg: StftConfig) -> DftBasis:
    win = hann_window(cfg.window_size)
    angle = 2.0 * np.pi * np.outer(np.arange(cfg.n_bins), np.arange(cfg.window_size))
    angle /= cfg.window_size
    return DftBasis(cfg=cfg, real=np.cos(angle) * win[None, :], imag=-np.sin(angle) * win[None, :])


def framed_dft(samples: np.ndarray, basis: DftBasis) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts, each [N, frames, bins], of the framed
    spectra of samples [N, length], computed in the samples' dtype."""
    frames = frame_signal(samples, basis.cfg)
    return tuple(frames @ m.astype(samples.dtype, copy=False).T for m in (basis.real, basis.imag))


def band_power(samples: np.ndarray, basis: DftBasis, partition: BandPartition) -> np.ndarray:
    """Per-band frame power [N, bands, frames] of samples [N, length], in
    their dtype: each frame's windowed-DFT power summed over each band's bins.
    Each row depends on that row alone. The loss and every metric use it."""
    if partition.fft_size != basis.cfg.window_size:
        raise InvalidConfigError(
            f"partition built for fft_size {partition.fft_size}, window is {basis.cfg.window_size}"
        )
    re, im = framed_dft(samples, basis)
    power = re**2 + im**2
    band_m = partition.band_matrix().astype(samples.dtype, copy=False)
    return np.swapaxes(power @ band_m.T, 1, 2)


def decay_relief(power: np.ndarray) -> np.ndarray:
    """Energy remaining from each frame onward: the reverse cumulative sum of
    band power over its last (frame) axis, a per-band Schroeder curve."""
    return np.flip(np.cumsum(np.flip(power, axis=-1), axis=-1), axis=-1)


@dataclass(frozen=True)
class BandPartition:
    """Assignment of one-sided FFT bins to octave bands.

    Each kept band owns a contiguous, non-empty range of bin indices;
    ranges are disjoint and ordered by frequency. Requested centers whose
    band ended up owning no bin are recorded in ``merged`` as
    (dropped_center, absorbed_into_center) pairs.
    """

    centers: tuple[float, ...]
    bin_ranges: tuple[tuple[int, int], ...]  # half-open [start, stop) index pairs
    sample_rate: int
    fft_size: int
    merged: tuple[tuple[float, float], ...] = field(default=())

    @property
    def n_bands(self) -> int:
        return len(self.centers)

    def band_matrix(self) -> np.ndarray:
        """0/1 matrix [bands x fft_size // 2 + 1] summing the one-sided
        bins into their band."""
        m = np.zeros((self.n_bands, self.fft_size // 2 + 1))
        for b, (start, stop) in enumerate(self.bin_ranges):
            m[b, start:stop] = 1.0
        return m


def octave_bands(sample_rate: int, fft_size: int, centers: list[float]) -> BandPartition:
    """Partition one-sided FFT bins into octave bands around the given centers.

    Every bin whose frequency lies below the top band's upper edge
    (top_center * sqrt(2)) is assigned to the band with the nearest
    log-frequency center; the DC bin always goes to the lowest band. Bands
    that end up empty are dropped and recorded as merged into the nearest
    surviving band above them (below, for an empty top band). sample_rate
    and fft_size must be integers >= 1; centers must pass errors.finite_real
    and be positive, strictly increasing and below Nyquist.
    """
    check_arg("sample_rate", sample_rate, 1)
    check_arg("fft_size", fft_size, 1)
    for c in centers:
        if not finite_real(c):
            raise InvalidInputError(f"band centers must be finite real numbers, got {c!r}")
    centers = [float(c) for c in centers]
    if not centers:
        raise InvalidInputError("at least one band center is required")
    if any(c2 <= c1 for c1, c2 in zip(centers, centers[1:])):
        raise InvalidInputError(f"band centers must be strictly increasing, got {centers}")
    if centers[0] <= 0:
        raise InvalidInputError("band centers must be positive")
    nyquist = sample_rate / 2.0
    if centers[-1] >= nyquist:
        raise InvalidInputError(
            f"top band center {centers[-1]} Hz must lie below Nyquist ({nyquist} Hz)"
        )

    n_bins = fft_size // 2 + 1
    freqs = np.arange(n_bins) * (sample_rate / fft_size)
    top_edge = centers[-1] * np.sqrt(2.0)
    covered = int(np.count_nonzero(freqs < top_edge))

    log_centers = np.log(centers)
    assignment = np.zeros(covered, dtype=int)
    if covered > 1:
        dist = np.abs(np.log(freqs[1:covered])[:, None] - log_centers[None, :])
        assignment[1:] = np.argmin(dist, axis=1)

    kept_centers: list[float] = []
    ranges: list[tuple[int, int]] = []
    empty: list[float] = []
    for b, center in enumerate(centers):
        idx = np.nonzero(assignment == b)[0]
        if idx.size == 0:
            empty.append(center)
            continue
        kept_centers.append(center)
        ranges.append((int(idx[0]), int(idx[-1]) + 1))

    if not kept_centers:
        raise InvalidInputError("no FFT bin falls inside any requested band")

    merged = []
    for center in empty:
        above = [c for c in kept_centers if c > center]
        target = min(above) if above else max(c for c in kept_centers if c < center)
        merged.append((center, target))

    return BandPartition(
        centers=tuple(kept_centers),
        bin_ranges=tuple(ranges),
        sample_rate=int(sample_rate),
        fft_size=int(fft_size),
        merged=tuple(merged),
    )


def fft_convolve(clean: Signal, rir: Signal) -> Signal:
    """Full linear convolution of two signals via the FFT.

    Output length is len(clean) + len(rir) - 1; sample rates must match.
    """
    if clean.sample_rate != rir.sample_rate:
        raise InvalidInputError(
            f"sample-rate mismatch: {clean.sample_rate} vs {rir.sample_rate}"
        )
    if len(clean) == 0 or len(rir) == 0:
        raise InvalidInputError("cannot convolve empty signals")
    n_out = len(clean) + len(rir) - 1
    n_fft = next_pow2(n_out)
    spec = np.fft.rfft(widen(clean.samples), n_fft) * np.fft.rfft(widen(rir.samples), n_fft)
    out = np.fft.irfft(spec, n_fft)[:n_out]
    return Signal(out, clean.sample_rate)


def spectral_deconvolve(reverberant: Signal, clean: Signal, out_len: int) -> Signal:
    """Recover an impulse response by regularized spectral division.

    Both signals are zero-padded to a common power-of-two FFT length and the
    quotient is formed as
    F(reverberant) * conj(F(clean)) / (|F(clean)|^2 + DECONVOLVE_EPS)
    bin-wise, so the result stays finite even at spectral zeros of the clean
    signal.

    Parameters
    ----------
    reverberant, clean : Signal
        The observed convolution product and the known dry input.
    out_len : int
        Number of leading samples of the inverse transform to return: an
        integer from 1 to the common FFT length.
    """
    if reverberant.sample_rate != clean.sample_rate:
        raise InvalidInputError(
            f"sample-rate mismatch: {reverberant.sample_rate} vs {clean.sample_rate}"
        )
    if len(reverberant) == 0 or len(clean) == 0:
        raise InvalidInputError("cannot deconvolve empty signals")
    check_arg("out_len", out_len, 1)
    n_fft = next_pow2(max(len(reverberant), len(clean)))
    if out_len > n_fft:
        raise InvalidInputError(f"out_len must be in [1, {n_fft}], got {out_len}")
    clean_spec = np.fft.rfft(widen(clean.samples), n_fft)
    denom = np.abs(clean_spec) ** 2 + DECONVOLVE_EPS
    quotient = np.fft.rfft(widen(reverberant.samples), n_fft) * np.conj(clean_spec) / denom
    out = np.fft.irfft(quotient, n_fft)[:out_len]
    return Signal(out, reverberant.sample_rate)
