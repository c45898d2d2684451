"""Synthetic impulse responses and reverberant-speech dataset construction.

An impulse response is built from a direct impulse, sparse early
reflections, and an exponentially decaying noise tail whose level is solved
so the measured direct-to-reverberant ratio hits a target. Datasets pair
each response with a clean excitation (user WAVs or a synthetic speech-like
signal), convolve, and write WAV triples plus a JSON manifest. Everything is
a pure function of (inputs, seed): per-example randomness is derived from
(seed, example_index), so parallel and serial builds produce identical bytes.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import metrics
from .dsp import Signal, fft_convolve
from .errors import InvalidConfigError, InvalidInputError
from .fileio import atomic_write
from .wavio import read_wav, write_wav

SPLITS = ("train", "val", "test")
DECAY_RATE = 6.908  # ln(10^3): amplitude envelope exponent for a 60 dB fall per t60
REVERB_PEAK = 0.95


@dataclass(frozen=True)
class RirParams:
    """Generation parameters for one synthetic impulse response."""

    t60: float
    drr_target: float
    n_early_reflections: int
    direct_delay: int
    rir_len: int
    seed: int

    def __post_init__(self):
        if self.t60 <= 0:
            raise InvalidInputError(f"t60 must be positive, got {self.t60}")
        if not 0 <= self.direct_delay < self.rir_len:
            raise InvalidInputError(
                f"need rir_len > direct_delay >= 0, got {self.rir_len} and {self.direct_delay}"
            )
        if self.n_early_reflections < 0:
            raise InvalidInputError("n_early_reflections must be >= 0")


@dataclass(frozen=True)
class RirParamRanges:
    """Uniform sampling ranges for dataset generation."""

    t60: tuple[float, float]
    drr: tuple[float, float]
    n_early: tuple[int, int]
    direct_delay: tuple[int, int]
    rir_len: int

    def sample(self, rng: np.random.Generator, seed: int) -> RirParams:
        return RirParams(
            t60=float(rng.uniform(*self.t60)),
            drr_target=float(rng.uniform(*self.drr)),
            n_early_reflections=int(rng.integers(self.n_early[0], self.n_early[1] + 1)),
            direct_delay=int(rng.integers(self.direct_delay[0], self.direct_delay[1] + 1)),
            rir_len=self.rir_len,
            seed=seed,
        )


def synth_rir(params: RirParams, sample_rate: int) -> Signal:
    """Generate one impulse response, peak-normalized to |peak| = 1.

    The noise tail is rescaled analytically so the measured DRR lands within
    1 dB of params.drr_target; targets that would require negative tail
    energy are rejected.
    """
    rng = np.random.default_rng(params.seed)
    n = params.rir_len
    d = params.direct_delay

    fixed = np.zeros(n)
    fixed[d] = 1.0
    half = int(round(metrics.DIRECT_WINDOW_S * sample_rate))
    lo, hi = max(0, d - half), min(n, d + half + 1)
    window = np.zeros(n, dtype=bool)
    window[lo:hi] = True
    ratio = 10.0 ** (params.drr_target / 10.0)

    early_end = min(n - 1, d + int(metrics.EARLY_WINDOW_S * sample_rate))
    if params.n_early_reflections > 0 and early_end >= d + 1:
        positions = rng.choice(
            np.arange(d + 1, early_end + 1),
            size=min(params.n_early_reflections, early_end - d),
            replace=False,
        )
        frac = (positions - d) / max(early_end - d, 1)
        amps = 0.5 * np.exp(-2.5 * frac) * rng.choice([-1.0, 1.0], size=positions.size)
        early = np.zeros(n)
        early[positions] = amps
        # Reflections outside the direct window count against the target
        # ratio; cap their energy at half the feasibility budget.
        outside = float(np.sum(early[~window] ** 2))
        budget = 0.5 / ratio
        if outside > budget:
            early *= np.sqrt(budget / outside)
        fixed += early

    t = np.arange(n, dtype=np.float64)
    envelope = np.where(t > d, np.exp(-DECAY_RATE * (t - d) / (params.t60 * sample_rate)), 0.0)
    tail = 0.1 * rng.standard_normal(n) * envelope

    # Solve the tail gain a so 10*log10(E_win(a) / E_rest(a)) == drr_target,
    # with the direct window +-2.5 ms around the peak at d. The window and
    # rest energies are quadratics in a (fixed/tail cross terms included),
    # so the condition is A*a^2 + B*a + C = 0 with exactly one positive root
    # whenever the target is feasible (A < 0 < C).
    quad_a = float(np.sum(tail[window] ** 2) - ratio * np.sum(tail[~window] ** 2))
    quad_b = 2.0 * float(
        np.sum(fixed[window] * tail[window]) - ratio * np.sum(fixed[~window] * tail[~window])
    )
    quad_c = float(np.sum(fixed[window] ** 2) - ratio * np.sum(fixed[~window] ** 2))
    if quad_a >= 0 or quad_c <= 0:
        raise InvalidInputError(
            f"drr_target {params.drr_target} dB is infeasible for these parameters"
        )
    disc = quad_b * quad_b - 4.0 * quad_a * quad_c
    gain = (-quad_b - np.sqrt(disc)) / (2.0 * quad_a)
    rir = fixed + gain * tail

    peak = float(np.max(np.abs(rir)))
    out = Signal(rir / peak, sample_rate)
    measured = metrics.drr(out)
    if abs(measured - params.drr_target) > 1.0:
        raise InvalidInputError(
            f"drr_target {params.drr_target} dB unreachable (got {measured:.2f} dB)"
        )
    return out


def render_example(clean: Signal, rir: Signal, example_len: int) -> tuple[Signal, Signal]:
    """One example: clean speech convolved with rir, truncated to example_len
    and peak-normalized to 0.95; returns (reverberant, scaled clean).

    The clean signal is rescaled by the same factor that brings the truncated
    convolution to a 0.95 peak, so deconvolving the pair recovers the
    impulse response at its stored scale.
    """
    if len(clean) < example_len:
        raise InvalidInputError(
            f"clean signal of {len(clean)} samples is shorter than example_len {example_len}"
        )
    conv = fft_convolve(clean, rir).samples[:example_len]
    peak = float(np.max(np.abs(conv)))
    if peak == 0.0:
        raise InvalidInputError("convolution is identically zero; cannot peak-normalize")
    scale = REVERB_PEAK / peak
    return Signal(conv * scale, clean.sample_rate), Signal(clean.samples * scale, clean.sample_rate)


def speech_like(rng: np.random.Generator, n_samples: int, sample_rate: int) -> Signal:
    """Synthetic speech-like excitation: 3-8 AM-modulated harmonics of a
    random fundamental plus 10% wideband noise, peak-normalized."""
    t = np.arange(n_samples) / sample_rate
    f0 = rng.uniform(80.0, 280.0)
    n_tones = int(rng.integers(3, 9))
    sig = np.zeros(n_samples)
    for k in range(1, n_tones + 1):
        amp = rng.uniform(0.3, 1.0) / k
        sig += amp * np.sin(2.0 * np.pi * f0 * k * t + rng.uniform(0, 2 * np.pi))
    am_rate = rng.uniform(1.5, 6.0)
    sig *= 1.0 + 0.5 * np.sin(2.0 * np.pi * am_rate * t + rng.uniform(0, 2 * np.pi))
    sig += 0.1 * np.sqrt(np.mean(sig**2)) * rng.standard_normal(n_samples)
    return Signal(sig / np.max(np.abs(sig)), sample_rate)


# The RirParams fields a manifest entry stores; rir_len is stored once, in
# the manifest's header.
_PARAM_KEYS = ("t60", "drr_target", "n_early_reflections", "direct_delay", "seed")
_FLOAT_PARAMS = ("t60", "drr_target")  # the other keys hold integers


@dataclass(frozen=True)
class ManifestEntry:
    reverberant: str
    rir: str
    clean: str
    split: str
    params: RirParams


@dataclass(frozen=True)
class DatasetManifest:
    """Index of a generated dataset; paths are relative to ``root``."""

    sample_rate: int
    example_len: int
    rir_len: int
    seed: int
    entries: tuple[ManifestEntry, ...]
    root: Path = field(default=Path("."), compare=False)

    def split_entries(self, split: str) -> list[ManifestEntry]:
        if split not in SPLITS:
            raise InvalidInputError(f"unknown split {split!r}, expected one of {SPLITS}")
        return [e for e in self.entries if e.split == split]

    def path(self, relative: str) -> Path:
        return self.root / relative

    def to_json(self) -> str:
        doc = {
            "sample_rate": self.sample_rate,
            "example_len": self.example_len,
            "rir_len": self.rir_len,
            "seed": self.seed,
            "entries": [
                {
                    "reverberant": e.reverberant,
                    "rir": e.rir,
                    "clean": e.clean,
                    "split": e.split,
                    "params": {key: getattr(e.params, key) for key in _PARAM_KEYS},
                }
                for e in self.entries
            ],
        }
        return json.dumps(doc, indent=2)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        with atomic_write(path) as fh:
            fh.write(self.to_json() + "\n")
        return path


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load a manifest without reading any WAV.

    A file that is not a JSON manifest raises InvalidConfigError, and so
    does an entry whose file names are not strings, whose split is not one
    of SPLITS or whose params have the wrong type, or an example_len or
    rir_len that is not an integer >= 1.

    A manifest without ``rir_len`` (the format before it and the clean
    paths were stored) still loads: each clean path is then the reverberant
    one with ``_clean.wav`` for ``_reverb.wav``, and rir_len is the length
    of the first entry's RIR file, read once all else is checked.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # not UTF-8 or not JSON
        raise InvalidConfigError(f"{path} is not a JSON manifest") from exc
    try:
        header = {key: doc[key] for key in ("sample_rate", "example_len", "seed")}
        legacy = "rir_len" not in doc
        if not legacy:
            header["rir_len"] = doc["rir_len"]
        rows = [
            (
                item["reverberant"],
                item["rir"],
                None if legacy else item["clean"],
                item["split"],
                {key: item["params"][key] for key in _PARAM_KEYS},
            )
            for item in doc["entries"]
        ]
    except (KeyError, TypeError) as exc:
        raise InvalidConfigError(f"{path} is not a valid manifest: {exc!r}") from exc
    for key in ("example_len",) + (() if legacy else ("rir_len",)):
        value = header[key]
        if isinstance(value, bool) or not isinstance(value, int) or value < 1:
            raise InvalidConfigError(f"{path}: {key}={value!r}, expected an integer >= 1")
    checked = []
    for reverberant, rir, clean, split, params in rows:
        if legacy and isinstance(reverberant, str):
            clean = reverberant.replace("_reverb.wav", "_clean.wav")
        for key, value in (("reverberant", reverberant), ("rir", rir), ("clean", clean)):
            if not isinstance(value, str):
                raise InvalidConfigError(f"{path}: entry has {key}={value!r}, expected a file name")
        if split not in SPLITS:
            raise InvalidConfigError(
                f"{path}: entry {reverberant} has split={split!r}, expected one of {SPLITS}"
            )
        for key, value in params.items():
            kinds = (int, float) if key in _FLOAT_PARAMS else (int,)
            if isinstance(value, bool) or not isinstance(value, kinds):
                raise InvalidConfigError(
                    f"{path}: entry {reverberant} has {key}={value!r}, expected "
                    f"{'a number' if key in _FLOAT_PARAMS else 'an integer'}"
                )
        checked.append((reverberant, rir, clean, split, params))
    if legacy:
        header["rir_len"] = len(read_wav(path.parent / checked[0][1])) if checked else 0
    entries = tuple(
        ManifestEntry(*files_and_split, RirParams(**params, rir_len=header["rir_len"]))
        for *files_and_split, params in checked
    )
    return DatasetManifest(**header, entries=entries, root=path.parent)


def split_counts(n: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    """Largest-remainder apportionment of n examples across three splits."""
    if not all(0 <= f <= 1 for f in fractions) or abs(sum(fractions) - 1.0) > 1e-9:
        raise InvalidInputError(f"split fractions must be in [0, 1] and sum to 1, got {fractions}")
    exact = [n * f for f in fractions]
    base = [int(np.floor(x)) for x in exact]
    leftover = n - sum(base)
    order = sorted(range(3), key=lambda i: exact[i] - base[i], reverse=True)
    for i in order[:leftover]:
        base[i] += 1
    return tuple(base)


def _clean_segment(
    rng: np.random.Generator,
    clean_signals: list[Signal] | None,
    active_len: int,
    example_len: int,
    sample_rate: int,
) -> Signal:
    """A clean excitation whose support is confined to the first active_len
    samples of an example_len buffer, so truncating the convolution at
    example_len loses nothing."""
    if clean_signals:
        src = clean_signals[int(rng.integers(len(clean_signals)))]
        samples = src.samples
        if samples.size < active_len:
            reps = int(np.ceil(active_len / samples.size))
            samples = np.tile(samples, reps)
        offset = int(rng.integers(0, samples.size - active_len + 1))
        active = samples[offset : offset + active_len]
        peak = np.max(np.abs(active))
        if peak == 0.0:
            active = speech_like(rng, active_len, sample_rate).samples
        else:
            active = active / peak
    else:
        active = speech_like(rng, active_len, sample_rate).samples
    padded = np.zeros(example_len)
    padded[:active_len] = active
    return Signal(padded, sample_rate)


def build_dataset(
    out_dir: str | Path,
    n_examples: int,
    ranges: RirParamRanges,
    sample_rate: int,
    example_len: int,
    splits: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
    clean_signals: list[Signal] | None = None,
) -> DatasetManifest:
    """Generate a dataset of (reverberant, rir, clean) WAV triples.

    Writes ex_<i>_reverb.wav, ex_<i>_rir.wav and ex_<i>_clean.wav per example
    plus manifest.json. The clean file carries the exact (scaled) excitation,
    so spectral deconvolution of any pair recovers the stored response.
    """
    if n_examples < 3:
        raise InvalidInputError(f"need at least 3 examples, got {n_examples}")
    if seed < 0:
        raise InvalidInputError(f"seed must be >= 0, got {seed}")
    empty = [i for i, s in enumerate(clean_signals or ()) if len(s) == 0]
    if empty:
        raise InvalidInputError(f"clean signals at positions {empty} hold no samples")
    if ranges.rir_len >= example_len:
        raise InvalidInputError(
            f"rir_len {ranges.rir_len} must be shorter than example_len {example_len}"
        )
    counts = split_counts(n_examples, splits)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = [s for s, c in zip(SPLITS, counts) for _ in range(c)]
    active_len = example_len - ranges.rir_len + 1

    entries = []
    for i in range(n_examples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        entry_seed = int(rng.integers(0, 2**63))
        params = ranges.sample(rng, entry_seed)
        rir = synth_rir(params, sample_rate)
        clean = _clean_segment(rng, clean_signals, active_len, example_len, sample_rate)
        reverberant, clean_scaled = render_example(clean, rir, example_len)

        base = f"ex_{i:05d}"
        write_wav(out_dir / f"{base}_reverb.wav", reverberant)
        write_wav(out_dir / f"{base}_rir.wav", rir)
        write_wav(out_dir / f"{base}_clean.wav", clean_scaled)
        entries.append(
            ManifestEntry(
                reverberant=f"{base}_reverb.wav",
                rir=f"{base}_rir.wav",
                clean=f"{base}_clean.wav",
                split=labels[i],
                params=params,
            )
        )

    manifest = DatasetManifest(
        sample_rate=sample_rate,
        example_len=example_len,
        rir_len=ranges.rir_len,
        seed=seed,
        entries=tuple(entries),
        root=out_dir,
    )
    manifest.save(out_dir / "manifest.json")
    return manifest
