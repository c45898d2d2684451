"""Synthetic impulse responses and reverberant-speech dataset construction.

An impulse response is built from a direct impulse, sparse early
reflections, and an exponentially decaying noise tail whose level is solved
so the measured direct-to-reverberant ratio hits a target. Datasets pair
each response with a clean excitation (user WAVs or a synthetic speech-like
signal), convolve, and write WAV triples plus a JSON manifest. Everything is
a pure function of (inputs, seed): per-example randomness is derived from
(seed, example_index), so parallel and serial builds produce identical bytes.

The dataclasses are the manifest's only description: manifest.json is
DatasetManifest without its root, its keys in the field order of
DatasetManifest, ManifestEntry and RirParams. The response length is stored
once, in the header, and passed to synth_rir beside the sample rate.
DatasetManifest.read is the one reader of a manifest's WAVs.
"""

from __future__ import annotations

import json
from collections.abc import Mapping
from dataclasses import asdict, dataclass, field, fields
from pathlib import Path

import numpy as np

from . import metrics
from .dsp import Signal, fft_convolve, widen
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    check_arg,
    check_count,
    check_real,
    finite_real,
)
from .fileio import atomic_write
from .models import EstimatorConfig
from .wavio import read_wav, write_wav

SPLITS = ("train", "val", "test")
DECAY_RATE = 6.908  # ln(10^3): amplitude envelope exponent for a 60 dB fall per t60
REVERB_PEAK = 0.95


@dataclass(frozen=True)
class RirParams:
    """Generation parameters for one synthetic impulse response, one
    manifest entry's ``params``. The response length is not one of them:
    synth_rir takes it, and a manifest stores it once, in its header."""

    t60: float
    drr_target: float
    n_early_reflections: int
    direct_delay: int
    seed: int

    def __post_init__(self):
        check_real("t60", self.t60, "> 0")
        check_real("drr_target", self.drr_target)
        check_count("n_early_reflections", self.n_early_reflections, 0)
        check_count("direct_delay", self.direct_delay, 0)
        check_count("seed", self.seed, 0)


@dataclass(frozen=True)
class RirParamRanges:
    """Uniform sampling ranges for dataset generation."""

    t60: tuple[float, float]
    drr: tuple[float, float]
    n_early: tuple[int, int]
    direct_delay: tuple[int, int]

    def sample(self, rng: np.random.Generator, seed: int) -> RirParams:
        return RirParams(
            t60=float(rng.uniform(*self.t60)),
            drr_target=float(rng.uniform(*self.drr)),
            n_early_reflections=int(rng.integers(self.n_early[0], self.n_early[1] + 1)),
            direct_delay=int(rng.integers(self.direct_delay[0], self.direct_delay[1] + 1)),
            seed=seed,
        )


def synth_rir(params: RirParams, rir_len: int, sample_rate: int) -> Signal:
    """Generate one impulse response of rir_len samples, peak-normalized to
    |peak| = 1. The direct impulse at params.direct_delay must lie inside
    it: a rir_len that is not an integer above direct_delay raises
    InvalidInputError, as does a sample_rate that is not an integer >= 1.

    The noise tail is rescaled analytically so the measured DRR lands within
    1 dB of params.drr_target; targets that would require negative tail
    energy are rejected.
    """
    check_arg("sample_rate", sample_rate, 1)
    check_arg("rir_len", rir_len, params.direct_delay + 1)
    rng = np.random.default_rng(params.seed)
    n, d = rir_len, params.direct_delay

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
    impulse response at its stored scale. example_len must be an integer >= 1.
    """
    check_arg("example_len", example_len, 1)
    if len(clean) < example_len:
        raise InvalidInputError(
            f"clean signal of {len(clean)} samples is shorter than example_len {example_len}"
        )
    conv = fft_convolve(clean, rir).samples[:example_len]
    peak = float(np.max(np.abs(conv)))
    if peak == 0.0:
        raise InvalidInputError("convolution is identically zero; cannot peak-normalize")
    scale = REVERB_PEAK / peak
    scaled_clean = Signal(widen(clean.samples) * scale, clean.sample_rate)
    return Signal(conv * scale, clean.sample_rate), scaled_clean


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

    def read(self, entry: ManifestEntry, field: str) -> Signal:
        """The Signal of entry's file field: "reverberant", "rir" or "clean".
        A file not at sample_rate, or not rir_len ("rir") or example_len
        samples long, raises InvalidInputError naming it, an empty one too."""
        path = self.path(getattr(entry, field))
        signal = read_wav(path)
        key = "rir_len" if field == "rir" else "example_len"
        if signal.sample_rate != self.sample_rate:
            raise InvalidInputError(f"{path} is sampled at {signal.sample_rate} Hz, the "
                                    f"manifest's sample_rate is {self.sample_rate} Hz")
        if len(signal) != getattr(self, key):
            raise InvalidInputError(f"{path} has {len(signal)} samples, the manifest's "
                                    f"{key} is {getattr(self, key)}")
        return signal

    def check_fit(self, est_cfg: EstimatorConfig, manifest: str, estimator: str) -> None:
        """Raise InvalidInputError naming manifest and estimator unless the
        header's (sample_rate, example_len, rir_len) are est_cfg's
        (sample_rate, input_len, rir_len)."""
        ours = (self.sample_rate, self.example_len, self.rir_len)
        theirs = (est_cfg.sample_rate, est_cfg.input_len, est_cfg.rir_len)
        if ours != theirs:
            raise InvalidInputError("{} has sample_rate {} Hz, example_len {} and rir_len {}, but "
                                    "{} has sample_rate {} Hz, input_len {} and rir_len {}"
                                    .format(manifest, *ours, estimator, *theirs))

    def to_json(self) -> str:
        doc = asdict(self)
        del doc["root"]  # entry paths are relative to the file's own directory
        return json.dumps(doc, indent=2)

    def save(self, path: str | Path) -> Path:
        path = Path(path)
        with atomic_write(path) as fh:
            fh.write(self.to_json() + "\n")
        return path


def _check_known_keys(where: str, doc, known: list[str]) -> None:
    """Raise InvalidConfigError naming where and each key of the JSON object
    doc that is not in known. A doc that is no object is left to the reads
    that follow."""
    unknown = sorted(doc.keys() - set(known)) if isinstance(doc, dict) else []
    if unknown:
        raise InvalidConfigError(f"{where} has unknown keys {unknown}")


def load_manifest(path: str | Path) -> DatasetManifest:
    """Load a manifest without reading any WAV.

    A file that is not a JSON manifest raises InvalidConfigError, and so
    does an entry whose file names are not strings, whose split is not one
    of SPLITS, whose params break RirParams' rules or whose direct_delay is
    not below the header's rir_len, or a header whose sample_rate,
    example_len, rir_len (>= 1) or seed (>= 0) is not such an integer, or a
    missing or unknown key: it reads only the form DatasetManifest.save
    writes.
    """
    path = Path(path)
    try:
        doc = json.loads(path.read_text())
    except ValueError as exc:  # not UTF-8 or not JSON
        raise InvalidConfigError(f"{path} is not a JSON manifest") from exc
    header_keys = ("sample_rate", "example_len", "rir_len", "seed")
    entry_keys = [f.name for f in fields(ManifestEntry)]
    param_keys = [f.name for f in fields(RirParams)]
    try:
        _check_known_keys(str(path), doc, [*header_keys, "entries"])
        for i, item in enumerate(doc["entries"]):
            _check_known_keys(f"{path}: entries[{i}]", item, entry_keys)
            _check_known_keys(f"{path}: entries[{i}].params", item["params"], param_keys)
        header = {key: doc[key] for key in header_keys}
        rows = [
            (
                item["reverberant"],
                item["rir"],
                item["clean"],
                item["split"],
                {key: item["params"][key] for key in param_keys},
            )
            for item in doc["entries"]
        ]
    except (KeyError, TypeError) as exc:
        raise InvalidConfigError(f"{path} is not a valid manifest: {exc!r}") from exc
    for key, low in (("sample_rate", 1), ("example_len", 1), ("rir_len", 1), ("seed", 0)):
        check_count(f"{path}: {key}", header[key], low)
    entries = []
    for i, (reverberant, rir, clean, split, params) in enumerate(rows):
        entry = f"{path}: entries[{i}]"
        for key, value in (("reverberant", reverberant), ("rir", rir), ("clean", clean)):
            if not isinstance(value, str):
                raise InvalidConfigError(f"{entry}.{key} must be a file name, got {value!r}")
        if split not in SPLITS:
            raise InvalidConfigError(f"{entry}.split must be one of {SPLITS}, got {split!r}")
        try:
            params = RirParams(**params)
        except InvalidConfigError as exc:  # its message starts with the field's name
            raise InvalidConfigError(f"{entry}.params.{exc}") from None
        if params.direct_delay >= header["rir_len"]:  # the direct impulse must lie inside
            raise InvalidConfigError(f"{entry}.params.direct_delay must be below "
                                     f"rir_len {header['rir_len']}, got {params.direct_delay}")
        entries.append(ManifestEntry(reverberant, rir, clean, split, params))
    return DatasetManifest(**header, entries=tuple(entries), root=path.parent)


def split_counts(n: int, fractions: tuple[float, float, float]) -> tuple[int, int, int]:
    """Largest-remainder apportionment of n examples across three splits."""
    if len(fractions) != len(SPLITS):
        raise InvalidInputError(f"split fractions must be {len(SPLITS)} values, got {fractions}")
    if (not all(finite_real(f) and 0 <= f <= 1 for f in fractions)
            or abs(sum(fractions) - 1.0) > 1e-9):
        raise InvalidInputError(
            f"split fractions must be real numbers in [0, 1] that sum to 1, got {fractions}"
        )
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
        active = widen(samples[offset : offset + active_len])
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
    rir_len: int,
    splits: tuple[float, float, float] = (0.8, 0.1, 0.1),
    seed: int = 0,
    clean_signals: Mapping[str, Signal] | None = None,
) -> DatasetManifest:
    """Generate a dataset of (reverberant, rir, clean) WAV triples, with
    responses of rir_len samples.

    Writes ex_<i>_reverb.wav, ex_<i>_rir.wav and ex_<i>_clean.wav per example
    plus manifest.json. The clean file carries the exact (scaled) excitation,
    so spectral deconvolution of any pair recovers the stored response.
    clean_signals maps a name, such as a file's path, to each user
    excitation; the examples take segments of them, or synthetic
    speech-like signals without them. An empty signal, or one not at
    sample_rate, is rejected by name before out_dir is made.
    """
    args = {"n_examples": (n_examples, 3), "seed": (seed, 0), "sample_rate": (sample_rate, 1),
            "example_len": (example_len, 1), "rir_len": (rir_len, 1)}
    for name, (value, low) in args.items():
        check_arg(name, value, low)
    # json writes no numpy integer
    n_examples, seed, sample_rate, example_len, rir_len = (int(v) for v, _ in args.values())
    if not isinstance(clean_signals, (Mapping, type(None))):
        raise InvalidInputError(
            f"clean_signals must map a name to each Signal, got {type(clean_signals).__name__}"
        )
    clean_signals = dict(clean_signals or {})
    empty = [str(name) for name, sig in clean_signals.items() if len(sig) == 0]
    if empty:
        raise InvalidInputError(f"clean signals hold no samples: {', '.join(empty)}")
    off_rate = [str(name) for name, sig in clean_signals.items() if sig.sample_rate != sample_rate]
    if off_rate:
        raise InvalidInputError(
            f"clean signals are not at sample_rate {sample_rate} Hz (resampling is "
            f"unsupported): {', '.join(off_rate)}"
        )
    sources = list(clean_signals.values())
    if rir_len >= example_len:
        raise InvalidInputError(f"rir_len {rir_len} must be shorter than example_len {example_len}")
    counts = split_counts(n_examples, splits)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    labels = [s for s, c in zip(SPLITS, counts) for _ in range(c)]
    active_len = example_len - rir_len + 1

    entries = []
    for i in range(n_examples):
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(i,)))
        entry_seed = int(rng.integers(0, 2**63))
        params = ranges.sample(rng, entry_seed)
        rir = synth_rir(params, rir_len, sample_rate)
        clean = _clean_segment(rng, sources, active_len, example_len, sample_rate)
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
        rir_len=rir_len,
        seed=seed,
        entries=tuple(entries),
        root=out_dir,
    )
    manifest.save(out_dir / "manifest.json")
    return manifest
