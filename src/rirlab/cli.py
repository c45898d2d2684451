"""Command-line entry point.

    rirlab synth     --out DIR --n N [--profile P] [--seed S] [--clean-dir DIR]
    rirlab train     --manifest M --out DIR [--profile P] [--set key=value ...]
    rirlab estimate  --ckpt C --in WAV --out WAV
    rirlab evaluate  --manifest M [--split S] --method {model:CKPT|baseline|identity} --out CSV
    rirlab plot-data --ckpt C --manifest M --example I --out DIR

A checkpoint (C, CKPT) holds one trained estimator. WAVs are written as
float32 and read as float32 or PCM16. Only estimate fits its input to the
model's length, and rejects one of no samples; the other commands read a
manifest's WAVs by DatasetManifest.read. Exit codes: 0 success, 2
argument/validation problems, 3 I/O failures, 4 numerical divergence.
train's --set takes the training hyperparameters in SET_KEYS, not the STFT
and band setup: evaluate and plot-data each build Profile.analysis() once, for
the profile whose sample rate matches the manifest, the setup train selected on.
Evaluate's worker pool, one thread per CPU the process may run on, reads
the WAVs and runs the baseline and identity methods. The model's forwards
run on the calling thread, training.EVAL_BATCH examples at a time, the
chunk validation selects the checkpoint with, so they share BLAS's own
threads instead of competing for them.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np

from . import metrics
from .dsp import Signal, spectral_deconvolve
from .errors import (
    InvalidConfigError,
    InvalidInputError,
    ShapeMismatchError,
    TrainingDivergedError,
    UnsupportedFormatError,
)
from .fileio import write_csv
from .models import estimate, estimate_batch, load_checkpoint
from .profiles import PROFILES, get_profile, profile_for_sample_rate
from .synth import SPLITS, DatasetManifest, build_dataset, load_manifest
from .training import EVAL_BATCH, TrainConfig, train
from .wavio import read_wav, write_wav

USAGE_ERRORS = (InvalidInputError, InvalidConfigError, UnsupportedFormatError, ShapeMismatchError)
SET_KEYS = ("lambda_edr", "lambda_mse", "batch_size", "epochs", "lr_init", "lr_every", "seed")


def _worker_count() -> int:
    """The CPUs this process may run on, not the host's count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _read_nonempty(path: str | Path) -> Signal:
    """read_wav, rejecting a file that holds no samples: an estimate of
    nothing would be silence passed off as a result."""
    signal = read_wav(path)
    if len(signal) == 0:
        raise InvalidInputError(f"{path}: the WAV file holds no samples")
    return signal


def _fit_length(signal: Signal, n: int) -> Signal:
    if len(signal) >= n:
        return Signal(signal.samples[:n], signal.sample_rate)
    padded = np.zeros(n, signal.samples.dtype)
    padded[: len(signal)] = signal.samples
    return Signal(padded, signal.sample_rate)


def _apply_overrides(cfg: TrainConfig, pairs: list[str]) -> TrainConfig:
    updates = {}
    for raw in pairs:
        if "=" not in raw:
            raise InvalidInputError(f"override {raw!r} is not of the form key=value")
        key, value = raw.split("=", 1)
        if key not in SET_KEYS:
            raise InvalidInputError(f"--set has no key {key!r}; it takes {', '.join(SET_KEYS)}")
        kind = type(getattr(cfg, key))
        try:
            updates[key] = kind(value)
        except ValueError as exc:
            raise InvalidInputError(
                f"override {raw!r}: cannot read {value!r} as {kind.__name__}"
            ) from exc
    return dataclasses.replace(cfg, **updates)


def cmd_synth(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    sample_rate = profile.estimator.sample_rate
    clean_signals = None
    if args.clean_dir:
        wavs = sorted(Path(args.clean_dir).glob("*.wav"))
        if not wavs:
            raise InvalidInputError(f"clean directory {args.clean_dir} contains no WAV files")
        clean_signals = {str(wav): read_wav(wav) for wav in wavs}
    try:
        splits = tuple(float(x) for x in args.splits.split(","))
    except ValueError:
        splits = ()
    if len(splits) != 3:
        raise InvalidInputError(
            f"--splits needs three comma-separated fractions, got {args.splits}"
        )
    manifest = build_dataset(
        out_dir=args.out,
        n_examples=args.n,
        ranges=profile.ranges,
        sample_rate=sample_rate,
        example_len=profile.estimator.input_len,
        rir_len=profile.estimator.rir_len,
        splits=splits,
        seed=args.seed,
        clean_signals=clean_signals,
    )
    counts = {s: len(manifest.split_entries(s)) for s in SPLITS}
    print(f"manifest: {Path(args.out) / 'manifest.json'}")
    print(f"splits: train={counts['train']} val={counts['val']} test={counts['test']}")
    return 0


def cmd_train(args: argparse.Namespace) -> int:
    profile = get_profile(args.profile)
    manifest = load_manifest(args.manifest)
    profile = dataclasses.replace(profile, train=_apply_overrides(profile.train, args.set or []))
    out_dir = Path(args.out)
    echo = {
        "profile": profile.name,
        "manifest": str(Path(args.manifest).resolve()),
        "train": dataclasses.asdict(profile.train),
        "estimator": dataclasses.asdict(profile.estimator),
        "discriminator": dataclasses.asdict(profile.discriminator),
    }
    result = train(manifest, profile, out_dir, echo)
    print(f"best epoch: {result.best_epoch}")
    print(f"best validation edr loss: {result.best_val_edr!r}")
    print(f"run dir: {out_dir}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    net = load_checkpoint(args.ckpt)
    sig = _read_nonempty(args.input)
    if sig.sample_rate != net.config.sample_rate:
        raise InvalidInputError(
            f"{args.input} is {sig.sample_rate} Hz, the model expects {net.config.sample_rate} Hz"
        )
    rir = estimate(net, _fit_length(sig, net.config.input_len))
    write_wav(args.out, rir)
    print(f"wrote {args.out} ({len(rir)} samples)")
    return 0


def _load_model(ckpt: str, manifest: DatasetManifest, manifest_path: str):
    """The checkpoint's estimator, rejected before any WAV is read unless the
    manifest's header fits it (DatasetManifest.check_fit)."""
    net = load_checkpoint(ckpt)
    manifest.check_fit(net.config, manifest_path, ckpt)
    return net


def _estimate_for_entry(method: str, manifest: DatasetManifest, entry) -> tuple[Signal, Signal]:
    """(estimate, ground truth) for one manifest entry; each file is read once.
    For the model it is (input, ground truth): cmd_evaluate, in batches, and
    cmd_plot_data run the forwards themselves."""
    truth = manifest.read(entry, "rir")
    if method == "identity":
        return truth, truth
    reverberant = manifest.read(entry, "reverberant")
    if method == "baseline":
        clean = manifest.read(entry, "clean")
        return spectral_deconvolve(reverberant, clean, manifest.rir_len), truth
    return reverberant, truth


def cmd_evaluate(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    entries = manifest.split_entries(args.split)
    if not entries:
        raise InvalidInputError(f"split {args.split!r} is empty")
    if args.method.startswith("model:"):
        method, net = "model", _load_model(args.method.split(":", 1)[1], manifest, args.manifest)
    elif args.method in ("baseline", "identity"):
        method, net = args.method, None
    else:
        raise InvalidInputError(
            f"unknown method {args.method!r}, expected model:CKPT, baseline, or identity"
        )
    profile = profile_for_sample_rate(manifest.sample_rate)

    with ThreadPoolExecutor(max_workers=_worker_count()) as pool:
        pairs = list(pool.map(lambda e: _estimate_for_entry(method, manifest, e), entries))
    if net is not None:
        estimates = []
        for start in range(0, len(pairs), EVAL_BATCH):
            estimates += estimate_batch(net, [rev for rev, _ in pairs[start : start + EVAL_BATCH]])
        pairs = [(est, truth) for est, (_, truth) in zip(estimates, pairs)]
    # Built after the forwards, so their peak does not hold the basis.
    basis, partition = profile.analysis()
    report = metrics.metric_report(pairs, basis, partition)

    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    per_example = metrics.write_report(report, out, [entry.reverberant for entry in entries])
    print(f"report: {out}")
    print(f"per-example: {per_example}")
    return 0


def cmd_plot_data(args: argparse.Namespace) -> int:
    manifest = load_manifest(args.manifest)
    if not 0 <= args.example < len(manifest.entries):
        raise InvalidInputError(
            f"example index {args.example} out of range [0, {len(manifest.entries) - 1}]"
        )
    net = _load_model(args.ckpt, manifest, args.manifest)
    model_input, truth = _estimate_for_entry("model", manifest, manifest.entries[args.example])
    est = estimate(net, model_input)
    basis, partition = profile_for_sample_rate(manifest.sample_rate).analysis()

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    truth_edr = metrics.edr(truth, basis, partition)
    est_edr = metrics.edr(est, basis, partition)
    truth_db, est_db = truth_edr.in_db(), est_edr.in_db()
    for b, center in enumerate(partition.centers):
        header = ("time_s", "edr_db_truth", "edr_db_estimated")
        write_csv(out_dir / f"edr_{int(center)}.csv", header,
                  zip(truth_edr.frame_times, truth_db[b], est_db[b]))
    times = [i / truth.sample_rate for i in range(len(truth))]
    write_csv(out_dir / "waveform.csv", ("time_s", "truth", "estimated"),
              zip(times, truth.samples, est.samples))
    print(f"plot data: {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="rirlab", description=__doc__.strip().splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--n", type=int, required=True, help="number of examples")
    p.add_argument("--profile", default="toy", choices=sorted(PROFILES))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--clean-dir", dest="clean_dir", help="directory of clean WAV excitations")
    p.add_argument("--splits", default="0.8,0.1,0.1", help="train,val,test fractions")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("train", help="train the estimator on a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", required=True, help="run directory")
    p.add_argument("--profile", default="toy", choices=sorted(PROFILES))
    p.add_argument("--set", action="append", metavar="KEY=VALUE", help="train config override")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("estimate", help="estimate a response from a reverberant WAV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_estimate)

    p = sub.add_parser("evaluate", help="score a method over a manifest split")
    p.add_argument("--manifest", required=True)
    p.add_argument("--split", default="test", choices=SPLITS)
    p.add_argument("--method", required=True, help="model:CKPT, baseline, or identity")
    p.add_argument("--out", required=True, help="summary CSV path")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("plot-data", help="export decay curves and waveforms as CSV")
    p.add_argument("--ckpt", required=True)
    p.add_argument("--manifest", required=True)
    p.add_argument("--example", type=int, required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_plot_data)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except USAGE_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
