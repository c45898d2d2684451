"""The three workloads. Each is a closed loop driven by one client.

toy-train   `rirlab train --profile toy` on a 250-example toy dataset: tiny
            op calls, so per-call overhead dominates.
full-train  `training.train_step` at batch 4 on the full profile: large
            float64 GEMMs, col2im scatters, batchnorm and RMSprop over 17.6M
            parameters.
full-infer  forward only, batch 1: `rirlab synth`, a single client calling
            `models.estimate`, then `rirlab evaluate` with the model, the
            baseline and the identity method.

Every workload runs set-up, then measured repeats. Their number is
``--seconds`` divided by the workload's nominal repeat length on the
reference machine, and at least two, so repeats can be compared byte for
byte. It does not depend on measured speed, so every run of a workload does
the same work and has the same sample count. With tracing on, a workload runs
one untraced and one traced repeat instead.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import math
import statistics
import time
import traceback
from pathlib import Path

import numpy as np

import spans

_clock = time.perf_counter


def tail(samples: list[float]) -> tuple[float, float, int]:
    """(value, percentile, n): the highest percentile with at least ten
    samples above it."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, n
    return ordered[n - 11], 100.0 * (n - 10) / n, n


def digest(*paths: Path) -> str:
    h = hashlib.sha256()
    for path in paths:
        h.update(Path(path).read_bytes())
    return h.hexdigest()


class Run:
    """One benchmark process: operation tallies, output checks, spans."""

    def __init__(self, seed: int, seconds: float, traced: bool, work: Path):
        self.seed = seed
        self.seconds = seconds
        self.traced = traced
        self.work = work
        self.attempted = 0
        self.failed = 0
        self.checks: list[dict] = []
        self.counters = {"autodiff.tensor.tape_leaked": 0, "autodiff.tensor.grad_mode_leaks": 0}
        self.tracer = spans.Tracer()
        self.trace_patches: spans.Patches | None = None
        self.units = 1
        self.overhead_share = 0.0
        self.extra: dict = {}

    def check(self, name: str, ok: bool, detail: str = "") -> bool:
        self.checks.append({"check": name, "ok": bool(ok), "detail": detail})
        return bool(ok)

    def op(self, ok: bool) -> None:
        """Count one operation: a train step, an estimate call or a CLI command."""
        self.attempted += 1
        self.failed += not ok

    def cli(self, *argv) -> tuple[bool, float]:
        """Run one rirlab command in this process; (exit 0, seconds)."""
        from rirlab import cli

        argv = [str(a) for a in argv]
        out = io.StringIO()
        start = _clock()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
            except Exception:  # a crash is a failed operation, not a dead benchmark
                code = "exception\n" + traceback.format_exc()
        seconds = _clock() - start
        ok = code == 0
        self.check(f"rirlab {argv[0]} exits 0", ok, "" if ok else f"{code}: {out.getvalue()[-2000:]}")
        return ok, seconds

    def start_trace(self) -> None:
        self.trace_patches = spans.install(self.tracer)
        self.tracer.reset()

    def stop_trace(self) -> None:
        if self.trace_patches is not None:
            self.trace_patches.undo()
            self.trace_patches = None

    def repeats(self, body, nominal_s: float) -> list[float]:
        """Call body(k) once per repeat; with tracing, the second repeat is
        traced. Returns each repeat's seconds."""
        count = 2 if self.traced else max(2, round(self.seconds / nominal_s))
        walls: list[float] = []
        for k in range(count):
            if self.traced and k == 1:
                self.start_trace()
            t0 = _clock()
            body(k)
            walls.append(_clock() - t0)
        self.stop_trace()
        self.extra["repeat_s"] = walls
        return walls


class StepTimer:
    """Times every ``training.train_step`` call and checks its losses."""

    def __init__(self, run: Run):
        from rirlab import training

        self.ms: list[float] = []
        self.examples = 0
        self.last_losses = None
        self.patches = spans.Patches()
        step = training.train_step

        def timed_step(*args, **kwargs):
            t0 = _clock()
            losses = step(*args, **kwargs)
            self.ms.append((_clock() - t0) * 1e3)
            self.examples += len(args[2][0])
            values = dataclasses.astuple(losses)
            finite = all(math.isfinite(v) for v in values)
            if not finite:
                run.check("StepLosses fields are finite", False, repr(losses))
            run.op(finite)
            self.last_losses = values
            return losses

        self.patches.everywhere(step, timed_step)

    def take(self) -> list[float]:
        """Step times since the last take()."""
        ms, self.ms = self.ms, []
        return ms


def _reset_grad_state(run: Run) -> None:
    """Count and clear what a threaded evaluate left behind: tape entries
    recorded by workers that saw grad mode switched back on, and grad mode
    left off by interleaved no_grad blocks."""
    from rirlab import autodiff as ad
    from rirlab.autodiff import tensor as tensor_mod

    tape = ad.active_tape()
    run.counters["autodiff.tensor.tape_leaked"] += len(tape)
    tape.clear()
    if not ad.is_grad_enabled():
        run.counters["autodiff.tensor.grad_mode_leaks"] += 1
        tensor_mod._grad_enabled = True  # no public setter; the next repeat starts clean


# ---------------------------------------------------------------------------
# toy-train
# ---------------------------------------------------------------------------

TOY_EXAMPLES = 250
TOY_SETUPS = 5
TOY_REPEAT_S = 20.0


def toy_train(run: Run) -> dict:
    datasets, synth_s = [], []
    for i in range(1 if run.traced else TOY_SETUPS):
        data = run.work / f"data{i}"
        ok, seconds = run.cli(
            "synth", "--out", data, "--n", TOY_EXAMPLES, "--profile", "toy", "--seed", run.seed
        )
        run.op(ok)
        datasets.append(data)
        synth_s.append(seconds)

    timer = StepTimer(run)
    steps: list[float] = []
    walls: list[float] = []
    outputs: list[str] = []
    val_edr_best = []

    def body(k: int) -> None:
        out = run.work / f"run{k}"
        ok, seconds = run.cli(
            "train", "--manifest", datasets[k % len(datasets)] / "manifest.json", "--out", out,
            "--profile", "toy",
        )
        walls.append(seconds)
        steps.extend(timer.take())
        if ok:
            outputs.append(digest(out / "best.ckpt", out / "log.csv"))
            ok &= run.check(
                "best.ckpt and log.csv identical across repeats",
                outputs[-1] == outputs[0],
                "traced vs untraced" if run.traced else "",
            )
            val = [float(line.split(",")[5]) for line in (out / "log.csv").read_text().split()[1:]]
            val_edr_best.append(min(val))
            # Acceptance criterion 6b: training at least halves validation EDR.
            ok &= run.check(
                "best validation EDR <= 0.5 x epoch-0", min(val) <= 0.5 * val[0],
                f"best {min(val)!r}, epoch 0 {val[0]!r}",
            )
        run.op(ok)

    run.repeats(body, TOY_REPEAT_S)
    timer.patches.undo()
    run.units = max(1, sum(1 for s in run.tracer.spans if s[3] == "training.train_step"))
    if run.traced:
        run.overhead_share = walls[1] / walls[0] - 1.0
    p, pct, n = tail(steps)
    run.extra["val_edr_best"] = val_edr_best[0] if val_edr_best else 0.0
    return {
        "setup_s": statistics.median(synth_s),
        "synth_examples_per_s": TOY_EXAMPLES / statistics.median(synth_s),
        "train_examples_per_s": timer.examples / sum(walls),
        "step_ms_p50": statistics.median(steps),
        "step_ms_tail": (p, pct, n),
        "val_edr_best": run.extra["val_edr_best"],
    }


# ---------------------------------------------------------------------------
# full-train
# ---------------------------------------------------------------------------

FULL_TRAIN_EXAMPLES = 48
FULL_BATCH = 4
WARMUP_STEPS = 2
FULL_TRAIN_STEPS = 12
FULL_TRAIN_REPEAT_S = 15.0


def full_train(run: Run) -> dict:
    from rirlab import autodiff as ad
    from rirlab import models, training
    from rirlab.dsp import octave_bands
    from rirlab.profiles import get_profile
    from rirlab.synth import load_manifest
    from rirlab.wavio import read_wav

    profile = get_profile("full")
    cfg = dataclasses.replace(profile.train, batch_size=FULL_BATCH, seed=run.seed)
    timer = StepTimer(run)
    setup_s, synth_s, steps, losses = [], [], [], []

    def body(k: int) -> None:
        t0 = _clock()
        data = run.work / f"data{k}"
        ok, seconds = run.cli(
            "synth", "--out", data, "--n", FULL_TRAIN_EXAMPLES, "--profile", "full",
            "--seed", run.seed,
        )
        run.op(ok)
        synth_s.append(seconds)
        manifest = load_manifest(data / "manifest.json")
        rev = np.stack([read_wav(manifest.path(e.reverberant)).samples for e in manifest.entries])
        rir = np.stack([read_wav(manifest.path(e.rir)).samples for e in manifest.entries])
        estimator = models.build_estimator(profile.estimator, seed=cfg.seed)
        discriminator = models.build_discriminator(profile.discriminator, seed=cfg.seed + 1)
        est_opt = ad.RmspropState.for_params(estimator.parameters(), lr=cfg.lr_init)
        disc_opt = ad.RmspropState.for_params(discriminator.parameters(), lr=cfg.lr_init)
        basis = ad.make_dft_basis(cfg.stft())
        partition = octave_bands(manifest.sample_rate, cfg.stft_window, list(cfg.band_centers))
        n_batches = len(manifest.entries) // FULL_BATCH

        def step(i: int) -> None:
            b = slice((i % n_batches) * FULL_BATCH, (i % n_batches + 1) * FULL_BATCH)
            training.train_step(
                estimator, discriminator, (rev[b], rir[b]), cfg, est_opt, disc_opt, basis,
                partition, context=f"step {i}",
            )

        for i in range(WARMUP_STEPS):
            step(i)
        timer.take()
        setup_s.append(_clock() - t0)
        run.tracer.reset()
        for i in range(WARMUP_STEPS, WARMUP_STEPS + FULL_TRAIN_STEPS):
            step(i)
        steps.append(timer.take())
        losses.append(timer.last_losses)
        same = run.check(
            f"losses after {FULL_TRAIN_STEPS} steps identical across repeats",
            losses[-1] == losses[0],
            "traced vs untraced" if run.traced else repr(losses[-1]),
        )
        if not same:
            run.op(False)

    run.repeats(body, FULL_TRAIN_REPEAT_S)
    timer.patches.undo()
    run.units = FULL_TRAIN_STEPS
    if run.traced:
        run.overhead_share = sum(steps[1]) / sum(steps[0]) - 1.0
    flat = [ms for rep in steps for ms in rep]
    p, pct, n = tail(flat)
    return {
        "setup_s": statistics.median(setup_s),
        "synth_examples_per_s": FULL_TRAIN_EXAMPLES / statistics.median(synth_s),
        "train_examples_per_s": FULL_BATCH * len(flat) / (sum(flat) / 1e3),
        "step_ms_p50": statistics.median(flat),
        "step_ms_tail": (p, pct, n),
    }


# ---------------------------------------------------------------------------
# full-infer
# ---------------------------------------------------------------------------

FULL_INFER_EXAMPLES = 80
FULL_INFER_SPLITS = "0.75,0.0,0.25"
FULL_INFER_SETUPS = 5
FULL_INFER_REPEAT_S = 10.0


def full_infer(run: Run) -> dict:
    from rirlab import models
    from rirlab.profiles import get_profile
    from rirlab.synth import load_manifest
    from rirlab.wavio import read_wav

    profile = get_profile("full")
    ckpt = run.work / "estimator.ckpt"
    setup_s = []
    for _ in range(1 if run.traced else FULL_INFER_SETUPS):
        t0 = _clock()
        models.save_checkpoint(models.build_estimator(profile.estimator, seed=run.seed), ckpt)
        setup_s.append(_clock() - t0)

    synth_s, estimate_ms, eval_rates, digests = [], [], {"model": [], "baseline": []}, []

    def client_estimate(net, sig):
        if run.trace_patches is None:
            return models.estimate(net, sig)
        return run.tracer.call("client.estimate", models.estimate, net, sig)

    def body(k: int) -> None:
        # 1. a fresh dataset
        data = run.work / f"data{k}"
        ok, seconds = run.cli(
            "synth", "--out", data, "--n", FULL_INFER_EXAMPLES, "--profile", "full",
            "--seed", run.seed, "--splits", FULL_INFER_SPLITS,
        )
        run.op(ok)
        synth_s.append(seconds)
        manifest = load_manifest(data / "manifest.json")
        n_test = len(manifest.split_entries("test"))

        # 2. one client calling estimate in a loop
        net = models.load_checkpoint(ckpt)
        inputs = [read_wav(manifest.path(e.reverberant)) for e in manifest.entries]
        h = hashlib.sha256()
        for sig in inputs:
            t0 = _clock()
            rir = client_estimate(net, sig)
            estimate_ms.append((_clock() - t0) * 1e3)
            good = len(rir) == profile.rir_len and bool(np.all(np.isfinite(rir.samples)))
            if not good:
                run.check("estimate returns rir_len finite samples", False, f"{len(rir)} samples")
            run.op(good)
            h.update(rir.samples.tobytes())
        del net

        # 3. evaluate the model and the baseline; 4. identity as a self-check
        reports = {}
        for method in ("model", "baseline", "identity"):
            arg = f"model:{ckpt}" if method == "model" else method
            out = data / f"{method}.csv"
            ok, seconds = run.cli(
                "evaluate", "--manifest", data / "manifest.json", "--split", "test",
                "--method", arg, "--out", out,
            )
            _reset_grad_state(run)
            if method in eval_rates:
                eval_rates[method].append(n_test / seconds)
            if ok:
                reports[method] = out
            if ok and method == "identity":
                ok = run.check("identity report is all zero", _identity_is_zero(out))
            run.op(ok)
        for method in ("model", "baseline"):
            if method in reports:
                path = reports[method]
                h.update(digest(path, path.with_name(path.stem + "_examples.csv")).encode())
        digests.append(h.hexdigest())
        same = run.check(
            "estimates and evaluate reports identical across repeats", digests[-1] == digests[0],
            "traced vs untraced" if run.traced else "",
        )
        if not same:
            run.op(False)

    walls = run.repeats(body, FULL_INFER_REPEAT_S)
    run.units = FULL_INFER_EXAMPLES
    if run.traced:
        run.overhead_share = walls[1] / walls[0] - 1.0
    p, pct, n = tail(estimate_ms)
    return {
        "setup_s": statistics.median(setup_s),
        "synth_examples_per_s": FULL_INFER_EXAMPLES / statistics.median(synth_s),
        "eval_model_examples_per_s": statistics.median(eval_rates["model"]),
        "eval_baseline_examples_per_s": statistics.median(eval_rates["baseline"]),
        "estimate_ms_p50": statistics.median(estimate_ms),
        "estimate_ms_tail": (p, pct, n),
    }


def _identity_is_zero(report: Path) -> bool:
    """Every error in an identity report is zero: log EDR loss sits at its
    -12 floor (log10 of 1e-12) and the other columns read 0."""
    lines = [line for line in report.read_text().splitlines() if not line.startswith("#")]
    for line in lines[1:-1]:
        _, log_loss, ere_mae = line.split(",")
        if float(log_loss) != -12.0 or float(ere_mae) != 0.0:
            return False
    _, drr_mae, mse = lines[-1].split(",")
    if float(drr_mae) != 0.0 or float(mse) != 0.0:
        return False
    examples = report.with_name(report.stem + "_examples.csv").read_text().splitlines()[1:]
    return all(float(v) == 0.0 for row in examples for v in row.split(",")[2:])


WORKLOADS = {"toy-train": toy_train, "full-train": full_train, "full-infer": full_infer}
