#!/usr/bin/env python3
"""rirlab benchmark.

    python3 perfbench/run.py --workload {toy-train,full-train,full-infer,all} \
        --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``src/``. Inputs
are generated from ``--seed``. With ``--trace 0`` the last line of standard
output is a JSON object with the end-to-end metrics named in BENCHMARK.json;
with ``--trace 1`` it holds the per-layer metrics instead. Lines above it give
the environment record, every metric under its workload-specific name, and
every output check. The full result, and with ``--trace 1`` every span, is
written under ``.perfbench_work/``. ``--workload all`` runs the three
workloads one after the other, each in a fresh process.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

# End-to-end metric -> the name it goes by on each workload.
ALIASES = {
    "examples_per_s": {
        "toy-train": "train_examples_per_s",
        "full-train": "train_examples_per_s",
        "full-infer": "eval_model_examples_per_s",
    },
    "op_ms_p50": {
        "toy-train": "step_ms_p50",
        "full-train": "step_ms_p50",
        "full-infer": "estimate_ms_p50",
    },
}
UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "synth_examples_per_s": "1/s",
    "train_examples_per_s": "1/s",
    "eval_model_examples_per_s": "1/s",
    "eval_baseline_examples_per_s": "1/s",
    "step_ms_p50": "ms",
    "step_ms_tail": "ms",
    "estimate_ms_p50": "ms",
    "estimate_ms_tail": "ms",
    "val_edr_best": "loss",
    "error_rate": "share",
}

# Per-layer metrics whose span is not named by stripping the suffix.
SPAN_ALIASES = {"training.step": "training.train_step"}


def environment(threads: int) -> dict:
    """Machine and library record, with a one-off GEMM rate and copy
    bandwidth as the base for the computed GFLOP/s and GB/s."""
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    blas_threads = None
    libdir = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libdir / "*openblas*")):
        try:
            get = ctypes.CDLL(lib).scipy_openblas_get_num_threads64_
        except (OSError, AttributeError):
            continue
        get.restype = ctypes.c_int
        blas_threads = get()
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None

    rng = np.random.default_rng(0)
    a, b = rng.standard_normal((1024, 1024)), rng.standard_normal((1024, 1024))
    src = np.ones(8 * 2**20)  # 64 MiB
    dst = np.empty_like(src)
    gemm, copy = [], []
    for _ in range(5):
        t0 = time.perf_counter()
        a @ b
        gemm.append(2 * 1024**3 / (time.perf_counter() - t0) / 1e9)
        t0 = time.perf_counter()
        np.copyto(dst, src)
        copy.append(2 * src.nbytes / (time.perf_counter() - t0) / 1e9)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "rirlab_threads": threads,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "gemm_gflops_per_s": statistics.median(gemm),
        "copy_gbytes_per_s": statistics.median(copy),
        "machine": platform.machine(),
    }


def layer_metrics(run, spec: dict) -> dict:
    """Every per-layer metric of BENCHMARK.json from the traced repeat.

    Times and counts are per unit: per train step on the train workloads, per
    dataset example on full-infer. GFLOP and GB are computed from shapes, not
    measured.
    """
    from spans import count_under, span_table

    table = span_table(run.tracer.spans)
    counts = {**run.tracer.counts, **run.counters}
    units = run.units

    def row(span):
        return table.get(SPAN_ALIASES.get(span, span), {"calls": 0, "ns": 0, "self_ns": 0})

    def ratio(num, den):
        return num / den if den else 0.0

    examples = row("cli.evaluate_example")["calls"]
    under_eval = ("cli.evaluate", "cli.evaluate_example")
    conv_ns = {
        op: row(f"autodiff.ops.{op}")["ns"] + row(f"autodiff.ops.{op}.bwd")["ns"]
        for op in ("conv1d", "conv_transpose1d")
    }
    special = {
        "autodiff.ops.conv1d.gflop": counts.get("autodiff.ops.conv1d.flop", 0) / units / 1e9,
        "autodiff.ops.conv1d.gflops_per_s":
            ratio(counts.get("autodiff.ops.conv1d.flop", 0), conv_ns["conv1d"]),
        "autodiff.ops.conv_transpose1d.gflop":
            counts.get("autodiff.ops.conv_transpose1d.flop", 0) / units / 1e9,
        "autodiff.ops.conv_transpose1d.gflops_per_s": ratio(
            counts.get("autodiff.ops.conv_transpose1d.flop", 0), conv_ns["conv_transpose1d"]
        ),
        "autodiff.tensor.tape_records": counts.get("autodiff.tensor.tape_records", 0) / units,
        "autodiff.tensor.tape_leaked": counts["autodiff.tensor.tape_leaked"],
        "autodiff.tensor.grad_mode_leaks": counts["autodiff.tensor.grad_mode_leaks"],
        "autodiff.optim.gbytes": counts.get("autodiff.optim.bytes", 0) / units / 1e9,
        "autodiff.optim.gbytes_per_s":
            ratio(counts.get("autodiff.optim.bytes", 0), row("autodiff.optim.rmsprop")["ns"]),
        "models.checkpoint_mb": ratio(
            counts.get("models.checkpoint_bytes", 0), counts.get("models.checkpoint_files", 0)
        ) / 1e6,
        "training.validation_share":
            ratio(row("training.validation_edr")["ns"], row("training.train")["ns"]),
        "training.val_edr_best": run.extra.get("val_edr_best", 0.0),
        "metrics.edr_loss_calls_per_example":
            ratio(count_under(run.tracer.spans, "metrics.edr_loss", under_eval), examples),
        "wavio.read_wav_calls_per_example":
            ratio(count_under(run.tracer.spans, "wavio.read_wav", under_eval), examples),
        "wavio.mb_written": counts.get("wavio.bytes_written", 0) / units / 1e6,
        "cli.pool_workers": ratio(counts.get("cli.pool_workers", 0), counts.get("cli.pools", 0)),
        "trace.overhead_share": run.overhead_share,
    }
    out = {}
    for metric in spec["per_layer"]:
        name = metric["name"]
        if name in special:
            value = special[name]
        else:
            base, _, field = name.rpartition(".")
            if field == "calls":
                value = row(base)["calls"] / units
            elif field == "fwd_ms":
                value = row(base)["ns"] / units / 1e6
            elif field == "bwd_ms":
                value = row(f"{base}.bwd")["ns"] / units / 1e6
            elif field.endswith("_self_ms"):
                value = row(f"{base}.{field[:-8]}")["self_ns"] / units / 1e6
            elif field.endswith("_ms"):
                value = row(f"{base}.{field[:-3]}")["ns"] / units / 1e6
            else:
                raise KeyError(f"no rule computes per-layer metric {name}")
        out[name] = {"value": float(value), "unit": metric["unit"]}
    return out


def run_all(names: list[str], args) -> int:
    """Each workload in its own fresh process, one after the other; the last
    line maps workload -> result."""
    results, code = {}, 0
    for name in names:
        child = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        lines = child.stdout.splitlines()
        print("\n".join(lines[:-1]))
        sys.stderr.write(child.stderr)
        code = code or child.returncode
        results[name] = json.loads(lines[-1]) if child.returncode == 0 and lines else None
    print(json.dumps(results))
    return code


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[1])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "rirlab" / "__init__.py").is_file():
        print(f"error: no rirlab package under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sys.path.insert(0, str(ROOT / "src"))
    threads = len(os.sched_getaffinity(0))
    os.environ["RIRLAB_THREADS"] = str(threads)

    from workloads import WORKLOADS, Run

    if args.workload == "all":
        return run_all(sorted(WORKLOADS), args)
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}, expected one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    run = Run(args.seed, args.seconds, bool(args.trace), work)
    try:
        named = WORKLOADS[args.workload](run)
    finally:
        run.stop_trace()
        shutil.rmtree(work, ignore_errors=True)
    named["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    env = environment(threads)  # after the RSS reading: its arrays are not the program's
    named["error_rate"] = run.failed / run.attempted
    correct = run.failed == 0 and all(c["ok"] for c in run.checks)

    print("environment: " + json.dumps(env))
    for name, value in named.items():
        if isinstance(value, tuple):
            value, pct, n = value
            print(f"{args.workload} {name} = {value:.6g} {UNITS[name]} (p{pct:.1f} of {n} samples)")
        else:
            print(f"{args.workload} {name} = {value:.6g} {UNITS[name]}")
    for check in run.checks:
        if not check["ok"]:
            print(f"FAILED check: {check['check']}: {check['detail']}")
    print(f"checks: {sum(c['ok'] for c in run.checks)}/{len(run.checks)} passed; "
          f"operations: {run.attempted} attempted, {run.failed} failed")

    if args.trace:
        metrics = layer_metrics(run, spec)
        run.tracer.dump(str(WORK / f"{args.workload}-seed{args.seed}-spans.jsonl"))
    else:
        metrics = {}
        for metric in spec["end_to_end"]:
            name = ALIASES.get(metric["name"], {}).get(args.workload, metric["name"])
            metrics[metric["name"]] = {"value": float(named[name]), "unit": metric["unit"]}
    result = {
        "correct": correct,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    (WORK / f"{tag}.json").write_text(json.dumps(
        {**result, "workload": args.workload, "seed": args.seed, "environment": env,
         "named": {k: list(v) if isinstance(v, tuple) else v for k, v in named.items()},
         "extra": run.extra, "checks": run.checks}, indent=1) + "\n")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
