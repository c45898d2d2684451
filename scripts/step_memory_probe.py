#!/usr/bin/env python3
"""Peak memory and time of full-profile training steps, and the peak of one
eval forward, at one batch size.

    python3 scripts/step_memory_probe.py BATCH STEPS

The package is imported from the ``src/`` next to this script. Builds the
full-profile estimator and discriminator and runs STEPS
``training.train_step`` calls at batch BATCH on random inputs of seed 0.
Prints one line of ``key=value`` pairs:

- ``import_rss_mb``: the resident set once the package is imported and
  before the networks are built, the fixed part of the peak;
- ``peak_rss_mb``: the process's peak resident set (``ru_maxrss``), set-up
  included;
- ``step_ms_p50`` and ``ms_per_example``: the median step time, and that
  divided by BATCH;
- ``minor_faults_per_step``: the median count of minor page faults per step,
  that is pages the step touched for the first time since the allocator got
  them from the kernel;
- ``step_peak_mb`` and ``eval_peak_mb``: the traced (``tracemalloc``)
  peaks, in MiB, of one more train step and of one
  ``training.validation_edr`` on the BATCH inputs, whose no-grad eval
  forwards run ``training.EVAL_BATCH`` examples at a time, as ``evaluate``'s
  do. They count what numpy allocates while each call runs, so not the
  networks and optimizer state, and are measured after ``peak_rss_mb`` is
  read, so they do not move it.

The first step is left out of the medians when STEPS > 1: it is the one that
grows the heap. Run one probe at a time; its peak is about 217 MB at batch
4, 364 MB at batch 32 and 803 MB at batch 128, and ``step_peak_mb`` reads
25.5, 154 and 596 MiB. ``eval_peak_mb`` reads 14.0 MiB at batch 4 and
14.3-14.4 MiB at 32 and 128: the chunk, not the batch, sets it.
"""

from __future__ import annotations

import argparse
import dataclasses
import resource
import statistics
import sys
import time
import tracemalloc
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np  # noqa: E402

from rirlab import autodiff as ad  # noqa: E402
from rirlab import models, training  # noqa: E402
from rirlab.profiles import get_profile  # noqa: E402


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def _traced_peak(fn) -> int:
    """The tracemalloc peak, in bytes, of what fn allocates."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def main() -> None:
    import_mb = _rss_mb()
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("batch", type=int)
    parser.add_argument("steps", type=int)
    args = parser.parse_args()
    if args.batch < 2 or args.steps < 1:
        parser.error("BATCH must be >= 2 (batchnorm) and STEPS >= 1")

    profile = get_profile("full")
    cfg = dataclasses.replace(profile.train, batch_size=args.batch, seed=0)
    estimator = models.Estimator(profile.estimator, seed=cfg.seed)
    discriminator = models.Discriminator(profile.discriminator, seed=cfg.seed + 1)
    est_opt = ad.RmspropState.for_params(estimator.parameters(), lr=cfg.lr_init)
    disc_opt = ad.RmspropState.for_params(discriminator.parameters(), lr=cfg.lr_init)
    basis, partition = profile.analysis()
    rng = np.random.default_rng(0)
    batch = (
        rng.uniform(-0.9, 0.9, (args.batch, profile.estimator.input_len)),
        rng.uniform(-0.9, 0.9, (args.batch, profile.estimator.rir_len)),
    )

    step_ms, faults = [], []
    for i in range(args.steps):
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        training.train_step(
            estimator, discriminator, batch, cfg, est_opt, disc_opt, basis, partition,
            context=f"step {i}",
        )
        step_ms.append((time.perf_counter() - t0) * 1e3)
        faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
    measured = slice(1 if args.steps > 1 else 0, None)
    p50 = statistics.median(step_ms[measured])
    peak_mb = _rss_mb()

    step_peak = _traced_peak(
        lambda: training.train_step(
            estimator, discriminator, batch, cfg, est_opt, disc_opt, basis, partition,
            context="traced step",
        )
    )
    eval_peak = _traced_peak(
        lambda: training.validation_edr(estimator, *batch, basis, partition)
    )
    print(
        f"batch={args.batch} steps={args.steps} import_rss_mb={import_mb:.1f} "
        f"peak_rss_mb={peak_mb:.1f} "
        f"step_ms_p50={p50:.1f} ms_per_example={p50 / args.batch:.2f} "
        f"minor_faults_per_step={statistics.median(faults[measured]):.0f} "
        f"step_peak_mb={step_peak / 2**20:.1f} eval_peak_mb={eval_peak / 2**20:.1f}"
    )


if __name__ == "__main__":
    main()
