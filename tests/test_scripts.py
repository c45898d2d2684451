"""Smoke tests of the measurement scripts under scripts/, whose numbers the
README and ROADMAP quote."""

import platform
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_step_memory_probe_prints_every_documented_key():
    probe = SCRIPTS / "step_memory_probe.py"
    out = subprocess.run(
        [sys.executable, str(probe), "2", "1"],
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    # Each bullet of the docstring names its keys before its colon.
    bullets = re.findall(r"^- (``.*?):", probe.read_text(), flags=re.MULTILINE)
    documented = [key for bullet in bullets for key in re.findall(r"``(\w+)``", bullet)]
    assert len(documented) == 7
    pairs = dict(token.split("=", 1) for token in out.split())
    assert set(documented) <= pairs.keys(), out
    assert {"batch": "2", "steps": "1"}.items() <= pairs.items()
    for key in documented:
        float(pairs[key])


@pytest.mark.skipif(
    platform.libc_ver()[0] != "glibc", reason="the fault count depends on glibc's malloc"
)
def test_step_memory_probe_steps_fault_few_pages():
    # A minor fault is a page the step touched first after malloc got it
    # from the kernel. With _overlap_add's output allocated before its first
    # GEMM this read 7,114 faults per step, against 2 with it allocated after.
    out = subprocess.run(
        [sys.executable, str(SCRIPTS / "step_memory_probe.py"), "4", "5"],
        capture_output=True, text=True, timeout=300, check=True,
    ).stdout
    pairs = dict(token.split("=", 1) for token in out.split())
    assert float(pairs["minor_faults_per_step"]) < 1000, out
    # What numpy allocates within a step: 33.7 MiB while the decoder's
    # records held each PReLU output and conv1d's held a padded input copy,
    # 25.5 MiB with the PReLU outputs recomputed and the copies rebuilt.
    assert float(pairs["step_peak_mb"]) < 31, out
