"""Mono WAV files: written as IEEE float32; read as float32 or PCM16."""

from __future__ import annotations

from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .dsp import Signal
from .errors import UnsupportedFormatError


def read_wav(path: str | Path) -> Signal:
    """Read a mono WAV file into a float64 Signal.

    PCM16 samples are scaled to [-1, 1) by 1/32768; float32 samples are
    taken as-is. Anything else (multi-channel, other codecs) is rejected.
    """
    rate, data = wavfile.read(str(path))
    if data.ndim != 1:
        raise UnsupportedFormatError(
            f"{path}: expected mono audio, got {data.ndim} dimensions"
        )
    if data.dtype == np.int16:
        samples = data.astype(np.float64) / 32768.0
    elif data.dtype == np.float32:
        samples = data.astype(np.float64)
    else:
        raise UnsupportedFormatError(
            f"{path}: unsupported sample format {data.dtype}, expected int16 or float32"
        )
    return Signal(samples, rate)


def write_wav(path: str | Path, signal: Signal) -> None:
    """Write a Signal to a mono IEEE float32 WAV file; a float32 signal
    round-trips exactly through read_wav."""
    wavfile.write(str(path), signal.sample_rate, signal.samples.astype("<f4"))
