"""Mono WAV files: written as IEEE float32; read as float32 or PCM16."""

from __future__ import annotations

import os
import struct
from pathlib import Path

import numpy as np
from scipy.io import wavfile

from .dsp import Signal
from .errors import UnsupportedFormatError

# What scipy's WAV parser raises on a file that is cut short, is not RIFF,
# uses another codec, or has a corrupt header: a missing fmt or data chunk
# surfaces as UnboundLocalError, a zero block size as ZeroDivisionError, a
# bad float sample width as TypeError. OSError is not among them.
_PARSE_ERRORS = (ValueError, TypeError, ZeroDivisionError, UnboundLocalError, struct.error)


def _check_data_chunk(fid) -> None:
    """Raise ValueError if the file holds fewer bytes than its data chunk's
    header declares, and rewind. scipy would load such a file with only a
    WavFileWarning, returning the samples that are there."""
    riff = fid.read(4)
    if riff == b"RF64":  # the data size is kept in the ds64 chunk that follows
        fid.seek(28)
        rf64_size = struct.unpack("<Q", fid.read(8))[0]
    order = ">" if riff == b"RIFX" else "<"
    fid.seek(12)
    while riff in (b"RIFF", b"RIFX", b"RF64") and len(head := fid.read(8)) == 8:
        size = struct.unpack(order + "I", head[4:])[0]
        if head[:4] == b"data":
            declared = rf64_size if riff == b"RF64" else size
            present = os.fstat(fid.fileno()).st_size - fid.tell()
            if present < declared:
                raise ValueError(f"its data chunk holds {present} of {declared} bytes")
            break
        fid.seek(size + size % 2, os.SEEK_CUR)
    fid.seek(0)


def read_wav(path: str | Path) -> Signal:
    """Read a mono WAV file into a float64 Signal.

    PCM16 samples are scaled to [-1, 1) by 1/32768; float32 samples are
    taken as-is. Anything else (multi-channel, other codecs, a data chunk
    cut short, a file that is not a readable WAV) raises
    UnsupportedFormatError; a file that cannot be opened raises OSError.
    """
    with open(path, "rb") as fid:
        try:
            _check_data_chunk(fid)
            rate, data = wavfile.read(fid)
        except _PARSE_ERRORS as exc:
            raise UnsupportedFormatError(f"{path}: not a readable WAV file ({exc})") from exc
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
