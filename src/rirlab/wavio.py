"""Mono WAV files: written as IEEE float32; read as float32 or PCM16.

The reader takes RIFF (little-endian), RIFX (big-endian) and RF64 files
whose ``fmt `` chunk declares one channel of 16-bit PCM or 32-bit IEEE
float, in its plain form or as WAVE_FORMAT_EXTENSIBLE with one of those
sub-formats. It skips every other chunk (LIST, JUNK, fact, ...). It rejects
with UnsupportedFormatError any other codec, sample width or channel count,
a file without a ``fmt `` chunk before its ``data`` chunk, a header cut
short, and a ``data`` chunk that holds fewer bytes than it declares. An
empty ``data`` chunk reads as a Signal of no samples.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .dsp import Signal
from .errors import UnsupportedFormatError
from .fileio import atomic_write

PCM, IEEE_FLOAT, EXTENSIBLE = 1, 3, 0xFFFE
_BYTE_ORDERS = {b"RIFF": "<", b"RIFX": ">", b"RF64": "<"}
# The sample dtype, less its byte order, of each accepted (format tag, bits).
_SAMPLE_TYPES = {(PCM, 16): "i2", (IEEE_FLOAT, 32): "f4"}
# The last 12 bytes of an extensible sub-format GUID {XXXXXXXX-0000-0010-
# 8000-00AA00389B71}, whose first 4 bytes hold the format tag (RFC 2361).
_GUID_TAILS = {
    "<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
    ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71",
}


def _sample_type(raw: bytes, at: int, size: int, order: str) -> tuple[int, str]:
    """(sample rate, sample dtype) of the fmt chunk whose body starts at ``at``."""
    if size < 16:
        raise ValueError(f"its fmt chunk is {size} bytes, expected at least 16")
    tag, channels, rate, _, block_align, bits = struct.unpack_from(order + "HHIIHH", raw, at)
    if tag == EXTENSIBLE:
        if size < 40 or struct.unpack_from(order + "H", raw, at + 16)[0] < 22:
            raise ValueError("its extensible fmt chunk is cut short")
        guid = raw[at + 24 : at + 40]
        if guid[4:] != _GUID_TAILS[order]:
            raise ValueError("its extensible fmt chunk names an unknown sub-format")
        tag = struct.unpack_from(order + "I", guid)[0]
    if channels != 1:
        raise ValueError(f"expected mono audio, got {channels} channels")
    if rate == 0:
        raise ValueError("its sample rate is 0")
    kind = _SAMPLE_TYPES.get((tag, bits))
    if kind is None or block_align != bits // 8:
        raise ValueError(
            f"unsupported sample format (format tag {tag:#x}, {bits} bits in "
            f"{block_align}-byte blocks), expected 16-bit PCM or 32-bit float"
        )
    return rate, order + kind


def _parse(raw: bytes) -> tuple[int, np.ndarray]:
    """(sample rate, samples as stored) of a WAV file's bytes; ValueError or
    struct.error on anything read_wav does not accept."""
    order = _BYTE_ORDERS.get(raw[:4])
    if order is None or raw[8:12] != b"WAVE":
        raise ValueError("not a RIFF, RIFX or RF64 WAVE file")
    rf64 = raw[:4] == b"RF64"
    if rf64:
        if raw[12:16] != b"ds64":
            raise ValueError("RF64 file without a ds64 chunk")
        rf64_data_size = struct.unpack_from("<Q", raw, 28)[0]
    sample_type = None
    at = 12
    while at + 8 <= len(raw):
        chunk, size = raw[at : at + 4], struct.unpack_from(order + "I", raw, at + 4)[0]
        at += 8
        if chunk == b"fmt ":
            sample_type = _sample_type(raw, at, size, order)
        elif chunk == b"data":
            if sample_type is None:
                raise ValueError("no fmt chunk before the data chunk")
            rate, dtype = sample_type
            declared = rf64_data_size if rf64 else size
            present = len(raw) - at
            if present < declared:
                raise ValueError(f"its data chunk holds {present} of {declared} bytes")
            count = declared // np.dtype(dtype).itemsize
            return rate, np.frombuffer(raw, dtype, count=count, offset=at)
        at += size + size % 2  # a chunk of odd size is followed by a pad byte
    raise ValueError("no data chunk")


def read_wav(path: str | Path) -> Signal:
    """Read a mono WAV file into a float32 Signal.

    PCM16 samples are scaled to [-1, 1) by 1/32768; float32 samples are
    taken as-is. Both are exact in float32, since an int16 over 32768 has
    at most 16 significant bits. A file that cannot be opened raises
    OSError; one this module does not read (see the module docstring)
    raises UnsupportedFormatError.
    """
    with open(path, "rb") as fid:
        raw = fid.read()
    try:
        rate, data = _parse(raw)
    except (ValueError, struct.error) as exc:
        raise UnsupportedFormatError(f"{path}: not a readable WAV file ({exc})") from None
    samples = data.astype(np.float32)
    if data.dtype.kind == "i":
        samples /= 32768.0
    return Signal(samples, rate)


def write_wav(path: str | Path, signal: Signal) -> None:
    """Write a Signal to a mono IEEE float32 WAV file, replacing any file
    at path whole (fileio.atomic_write); a float32 signal round-trips
    exactly through read_wav.

    The 58-byte header is a RIFF header, an 18-byte fmt chunk, a fact chunk
    holding the sample count and the data chunk's header.
    """
    data = signal.samples.astype("<f4", copy=False)
    rate = signal.sample_rate
    header = (
        b"RIFF" + struct.pack("<I", 50 + data.nbytes) + b"WAVE"
        + b"fmt " + struct.pack("<IHHIIHHH", 18, IEEE_FLOAT, 1, rate, 4 * rate, 4, 32, 0)
        + b"fact" + struct.pack("<II", 4, data.size)
        + b"data" + struct.pack("<I", data.nbytes)
    )
    with atomic_write(path, "wb") as fid:
        fid.write(header)
        fid.write(data)
