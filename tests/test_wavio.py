"""The WAV reader and writer against scipy.io.wavfile as an independent
reference, on every layout read_wav accepts and on ones it rejects."""

import os
import re
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

import rirlab
from rirlab.dsp import Signal
from rirlab.errors import UnsupportedFormatError
from rirlab.wavio import read_wav, write_wav

GUID_TAILS = {
    "<": b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71",
    ">": b"\x00\x00\x00\x10\x80\x00\x00\xaa\x00\x38\x9b\x71",
}


def _chunk(order: str, chunk_id: bytes, body: bytes) -> bytes:
    return chunk_id + struct.pack(order + "I", len(body)) + body + b"\x00" * (len(body) % 2)


def _fmt_body(order: str, tag: int, bits: int, rate: int, extensible: bool) -> bytes:
    width = bits // 8
    body = struct.pack(order + "HHIIHH", 0xFFFE if extensible else tag, 1, rate, rate * width,
                       width, bits)
    if extensible:  # cbSize, valid bits, channel mask, sub-format GUID
        body += struct.pack(order + "HHI", 22, bits, 4)
        body += struct.pack(order + "I", tag) + GUID_TAILS[order]
    return body


def _wav(samples: np.ndarray, rate: int, form: str = "RIFF", extensible: bool = False,
         odd_chunks: bool = False, fmt_body: bytes | None = None) -> bytes:
    """A mono WAV holding samples (int16 as PCM16, float32 as IEEE float):
    a RIFF, RIFX or RF64 form, a plain or extensible fmt chunk, and with
    odd_chunks an odd-size LIST chunk before fmt and an odd-size JUNK
    chunk after data."""
    order = ">" if form == "RIFX" else "<"
    data = samples.astype(samples.dtype.newbyteorder(order)).tobytes()
    tag, bits = (3, 32) if samples.dtype.kind == "f" else (1, 16)
    if fmt_body is None:
        fmt_body = _fmt_body(order, tag, bits, rate, extensible)
    chunks = [_chunk(order, b"fmt ", fmt_body), _chunk(order, b"data", data)]
    if odd_chunks:
        chunks = [_chunk(order, b"LIST", b"INFOx"), *chunks, _chunk(order, b"JUNK", b"abc")]
    body = b"WAVE" + b"".join(chunks)
    if form != "RF64":
        return form.encode() + struct.pack(order + "I", len(body)) + body
    at = body.index(b"data") + 4
    body = body[:at] + b"\xff\xff\xff\xff" + body[at + 4 :]
    ds64 = b"ds64" + struct.pack("<IQQQI", 28, 36 + len(body), len(data), samples.size, 0)
    return b"RF64\xff\xff\xff\xff" + body[:4] + ds64 + body[4:]


def _samples(kind: str, n: int) -> np.ndarray:
    rng = np.random.default_rng(n)
    if kind == "pcm16":
        return rng.integers(-32768, 32768, n).astype(np.int16)
    return rng.uniform(-1, 1, n).astype(np.float32)


@pytest.mark.parametrize("n", [1, 2, 3, 16000])
@pytest.mark.parametrize("layout", ["plain", "extensible", "odd_chunks"])
@pytest.mark.parametrize("kind", ["pcm16", "float32"])
@pytest.mark.parametrize("form", ["RIFF", "RIFX", "RF64"])
def test_read_matches_scipy(tmp_path, form, kind, layout, n):
    path = tmp_path / "x.wav"
    path.write_bytes(_wav(_samples(kind, n), 11025, form, extensible=layout == "extensible",
                          odd_chunks=layout == "odd_chunks"))
    rate, expected = wavfile.read(path)
    expected = expected.astype(np.float64)
    if kind == "pcm16":
        expected /= 32768.0
    got = read_wav(path)
    assert rate == got.sample_rate == 11025
    assert len(got) == n
    # float32 holds each sample exactly, PCM16 over 32768 included
    assert got.samples.dtype == np.float32
    np.testing.assert_array_equal(got.samples, expected)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 16000])
@pytest.mark.parametrize("rate", [8000, 16000])
def test_write_matches_scipy_bytes(tmp_path, rate, n):
    samples = np.random.default_rng(n).uniform(-1, 1, n)
    ours, reference = tmp_path / "ours.wav", tmp_path / "scipy.wav"
    write_wav(ours, Signal(samples, rate))
    wavfile.write(reference, rate, samples.astype(np.float32))
    assert ours.read_bytes() == reference.read_bytes()
    assert len(ours.read_bytes()) == 58 + 4 * n


def _fmt(tag=3, rate=8000, block_align=4, bits=32) -> bytes:
    return struct.pack("<HHIIHH", tag, 1, rate, rate * block_align, block_align, bits)


FLOATS = np.linspace(-0.5, 0.5, 16, dtype=np.float32)
# Stereo, 32-bit PCM, mu-law, an empty file and a data chunk cut short are
# rejected in test_synth.py and test_cli.py.
REJECTED = {
    "float64": _wav(FLOATS, 8000, fmt_body=_fmt(block_align=8, bits=64)),
    "pcm8": _wav(FLOATS, 8000, fmt_body=_fmt(tag=1, block_align=1, bits=8)),
    "block_align": _wav(FLOATS, 8000, fmt_body=_fmt(block_align=2)),
    "zero_rate": _wav(FLOATS, 8000, fmt_body=_fmt(rate=0)),
    "short_fmt": _wav(FLOATS, 8000, fmt_body=_fmt()[:14]),
    "short_extensible": _wav(FLOATS, 8000, fmt_body=_fmt(tag=0xFFFE) + b"\x00\x00"),
    "unknown_guid": _wav(FLOATS, 8000, fmt_body=_fmt(tag=0xFFFE)
                         + struct.pack("<HHII", 22, 32, 4, 3) + b"\x00" * 12),
    "data_before_fmt": b"RIFF\x00\x00\x00\x00WAVE" + _chunk("<", b"data", FLOATS.tobytes())
                       + _chunk("<", b"fmt ", _fmt()),
    "no_data": b"RIFF\x00\x00\x00\x00WAVE" + _chunk("<", b"fmt ", _fmt()),
    "rf64_without_ds64": b"RF64" + _wav(FLOATS, 8000)[4:],
    "not_wave": b"RIFF\x00\x00\x00\x00AVI " + _chunk("<", b"fmt ", _fmt()),
    "cut_in_header": _wav(FLOATS, 8000)[:20],
}


@pytest.mark.parametrize("raw", REJECTED.values(), ids=REJECTED.keys())
def test_rejected_layouts_raise_unsupported_format(tmp_path, raw):
    path = tmp_path / "bad.wav"
    path.write_bytes(raw)
    expected = f"^{re.escape(str(path))}: not a readable WAV"
    with pytest.raises(UnsupportedFormatError, match=expected):
        read_wav(path)


def test_cli_import_loads_no_scipy():
    src = Path(rirlab.__file__).resolve().parent.parent
    code = "import sys, rirlab.cli; print([m for m in sys.modules if m.startswith('scipy')])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
