"""Blind room-impulse-response estimation toolkit.

Signal-processing kernels, room-acoustic metrics, synthetic dataset
construction, a small reverse-mode differentiation engine, conditional
adversarial training of an encoder-decoder estimator, and a
spectral-division oracle baseline, tied together by the ``rirlab`` CLI.
"""

from .dsp import (
    BandPartition,
    Signal,
    StftConfig,
    fft_convolve,
    octave_bands,
    spectral_deconvolve,
    stft,
)
from .metrics import (
    EdrMatrix,
    MetricReport,
    drr,
    edr,
    edr_loss,
    ere,
    metric_report,
    mse,
    schroeder_t60,
)
from .profiles import Profile, get_profile
from .synth import (
    DatasetManifest,
    RirParamRanges,
    RirParams,
    build_dataset,
    load_manifest,
    render_example,
    synth_rir,
)
from .wavio import read_wav, write_wav

__version__ = "0.1.0"

__all__ = [
    "BandPartition",
    "DatasetManifest",
    "EdrMatrix",
    "MetricReport",
    "Profile",
    "RirParamRanges",
    "RirParams",
    "Signal",
    "StftConfig",
    "build_dataset",
    "drr",
    "edr",
    "edr_loss",
    "ere",
    "fft_convolve",
    "get_profile",
    "load_manifest",
    "metric_report",
    "mse",
    "octave_bands",
    "read_wav",
    "render_example",
    "schroeder_t60",
    "spectral_deconvolve",
    "stft",
    "synth_rir",
    "write_wav",
]
