"""Minimal reverse-mode differentiation engine."""

from ..dsp import DftBasis, make_dft_basis
from .ops import (
    BatchNormState,
    batchnorm1d,
    batchnorm_prelu_conv_transpose1d,
    bce_logit_loss,
    concat_channels,
    conv1d,
    conv_transpose1d,
    flatten,
    framed_band_energy,
    leaky_relu,
    linear,
    mse_loss,
    prelu,
    tanh,
)
from .optim import RmspropState, rmsprop_step
from .tensor import Tensor, active_tape, backward, is_grad_enabled, no_grad, record

__all__ = [
    "BatchNormState",
    "DftBasis",
    "Tensor",
    "RmspropState",
    "active_tape",
    "backward",
    "batchnorm1d",
    "batchnorm_prelu_conv_transpose1d",
    "bce_logit_loss",
    "concat_channels",
    "conv1d",
    "conv_transpose1d",
    "flatten",
    "framed_band_energy",
    "is_grad_enabled",
    "leaky_relu",
    "linear",
    "make_dft_basis",
    "mse_loss",
    "no_grad",
    "prelu",
    "record",
    "rmsprop_step",
    "tanh",
]
