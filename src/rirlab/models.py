"""Estimator and discriminator networks assembled from autodiff operators.

The estimator is an encoder-decoder: a conv + LeakyReLU encoder, whose
first long convolution extracts response features from reverberant speech
and whose strided convolutions compress them, then transposed-convolution
blocks (with batchnorm and PReLU, run as one op) that expand back to an
impulse response, ending in a single-channel collapse and tanh. The
discriminator scores a candidate response conditioned on the opening
samples of the reverberant speech, concatenated channel-wise, with a
conv + LeakyReLU stack built by the same code as the encoder.

Layer schedules live in the config objects, not in code, so alternative
architectures are data changes. A schedule is checked at build time by
running its layers on an empty batch, so the operators own all shape
arithmetic. Each config names the dtype, float64 or float32, that its
network holds every parameter and buffer in and computes in; the full
profile's networks are float32 and the toy profile's float64. A checkpoint
holds one estimator, the product of training: its config echo and its
parameters and buffers, which round-trip bit-exactly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .autodiff.tensor import FLOAT_DTYPES
from .dsp import Signal
from .errors import InvalidConfigError, InvalidInputError, ShapeMismatchError
from .fileio import atomic_write

CHECKPOINT_MAGIC = "rirlab-checkpoint"
CHECKPOINT_VERSION = 1
DTYPES = tuple(dtype.name for dtype in FLOAT_DTYPES)  # the config dtype values


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------


class Layer:
    """One named step of a network. By default it holds no parameters or
    buffers. A layer named name in its network records each parameter
    attribute p as name.p."""

    param_names: tuple[str, ...] = ()

    def forward(self, x: Tensor, train: bool) -> Tensor:
        raise NotImplementedError

    def params(self, name: str) -> list[tuple[str, Tensor]]:
        """(record name, tensor) of each parameter."""
        return [(f"{name}.{p}", getattr(self, p)) for p in self.param_names]

    def buffers(self, name: str) -> list[tuple[str, object, str]]:
        """(record name, holder, attribute) of each buffer."""
        return []


class Conv1dLayer(Layer):
    """Takes its initial [out_ch, in_ch, kernel] weight; the bias starts at zero."""

    param_names = ("weight", "bias")

    def __init__(self, weight: np.ndarray, stride: int, padding: int):
        self.stride, self.padding = stride, padding
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros(weight.shape[0]), requires_grad=True)

    def forward(self, x, train):
        return ad.conv1d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class ConvTranspose1dLayer(Layer):
    """Takes its initial [in_ch, out_ch, kernel] weight; the bias starts at zero."""

    param_names = ("weight", "bias")

    def __init__(self, weight: np.ndarray, stride: int, padding: int, output_padding: int = 0):
        self.stride, self.padding, self.output_padding = stride, padding, output_padding
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros(weight.shape[1]), requires_grad=True)

    def forward(self, x, train):
        return ad.conv_transpose1d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            output_padding=self.output_padding,
        )


class BatchNormPReLULayer(Layer):
    """Batchnorm, then PReLU with one learnable slope per channel, run as
    the one op ad.batchnorm_prelu in train and eval mode. It stands for a
    batchnorm layer and the PReLU layer after it: the network names it as
    the batchnorm layer, and its slope keeps the PReLU layer's record name,
    act_name.slope, so checkpoints hold the records of the two layers."""

    def __init__(self, channels: int, act_name: str):
        self.gamma = Tensor(np.ones(channels), requires_grad=True)
        self.beta = Tensor(np.zeros(channels), requires_grad=True)
        self.slope = Tensor(np.full(channels, 0.25), requires_grad=True)
        self.state = ad.BatchNormState.for_channels(channels)
        self.act_name = act_name

    def forward(self, x, train):
        return ad.batchnorm_prelu(x, self.gamma, self.beta, self.slope, self.state, train)

    def params(self, name):
        return [
            (f"{name}.gamma", self.gamma),
            (f"{name}.beta", self.beta),
            (f"{self.act_name}.slope", self.slope),
        ]

    def buffers(self, name):
        return [
            (f"{name}.running_mean", self.state, "running_mean"),
            (f"{name}.running_var", self.state, "running_var"),
        ]


class LeakyReLULayer(Layer):
    def forward(self, x, train):
        return ad.leaky_relu(x)


class TanhLayer(Layer):
    def forward(self, x, train):
        return ad.tanh(x)


class FlattenLinearLayer(Layer):
    """Flattens [B, C, L] to [B, C*L] and maps it to [B, out_features] with
    its initial [C*L, out_features] weight; the bias starts at zero."""

    param_names = ("weight", "bias")

    def __init__(self, weight: np.ndarray):
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros(weight.shape[1]), requires_grad=True)

    def forward(self, x, train):
        return ad.linear(ad.flatten(x), self.weight, self.bias)


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------


def _drop_legacy_keys(doc: dict) -> dict:
    """Copy of a config echo without the unread "scale" key that older
    checkpoints carry."""
    return {key: value for key, value in doc.items() if key != "scale"}


def _check_dtype(dtype: str) -> None:
    if dtype not in DTYPES:
        raise InvalidConfigError(f"dtype must be one of {DTYPES}, got {dtype!r}")


def _check_count(name: str, value, low: int) -> None:
    """value must be an integer (JSON true and false are not) of at least low."""
    if isinstance(value, bool) or not isinstance(value, int) or value < low:
        raise InvalidConfigError(f"{name} must be an integer >= {low}, got {value!r}")


_BLOCK_MINIMUMS = {"out_channels": 1, "kernel": 1, "stride": 1, "padding": 0, "output_padding": 0}


def _check_blocks(name: str, blocks) -> None:
    """Each schedule block is an object whose layer sizes are integers in range."""
    for i, blk in enumerate(blocks):
        if not isinstance(blk, dict):
            raise InvalidConfigError(f"{name}[{i}] must be an object, got {blk!r}")
        for key, value in blk.items():
            if key in _BLOCK_MINIMUMS:
                _check_count(f"{name}[{i}].{key}", value, _BLOCK_MINIMUMS[key])


@dataclass(frozen=True)
class EstimatorConfig:
    """Declarative encoder-decoder schedule. Its sizes are checked when it is
    made, its shape arithmetic when the network is built. encoder[0] is the
    long first convolution over the one-channel input."""

    sample_rate: int
    input_len: int
    rir_len: int
    encoder: tuple[dict, ...]
    decoder: tuple[dict, ...]
    collapse: dict
    dtype: str = "float64"

    def __post_init__(self):
        _check_dtype(self.dtype)
        for name in ("sample_rate", "input_len", "rir_len"):
            _check_count(name, getattr(self, name), 1)
        _check_blocks("encoder", self.encoder)
        _check_blocks("decoder", self.decoder)
        _check_blocks("collapse", (self.collapse,))

    @classmethod
    def from_dict(cls, doc: dict) -> "EstimatorConfig":
        doc = _drop_legacy_keys(doc)
        if "first_channels" in doc:  # older headers keep the first conv apart from the encoder
            first = {
                "out_channels": doc.pop("first_channels"),
                "kernel": doc.pop("first_kernel"),
                "stride": doc.pop("first_stride"),
                "padding": doc.pop("first_padding"),
            }
            doc["encoder"] = [first, *doc["encoder"]]
        doc["encoder"] = tuple(doc["encoder"])
        doc["decoder"] = tuple(doc["decoder"])
        return cls(**doc)


@dataclass(frozen=True)
class DiscriminatorConfig:
    """Conditional conv-stack schedule ending in one logit per example."""

    rir_len: int
    condition_len: int
    blocks: tuple[dict, ...]
    dtype: str = "float64"

    def __post_init__(self):
        _check_dtype(self.dtype)
        _check_count("rir_len", self.rir_len, 1)
        _check_count("condition_len", self.condition_len, 1)
        _check_blocks("blocks", self.blocks)


def full_estimator_config() -> EstimatorConfig:
    return EstimatorConfig(
        sample_rate=16000,
        input_len=16000,
        rir_len=4096,
        encoder=(
            {"out_channels": 512, "kernel": 8193, "stride": 250, "padding": 4096},
            {"out_channels": 1024, "kernel": 5, "stride": 2, "padding": 2},
            {"out_channels": 1024, "kernel": 5, "stride": 2, "padding": 2},
        ),
        decoder=(
            {"out_channels": 512, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 256, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 128, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 64, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 64, "kernel": 5, "stride": 1, "padding": 2, "output_padding": 0},
        ),
        collapse={"kernel": 5, "stride": 1, "padding": 2, "output_padding": 0},
        dtype="float32",
    )


def toy_estimator_config() -> EstimatorConfig:
    return EstimatorConfig(
        sample_rate=8000,
        input_len=8000,
        rir_len=256,
        encoder=(
            {"out_channels": 32, "kernel": 513, "stride": 500, "padding": 256},
            {"out_channels": 64, "kernel": 5, "stride": 2, "padding": 2},
            {"out_channels": 64, "kernel": 5, "stride": 2, "padding": 2},
        ),
        decoder=(
            {"out_channels": 32, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 16, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 8, "kernel": 8, "stride": 4, "padding": 2, "output_padding": 0},
            {"out_channels": 8, "kernel": 5, "stride": 1, "padding": 2, "output_padding": 0},
        ),
        collapse={"kernel": 5, "stride": 1, "padding": 2, "output_padding": 0},
    )


def full_discriminator_config() -> DiscriminatorConfig:
    return DiscriminatorConfig(
        rir_len=4096,
        condition_len=512,
        blocks=(
            {"out_channels": 16, "kernel": 16, "stride": 4, "padding": 6},
            {"out_channels": 32, "kernel": 16, "stride": 4, "padding": 6},
            {"out_channels": 64, "kernel": 16, "stride": 4, "padding": 6},
            {"out_channels": 64, "kernel": 16, "stride": 4, "padding": 6},
        ),
        dtype="float32",
    )


def toy_discriminator_config() -> DiscriminatorConfig:
    return DiscriminatorConfig(
        rir_len=256,
        condition_len=512,
        blocks=(
            {"out_channels": 8, "kernel": 8, "stride": 4, "padding": 2},
            {"out_channels": 16, "kernel": 8, "stride": 4, "padding": 2},
            {"out_channels": 32, "kernel": 8, "stride": 4, "padding": 2},
            {"out_channels": 32, "kernel": 4, "stride": 2, "padding": 1},
        ),
    )


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------


class Network:
    """An ordered stack of named layers with parameter bookkeeping, held and
    run in the config's dtype."""

    kind = "network"

    def __init__(self, config, seed: int):
        self.config = config
        self.seed = int(seed)
        self.dtype = np.dtype(config.dtype)
        self.layers: list[tuple[str, Layer]] = []

    def _weight(self, rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int):
        """An initial weight, drawn uniformly from +-1/sqrt(fan_in) in float64
        so that a float32 network equals the float64 network of the same seed,
        rounded. Without a generator nothing is drawn: the weight is left
        unset, in the network's dtype, for a checkpoint to fill."""
        if rng is None:
            return np.empty(shape, self.dtype)
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape)

    def _add(self, name: str, layer: Layer) -> None:
        """Append a layer, casting its parameters and buffers to the network's
        dtype."""
        for _, tensor in layer.params(name):
            tensor.data = tensor.data.astype(self.dtype, copy=False)
        for _, holder, attr in layer.buffers(name):
            setattr(holder, attr, getattr(holder, attr).astype(self.dtype, copy=False))
        self.layers.append((name, layer))

    def _entry(self, x: Tensor) -> Tensor:
        """x in the network's dtype. Only an input that carries no gradient is
        cast; one that does must already match, or the first op raises."""
        if x.data.dtype == self.dtype or x.requires_grad:
            return x
        return Tensor(x.data.astype(self.dtype))

    def named_parameters(self) -> list[tuple[str, Tensor]]:
        return [record for name, layer in self.layers for record in layer.params(name)]

    def parameters(self) -> list[Tensor]:
        return [t for _, t in self.named_parameters()]

    def named_buffers(self) -> list[tuple[str, object, str]]:
        return [record for name, layer in self.layers for record in layer.buffers(name)]

    def parameter_count(self) -> int:
        return sum(t.size for t in self.parameters())

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.zero_grad()

    def _run(self, x: Tensor, train: bool) -> Tensor:
        for _, layer in self.layers:
            x = layer.forward(x, train)
        return x

    def _conv_stack(self, rng, prefix: str, in_ch: int, blocks) -> int:
        """Append one conv + LeakyReLU pair per block; returns the output channels."""
        for i, blk in enumerate(blocks):
            shape = (blk["out_channels"], in_ch, blk["kernel"])
            weight = self._weight(rng, shape, in_ch * blk["kernel"])
            self._add(f"{prefix}{i}_conv", Conv1dLayer(weight, blk["stride"], blk["padding"]))
            self._add(f"{prefix}{i}_act", LeakyReLULayer())
            in_ch = blk["out_channels"]
        return in_ch

    def _trace(self, channels: int, length: int) -> tuple[int, int]:
        """[channels, length] after the layers built so far, found by running
        them in eval mode on an empty batch, so the operators' own shape
        checks judge the schedule."""
        x = Tensor(np.zeros((0, channels, length), dtype=self.dtype))
        with ad.no_grad():
            for name, layer in self.layers:
                try:
                    x = layer.forward(x, train=False)
                except (InvalidConfigError, ShapeMismatchError) as exc:
                    raise InvalidConfigError(f"layer {name}: {exc}") from exc
        return x.shape[1], x.shape[2]


class Estimator(Network):
    """With draw=False the weights are not drawn from the seed but left unset,
    for load_checkpoint to fill."""

    kind = "estimator"

    def __init__(self, config: EstimatorConfig, seed: int, draw: bool = True):
        super().__init__(config, seed)
        rng = np.random.default_rng(seed) if draw else None
        c = config
        in_ch = self._conv_stack(rng, "enc", 1, c.encoder)
        for i, blk in enumerate(c.decoder, start=1):
            self._add(f"dec{i}_tconv", self._tconv(rng, in_ch, blk))
            self._add(f"dec{i}_bn", BatchNormPReLULayer(blk["out_channels"], f"dec{i}_act"))
            in_ch = blk["out_channels"]
        self._add("out_tconv", self._tconv(rng, in_ch, {**c.collapse, "out_channels": 1}))
        self._add("out_act", TanhLayer())

        channels, length = self._trace(1, c.input_len)
        if (channels, length) != (1, c.rir_len):
            raise InvalidConfigError(
                f"estimator schedule maps [1, {c.input_len}] to [{channels}, {length}], "
                f"expected [1, {c.rir_len}]"
            )

    def _tconv(self, rng, in_ch: int, blk: dict) -> ConvTranspose1dLayer:
        out_ch, kernel = blk["out_channels"], blk["kernel"]
        weight = self._weight(rng, (in_ch, out_ch, kernel), in_ch * kernel)
        return ConvTranspose1dLayer(weight, blk["stride"], blk["padding"], blk["output_padding"])

    def forward(self, x: Tensor, train: bool) -> Tensor:
        if x.data.ndim != 3 or x.shape[1] != 1 or x.shape[2] != self.config.input_len:
            raise InvalidInputError(
                f"estimator expects [B, 1, {self.config.input_len}], got {x.shape}"
            )
        return self._run(self._entry(x), train)


class Discriminator(Network):
    kind = "discriminator"

    def __init__(self, config: DiscriminatorConfig, seed: int):
        super().__init__(config, seed)
        rng = np.random.default_rng(seed)
        self._conv_stack(rng, "blk", 2, config.blocks)  # candidate + condition channels
        channels, length = self._trace(2, config.rir_len)
        features = channels * length
        self._add("head", FlattenLinearLayer(self._weight(rng, (features, 1), features)))

    def forward(self, rir: Tensor, condition: Tensor, train: bool) -> Tensor:
        if rir.shape != condition.shape:
            raise InvalidInputError(
                f"candidate {rir.shape} and condition {condition.shape} must match"
            )
        if rir.shape[2] != self.config.rir_len:
            raise InvalidInputError(
                f"discriminator expects length {self.config.rir_len}, got {rir.shape[2]}"
            )
        return self._run(ad.concat_channels(self._entry(rir), self._entry(condition)), train)


def build_estimator(cfg: EstimatorConfig, seed: int) -> Estimator:
    """Construct and shape-validate the estimator network."""
    return Estimator(cfg, seed)


def build_discriminator(cfg: DiscriminatorConfig, seed: int) -> Discriminator:
    """Construct and shape-validate the conditional discriminator."""
    return Discriminator(cfg, seed)


def make_condition(reverberant: np.ndarray, condition_len: int, rir_len: int) -> np.ndarray:
    """Conditioning input: the opening condition_len samples of each
    reverberant waveform, zero-padded or cropped to rir_len -> [B,1,rir_len]."""
    rev = np.atleast_2d(np.asarray(reverberant, dtype=np.float64))
    if rev.shape[1] < condition_len:
        raise InvalidInputError(
            f"reverberant input of {rev.shape[1]} samples is shorter than the "
            f"{condition_len}-sample condition"
        )
    cond = np.zeros((rev.shape[0], 1, rir_len))
    n = min(condition_len, rir_len)
    cond[:, 0, :n] = rev[:, :n]
    return cond


def estimate_batch(net: Estimator, reverberant: Sequence[Signal]) -> list[Signal]:
    """Eval-mode inference on waveforms of exactly input_len samples, in one
    batched forward. Eval mode normalizes with the running statistics, so
    each estimate depends on its own input only."""
    if not reverberant:
        return []
    for sig in reverberant:
        if len(sig) != net.config.input_len:
            raise InvalidInputError(
                f"input must have {net.config.input_len} samples, got {len(sig)}; "
                "pad or crop upstream"
            )
        if sig.sample_rate != net.config.sample_rate:
            raise InvalidInputError(
                f"input sample rate {sig.sample_rate} != model rate {net.config.sample_rate}"
            )
    batch = np.stack([sig.samples for sig in reverberant])[:, None, :]
    with ad.no_grad():
        out = net.forward(Tensor(batch), train=False)
    return [Signal(row[0], net.config.sample_rate) for row in out.data]


def estimate(net: Estimator, reverberant: Signal) -> Signal:
    """Eval-mode inference on one waveform of exactly input_len samples."""
    return estimate_batch(net, [reverberant])[0]


# ---------------------------------------------------------------------------
# Checkpoints
# ---------------------------------------------------------------------------


def _state_records(net: Network) -> list[tuple[str, np.ndarray]]:
    records = [(name, t.data) for name, t in net.named_parameters()]
    records += [(name, getattr(holder, attr)) for name, holder, attr in net.named_buffers()]
    return records


def save_checkpoint(net: Estimator, path: str | Path) -> Path:
    """Single-file checkpoint: JSON header line (version, kind, seed, config
    echo with its dtype, record names/shapes) followed by raw little-endian
    blobs in the network's dtype. The file is replaced whole: a write that
    fails part-way leaves the previous checkpoint at path."""
    records = _state_records(net)
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "kind": net.kind,
        "seed": net.seed,
        "config": asdict(net.config),
        "records": [{"name": name, "shape": list(arr.shape)} for name, arr in records],
    }
    blob = net.dtype.newbyteorder("<")  # "<f8" or "<f4"
    path = Path(path)
    with atomic_write(path, "wb") as fh:
        fh.write(json.dumps(header).encode("utf-8") + b"\n")
        for _, arr in records:
            fh.write(np.ascontiguousarray(arr, dtype=blob).data)  # no bytes copy
    return path


def load_checkpoint(path: str | Path) -> Estimator:
    """Rebuild the estimator from its embedded config, without drawing an
    initialization, and read each blob straight into its parameter or
    buffer, bit-exactly. A header that does not describe an estimator, or
    whose records are not the estimator's, raises InvalidConfigError before
    any blob is read. A config echo without a dtype (older checkpoints) is
    float64."""
    path = Path(path)
    with open(path, "rb") as fh:
        try:
            header = json.loads(fh.readline().decode("utf-8"))
        except ValueError as exc:  # not UTF-8 or not JSON
            raise InvalidConfigError(f"{path} is not a checkpoint file") from exc
        if not isinstance(header, dict) or header.get("format") != CHECKPOINT_MAGIC:
            raise InvalidConfigError(f"{path} is not a checkpoint file")
        if header.get("version") != CHECKPOINT_VERSION:
            raise InvalidConfigError(f"unsupported checkpoint version {header.get('version')}")
        if header.get("kind") != Estimator.kind:
            raise InvalidConfigError(
                f"{path} holds a {header.get('kind')!r} network, expected an estimator"
            )
        try:
            _check_count("seed", header["seed"], 0)
            net = Estimator(EstimatorConfig.from_dict(header["config"]), header["seed"], draw=False)
            records = [(rec["name"], rec["shape"]) for rec in header["records"]]
        except (AttributeError, KeyError, TypeError) as exc:
            raise InvalidConfigError(f"{path} has an invalid estimator header: {exc!r}") from exc
        state = dict(_state_records(net))
        seen = set()
        for name, shape in records:
            if not isinstance(name, str) or not isinstance(shape, list):
                raise InvalidConfigError(f"{path} has an invalid record {name!r}: shape {shape!r}")
            for size in shape:
                _check_count(f"record {name} shape", size, 0)
            if name not in state or name in seen:
                raise InvalidConfigError(f"checkpoint record {name!r} is unknown or repeated")
            seen.add(name)
            if tuple(shape) != state[name].shape:
                raise InvalidConfigError(
                    f"checkpoint record {name} has shape {tuple(shape)}, "
                    f"expected {state[name].shape}"
                )
        missing = state.keys() - seen
        if missing:
            raise InvalidConfigError(f"checkpoint missing record {min(missing)}")
        for name, _ in records:
            arr = state[name]  # filled in place, in the network's dtype
            if fh.readinto(arr) != arr.nbytes:
                raise InvalidConfigError(f"{path} is truncated at record {name}")
            if sys.byteorder == "big":  # blobs are little-endian
                arr.byteswap(inplace=True)
    return net
