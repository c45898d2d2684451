"""Estimator and discriminator networks assembled from autodiff operators.

The estimator is an encoder-decoder: a conv + LeakyReLU encoder, whose
first long convolution extracts response features from reverberant speech
and whose strided convolutions compress them, then transposed-convolution
blocks with batchnorm and PReLU that expand back to an impulse response,
ending in a single-channel collapse and tanh. Each batchnorm and PReLU runs
as one op with the transposed convolution it feeds. The decoder's
transposed convolutions have no bias, because train-mode batchnorm
subtracts each channel's batch mean and would cancel it; the collapse,
which feeds tanh, keeps its bias. The discriminator scores a candidate
response conditioned on the opening samples of the reverberant speech,
concatenated channel-wise, with a conv + LeakyReLU stack built by
the same code as the encoder.

Layer schedules live in the config objects, not in code, so alternative
architectures are data changes. A schedule is checked at build time by
running its layers on an empty batch, so the operators own all shape
arithmetic. Each config names the dtype, float64 or float32, that its
network holds every parameter and buffer in and computes in; a profile's
discriminator takes the estimator's. The profiles module holds the
schedules of both built-in profiles. A checkpoint holds one estimator,
the product of training: its config echo and its parameters and buffers,
which round-trip bit-exactly, in the one form save_checkpoint writes.
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
from .errors import InvalidConfigError, InvalidInputError, ShapeMismatchError, check_count
from .fileio import atomic_write

CHECKPOINT_MAGIC = "rirlab-checkpoint"
CHECKPOINT_VERSION = 1
DTYPES = tuple(dtype.name for dtype in FLOAT_DTYPES)  # the config dtype values
DRAW_BLOCK = 1 << 16  # float64 values per generator call when drawing a weight


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
    """Takes its initial [out_ch, in_ch, kernel] weight; the bias starts at
    zero, in the weight's dtype."""

    param_names = ("weight", "bias")

    def __init__(self, weight: np.ndarray, stride: int, padding: int):
        self.stride, self.padding = stride, padding
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros(weight.shape[0], weight.dtype), requires_grad=True)

    def forward(self, x, train):
        return ad.conv1d(x, self.weight, self.bias, stride=self.stride, padding=self.padding)


class ConvTranspose1dLayer(Layer):
    """Takes its initial [in_ch, out_ch, kernel] weight; the bias, if any,
    starts at zero, in the weight's dtype. A layer that feeds train-mode
    batchnorm is built without one: the batch mean would cancel it."""

    def __init__(
        self, weight: np.ndarray, stride: int, padding: int, output_padding: int, bias: bool
    ):
        self.stride, self.padding, self.output_padding = stride, padding, output_padding
        self.weight = Tensor(weight, requires_grad=True)
        zeros = np.zeros(weight.shape[1], weight.dtype)
        self.bias = Tensor(zeros, requires_grad=True) if bias else None
        self.param_names = ("weight", "bias") if bias else ("weight",)

    def forward(self, x, train):
        return ad.conv_transpose1d(
            x,
            self.weight,
            self.bias,
            stride=self.stride,
            padding=self.padding,
            output_padding=self.output_padding,
        )


class BatchNormPReLUTconvLayer(Layer):
    """Batchnorm, then PReLU with one learnable slope per channel, then a
    transposed convolution, run as the one op
    ad.batchnorm_prelu_conv_transpose1d in train and eval mode, so that no
    record holds the PReLU output. It stands for decoder block `block`'s
    batchnorm and PReLU layers and for the transposed-convolution layer
    tconv that they feed: the network names it as tconv, whose output it
    returns, and the other two keep their layers' record names,
    block_bn.gamma, block_bn.running_mean and block_act.slope, so
    checkpoints hold the records of the three layers. Its parameters and
    running statistics are held in dtype."""

    def __init__(self, channels: int, block: str, tconv: ConvTranspose1dLayer, dtype: np.dtype):
        self.gamma = Tensor(np.ones(channels, dtype), requires_grad=True)
        self.beta = Tensor(np.zeros(channels, dtype), requires_grad=True)
        self.slope = Tensor(np.full(channels, 0.25, dtype), requires_grad=True)
        self.state = ad.BatchNormState.for_channels(channels, dtype)
        self.block, self.tconv = block, tconv

    def forward(self, x, train):
        t = self.tconv
        return ad.batchnorm_prelu_conv_transpose1d(
            x, self.gamma, self.beta, self.slope, self.state, train,
            t.weight, t.bias, stride=t.stride, padding=t.padding, output_padding=t.output_padding,
        )

    def params(self, name):
        return [
            (f"{self.block}_bn.gamma", self.gamma),
            (f"{self.block}_bn.beta", self.beta),
            (f"{self.block}_act.slope", self.slope),
            *self.tconv.params(name),
        ]

    def buffers(self, name):
        return [
            (f"{self.block}_bn.running_mean", self.state, "running_mean"),
            (f"{self.block}_bn.running_var", self.state, "running_var"),
        ]


class LeakyReLULayer(Layer):
    def forward(self, x, train):
        return ad.leaky_relu(x)


class TanhLayer(Layer):
    def forward(self, x, train):
        return ad.tanh(x)


class FlattenLinearLayer(Layer):
    """Flattens [B, C, L] to [B, C*L] and maps it to [B, out_features] with
    its initial [C*L, out_features] weight; the bias starts at zero, in the
    weight's dtype."""

    param_names = ("weight", "bias")

    def __init__(self, weight: np.ndarray):
        self.weight = Tensor(weight, requires_grad=True)
        self.bias = Tensor(np.zeros(weight.shape[1], weight.dtype), requires_grad=True)

    def forward(self, x, train):
        return ad.linear(ad.flatten(x), self.weight, self.bias)


# ---------------------------------------------------------------------------
# Configs
# ---------------------------------------------------------------------------


def _check_dtype(dtype: str) -> None:
    if dtype not in DTYPES:
        raise InvalidConfigError(f"dtype must be one of {DTYPES}, got {dtype!r}")


_BLOCK_MINIMUMS = {"out_channels": 1, "kernel": 1, "stride": 1, "padding": 0, "output_padding": 0}
_CONV_KEYS = ("out_channels", "kernel", "stride", "padding")  # encoder, discriminator
_TCONV_KEYS = (*_CONV_KEYS, "output_padding")  # decoder
_COLLAPSE_KEYS = ("kernel", "stride", "padding", "output_padding")  # one output channel


def _check_blocks(name: str, blocks, keys: tuple[str, ...]) -> None:
    """Each schedule block is an object with exactly the given keys, whose
    layer sizes are integers in range."""
    expected = set(keys)
    for i, blk in enumerate(blocks):
        if not isinstance(blk, dict):
            raise InvalidConfigError(f"{name}[{i}] must be an object, got {blk!r}")
        if blk.keys() != expected:
            missing = sorted(expected - blk.keys())
            unknown = sorted(blk.keys() - expected, key=str)
            raise InvalidConfigError(
                f"{name}[{i}] must have the keys {', '.join(keys)}: "
                f"missing {missing}, unknown {unknown}"
            )
        for key in keys:
            check_count(f"{name}[{i}].{key}", blk[key], _BLOCK_MINIMUMS[key])


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
    dtype: str

    def __post_init__(self):
        _check_dtype(self.dtype)
        for name in ("sample_rate", "input_len", "rir_len"):
            check_count(name, getattr(self, name), 1)
        _check_blocks("encoder", self.encoder, _CONV_KEYS)
        _check_blocks("decoder", self.decoder, _TCONV_KEYS)
        _check_blocks("collapse", (self.collapse,), _COLLAPSE_KEYS)

    @classmethod
    def from_dict(cls, doc: dict) -> "EstimatorConfig":
        return cls(**{**doc, "encoder": tuple(doc["encoder"]), "decoder": tuple(doc["decoder"])})


@dataclass(frozen=True)
class DiscriminatorConfig:
    """Conditional conv-stack schedule ending in one logit per example. The
    discriminator scores the estimator's output, so its rir_len and dtype
    are the estimator's: Profile.discriminator builds this config from the
    profile's condition_len and blocks and its estimator config. The
    condition is zero-padded to rir_len, so condition_len may not exceed
    it."""

    rir_len: int
    condition_len: int
    blocks: tuple[dict, ...]
    dtype: str

    def __post_init__(self):
        _check_dtype(self.dtype)
        check_count("rir_len", self.rir_len, 1)
        check_count("condition_len", self.condition_len, 1)
        if self.condition_len > self.rir_len:
            raise InvalidConfigError(
                f"condition_len {self.condition_len} is longer than rir_len {self.rir_len}"
            )
        _check_blocks("blocks", self.blocks, _CONV_KEYS)


# ---------------------------------------------------------------------------
# Networks
# ---------------------------------------------------------------------------


class Network:
    """An ordered stack of named layers with parameter bookkeeping, held and
    run in the config's dtype. Every layer is built in that dtype."""

    kind = "network"

    def __init__(self, config, seed: int):
        self.config = config
        self.seed = int(seed)
        self.dtype = np.dtype(config.dtype)
        self.layers: list[tuple[str, Layer]] = []

    def _weight(self, rng: np.random.Generator | None, shape: tuple[int, ...], fan_in: int):
        """An initial weight in the network's dtype, drawn uniformly from
        +-1/sqrt(fan_in) in float64 and rounded, so that a float32 network
        equals the float64 network of the same seed, rounded. It is drawn
        DRAW_BLOCK values at a time straight into the weight, which gives the
        values of one draw of the whole shape without its float64 copy.
        Without a generator nothing is drawn: the weight is left unset, for a
        checkpoint to fill."""
        weight = np.empty(shape, self.dtype)
        if rng is not None:
            bound = 1.0 / np.sqrt(fan_in)
            flat = weight.reshape(-1)
            for start in range(0, flat.size, DRAW_BLOCK):
                block = flat[start : start + DRAW_BLOCK]
                block[...] = rng.uniform(-bound, bound, size=block.size)
        return weight

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

    def zero_grad(self) -> None:
        for t in self.parameters():
            t.zero_grad()

    def _run(self, x: Tensor, train: bool) -> Tensor:
        """The layers in order, each on the whole batch."""
        for _, layer in self.layers:
            x = layer.forward(x, train)
        return x

    def _conv_stack(self, rng, prefix: str, in_ch: int, blocks) -> int:
        """Append one conv + LeakyReLU pair per block; returns the output channels."""
        for i, blk in enumerate(blocks):
            shape = (blk["out_channels"], in_ch, blk["kernel"])
            weight = self._weight(rng, shape, in_ch * blk["kernel"])
            self.layers.append(
                (f"{prefix}{i}_conv", Conv1dLayer(weight, blk["stride"], blk["padding"]))
            )
            self.layers.append((f"{prefix}{i}_act", LeakyReLULayer()))
            in_ch = blk["out_channels"]
        return in_ch

    def _trace(self, channels: int, length: int) -> tuple[int, ...]:
        """One example's output shape after the layers built so far, found by
        running them in eval mode on an empty batch, so the operators' own
        shape checks judge the schedule."""
        x = Tensor(np.zeros((0, channels, length), dtype=self.dtype))
        with ad.no_grad():
            for name, layer in self.layers:
                try:
                    x = layer.forward(x, train=False)
                except (InvalidConfigError, ShapeMismatchError) as exc:
                    raise InvalidConfigError(f"layer {name}: {exc}") from exc
        return x.shape[1:]


class Estimator(Network):
    """With draw=False the weights are not drawn from the seed but left unset,
    for load_checkpoint to fill."""

    kind = "estimator"

    def __init__(self, config: EstimatorConfig, seed: int, draw: bool = True):
        super().__init__(config, seed)
        rng = np.random.default_rng(seed) if draw else None
        c = config
        in_ch = self._conv_stack(rng, "enc", 1, c.encoder)
        # Block i's tconv, dec{i}_tconv or the collapse out_tconv, runs with
        # the batchnorm and PReLU of block i-1 that feed it.
        blocks = (*c.decoder, {**c.collapse, "out_channels": 1})
        for i, blk in enumerate(blocks, start=1):
            last = i == len(blocks)
            layer = tconv = self._tconv(rng, in_ch, blk, bias=last)
            if i > 1:
                layer = BatchNormPReLUTconvLayer(in_ch, f"dec{i - 1}", tconv, self.dtype)
            self.layers.append(("out_tconv" if last else f"dec{i}_tconv", layer))
            in_ch = blk["out_channels"]
        self.layers.append(("out_act", TanhLayer()))

        channels, length = self._trace(1, c.input_len)
        if (channels, length) != (1, c.rir_len):
            raise InvalidConfigError(
                f"estimator schedule maps [1, {c.input_len}] to [{channels}, {length}], "
                f"expected [1, {c.rir_len}]"
            )

    def _tconv(self, rng, in_ch: int, blk: dict, bias: bool) -> ConvTranspose1dLayer:
        out_ch, kernel = blk["out_channels"], blk["kernel"]
        weight = self._weight(rng, (in_ch, out_ch, kernel), in_ch * kernel)
        return ConvTranspose1dLayer(
            weight, blk["stride"], blk["padding"], blk["output_padding"], bias
        )

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
        self.layers.append(("head", FlattenLinearLayer(self._weight(rng, (features, 1), features))))

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


def make_condition(reverberant: np.ndarray, cfg: DiscriminatorConfig) -> np.ndarray:
    """Conditioning input: the opening cfg.condition_len samples of each
    reverberant waveform, zero-padded to cfg.rir_len -> [B,1,rir_len] in
    the discriminator's dtype, so its forwards take it uncast. The config
    holds condition_len <= rir_len."""
    rev = np.atleast_2d(np.asarray(reverberant))
    if rev.shape[1] < cfg.condition_len:
        raise InvalidInputError(
            f"reverberant input of {rev.shape[1]} samples is shorter than the "
            f"{cfg.condition_len}-sample condition"
        )
    cond = np.zeros((rev.shape[0], 1, cfg.rir_len), cfg.dtype)
    cond[:, 0, : cfg.condition_len] = rev[:, : cfg.condition_len]  # rounds as astype does
    return cond


def estimate_batch(net: Estimator, reverberant: Sequence[Signal]) -> list[Signal]:
    """Eval-mode inference on waveforms of exactly input_len samples, in one
    no-grad forward with every layer on the whole batch. The activation-bound
    layers' GEMMs run one example at a time inside their ops
    (ops.activation_bound), so the peak grows with the batch by about one
    example's im2col columns and activations. Eval mode normalizes with the
    running statistics, so each estimate depends on its own input only.
    The inputs enter in the network's dtype (float32 Signals, as read_wav
    returns, enter a float32 network uncast), and each estimate is a
    Signal over its row of the output, in the network's dtype."""
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
    buffer, bit-exactly. It reads only the form save_checkpoint writes: a
    header that does not describe an estimator, whose config echo's keys
    are not EstimatorConfig's fields, or whose records are not exactly the
    estimator's raises InvalidConfigError before any blob is read, and so
    does a file that ends before its last record or goes on after it."""
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
            check_count("seed", header["seed"], 0)
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
                check_count(f"record {name} shape", size, 0)
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
        if fh.read(1):
            raise InvalidConfigError(f"{path} has bytes after its last record")
    return net
