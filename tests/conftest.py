"""Shared test helpers: gradient checking, JSON document edits and checkpoint
header edits."""

import json

import numpy as np
import pytest
from hypothesis import strategies as st

from rirlab.autodiff import active_tape


@pytest.fixture(autouse=True)
def clean_tape():
    """Tests that forward through grad-bearing tensors without calling
    backward would otherwise leak records onto the global tape."""
    active_tape().clear()
    yield
    active_tape().clear()


def numeric_grad(f, arr, h=1e-5):
    """Central finite differences of scalar f() wrt arr, perturbing in place."""
    grad = np.zeros_like(arr)
    flat, gflat = arr.reshape(-1), grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = f()
        flat[i] = orig - h
        fm = f()
        flat[i] = orig
        gflat[i] = (fp - fm) / (2.0 * h)
    return grad


def relative_error(analytic, numeric):
    denom = max(np.linalg.norm(analytic), np.linalg.norm(numeric), 1e-12)
    return np.linalg.norm(analytic - numeric) / denom


def json_paths(node, prefix=()):
    """Every key path in a JSON document: dict keys and list indices."""
    if isinstance(node, dict):
        items = node.items()
    elif isinstance(node, list):
        items = enumerate(node)
    else:
        return
    for key, child in items:
        yield prefix + (key,)
        yield from json_paths(child, prefix + (key,))


# Small values only, so that no edited document asks for a large allocation.
SMALL_JSON_VALUES = st.one_of(
    st.integers(-4, 64),
    st.floats(),
    st.text(max_size=4),
    st.none(),
    st.lists(st.integers(-4, 64), max_size=3),
)


def edit_header(path, edit) -> None:
    """Rewrite a checkpoint's JSON header line in place, keeping the blobs."""
    line, blobs = path.read_bytes().split(b"\n", 1)
    header = json.loads(line)
    edit(header)
    path.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blobs)


def _set_block(schedule: str, index: int, key: str, value):
    def edit(header):
        header["config"][schedule][index][key] = value
    return edit


def _set_shape(shape):
    def edit(header):
        header["records"][0]["shape"] = shape
    return edit


# Header edits that load_checkpoint must reject with InvalidConfigError.
MALFORMED_HEADERS = {
    "missing_kind": lambda h: h.pop("kind"),
    "discriminator_kind": lambda h: h.update(kind="discriminator"),
    "unknown_config_key": lambda h: h["config"].update(dropout=0.5),
    "config_not_object": lambda h: h.update(config=[]),
    "record_without_shape": lambda h: h["records"][0].pop("shape"),
    "unknown_dtype": lambda h: h["config"].update(dtype="float16"),
    "negative_seed": lambda h: h.update(seed=-1),
    "negative_input_len": lambda h: h["config"].update(input_len=-1),
    "encoder_kernel_0": _set_block("encoder", 1, "kernel", 0),
    "encoder_kernel_negative": _set_block("encoder", 1, "kernel", -3),
    "encoder_out_channels_0": _set_block("encoder", 0, "out_channels", 0),
    "decoder_kernel_0": _set_block("decoder", 0, "kernel", 0),
    "encoder_padding_negative": _set_block("encoder", 0, "padding", -5),
    "record_shape_negative": _set_shape([-1]),
    "record_shape_float": _set_shape([1.5]),
    "record_shape_nested": _set_shape([[1]]),
    "record_shape_text": _set_shape("ab"),
}
