"""errors.check_count and errors.check_real are the one integer rule and the
one finite-real rule of every config object and file header: each field they
guard rejects every bad value with an InvalidConfigError that names it.
synth_rir's rir_len, an operation's argument, raises InvalidInputError."""

import dataclasses
import json
from fractions import Fraction

import numpy as np
import pytest

from rirlab.errors import (
    InvalidConfigError,
    InvalidInputError,
    check_arg,
    check_count,
    check_real,
    finite_real,
)
from rirlab.profiles import get_profile
from rirlab.synth import RirParams, load_manifest, synth_rir

NAN, INF = float("nan"), float("inf")
BIG = 10**400  # an int too large for a float


def _bad_counts(low: int) -> list:
    """(label, value) of each bad value of an integer field of at least low."""
    return [("bool", True), ("float", float(low + 1)), ("str", str(low + 1)), ("None", None),
            ("nan", NAN), ("inf", INF), ("-inf", -INF), ("10**400", BIG), ("below", low - 1)]


def _bad_reals(bound: str) -> list:
    """(label, value) of each bad value of a finite real field with the bound."""
    below = {"": [], ">= 0": [("below", -0.5)], "> 0": [("below", -0.5), ("zero", 0.0)]}
    return [("bool", True), ("str", "0.5"), ("None", None), ("nan", NAN), ("inf", INF),
            ("-inf", -INF), ("10**400", BIG), *below[bound]]


RIR_PARAMS = {"t60": 0.1, "drr_target": 5.0, "n_early_reflections": 2, "direct_delay": 2,
              "seed": 0}
RIR_LEN = 64
MANIFEST = {
    "sample_rate": 8000,
    "example_len": 8000,
    "rir_len": 256,
    "seed": 0,
    "entries": [{
        "reverberant": "ex_00000_reverb.wav",
        "rir": "ex_00000_rir.wav",
        "clean": "ex_00000_clean.wav",
        "split": "train",
        "params": RIR_PARAMS,
    }],
}

ENTRY_FIELDS = [("t60", _bad_reals("> 0")), ("drr_target", _bad_reals("")),
                ("n_early_reflections", _bad_counts(0)), ("direct_delay", _bad_counts(0)),
                ("seed", _bad_counts(0))]
FIELDS = {
    "TrainConfig": [
        ("seed", _bad_counts(0)), ("batch_size", _bad_counts(2)), ("epochs", _bad_counts(1)),
        ("lr_every", _bad_counts(1)), ("stft_window", _bad_counts(1)),
        ("stft_hop", _bad_counts(1)), ("lambda_edr", _bad_reals(">= 0")),
        ("lambda_mse", _bad_reals(">= 0")), ("lr_init", _bad_reals("> 0")),
    ],
    "RirParams": ENTRY_FIELDS,
    "header": [("sample_rate", _bad_counts(1)), ("example_len", _bad_counts(1)),
               ("rir_len", _bad_counts(1)), ("seed", _bad_counts(0))],
    # The header's rir_len is 256: the direct impulse must lie inside the response.
    "entry": [*ENTRY_FIELDS, ("direct_delay", [("rir_len", 256)])],
}
CASES = [
    pytest.param(target, field, value, id=f"{target}-{field}-{label}")
    for target, fields in FIELDS.items()
    for field, bad in fields
    for label, value in bad
]


def _name(target: str, field: str, path) -> str:
    """The name that target's error gives the field."""
    return {"header": f"{path}: {field}", "entry": f"entries[0].params.{field}"}.get(target, field)


def _build(target: str, field: str, value, path) -> None:
    """Make the target with the field set to value; a manifest is written to path."""
    if target == "TrainConfig":
        dataclasses.replace(get_profile("toy").train, **{field: value})
    elif target == "RirParams":
        RirParams(**{**RIR_PARAMS, field: value})
    else:
        doc = json.loads(json.dumps(MANIFEST))
        (doc if target == "header" else doc["entries"][0]["params"])[field] = value
        path.write_text(json.dumps(doc))
        load_manifest(path)


@pytest.mark.parametrize("target, field, value", CASES)
def test_bad_value_raises_config_error_naming_the_field(target, field, value, tmp_path):
    path = tmp_path / "manifest.json"
    with pytest.raises(InvalidConfigError) as info:
        _build(target, field, value, path)
    assert f"{_name(target, field, path)} must be " in str(info.value)


def test_the_values_the_table_starts_from_are_good(tmp_path):
    path = tmp_path / "manifest.json"
    path.write_text(json.dumps(MANIFEST))
    params = load_manifest(path).entries[0].params
    assert params == RirParams(**RIR_PARAMS)
    assert len(synth_rir(params, RIR_LEN, 8000)) == RIR_LEN


# rir_len's bound is direct_delay + 1 = 3: the direct impulse must fit.
@pytest.mark.parametrize("value", [value for _, value in _bad_counts(3)],
                         ids=[label for label, _ in _bad_counts(3)])
def test_bad_rir_len_raises_input_error_naming_it(value):
    with pytest.raises(InvalidInputError, match="rir_len must be "):
        synth_rir(RirParams(**RIR_PARAMS), value, 8000)


class TestCheckReal:
    @pytest.mark.parametrize("value", [0, 1, 2.5, 1e308, np.float32(0.5), np.float64(2.0),
                                       Fraction(1, 3), 10**300])
    def test_finite_reals_pass(self, value):
        check_real("x", value, ">= 0")

    @pytest.mark.parametrize("value", [BIG, -BIG, Fraction(BIG, 3)])
    def test_a_number_too_large_for_a_float_is_not_finite(self, value):
        with pytest.raises(InvalidConfigError, match="x must be a finite real number, got"):
            check_real("x", value)

    def test_bounds(self):
        check_real("x", -1.0)
        check_real("x", 0.0, ">= 0")
        with pytest.raises(InvalidConfigError, match="x must be a finite real number > 0"):
            check_real("x", 0.0, "> 0")
        with pytest.raises(InvalidConfigError, match="x must be a finite real number >= 0"):
            check_real("x", -1e-300, ">= 0")


class TestCheckCount:
    @pytest.mark.parametrize("value", [np.int64(3), 2**63, 3.0, True])
    def test_only_a_python_int_in_the_int64_range_passes(self, value):
        with pytest.raises(InvalidConfigError, match=r"x must be an integer in \[0, 2\*\*63\)"):
            check_count("x", value, 0)

    def test_bounds(self):
        check_count("x", 0, 0)
        check_count("x", 2**63 - 1, 0)
        with pytest.raises(InvalidConfigError):
            check_count("x", 0, 1)


class TestCheckArg:
    @pytest.mark.parametrize("value", [0, 2**63 - 1, np.int64(3), np.uint64(2**63 - 1)])
    def test_python_and_numpy_integers_in_the_int64_range_pass(self, value):
        check_arg("x", value, 0)

    @pytest.mark.parametrize("value", [-1, 2**63, np.uint64(2**63), 2.5, 3.0, True,
                                       np.bool_(True), "3", None])
    def test_a_bad_value_reads_as_in_check_count(self, value):
        with pytest.raises(InvalidConfigError) as config:
            check_count("x", value, 0)
        with pytest.raises(InvalidInputError) as arg:
            check_arg("x", value, 0)
        message = f"x must be an integer in [0, 2**63), got {value!r}"
        assert str(arg.value) == str(config.value) == message


@pytest.mark.parametrize("value, ok", [
    (0, True), (-2.5, True), (np.float32(0.5), True), (Fraction(1, 3), True),
    (True, False), (np.bool_(False), False), ("1", False), (None, False), (float("nan"), False),
    (float("-inf"), False), (BIG, False), (1j, False),
])
def test_finite_real(value, ok):
    assert finite_real(value) is ok
