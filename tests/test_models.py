"""Network construction, shape arithmetic, inference, and checkpoints."""

import dataclasses
import hashlib
import json
import tracemalloc

import numpy as np
import pytest
from conftest import MALFORMED_HEADERS, SMALL_JSON_VALUES, edit_header, json_paths
from hypothesis import given, settings
from hypothesis import strategies as st

from rirlab import autodiff as ad
from rirlab import models
from rirlab.autodiff import Tensor
from rirlab.dsp import Signal
from rirlab.errors import InvalidConfigError, InvalidInputError
from rirlab.models import (
    EstimatorConfig,
    build_discriminator,
    build_estimator,
    estimate,
    estimate_batch,
    full_discriminator_config,
    full_estimator_config,
    load_checkpoint,
    make_condition,
    save_checkpoint,
    toy_discriminator_config,
    toy_estimator_config,
)


class TestEstimator:
    def test_toy_forward_shape_and_determinism(self):
        net = build_estimator(toy_estimator_config(), seed=1)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 8000)))
        with ad.no_grad():
            a = net.forward(x, train=False)
            b = net.forward(Tensor(x.data.copy()), train=False)
        assert a.shape == (2, 1, 256)
        np.testing.assert_array_equal(a.data, b.data)
        # same seed rebuilds the same weights
        again = build_estimator(toy_estimator_config(), seed=1)
        for (_, p1), (_, p2) in zip(net.named_parameters(), again.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_full_forward_shape(self):
        net = build_estimator(full_estimator_config(), seed=2)
        x = Tensor(np.random.default_rng(1).standard_normal((1, 1, 16000)))
        with ad.no_grad():
            out = net.forward(x, train=False)
        assert out.shape == (1, 1, 4096)
        assert np.all(np.isfinite(out.data))

    def test_outputs_inside_tanh_range(self):
        net = build_estimator(toy_estimator_config(), seed=3)
        x = Tensor(np.random.default_rng(2).standard_normal((2, 1, 8000)) * 10)
        with ad.no_grad():
            out = net.forward(x, train=False)
        assert np.all(np.abs(out.data) < 1.0)

    def test_toy_parameter_budget(self):
        net = build_estimator(toy_estimator_config(), seed=0)
        assert net.parameter_count() < 500_000

    def test_invalid_schedule_names_offending_layer(self):
        cfg = dataclasses.replace(
            toy_estimator_config(),
            collapse={"kernel": 4, "stride": 1, "padding": 2, "output_padding": 0},
        )
        with pytest.raises(InvalidConfigError, match="estimator schedule"):
            build_estimator(cfg, seed=0)

    def test_impossible_layer_arithmetic_reported(self):
        base = toy_estimator_config()
        first = {**base.encoder[0], "kernel": 9001, "padding": 0}
        cfg = dataclasses.replace(base, encoder=(first, *base.encoder[1:]))
        with pytest.raises(InvalidConfigError, match="enc0_conv"):
            build_estimator(cfg, seed=0)

    def test_output_padding_not_below_stride_rejected_at_build(self):
        # padding 4 and output_padding 4 keep dec1's output length, but the
        # transposed conv needs output_padding < stride (4).
        base = toy_estimator_config()
        dec1 = {**base.decoder[0], "padding": 4, "output_padding": 4}
        cfg = dataclasses.replace(base, decoder=(dec1, *base.decoder[1:]))
        with pytest.raises(InvalidConfigError, match="dec1_tconv"):
            build_estimator(cfg, seed=0)

    def test_building_full_networks_records_nothing(self):
        build_estimator(full_estimator_config(), seed=0)
        build_discriminator(full_discriminator_config(), seed=1)
        assert len(ad.active_tape()) == 0
        assert ad.is_grad_enabled()

    def test_wrong_input_length_rejected(self):
        net = build_estimator(toy_estimator_config(), seed=0)
        with pytest.raises(InvalidInputError):
            net.forward(Tensor(np.zeros((1, 1, 4000))), train=False)


class TestDiscriminator:
    def test_output_shape(self):
        net = build_discriminator(toy_discriminator_config(), seed=4)
        rng = np.random.default_rng(3)
        rir = Tensor(rng.standard_normal((5, 1, 256)))
        cond = Tensor(rng.standard_normal((5, 1, 256)))
        out = net.forward(rir, cond, train=True)
        assert out.shape == (5, 1)

    def test_full_scale_output_shape(self):
        net = build_discriminator(full_discriminator_config(), seed=4)
        rng = np.random.default_rng(4)
        out = net.forward(
            Tensor(rng.standard_normal((2, 1, 4096))),
            Tensor(rng.standard_normal((2, 1, 4096))),
            train=True,
        )
        assert out.shape == (2, 1)

    def test_batch_permutation_equivariance(self):
        net = build_discriminator(toy_discriminator_config(), seed=5)
        rng = np.random.default_rng(5)
        rir = rng.standard_normal((4, 1, 256))
        cond = rng.standard_normal((4, 1, 256))
        with ad.no_grad():
            out = net.forward(Tensor(rir), Tensor(cond), train=True).data
            perm = net.forward(Tensor(rir[::-1]), Tensor(cond[::-1]), train=True).data
        np.testing.assert_allclose(out[::-1], perm, atol=1e-12)

    def test_gradient_reaches_both_inputs(self):
        net = build_discriminator(toy_discriminator_config(), seed=6)
        rng = np.random.default_rng(6)
        rir = Tensor(rng.standard_normal((3, 1, 256)), requires_grad=True)
        cond = Tensor(rng.standard_normal((3, 1, 256)), requires_grad=True)
        out = net.forward(rir, cond, train=True)
        ad.backward(ad.bce_logit_loss(out, np.ones(out.shape)))
        assert rir.grad is not None and np.any(rir.grad != 0)
        assert cond.grad is not None and np.any(cond.grad != 0)

    def test_condition_helper(self):
        rev = np.arange(8000.0).reshape(1, -1)
        cond = make_condition(rev, condition_len=512, rir_len=256)
        assert cond.shape == (1, 1, 256)
        np.testing.assert_array_equal(cond[0, 0], rev[0, :256])
        padded = make_condition(rev[:, :600], condition_len=512, rir_len=1024)
        assert padded.shape == (1, 1, 1024)
        assert np.all(padded[0, 0, 512:] == 0)

    def test_condition_shorter_than_required_rejected(self):
        with pytest.raises(InvalidInputError):
            make_condition(np.zeros((1, 300)), condition_len=512, rir_len=256)


class TestEstimate:
    def test_eval_determinism_and_length(self):
        net = build_estimator(toy_estimator_config(), seed=7)
        sig = Signal(np.random.default_rng(7).uniform(-0.9, 0.9, 8000), 8000)
        a = estimate(net, sig)
        b = estimate(net, sig)
        assert len(a) == 256
        assert a.sample_rate == 8000
        np.testing.assert_array_equal(a.samples, b.samples)
        assert np.all(np.isfinite(a.samples))

    def test_length_mismatch_rejected(self):
        net = build_estimator(toy_estimator_config(), seed=8)
        with pytest.raises(InvalidInputError):
            estimate(net, Signal(np.zeros(4000), 8000))

    def test_sample_rate_mismatch_rejected(self):
        net = build_estimator(toy_estimator_config(), seed=8)
        with pytest.raises(InvalidInputError):
            estimate(net, Signal(np.zeros(8000), 16000))

    def test_batch_checks_every_input(self):
        net = build_estimator(toy_estimator_config(), seed=8)
        good = Signal(np.zeros(8000), 8000)
        assert estimate_batch(net, []) == []
        for bad in (Signal(np.zeros(4000), 8000), Signal(np.zeros(8000), 16000)):
            with pytest.raises(InvalidInputError):
                estimate_batch(net, [good, good, bad])


def _state_digest(net) -> str:
    """sha256 over every parameter and buffer: name, then float64 bytes."""
    h = hashlib.sha256()
    records = [(name, t.data) for name, t in net.named_parameters()]
    records += [(name, getattr(holder, attr)) for name, holder, attr in net.named_buffers()]
    for name, arr in records:
        h.update(name.encode())
        h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
    return h.hexdigest()[:16]


class TestInitialization:
    def test_seeded_estimator_state_is_pinned(self):
        net = build_estimator(toy_estimator_config(), seed=0)
        assert _state_digest(net) == "db5214a441c24fdb"

    def test_seeded_discriminator_state_is_pinned(self):
        net = build_discriminator(toy_discriminator_config(), seed=1)
        assert [name for name, _ in net.named_parameters()][-2:] == ["head.weight", "head.bias"]
        assert _state_digest(net) == "b3b1fd19a6296b02"


class TestCheckpoints:
    def test_round_trip_bit_identical_forward(self, tmp_path):
        net = build_estimator(toy_estimator_config(), seed=9)
        # perturb running stats so buffers are exercised too
        x = Tensor(np.random.default_rng(8).standard_normal((4, 1, 8000)))
        net.forward(x, train=True)
        path = save_checkpoint(net, tmp_path / "net.ckpt")
        loaded = load_checkpoint(path)
        sig = Signal(np.random.default_rng(9).uniform(-1, 1, 8000), 8000)
        np.testing.assert_array_equal(estimate(net, sig).samples, estimate(loaded, sig).samples)

    def test_save_writes_records_without_copying_them(self, tmp_path):
        net = build_estimator(toy_estimator_config(), seed=3)
        largest = max(arr.nbytes for _, arr in _state(net))
        tracemalloc.start()
        try:
            path = save_checkpoint(net, tmp_path / "e.ckpt")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < largest / 2
        blobs = b"".join(arr.astype("<f8").tobytes() for _, arr in _state(net))
        assert path.read_bytes().split(b"\n", 1)[1] == blobs

    def test_save_failing_part_way_keeps_the_previous_checkpoint(self, tmp_path, monkeypatch):
        net = build_estimator(toy_estimator_config(), seed=0)
        path = save_checkpoint(net, tmp_path / "best.ckpt")
        saved = path.read_bytes()
        other = build_estimator(toy_estimator_config(), seed=1)
        records = models._state_records(other)
        name, last = records[-1]

        class DiskFull:
            """The last record: the header and the other blobs are written
            when its blob fails."""

            shape = last.shape

            def __array__(self, *args, **kwargs):
                raise OSError("No space left on device")

        failing = records[:-1] + [(name, DiskFull())]
        monkeypatch.setattr(models, "_state_records", lambda _: failing)
        with pytest.raises(OSError, match="No space"):
            save_checkpoint(other, path)
        monkeypatch.undo()
        assert path.read_bytes() == saved
        assert _state_digest(load_checkpoint(path)) == _state_digest(net)
        assert [p.name for p in tmp_path.iterdir()] == ["best.ckpt"]

    def test_round_trip_preserves_every_record(self, tmp_path):
        net = build_estimator(toy_estimator_config(), seed=10)
        net.forward(Tensor(np.random.default_rng(10).standard_normal((2, 1, 8000))), train=True)
        path = save_checkpoint(net, tmp_path / "e.ckpt")
        loaded = load_checkpoint(path)
        assert [n for n, _ in _state(net)] == [n for n, _ in _state(loaded)]
        for (_, a1), (_, a2) in zip(_state(net), _state(loaded)):
            np.testing.assert_array_equal(a1, a2)

    @pytest.mark.parametrize("cfg", [toy_estimator_config(), full_estimator_config()],
                             ids=["toy", "full"])
    def test_config_echo_round_trips_through_json(self, cfg):
        assert EstimatorConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_load_draws_no_initialization(self, tmp_path, monkeypatch, dtype):
        net = build_estimator(dataclasses.replace(toy_estimator_config(), dtype=dtype), seed=12)
        net.forward(Tensor(np.random.default_rng(12).standard_normal((2, 1, 8000))), train=True)
        path = save_checkpoint(net, tmp_path / "e.ckpt")

        def no_draw(*args, **kwargs):
            raise AssertionError("load_checkpoint drew a random initialization")

        monkeypatch.setattr(np.random, "default_rng", no_draw)
        loaded = load_checkpoint(path)
        for (n1, a1), (n2, a2) in zip(_state(net), _state(loaded)):
            assert n1 == n2 and a2.dtype == a1.dtype
            np.testing.assert_array_equal(a1, a2)

    def test_discriminator_kind_rejected(self, tmp_path):
        path = save_checkpoint(build_estimator(toy_estimator_config(), seed=1),
                               tmp_path / "e.ckpt")
        edit_header(path, lambda h: h.update(kind="discriminator"))
        with pytest.raises(InvalidConfigError, match="'discriminator'"):
            load_checkpoint(path)

    def test_reject_non_checkpoint_file(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_text('{"format": "something-else"}\n')
        with pytest.raises(InvalidConfigError):
            load_checkpoint(bad)

    @pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
    def test_reject_malformed_header(self, tmp_path, edit):
        path = save_checkpoint(build_estimator(toy_estimator_config(), seed=1),
                               tmp_path / "e.ckpt")
        edit_header(path, edit)
        with pytest.raises(InvalidConfigError):
            load_checkpoint(path)

    def test_legacy_first_conv_keys_still_load(self, tmp_path):
        net = build_estimator(toy_estimator_config(), seed=4)
        path = save_checkpoint(net, tmp_path / "e.ckpt")

        def split_first_conv(header):
            config = header["config"]
            first = config["encoder"].pop(0)
            config.update(
                first_channels=first["out_channels"],
                first_kernel=first["kernel"],
                first_stride=first["stride"],
                first_padding=first["padding"],
            )

        edit_header(path, split_first_conv)
        loaded = load_checkpoint(path)
        assert loaded.config == net.config
        assert _state_digest(loaded) == _state_digest(net)

    def test_legacy_scale_key_still_loads(self, tmp_path):
        net = build_estimator(toy_estimator_config(), seed=4)
        path = save_checkpoint(net, tmp_path / "e.ckpt")
        edit_header(path, lambda h: h["config"].update(scale="toy"))
        loaded = load_checkpoint(path)
        assert loaded.config == net.config
        assert _state_digest(loaded) == _state_digest(net)


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    """(path to overwrite, parsed header, blob bytes) of a toy estimator."""
    root = tmp_path_factory.mktemp("ckpt")
    path = save_checkpoint(build_estimator(toy_estimator_config(), seed=1), root / "e.ckpt")
    line, blobs = path.read_bytes().split(b"\n", 1)
    return root / "edited.ckpt", json.loads(line), blobs


class TestCheckpointHeaderProperty:
    @settings(max_examples=100, database=None, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_edited_header_loads_or_raises_invalid_config(self, toy_checkpoint, data):
        out, header, blobs = toy_checkpoint
        header = json.loads(json.dumps(header))
        *parents, key = data.draw(st.sampled_from(list(json_paths(header))))
        node = header
        for step in parents:
            node = node[step]
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(SMALL_JSON_VALUES)
        out.write_bytes(json.dumps(header).encode("utf-8") + b"\n" + blobs)
        try:
            net = load_checkpoint(out)
        except InvalidConfigError:
            return
        assert net.kind == "estimator"


def _blob_boundaries(header) -> list[int]:
    """Byte offsets, within the blobs, at which each record starts and ends."""
    itemsize = np.dtype(header["config"]["dtype"]).itemsize
    offsets = [0]
    for rec in header["records"]:
        offsets.append(offsets[-1] + itemsize * int(np.prod(rec["shape"])))
    return offsets


class TestCheckpointBlobProperty:
    @settings(max_examples=100, database=None, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_truncated_checkpoint_raises_invalid_config(self, toy_checkpoint, data):
        out, header, blobs = toy_checkpoint
        line = json.dumps(header).encode("utf-8") + b"\n"
        edges = [len(line) + at + step for at in _blob_boundaries(header) for step in (-1, 0, 1)]
        cut = data.draw(
            st.one_of(
                st.integers(0, len(line) + len(blobs) - 1),
                st.sampled_from([at for at in edges if at < len(line) + len(blobs)]),
            )
        )
        out.write_bytes((line + blobs)[:cut])
        with pytest.raises(InvalidConfigError):
            load_checkpoint(out)

    @settings(max_examples=50, database=None, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_flipped_blob_byte_still_loads(self, toy_checkpoint, data):
        out, header, blobs = toy_checkpoint
        line = json.dumps(header).encode("utf-8") + b"\n"
        mutated = bytearray(blobs)
        mutated[data.draw(st.integers(0, len(blobs) - 1))] ^= data.draw(st.integers(1, 255))
        out.write_bytes(line + mutated)
        net = load_checkpoint(out)
        # The blobs are read as they are: saving again gives back the same bytes.
        resaved = save_checkpoint(net, out.with_name("resaved.ckpt"))
        assert resaved.read_bytes() == line + mutated


def _state(net) -> list[tuple[str, np.ndarray]]:
    records = [(name, t.data) for name, t in net.named_parameters()]
    return records + [(name, getattr(holder, attr)) for name, holder, attr in net.named_buffers()]


def _float32(cfg):
    return dataclasses.replace(cfg, dtype="float32")


class TestDtype:
    def test_full_configs_ask_for_float32_and_toy_for_float64(self):
        assert full_estimator_config().dtype == full_discriminator_config().dtype == "float32"
        assert toy_estimator_config().dtype == toy_discriminator_config().dtype == "float64"

    @pytest.mark.parametrize(
        "build, cfg, seed",
        [
            (build_estimator, toy_estimator_config(), 0),
            (build_discriminator, toy_discriminator_config(), 1),
        ],
        ids=["estimator", "discriminator"],
    )
    def test_float32_network_is_the_float64_network_rounded(self, build, cfg, seed):
        net64, net32 = build(cfg, seed=seed), build(_float32(cfg), seed=seed)
        assert net32.dtype == np.float32
        for (n64, a64), (n32, a32) in zip(_state(net64), _state(net32)):
            assert n64 == n32 and a32.dtype == np.float32
            np.testing.assert_array_equal(a32, a64.astype(np.float32))

    def test_inputs_without_gradient_are_cast_at_entry(self):
        net = build_estimator(_float32(toy_estimator_config()), seed=2)
        x = np.random.default_rng(2).uniform(-0.9, 0.9, (2, 1, 8000))
        with ad.no_grad():
            out = net.forward(Tensor(x), train=False)
            ref = net.forward(Tensor(x.astype(np.float32)), train=False)
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(out.data, ref.data)
        disc = build_discriminator(_float32(toy_discriminator_config()), seed=3)
        zeros = Tensor(np.zeros((2, 1, 256)))
        logits = disc.forward(zeros, zeros, train=True)
        assert logits.data.dtype == np.float32

    def test_input_with_gradient_is_not_cast(self):
        net = build_estimator(_float32(toy_estimator_config()), seed=2)
        x = Tensor(np.zeros((2, 1, 8000)), requires_grad=True)
        with pytest.raises(InvalidInputError, match="mix dtypes"):
            net.forward(x, train=True)

    def test_unknown_dtype_rejected(self):
        with pytest.raises(InvalidConfigError, match="dtype"):
            dataclasses.replace(toy_estimator_config(), dtype="float16")
        with pytest.raises(InvalidConfigError, match="dtype"):
            dataclasses.replace(toy_discriminator_config(), dtype="int32")

    def test_float32_checkpoint_round_trips_at_half_the_size(self, tmp_path):
        net64 = build_estimator(toy_estimator_config(), seed=5)
        net32 = build_estimator(_float32(toy_estimator_config()), seed=5)
        net32.forward(Tensor(np.random.default_rng(5).standard_normal((4, 1, 8000))), train=True)
        path64 = save_checkpoint(net64, tmp_path / "e64.ckpt")
        path32 = save_checkpoint(net32, tmp_path / "e32.ckpt")
        assert path32.stat().st_size < 0.55 * path64.stat().st_size
        loaded = load_checkpoint(path32)
        assert loaded.config == net32.config and loaded.dtype == np.float32
        for (n1, a1), (n2, a2) in zip(_state(net32), _state(loaded)):
            assert n1 == n2 and a2.dtype == np.float32
            np.testing.assert_array_equal(a1, a2)
        assert json.loads(path32.read_bytes().split(b"\n", 1)[0])["config"]["dtype"] == "float32"

    def test_legacy_header_without_dtype_loads_as_float64(self, tmp_path):
        net = build_estimator(toy_estimator_config(), seed=6)
        path = save_checkpoint(net, tmp_path / "e.ckpt")
        edit_header(path, lambda h: h["config"].pop("dtype"))
        loaded = load_checkpoint(path)
        assert loaded.config == net.config and loaded.dtype == np.float64
        assert _state_digest(loaded) == _state_digest(net)
