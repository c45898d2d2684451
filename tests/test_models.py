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
    load_checkpoint,
    make_condition,
    save_checkpoint,
)
from rirlab.profiles import get_profile


class TestEstimator:
    def test_toy_forward_shape_and_determinism(self):
        net = build_estimator(get_profile("toy").estimator, seed=1)
        x = Tensor(np.random.default_rng(0).standard_normal((2, 1, 8000)))
        with ad.no_grad():
            a = net.forward(x, train=False)
            b = net.forward(Tensor(x.data.copy()), train=False)
        assert a.shape == (2, 1, 256)
        np.testing.assert_array_equal(a.data, b.data)
        # same seed rebuilds the same weights
        again = build_estimator(get_profile("toy").estimator, seed=1)
        for (_, p1), (_, p2) in zip(net.named_parameters(), again.named_parameters()):
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_full_forward_shape(self):
        net = build_estimator(get_profile("full").estimator, seed=2)
        x = Tensor(np.random.default_rng(1).standard_normal((1, 1, 16000)))
        with ad.no_grad():
            out = net.forward(x, train=False)
        assert out.shape == (1, 1, 4096)
        assert np.all(np.isfinite(out.data))

    def test_outputs_inside_tanh_range(self):
        net = build_estimator(get_profile("toy").estimator, seed=3)
        x = Tensor(np.random.default_rng(2).standard_normal((2, 1, 8000)) * 10)
        with ad.no_grad():
            out = net.forward(x, train=False)
        assert np.all(np.abs(out.data) < 1.0)

    def test_toy_parameter_budget(self):
        net = build_estimator(get_profile("toy").estimator, seed=0)
        assert sum(p.size for p in net.parameters()) < 500_000

    @pytest.mark.parametrize(
        "cfg, n_params",
        [(get_profile("toy").estimator, 69_353), (get_profile("full").estimator, 17_656_129)],
        ids=["toy", "full"],
    )
    def test_only_the_collapse_tconv_has_a_bias(self, cfg, n_params):
        # Each decoder tconv feeds train-mode batchnorm, whose batch mean
        # cancels a bias; out_tconv feeds tanh.
        net = models.Estimator(cfg, seed=0, draw=False)
        names = [name for name, _ in net.named_parameters()]
        tconv_biases = [name for name in names if "tconv.bias" in name]
        assert tconv_biases == ["out_tconv.bias"]
        assert f"dec{len(cfg.decoder)}_tconv.weight" in names
        assert sum(p.size for p in net.parameters()) == n_params

    def test_invalid_schedule_names_offending_layer(self):
        cfg = dataclasses.replace(
            get_profile("toy").estimator,
            collapse={"kernel": 4, "stride": 1, "padding": 2, "output_padding": 0},
        )
        with pytest.raises(InvalidConfigError, match="estimator schedule"):
            build_estimator(cfg, seed=0)

    @pytest.mark.parametrize(
        "schedule, index, edit, message",
        [
            ("encoder", 1, lambda b: {**b, "kernal": 7}, r"encoder\[1\].*unknown \['kernal'\]"),
            ("decoder", 0, lambda b: {**b, "kernel_size": 9},
             r"decoder\[0\].*unknown \['kernel_size'\]"),
            ("decoder", 2, lambda b: {k: v for k, v in b.items() if k != "output_padding"},
             r"decoder\[2\].*missing \['output_padding'\]"),
            ("collapse", None, lambda b: {**b, "out_channels": 3},
             r"collapse\[0\].*unknown \['out_channels'\]"),
        ],
        ids=["encoder_typo", "decoder_unknown", "decoder_missing", "collapse_out_channels"],
    )
    def test_block_keys_must_match_their_schedule(self, schedule, index, edit, message):
        base = get_profile("toy").estimator
        if index is None:
            blocks = edit(getattr(base, schedule))
        else:
            blocks = list(getattr(base, schedule))
            blocks[index] = edit(blocks[index])
            blocks = tuple(blocks)
        with pytest.raises(InvalidConfigError, match=message):
            dataclasses.replace(base, **{schedule: blocks})

    def test_impossible_layer_arithmetic_reported(self):
        base = get_profile("toy").estimator
        first = {**base.encoder[0], "kernel": 9001, "padding": 0}
        cfg = dataclasses.replace(base, encoder=(first, *base.encoder[1:]))
        with pytest.raises(InvalidConfigError, match="enc0_conv"):
            build_estimator(cfg, seed=0)

    def test_output_padding_not_below_stride_rejected_at_build(self):
        # padding 4 and output_padding 4 keep dec1's output length, but the
        # transposed conv needs output_padding < stride (4).
        base = get_profile("toy").estimator
        dec1 = {**base.decoder[0], "padding": 4, "output_padding": 4}
        cfg = dataclasses.replace(base, decoder=(dec1, *base.decoder[1:]))
        with pytest.raises(InvalidConfigError, match="dec1_tconv"):
            build_estimator(cfg, seed=0)

    def test_building_full_networks_records_nothing(self):
        build_estimator(get_profile("full").estimator, seed=0)
        build_discriminator(get_profile("full").discriminator, seed=1)
        assert len(ad.active_tape()) == 0
        assert ad.is_grad_enabled()

    def test_wrong_input_length_rejected(self):
        net = build_estimator(get_profile("toy").estimator, seed=0)
        with pytest.raises(InvalidInputError):
            net.forward(Tensor(np.zeros((1, 1, 4000))), train=False)


class TestDiscriminator:
    def test_output_shape(self):
        net = build_discriminator(get_profile("toy").discriminator, seed=4)
        rng = np.random.default_rng(3)
        rir = Tensor(rng.standard_normal((5, 1, 256)))
        cond = Tensor(rng.standard_normal((5, 1, 256)))
        out = net.forward(rir, cond, train=True)
        assert out.shape == (5, 1)

    def test_full_scale_output_shape(self):
        net = build_discriminator(get_profile("full").discriminator, seed=4)
        rng = np.random.default_rng(4)
        out = net.forward(
            Tensor(rng.standard_normal((2, 1, 4096))),
            Tensor(rng.standard_normal((2, 1, 4096))),
            train=True,
        )
        assert out.shape == (2, 1)

    def test_batch_permutation_equivariance(self):
        net = build_discriminator(get_profile("toy").discriminator, seed=5)
        rng = np.random.default_rng(5)
        rir = rng.standard_normal((4, 1, 256))
        cond = rng.standard_normal((4, 1, 256))
        with ad.no_grad():
            out = net.forward(Tensor(rir), Tensor(cond), train=True).data
            perm = net.forward(Tensor(rir[::-1]), Tensor(cond[::-1]), train=True).data
        np.testing.assert_allclose(out[::-1], perm, atol=1e-12)

    def test_gradient_reaches_both_inputs(self):
        net = build_discriminator(get_profile("toy").discriminator, seed=6)
        rng = np.random.default_rng(6)
        rir = Tensor(rng.standard_normal((3, 1, 256)), requires_grad=True)
        cond = Tensor(rng.standard_normal((3, 1, 256)), requires_grad=True)
        out = net.forward(rir, cond, train=True)
        ad.backward(ad.bce_logit_loss(out, np.ones(out.shape)))
        assert rir.grad is not None and np.any(rir.grad != 0)
        assert cond.grad is not None and np.any(cond.grad != 0)

    @staticmethod
    def _condition_cfg(condition_len, rir_len):
        return dataclasses.replace(
            get_profile("toy").discriminator, rir_len=rir_len, condition_len=condition_len
        )

    def test_condition_helper(self):
        rev = np.arange(8000.0).reshape(1, -1)
        cond = make_condition(rev, self._condition_cfg(256, 256))
        assert cond.shape == (1, 1, 256)
        np.testing.assert_array_equal(cond[0, 0], rev[0, :256])
        padded = make_condition(rev[:, :600], self._condition_cfg(512, 1024))
        assert padded.shape == (1, 1, 1024)
        assert np.all(padded[0, 0, 512:] == 0)

    def test_condition_is_built_in_the_discriminators_dtype(self):
        # The full profile's float32 discriminator takes it uncast; its
        # values are the float64 condition's, rounded.
        cfg = get_profile("full").discriminator
        rev = np.random.default_rng(6).uniform(-0.9, 0.9, (2, cfg.condition_len))
        cond = make_condition(rev, cfg)
        assert cond.dtype == np.float32
        wide = make_condition(rev, dataclasses.replace(cfg, dtype="float64"))
        np.testing.assert_array_equal(cond, wide.astype(np.float32))
        assert wide.dtype == np.float64 and np.array_equal(wide[:, 0, : cfg.condition_len], rev)
        # float32 input, as read_wav returns it, is taken uncast
        narrow = rev.astype(np.float32)
        assert make_condition(narrow, cfg).tobytes() == cond.tobytes()
        wide_narrow = make_condition(narrow, dataclasses.replace(cfg, dtype="float64"))
        assert np.array_equal(wide_narrow[:, 0, : cfg.condition_len], narrow)

    def test_condition_longer_than_the_response_rejected(self):
        # The condition is zero-padded to rir_len, never cropped: a longer
        # condition_len would be written but never take effect.
        with pytest.raises(InvalidConfigError, match="condition_len 512"):
            dataclasses.replace(get_profile("toy").discriminator, condition_len=512)

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda b: {**b, "output_padding": 0}, r"unknown \['output_padding'\]"),
         (lambda b: {k: v for k, v in b.items() if k != "stride"}, r"missing \['stride'\]")],
        ids=["unknown", "missing"],
    )
    def test_block_keys_must_match_the_conv_schedule(self, edit, message):
        blocks = list(get_profile("toy").discriminator_blocks)
        blocks[1] = edit(blocks[1])
        with pytest.raises(InvalidConfigError, match=r"blocks\[1\].*" + message):
            dataclasses.replace(get_profile("toy").discriminator, blocks=tuple(blocks))

    def test_condition_shorter_than_required_rejected(self):
        with pytest.raises(InvalidInputError):
            make_condition(np.zeros((1, 300)), self._condition_cfg(512, 1024))

    @pytest.mark.parametrize(
        "cfg", [get_profile("toy").discriminator, get_profile("full").discriminator]
    )
    def test_no_grad_eval_forward_runs_the_head_on_the_whole_batch(self, cfg, monkeypatch):
        # Every layer, the head included, runs on the whole batch in every
        # mode.
        net = build_discriminator(cfg, seed=5)
        seen = _batches_seen(monkeypatch, net.layers[-1][1])
        rng = np.random.default_rng(5)
        with ad.no_grad():
            out = net.forward(
                Tensor(rng.standard_normal((3, 1, cfg.rir_len))),
                Tensor(rng.standard_normal((3, 1, cfg.rir_len))),
                train=False,
            )
        assert out.shape == (3, 1) and seen == [3]


class TestEstimate:
    def test_eval_determinism_and_length(self):
        net = build_estimator(get_profile("toy").estimator, seed=7)
        sig = Signal(np.random.default_rng(7).uniform(-0.9, 0.9, 8000), 8000)
        a = estimate(net, sig)
        b = estimate(net, sig)
        assert len(a) == 256
        assert a.sample_rate == 8000
        np.testing.assert_array_equal(a.samples, b.samples)
        assert np.all(np.isfinite(a.samples))

    def test_length_mismatch_rejected(self):
        net = build_estimator(get_profile("toy").estimator, seed=8)
        with pytest.raises(InvalidInputError):
            estimate(net, Signal(np.zeros(4000), 8000))

    def test_sample_rate_mismatch_rejected(self):
        net = build_estimator(get_profile("toy").estimator, seed=8)
        with pytest.raises(InvalidInputError):
            estimate(net, Signal(np.zeros(8000), 16000))

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_estimates_are_in_the_networks_dtype(self, dtype):
        # float32 inputs, as read_wav returns them, give the estimates of the
        # float64 inputs of the same values, bit for bit.
        cfg = dataclasses.replace(get_profile("toy").estimator, dtype=dtype)
        net = build_estimator(cfg, seed=9)
        x = np.random.default_rng(9).uniform(-0.9, 0.9, (2, 8000)).astype(np.float32)
        narrow = estimate_batch(net, [Signal(row, 8000) for row in x])
        wide = estimate_batch(net, [Signal(row.astype(np.float64), 8000) for row in x])
        for got, want in zip(narrow, wide):
            assert got.samples.dtype == want.samples.dtype == np.dtype(dtype)
            assert got.samples.tobytes() == want.samples.tobytes()

    def test_batch_checks_every_input(self):
        net = build_estimator(get_profile("toy").estimator, seed=8)
        good = Signal(np.zeros(8000), 8000)
        assert estimate_batch(net, []) == []
        for bad in (Signal(np.zeros(4000), 8000), Signal(np.zeros(8000), 16000)):
            with pytest.raises(InvalidInputError):
                estimate_batch(net, [good, good, bad])


def _batches_seen(monkeypatch, layer) -> list[int]:
    """The batch size of each input the layer runs on from now on."""
    seen, forward = [], layer.forward

    def spy(x, train):
        seen.append(x.shape[0])
        return forward(x, train)

    monkeypatch.setattr(layer, "forward", spy)
    return seen


class TestBatchedForward:
    def test_full_estimate_batch_of_4_peaks_below_16_mib(self):
        # 14.5 MiB: dec4, dec5 and the collapse run their GEMMs one example
        # at a time (ops.activation_bound). dec5's batched GEMM result alone
        # would be 21 MB at batch 4.
        cfg = get_profile("full").estimator
        net = build_estimator(cfg, seed=2)
        rng = np.random.default_rng(2)
        sigs = [Signal(rng.uniform(-0.9, 0.9, cfg.input_len), cfg.sample_rate) for _ in range(4)]
        tracemalloc.start()
        try:
            estimates = estimate_batch(net, sigs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(estimates) == 4 and peak < 16 * 2**20

    @pytest.mark.parametrize(
        "train, grad", [(True, False), (True, True), (False, True), (False, False)]
    )
    def test_train_mode_and_grad_mode_run_every_layer_on_the_batch(self, train, grad, monkeypatch):
        net = build_estimator(get_profile("toy").estimator, seed=4)
        last = _batches_seen(monkeypatch, net.layers[-1][1])
        x = Tensor(np.random.default_rng(4).uniform(-0.9, 0.9, (3, 1, 8000)))
        if grad:
            net.forward(x, train)
            ad.active_tape().clear()
        else:
            with ad.no_grad():
                net.forward(x, train)
        assert last == [3]

    def test_eval_forward_with_grad_on_records_and_reaches_every_parameter(self):
        net = build_estimator(get_profile("toy").estimator, seed=5)
        x = np.random.default_rng(5).uniform(-0.9, 0.9, (3, 1, 8000))
        with ad.no_grad():
            want = net.forward(Tensor(x), train=False)
        out = net.forward(Tensor(x), train=False)
        assert out.requires_grad and out.data.tobytes() == want.data.tobytes()
        ad.backward(ad.mse_loss(out, Tensor(np.zeros(out.shape))))
        for name, param in net.named_parameters():
            assert param.grad is not None and np.any(param.grad), name
        assert len(ad.active_tape()) == 0


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
        # The digest of the records before the decoder tconvs lost their
        # (zero) biases, with those records left out: no value moved.
        net = build_estimator(get_profile("toy").estimator, seed=0)
        assert _state_digest(net) == "116780174d9de31b"

    def test_seeded_discriminator_state_is_pinned(self):
        net = build_discriminator(get_profile("toy").discriminator, seed=1)
        assert [name for name, _ in net.named_parameters()][-2:] == ["head.weight", "head.bias"]
        assert _state_digest(net) == "b3b1fd19a6296b02"

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_blockwise_draw_equals_one_float64_draw_rounded(self, dtype):
        # The toy weights fit in one block; this shape spans three.
        net = models.Network(dataclasses.replace(get_profile("toy").estimator, dtype=dtype), seed=0)
        shape, fan_in = (3, models.DRAW_BLOCK - 5), 40
        rng, ref = np.random.default_rng(6), np.random.default_rng(6)
        got = net._weight(rng, shape, fan_in)
        bound = 1.0 / np.sqrt(fan_in)
        want = ref.uniform(-bound, bound, size=shape).astype(dtype)
        assert got.dtype == np.dtype(dtype) and got.tobytes() == want.tobytes()
        assert rng.bit_generator.state == ref.bit_generator.state

    def test_full_build_peaks_below_1_1x_its_parameter_bytes(self):
        # Drawn as whole float64 arrays and then cast, enc2's 5.2M weights
        # alone added a 42 MB temporary to the 70 MB of parameters.
        tracemalloc.start()
        try:
            net = build_estimator(get_profile("full").estimator, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.1 * sum(t.data.nbytes for t in net.parameters())


class TestCheckpoints:
    def test_round_trip_bit_identical_forward(self, tmp_path):
        net = build_estimator(get_profile("toy").estimator, seed=9)
        # perturb running stats so buffers are exercised too
        x = Tensor(np.random.default_rng(8).standard_normal((4, 1, 8000)))
        net.forward(x, train=True)
        path = save_checkpoint(net, tmp_path / "net.ckpt")
        loaded = load_checkpoint(path)
        sig = Signal(np.random.default_rng(9).uniform(-1, 1, 8000), 8000)
        np.testing.assert_array_equal(estimate(net, sig).samples, estimate(loaded, sig).samples)

    def test_save_writes_records_without_copying_them(self, tmp_path):
        net = build_estimator(get_profile("toy").estimator, seed=3)
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
        net = build_estimator(get_profile("toy").estimator, seed=0)
        path = save_checkpoint(net, tmp_path / "best.ckpt")
        saved = path.read_bytes()
        other = build_estimator(get_profile("toy").estimator, seed=1)
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
        net = build_estimator(get_profile("toy").estimator, seed=10)
        net.forward(Tensor(np.random.default_rng(10).standard_normal((2, 1, 8000))), train=True)
        path = save_checkpoint(net, tmp_path / "e.ckpt")
        loaded = load_checkpoint(path)
        assert [n for n, _ in _state(net)] == [n for n, _ in _state(loaded)]
        for (_, a1), (_, a2) in zip(_state(net), _state(loaded)):
            np.testing.assert_array_equal(a1, a2)

    @pytest.mark.parametrize("cfg", [get_profile("toy").estimator, get_profile("full").estimator],
                             ids=["toy", "full"])
    def test_config_echo_round_trips_through_json(self, cfg):
        assert EstimatorConfig.from_dict(json.loads(json.dumps(dataclasses.asdict(cfg)))) == cfg

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_load_draws_no_initialization(self, tmp_path, monkeypatch, dtype):
        cfg = dataclasses.replace(get_profile("toy").estimator, dtype=dtype)
        net = build_estimator(cfg, seed=12)
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
        path = save_checkpoint(build_estimator(get_profile("toy").estimator, seed=1),
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
        path = save_checkpoint(build_estimator(get_profile("toy").estimator, seed=1),
                               tmp_path / "e.ckpt")
        edit_header(path, edit)
        with pytest.raises(InvalidConfigError):
            load_checkpoint(path)

    @pytest.mark.parametrize("extra", [b"\0", bytes(700)], ids=["one_byte", "700_bytes"])
    def test_bytes_after_the_last_record_rejected(self, tmp_path, extra):
        path = save_checkpoint(build_estimator(get_profile("toy").estimator, seed=1),
                               tmp_path / "e.ckpt")
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(InvalidConfigError, match="bytes after its last record"):
            load_checkpoint(path)

    # The decoder tconvs hold no bias, so dec1_tconv.bias is not a record.
    @pytest.mark.parametrize(
        "name", ["dec1_bn.bias", "enc0_act.bias", "dec1_tconv.bias", "dec9_tconv.bias"]
    )
    def test_unknown_records_rejected(self, tmp_path, name):
        path = save_checkpoint(build_estimator(get_profile("toy").estimator, seed=1),
                               tmp_path / "e.ckpt")
        edit_header(path, lambda h: h["records"].append({"name": name, "shape": [32]}))
        with pytest.raises(InvalidConfigError, match="unknown or repeated"):
            load_checkpoint(path)


@pytest.fixture(scope="module")
def toy_checkpoint(tmp_path_factory):
    """(path to overwrite, parsed header, blob bytes) of a toy estimator."""
    root = tmp_path_factory.mktemp("ckpt")
    path = save_checkpoint(build_estimator(get_profile("toy").estimator, seed=1), root / "e.ckpt")
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
        for name, dtype in (("full", "float32"), ("toy", "float64")):
            profile = get_profile(name)
            assert profile.estimator.dtype == profile.discriminator.dtype == dtype

    @pytest.mark.parametrize(
        "build, cfg, seed",
        [
            (build_estimator, get_profile("toy").estimator, 0),
            (build_discriminator, get_profile("toy").discriminator, 1),
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
        net = build_estimator(_float32(get_profile("toy").estimator), seed=2)
        x = np.random.default_rng(2).uniform(-0.9, 0.9, (2, 1, 8000))
        with ad.no_grad():
            out = net.forward(Tensor(x), train=False)
            ref = net.forward(Tensor(x.astype(np.float32)), train=False)
        assert out.data.dtype == np.float32
        np.testing.assert_array_equal(out.data, ref.data)
        disc = build_discriminator(_float32(get_profile("toy").discriminator), seed=3)
        zeros = Tensor(np.zeros((2, 1, 256)))
        logits = disc.forward(zeros, zeros, train=True)
        assert logits.data.dtype == np.float32

    def test_input_with_gradient_is_not_cast(self):
        net = build_estimator(_float32(get_profile("toy").estimator), seed=2)
        x = Tensor(np.zeros((2, 1, 8000)), requires_grad=True)
        with pytest.raises(InvalidInputError, match="mix dtypes"):
            net.forward(x, train=True)

    def test_unknown_dtype_rejected(self):
        with pytest.raises(InvalidConfigError, match="dtype"):
            dataclasses.replace(get_profile("toy").estimator, dtype="float16")
        with pytest.raises(InvalidConfigError, match="dtype"):
            dataclasses.replace(get_profile("toy").discriminator, dtype="int32")

    def test_float32_checkpoint_round_trips_at_half_the_size(self, tmp_path):
        net64 = build_estimator(get_profile("toy").estimator, seed=5)
        net32 = build_estimator(_float32(get_profile("toy").estimator), seed=5)
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
