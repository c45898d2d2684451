"""Engine tests: forward oracles, finite-difference gradients, tape
semantics, and the optimizer's closed forms."""

import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from conftest import numeric_grad, relative_error
from rirlab import autodiff as ad
from rirlab import models
from rirlab.autodiff import Tensor, ops
from rirlab.autodiff.ops import BN_EPS, BN_MOMENTUM
from rirlab.autodiff.optim import EPS
from rirlab.dsp import Signal, StftConfig, octave_bands, stft
from rirlab.errors import InvalidConfigError, InvalidInputError, ShapeMismatchError
from rirlab.profiles import get_profile

CFG = StftConfig(16, 8)
PART = octave_bands(256, 16, [16, 32, 64])
BASIS = ad.make_dft_basis(CFG)


class TestConv1d:
    def test_kernel1_identity_channel_map(self):
        x = Tensor(np.random.default_rng(0).standard_normal((2, 3, 7)))
        w = Tensor(np.eye(3)[:, :, None])
        out = ad.conv1d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_hand_unrolled_dot_products(self):
        x = Tensor(np.arange(5.0)[None, None, :])
        w = Tensor(np.array([1.0, -2.0, 3.0])[None, None, :])
        out = ad.conv1d(x, w, stride=1, padding=0)
        assert out.shape == (1, 1, 3)
        expected = [
            0 * 1 + 1 * -2 + 2 * 3,
            1 * 1 + 2 * -2 + 3 * 3,
            2 * 1 + 3 * -2 + 4 * 3,
        ]
        np.testing.assert_allclose(out.data[0, 0], expected)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(1)
        for stride, padding in ((1, 0), (2, 1), (3, 2)):
            x = Tensor(rng.standard_normal((2, 2, 9)), requires_grad=True)
            w = Tensor(rng.standard_normal((3, 2, 3)), requires_grad=True)
            b = Tensor(rng.standard_normal(3), requires_grad=True)
            target = rng.standard_normal(
                ad.conv1d(Tensor(x.data), Tensor(w.data), Tensor(b.data), stride, padding).shape
            )
            loss = ad.mse_loss(ad.conv1d(x, w, b, stride, padding), Tensor(target))
            ad.backward(loss)

            def f():
                out = ad.conv1d(Tensor(x.data), Tensor(w.data), Tensor(b.data), stride, padding)
                return float(np.mean((out.data - target) ** 2))

            for t in (x, w, b):
                assert relative_error(t.grad, numeric_grad(f, t.data)) < 1e-6

    def test_shape_errors(self):
        x = Tensor(np.zeros((1, 2, 5)))
        with pytest.raises(ShapeMismatchError):
            ad.conv1d(x, Tensor(np.zeros((3, 4, 2))))
        with pytest.raises(ShapeMismatchError):
            ad.conv1d(x, Tensor(np.zeros((3, 2, 9))))

    def test_long_strided_kernel_against_loop_and_finite_differences(self):
        # The first estimator layer's shape class: one input channel, a kernel
        # much longer than the stride, padding on both sides.
        rng = np.random.default_rng(21)
        cin, k, stride, padding = 1, 33, 5, 16
        x = Tensor(rng.standard_normal((2, cin, 40)), requires_grad=True)
        w = Tensor(rng.standard_normal((3, cin, k)), requires_grad=True)
        b = Tensor(rng.standard_normal(3), requires_grad=True)
        out = ad.conv1d(x, w, b, stride, padding)

        x_pad = np.pad(x.data, ((0, 0), (0, 0), (padding, padding)))
        lout = (x_pad.shape[2] - k) // stride + 1
        expected = np.zeros((2, 3, lout))
        for bi in range(2):
            for o in range(3):
                for t in range(lout):
                    window = x_pad[bi, :, t * stride : t * stride + k]
                    expected[bi, o, t] = np.sum(window * w.data[o]) + b.data[o]
        assert out.shape == expected.shape
        np.testing.assert_allclose(out.data, expected, rtol=1e-12, atol=1e-12)

        target = rng.standard_normal(out.shape)
        ad.backward(ad.mse_loss(out, Tensor(target)))

        def f():
            o = ad.conv1d(Tensor(x.data), Tensor(w.data), Tensor(b.data), stride, padding)
            return float(np.mean((o.data - target) ** 2))

        assert relative_error(w.grad, numeric_grad(f, w.data)) < 1e-6


class TestConvTranspose1d:
    def test_kernel1_stride1_identity(self):
        x = Tensor(np.random.default_rng(2).standard_normal((2, 3, 6)))
        w = Tensor(np.eye(3)[:, :, None])
        out = ad.conv_transpose1d(x, w)
        np.testing.assert_array_equal(out.data, x.data)

    def test_adjoint_identity_with_conv1d(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            B = int(rng.integers(1, 3))
            cin = int(rng.integers(1, 4))
            cout = int(rng.integers(1, 4))
            L = int(rng.integers(6, 14))
            K = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 4))
            padding = int(rng.integers(0, K))
            if L + 2 * padding < K:
                continue
            x = Tensor(rng.standard_normal((B, cin, L)))
            w = Tensor(rng.standard_normal((cout, cin, K)))
            y_fwd = ad.conv1d(x, w, stride=stride, padding=padding)
            y = Tensor(rng.standard_normal(y_fwd.shape))
            out_pad = L - ((y_fwd.shape[2] - 1) * stride - 2 * padding + K)
            back = ad.conv_transpose1d(
                y, w, stride=stride, padding=padding, output_padding=out_pad
            )
            lhs = float(np.sum(y_fwd.data * y.data))
            rhs = float(np.sum(x.data * back.data))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), 1.0)

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(4)
        for stride, padding, out_pad in ((1, 0, 0), (2, 1, 1), (3, 2, 0)):
            x = Tensor(rng.standard_normal((2, 3, 5)), requires_grad=True)
            w = Tensor(rng.standard_normal((3, 2, 4)), requires_grad=True)
            b = Tensor(rng.standard_normal(2), requires_grad=True)
            ref = ad.conv_transpose1d(
                Tensor(x.data), Tensor(w.data), Tensor(b.data), stride, padding, out_pad
            )
            target = rng.standard_normal(ref.shape)
            loss = ad.mse_loss(
                ad.conv_transpose1d(x, w, b, stride, padding, out_pad), Tensor(target)
            )
            ad.backward(loss)

            def f():
                out = ad.conv_transpose1d(
                    Tensor(x.data), Tensor(w.data), Tensor(b.data), stride, padding, out_pad
                )
                return float(np.mean((out.data - target) ** 2))

            for t in (x, w, b):
                assert relative_error(t.grad, numeric_grad(f, t.data)) < 1e-6

    def test_output_padding_must_be_less_than_stride(self):
        x = Tensor(np.zeros((1, 2, 5)))
        w = Tensor(np.zeros((2, 2, 3)))
        with pytest.raises(InvalidConfigError):
            ad.conv_transpose1d(x, w, stride=2, output_padding=2)


# Each bad stride, padding or output_padding: below its minimum, or not a
# Python int. Each is rejected before any work; padding=-1 would otherwise
# lengthen conv_transpose1d's output.
BAD_CONV_ARGS = [
    {"stride": 0},
    {"stride": 1.5},
    {"stride": True},
    {"padding": -1},
    {"padding": 1.0},
]
BAD_TCONV_ARGS = BAD_CONV_ARGS + [{"output_padding": -1}, {"stride": 2, "output_padding": 1.0}]


@pytest.mark.parametrize(
    "op, args",
    [*(("conv1d", args) for args in BAD_CONV_ARGS),
     *(("conv_transpose1d", args) for args in BAD_TCONV_ARGS)],
    ids=str,
)
def test_bad_conv_arguments_raise_config_error(op, args):
    x = Tensor(np.zeros((2, 3, 9)))
    w = Tensor(np.zeros((3, 3, 3)))
    with pytest.raises(InvalidConfigError):
        getattr(ad, op)(x, w, **args)


class TestBatchNorm:
    def test_normalized_input_passes_through(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((8, 3, 50))
        x = (x - x.mean(axis=(0, 2), keepdims=True)) / x.std(axis=(0, 2), keepdims=True)
        out = ad.batchnorm1d(
            Tensor(x), Tensor(np.ones(3)), Tensor(np.zeros(3)),
            ad.BatchNormState.for_channels(3), train=True,
        )
        np.testing.assert_allclose(out.data, x, atol=1e-4)

    def test_train_mode_output_statistics(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((4, 2, 30)) * 5 + 3
        out = ad.batchnorm1d(
            Tensor(x), Tensor(np.ones(2)), Tensor(np.zeros(2)),
            ad.BatchNormState.for_channels(2), train=True,
        )
        assert np.max(np.abs(out.data.mean(axis=(0, 2)))) < 1e-10
        assert np.max(np.abs(out.data.var(axis=(0, 2)) - 1.0)) < 1e-3

    def test_eval_mode_uses_running_stats(self):
        state = ad.BatchNormState(running_mean=np.array([2.0]), running_var=np.array([4.0]))
        x = Tensor(np.full((1, 1, 4), 6.0))
        out = ad.batchnorm1d(
            x, Tensor(np.ones(1)), Tensor(np.zeros(1)), state, train=False
        )
        np.testing.assert_allclose(out.data, (6.0 - 2.0) / np.sqrt(4.0 + 1e-5), rtol=1e-6)

    def test_running_stats_update(self):
        state = ad.BatchNormState.for_channels(1)
        x = np.full((2, 1, 5), 10.0)
        ad.batchnorm1d(
            Tensor(x), Tensor(np.ones(1)), Tensor(np.zeros(1)), state, train=True
        )
        assert state.running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 10.0)

    def test_batch_of_one_rejected_in_train_mode(self):
        with pytest.raises(InvalidInputError):
            ad.batchnorm1d(
                Tensor(np.zeros((1, 2, 5))), Tensor(np.ones(2)), Tensor(np.zeros(2)),
                ad.BatchNormState.for_channels(2), train=True,
            )

    def test_gradients_vs_finite_differences(self):
        rng = np.random.default_rng(7)
        x = Tensor(rng.standard_normal((3, 2, 6)), requires_grad=True)
        gamma = Tensor(rng.uniform(0.5, 1.5, 2), requires_grad=True)
        beta = Tensor(rng.standard_normal(2), requires_grad=True)
        target = rng.standard_normal((3, 2, 6))
        out = ad.batchnorm1d(
            x, gamma, beta, ad.BatchNormState.for_channels(2), train=True
        )
        ad.backward(ad.mse_loss(out, Tensor(target)))

        def f():
            o = ad.batchnorm1d(
                Tensor(x.data), Tensor(gamma.data), Tensor(beta.data),
                ad.BatchNormState.for_channels(2), train=True,
            )
            return float(np.mean((o.data - target) ** 2))

        for t in (x, gamma, beta):
            assert relative_error(t.grad, numeric_grad(f, t.data)) < 1e-4


class TestActivations:
    def test_tanh_values_and_gradient_at_zero(self):
        x = Tensor(np.zeros((1, 1, 3)), requires_grad=True)
        out = ad.tanh(x)
        np.testing.assert_array_equal(out.data, 0.0)
        ad.backward(out.sum())
        np.testing.assert_array_equal(x.grad, np.ones((1, 1, 3)))

    def test_leaky_relu_negative_slope(self):
        out = ad.leaky_relu(Tensor(np.array([[[-1.0, 2.0]]])))
        np.testing.assert_allclose(out.data, [[[-0.2, 2.0]]])

    def test_prelu_forward(self):
        x = Tensor(np.array([[[-2.0, 3.0], [-4.0, 5.0]]]))
        slope = Tensor(np.array([0.1, 0.5]))
        out = ad.prelu(x, slope)
        np.testing.assert_allclose(out.data, [[[-0.2, 3.0], [-2.0, 5.0]]])

    def test_prelu_slope_gradient(self):
        rng = np.random.default_rng(8)
        data = rng.standard_normal((2, 3, 8))
        data[np.abs(data) < 0.05] = 0.1  # keep clear of the kink
        x = Tensor(data, requires_grad=True)
        slope = Tensor(rng.uniform(0.1, 0.4, 3), requires_grad=True)
        target = rng.standard_normal((2, 3, 8))
        ad.backward(ad.mse_loss(ad.prelu(x, slope), Tensor(target)))

        def f():
            o = ad.prelu(Tensor(x.data), Tensor(slope.data))
            return float(np.mean((o.data - target) ** 2))

        assert relative_error(slope.grad, numeric_grad(f, slope.data)) < 1e-6
        assert relative_error(x.grad, numeric_grad(f, x.data)) < 1e-6


ACTIVATION_SPECIALS = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e-45, -1e-45, 1e-39, -1e-39,
                       5e-324, -5e-324, 3.0, -2.0]


def _bits(a):
    return a.view({np.float32: np.uint32, np.float64: np.uint64}[a.dtype.type])


def _activation_inputs(dtype, shape=(3, 4, 40)):
    """x and an upstream gradient holding +-0, +-inf, NaN and subnormals
    (the float64 ones flush to zero in float32)."""
    rng = np.random.default_rng(17)
    x = rng.standard_normal(shape).astype(dtype)
    g = rng.standard_normal(shape).astype(dtype)
    specials = np.array(ACTIVATION_SPECIALS, dtype=dtype)
    x.reshape(-1)[: specials.size] = specials
    g.reshape(-1)[-specials.size :] = specials
    g.reshape(-1)[: specials.size] = specials[::-1]
    return x, g


def _closure(out):
    """The backward closure that the op just recorded for out."""
    node_id, _, backward_fn = ad.active_tape()[-1]
    assert node_id == out.node_id
    return backward_fn


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestActivationBits:
    """The activations give the bits of np.where selecting between x (or g)
    and slope times it, without calling np.where. The bit comparisons are
    reference checks, which the np.where kernels passed as well."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("slope", [0.25, 1.7, -0.3, 0.0])
    def test_prelu_matches_where_reference(self, dtype, slope):
        x, g = _activation_inputs(dtype)
        slopes = np.array([slope, 0.25, slope, -0.3], dtype=dtype)
        xt, st = Tensor(x, requires_grad=True), Tensor(slopes, requires_grad=True)
        out = ad.prelu(xt, st)
        gx, gs = _closure(out)(g)
        s = slopes[None, :, None]
        mask = x > 0
        for got, want in (
            (out.data, np.where(mask, x, s * x)),
            (gx, np.where(mask, g, s * g)),
            (gs, (g * x * (~mask)).sum(axis=(0, 2))),
        ):
            assert got.dtype == dtype
            np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_leaky_relu_matches_where_reference(self, dtype):
        # The kernel's other slopes are covered through prelu above.
        x, g = _activation_inputs(dtype)
        xt = Tensor(x, requires_grad=True)
        out = ad.leaky_relu(xt)
        (gx,) = _closure(out)(g)
        s = 0.2
        mask = x > 0
        for got, want in ((out.data, np.where(mask, x, s * x)), (gx, np.where(mask, g, s * g))):
            assert got.dtype == dtype
            np.testing.assert_array_equal(_bits(got), _bits(want))

    def test_activations_do_not_call_where(self, monkeypatch):
        x, g = _activation_inputs(np.float32, shape=(2, 3, 8))
        slope = Tensor(np.full(3, 0.25, dtype=np.float32), requires_grad=True)

        def where(*args, **kwargs):
            raise AssertionError("np.where in an activation kernel")

        monkeypatch.setattr(np, "where", where)
        for op in (ad.leaky_relu, lambda t: ad.prelu(t, slope)):
            out = op(Tensor(x, requires_grad=True))
            _closure(out)(g)


def fft_edr(samples, cfg, partition):
    """Decay relief through dsp.stft's rfft, independent of the DFT-basis
    kernel: per-band |STFT|^2, reverse-cumulated over frames."""
    power = np.abs(stft(Signal(samples, partition.sample_rate), cfg)) ** 2  # [frames, bins]
    band = partition.band_matrix() @ power.T
    return np.flip(np.cumsum(np.flip(band, axis=1), axis=1), axis=1)


def _analysis_setup(name):
    """(stft config, partition, basis, response length) of a profile's training
    run; "small" is this file's 16-sample setup."""
    if name == "small":
        return CFG, PART, BASIS, 120
    profile = get_profile(name)
    basis, part = profile.analysis()
    return basis.cfg, part, basis, profile.estimator.rir_len


def _framed_band_energy_before_band_power(x, basis, partition):
    """framed_band_energy as it was before dsp.band_power became its kernel:
    it held re and im from forward to backward. Returns (output, gradient
    function of the upstream gradient), a bit-level reference for both."""
    B, _, L = x.shape
    W, hop = basis.cfg.window_size, basis.cfg.hop
    T = (L - W) // hop + 1
    dtype = x.dtype
    real, imag = basis.real.astype(dtype, copy=False), basis.imag.astype(dtype, copy=False)
    frames = sliding_window_view(x[:, 0, :], W, axis=1)[:, ::hop, :][:, :T]  # [B,T,W]
    re = frames @ real.T  # [B,T,bins]
    im = frames @ imag.T
    power = re**2 + im**2
    band_m = partition.band_matrix().astype(dtype, copy=False)  # [bands x bins]
    band = np.swapaxes(power @ band_m.T, 1, 2)  # [B,bands,T]
    out = np.flip(np.cumsum(np.flip(band, axis=2), axis=2), axis=2)

    def grad(g):
        gband = np.swapaxes(np.cumsum(g, axis=2), 1, 2)  # [B,T,bands]
        gpower = gband @ band_m
        gframes = (2.0 * re * gpower) @ real + (2.0 * im * gpower) @ imag
        gx = np.zeros((B, L), dtype=dtype)
        for t in range(T):
            gx[:, t * hop : t * hop + W] += gframes[:, t]
        return gx[:, None, :]

    return out, grad


class TestFramedBandEnergy:
    def test_matches_fft_edr(self):
        # float64 within 1e-8 absolute of the rfft reference; float32 within
        # 5e-5 relative per element (about 400 float32 epsilons; the worst
        # seen on these inputs is 7.2e-6, on the full setup).
        for setup in ("small", "toy", "full"):
            cfg, part, basis, length = _analysis_setup(setup)
            rng = np.random.default_rng(9)
            for _ in range(20):
                x = rng.uniform(-1, 1, length)
                ref = fft_edr(x, cfg, part)
                out = ad.framed_band_energy(Tensor(x[None, None, :]), basis, part).data[0]
                assert np.max(np.abs(out - ref)) < 1e-8, setup
                out32 = ad.framed_band_energy(
                    Tensor(x.astype(np.float32)[None, None, :]), basis, part
                ).data[0]
                assert out32.dtype == np.float32
                assert np.max(np.abs(out32 - ref) / ref) < 5e-5, setup

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 4])
    @pytest.mark.parametrize("setup", ["toy", "full"])
    def test_bits_equal_the_reference_before_band_power(self, setup, batch, dtype):
        _, part, basis, length = _analysis_setup(setup)
        rng = np.random.default_rng(batch)
        x = rng.uniform(-0.9, 0.9, (batch, 1, length)).astype(dtype)
        ref_out, ref_grad = _framed_band_energy_before_band_power(x, basis, part)
        g = rng.standard_normal(ref_out.shape).astype(dtype)
        out = ad.framed_band_energy(Tensor(x, requires_grad=True), basis, part)
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(out.data, ref_out)
        (gx,) = _closure(out)(g)
        assert gx.dtype == dtype
        np.testing.assert_array_equal(gx, ref_grad(g))

    def test_zero_input_zero_output_and_gradient(self):
        x = Tensor(np.zeros((1, 1, 64)), requires_grad=True)
        out = ad.framed_band_energy(x, BASIS, PART)
        assert np.all(out.data == 0)
        ad.backward(out.sum())
        np.testing.assert_array_equal(x.grad, 0.0)

    def test_gradient_vs_finite_differences(self):
        rng = np.random.default_rng(10)
        x = Tensor(rng.uniform(-1, 1, (2, 1, 48)), requires_grad=True)
        target = rng.uniform(0, 1, (2, PART.n_bands, (48 - 16) // 8 + 1))
        ad.backward(ad.mse_loss(ad.framed_band_energy(x, BASIS, PART), Tensor(target)))

        def f():
            o = ad.framed_band_energy(Tensor(x.data), BASIS, PART)
            return float(np.mean((o.data - target) ** 2))

        assert relative_error(x.grad, numeric_grad(f, x.data)) < 1e-6

    def test_mismatched_partition_rejected(self):
        other = octave_bands(256, 32, [16, 32, 64])
        with pytest.raises(InvalidConfigError):
            ad.framed_band_energy(Tensor(np.zeros((1, 1, 64))), BASIS, other)

    def test_input_shorter_than_window_rejected(self):
        with pytest.raises(InvalidInputError):
            ad.framed_band_energy(Tensor(np.zeros((1, 1, 8))), BASIS, PART)


class TestLosses:
    def test_mse_identical_is_zero(self):
        x = Tensor(np.arange(6.0).reshape(2, 3))
        assert ad.mse_loss(x, Tensor(x.data.copy())).item() == 0.0

    def test_bce_logit_zero_target_one(self):
        loss = ad.bce_logit_loss(Tensor(np.zeros((4, 1))), np.ones((4, 1)))
        assert loss.item() == pytest.approx(np.log(2.0), rel=1e-12)

    def test_bce_stable_at_extreme_logits(self):
        loss = ad.bce_logit_loss(Tensor(np.array([[1000.0], [-1000.0]])), np.array([[1.0], [0.0]]))
        assert np.isfinite(loss.item())
        assert loss.item() == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bce_gradient_at_extreme_logits_warns_nothing(self, dtype):
        # exp(-z) overflows below z of about -88 in float32 and -709 in
        # float64; the sigmoid's limit there, 0, is the right value.
        z = Tensor(np.array([[-1000.0], [-100.0], [0.0], [100.0]], dtype=dtype), requires_grad=True)
        y = np.array([[1.0], [1.0], [1.0], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            ad.backward(ad.bce_logit_loss(z, y))
        assert z.grad.dtype == dtype
        np.testing.assert_array_equal(z.grad, np.array([[-1.0], [-1.0], [-0.5], [1.0]]) / 4)

    def test_bce_targets_validated(self):
        with pytest.raises(InvalidInputError):
            ad.bce_logit_loss(Tensor(np.zeros((2, 1))), np.full((2, 1), 0.5))

    def test_loss_gradients(self):
        rng = np.random.default_rng(11)
        a = Tensor(rng.standard_normal((3, 4)), requires_grad=True)
        b = rng.standard_normal((3, 4))
        ad.backward(ad.mse_loss(a, Tensor(b)))
        np.testing.assert_allclose(a.grad, 2 * (a.data - b) / 12, rtol=1e-12)

        z = Tensor(rng.standard_normal((5, 1)), requires_grad=True)
        y = (rng.uniform(0, 1, (5, 1)) > 0.5).astype(float)
        ad.backward(ad.bce_logit_loss(z, y))

        def f():
            zz = z.data
            return float(np.mean(np.maximum(zz, 0) - zz * y + np.log1p(np.exp(-np.abs(zz)))))

        assert relative_error(z.grad, numeric_grad(f, z.data)) < 1e-6


class TestBackward:
    def test_sum_gives_ones(self):
        x = Tensor(np.random.default_rng(12).standard_normal((3, 4)), requires_grad=True)
        ad.backward(x.sum())
        np.testing.assert_array_equal(x.grad, np.ones((3, 4)))

    def test_fanout_accumulates(self):
        x = Tensor(np.ones(4), requires_grad=True)
        y = x + x
        ad.backward(y.sum())
        np.testing.assert_array_equal(x.grad, np.full(4, 2.0))

    def test_three_layer_composite_finite_differences(self):
        rng = np.random.default_rng(13)
        x = Tensor(rng.standard_normal((2, 1, 16)), requires_grad=True)
        w1 = Tensor(rng.standard_normal((4, 1, 3)) * 0.5, requires_grad=True)
        w2 = Tensor(rng.standard_normal((4, 2, 3)) * 0.5, requires_grad=True)
        w3 = Tensor(rng.standard_normal((1, 2, 3)) * 0.5, requires_grad=True)
        target = rng.standard_normal((2, 1, 16))

        def network(xt, a, b, c):
            h = ad.tanh(ad.conv1d(xt, a, stride=1, padding=1))
            h = ad.tanh(ad.conv_transpose1d(h, b, stride=1, padding=1))
            return ad.conv1d(h, c, stride=1, padding=1)

        out = network(x, w1, w2, w3)
        ad.backward(ad.mse_loss(out, Tensor(target)))

        def f():
            o = network(Tensor(x.data), Tensor(w1.data), Tensor(w2.data), Tensor(w3.data))
            return float(np.mean((o.data - target) ** 2))

        for t in (x, w1, w2, w3):
            assert relative_error(t.grad, numeric_grad(f, t.data)) < 1e-3

    def test_backward_twice_is_an_error(self):
        x = Tensor(np.ones(3), requires_grad=True)
        loss = x.sum()
        ad.backward(loss)
        with pytest.raises(InvalidInputError):
            ad.backward(loss)

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x + x
        with pytest.raises(InvalidInputError):
            ad.backward(y)
        ad.active_tape().clear()

    def test_no_grad_suspends_recording(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ad.no_grad():
            y = x + x
        assert not y.requires_grad
        assert len(ad.active_tape()) == 0

    def test_detached_input_blocks_gradient(self):
        x = Tensor(np.ones(3), requires_grad=True)
        y = x.detach() + x
        ad.backward(y.sum())
        np.testing.assert_array_equal(x.grad, np.ones(3))

    def test_backward_keeps_records_of_other_losses(self):
        rng = np.random.default_rng(14)
        w1 = Tensor(rng.standard_normal((2, 1, 3)), requires_grad=True)
        w2 = Tensor(rng.standard_normal((2, 1, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 1, 8)))
        target = rng.standard_normal((2, 2, 8))

        def loss_of(w):
            return ad.mse_loss(ad.tanh(ad.conv1d(x, w, padding=1)), Tensor(target))

        loss1, loss2 = loss_of(w1), loss_of(w2)
        n2 = len(ad.active_tape()) // 2
        ad.backward(loss1)
        assert len(ad.active_tape()) == n2
        assert w2.grad is None
        ad.backward(loss2)
        assert len(ad.active_tape()) == 0

        alone = Tensor(w2.data.copy(), requires_grad=True)
        ad.backward(loss_of(alone))
        np.testing.assert_array_equal(w2.grad, alone.grad)

    def test_backward_keeps_the_tape_list_it_trims(self):
        tape = ad.active_tape()
        other = Tensor(np.ones(2), requires_grad=True) * 2.0  # another graph's record
        x = Tensor(np.ones(3), requires_grad=True)
        ad.backward((x * 3.0).sum())
        assert ad.active_tape() is tape
        assert [entry[0] for entry in tape] == [other.node_id]

    def test_backward_through_consumed_intermediate_is_an_error(self):
        # loss1 and loss2 share y. backward(loss1) consumes y's records, so
        # backward(loss2) cannot reach w; it must raise, not treat y as a leaf.
        rng = np.random.default_rng(17)
        w = Tensor(rng.standard_normal((2, 1, 3)), requires_grad=True)
        x = Tensor(rng.standard_normal((2, 1, 8)))
        y = ad.tanh(ad.conv1d(x, w, padding=1))
        loss1 = ad.mse_loss(y, Tensor(rng.standard_normal((2, 2, 8))))
        loss2 = ad.mse_loss(y, Tensor(rng.standard_normal((2, 2, 8))))
        ad.backward(loss1)
        w_grad, n_left = w.grad.copy(), len(ad.active_tape())
        with pytest.raises(InvalidInputError):
            ad.backward(loss2)
        np.testing.assert_array_equal(w.grad, w_grad)
        assert y.grad is None
        assert len(ad.active_tape()) == n_left


def _part(layer, layer_type):
    """layer if it is a layer_type, else the tconv it runs if that is one,
    else None. A BatchNorm+PReLU+tconv layer's input has the shape of its
    tconv's input."""
    for part in (layer, getattr(layer, "tconv", None)):
        if isinstance(part, layer_type):
            return part
    return None


def _full_decoder_tconv_cases():
    """(layer, input shape) of each full-profile decoder tconv at batch 4,
    found by running the layers on an empty batch."""
    net = models.Estimator(get_profile("full").estimator, seed=0, draw=False)
    h, cases = Tensor(np.zeros((0, 1, net.config.input_len), dtype=net.dtype)), []
    with ad.no_grad():
        for _, layer in net.layers:
            tconv = _part(layer, models.ConvTranspose1dLayer)
            if tconv is not None:
                cases.append((tconv, (4,) + h.shape[1:]))
            h = layer.forward(h, False)
    return cases


class TestBackwardMemory:
    """backward drops each record once used and stores closures' gradients
    uncopied, except where a copy keeps two gradients from sharing memory."""

    def test_record_is_dropped_before_earlier_records_run(self):
        x = Tensor(np.ones(4), requires_grad=True)
        seen = []
        y = Tensor(x.data * 3.0)
        ad.record(y, (x,), lambda g: (seen.append(alive() is None) or g * 3.0,))
        held = np.full(4, 2.0)
        alive = weakref.ref(held)
        z = Tensor(y.data * held)
        ad.record(z, (y,), lambda g, h=held: (g * h,))
        del held
        ad.backward(z.sum())
        assert seen == [True]
        np.testing.assert_array_equal(x.grad, np.full(4, 6.0))

    def test_fresh_closure_gradient_becomes_grad_uncopied(self):
        x = Tensor(np.ones(4), requires_grad=True)
        fresh = []
        y = Tensor(x.data * 2.0)
        ad.record(y, (x,), lambda g: (fresh.append(g * 2.0) or fresh[-1],))
        ad.backward(y.sum())
        assert x.grad is fresh[0]

    # These three also hold at the parent of the uncopied path, which copied
    # every leaf gradient; they pin the copies that path must still make.
    def test_add_of_two_leaves_gives_independent_grads(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.ones(3), requires_grad=True)
        ad.backward((a + b).sum())
        assert a.grad is not b.grad
        a.grad += 5.0
        np.testing.assert_array_equal(b.grad, np.ones(3))

    @pytest.mark.parametrize("op", ["concat_channels", "flatten"])
    def test_leaf_grad_shares_no_memory_with_upstream_gradient(self, op):
        rng = np.random.default_rng(21)
        a = Tensor(rng.standard_normal((2, 1, 4)), requires_grad=True)
        b = Tensor(rng.standard_normal((2, 3, 4)), requires_grad=True)
        out = ad.concat_channels(a, b) if op == "concat_channels" else ad.flatten(b)
        upstream = rng.standard_normal(out.shape)
        loss, sent = Tensor(np.zeros(())), []
        ad.record(loss, (out,), lambda g: (sent.append(upstream.copy()) or sent[-1],))
        ad.backward(loss)
        (g,) = sent  # the upstream gradient of the op under test
        leaves = (a, b) if op == "concat_channels" else (b,)
        for leaf in leaves:
            assert not np.may_share_memory(leaf.grad, g)
        if op == "concat_channels":
            np.testing.assert_array_equal(a.grad, upstream[:, :1])
            np.testing.assert_array_equal(b.grad, upstream[:, 1:])
        else:
            np.testing.assert_array_equal(b.grad, upstream.reshape(b.shape))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_conv_transpose1d_weight_gradient_contiguous_and_equal_to_einsum(self, dtype):
        rng, chunked = np.random.default_rng(22), []
        for layer, shape in _full_decoder_tconv_cases():
            x = Tensor(rng.standard_normal(shape).astype(dtype))
            w = Tensor(rng.standard_normal(layer.weight.shape).astype(dtype), requires_grad=True)
            out = ad.conv_transpose1d(
                x, w, stride=layer.stride, padding=layer.padding,
                output_padding=layer.output_padding,
            )
            g = rng.standard_normal(out.shape).astype(dtype)
            _, gw = ad.active_tape().pop()[2](g)
            assert gw.flags["C_CONTIGUOUS"]
            # Reference check: the einsum this GEMM replaced, bit for bit.
            K, stride, padding = w.shape[2], layer.stride, layer.padding
            L_full = (x.shape[2] - 1) * stride + K
            gfull = np.zeros(out.shape[:2] + (L_full,), dtype=dtype)
            span = min(L_full, padding + out.shape[2]) - padding
            gfull[:, :, padding : padding + span] = g[:, :, :span]
            gwin = np.lib.stride_tricks.sliding_window_view(gfull, K, axis=2)
            gwin = gwin[:, :, ::stride, :][:, :, : x.shape[2], :]
            if ops.activation_bound(w.data.size, out.data[0].size):
                # One einsum per example, summed in example order.
                chunked.append(w.shape)
                want = np.einsum("il,olk->iok", x.data[0], gwin[0], optimize=True)
                for b in range(1, x.shape[0]):
                    want += np.einsum("il,olk->iok", x.data[b], gwin[b], optimize=True)
            else:
                want = np.einsum("bil,bolk->iok", x.data, gwin, optimize=True)
            np.testing.assert_array_equal(gw, want)
        # dec4, dec5 and out_tconv; dec1-dec3 keep their batched GEMM.
        assert chunked == [(128, 64, 8), (64, 64, 5), (64, 1, 5)]

    def test_conv1d_input_gradient_is_its_own_contiguous_buffer(self):
        rng = np.random.default_rng(23)
        x = Tensor(rng.standard_normal((2, 3, 40)), requires_grad=True)
        w = Tensor(rng.standard_normal((4, 3, 5)))
        out = ad.conv1d(x, w, stride=2, padding=2)
        (gx, _) = ad.active_tape().pop()[2](rng.standard_normal(out.shape))
        assert gx.shape == x.shape
        assert gx.flags["C_CONTIGUOUS"]
        # Not a crop view of the [B, Cin, L + 2*padding] overlap-add.
        assert gx.base is None or gx.base.nbytes == gx.nbytes

    def test_fused_record_holds_no_prelu_output(self):
        # dec4's BatchNorm+PReLU into dec5's tconv at batch 4: x and the
        # PReLU output h are [4, 64, 4096] float32, 4 MiB each. What numpy
        # still holds after the forward beyond the output is what the
        # records keep: the three reference ops keep the batchnorm output
        # and h as their records' inputs, the fused op statistics of C
        # values (x was allocated before).
        (tconv, shape) = _full_decoder_tconv_cases()[-2]
        rng = np.random.default_rng(27)
        C = shape[1]
        arrays = [rng.standard_normal(shape), rng.uniform(0.5, 1.5, C),
                  rng.standard_normal(C), np.full(C, 0.25),
                  rng.standard_normal(tconv.weight.shape)]
        held = {}
        for fused in (True, False):
            ts = [Tensor(a.astype(np.float32), requires_grad=True) for a in arrays]
            state = _bn_state(np.float32, np.zeros(C), np.ones(C))
            args = {"stride": tconv.stride, "padding": tconv.padding}
            tracemalloc.start()
            try:
                base = tracemalloc.get_traced_memory()[0]
                if fused:
                    out = ad.batchnorm_prelu_conv_transpose1d(*ts[:4], state, True, ts[4], **args)
                else:
                    h = ad.prelu(ad.batchnorm1d(*ts[:3], state, True), ts[3])
                    out = ad.conv_transpose1d(h, ts[4], **args)
                    del h
                held[fused] = tracemalloc.get_traced_memory()[0] - base - out.data.nbytes
            finally:
                tracemalloc.stop()
            del out
            ad.active_tape().clear()
        assert held[True] < 0.05 * ts[0].data.nbytes
        assert held[False] > 0.95 * ts[0].data.nbytes

    @pytest.mark.parametrize("train", [True, False])
    def test_bn_prelu_backward_writes_the_input_gradient_over_its_upstream_one(self, train):
        # dec5's [4, 64, 4096] float32 input, 4 MiB: the kernel's tiles hold
        # 16 channels' scratch, 0.56 MiB; a fresh gx would be 4 MiB more.
        rng = np.random.default_rng(29)
        x, gamma, beta, slope, rm, rv, g = _bn_prelu_case(rng, (64, 4096))
        state = ad.BatchNormState(rm, rv)
        mean, inv = ops._batchnorm_stats("test", Tensor(x), Tensor(gamma), Tensor(beta), state,
                                         train)
        (gx, *_), peak = _traced_peak(lambda: ops._bn_prelu_backward(
            g, x, mean, inv, gamma, beta, train, slope[:, None], True
        ))
        assert np.may_share_memory(gx, g)
        assert peak < x.nbytes / 4

    def test_fused_backward_holds_one_activation_sized_gradient(self):
        # A [16, 64, 1024] float32 input, 4 MiB, into a K=5 stride-1 tconv:
        # its backward holds h's gradient, which x's gradient is written
        # over, and one example's [Cout*K, L] window columns (1.25 MiB). A
        # fresh x gradient beside h's would be 4 MiB more.
        rng = np.random.default_rng(30)
        B, C, L, K = 16, 64, 1024, 5
        x, gamma, beta, slope, rm, rv, _ = _bn_prelu_case(rng, (C, L), batch=B)
        weight = rng.standard_normal((C, C, K)).astype(np.float32)
        ts = [Tensor(a, requires_grad=True) for a in (x, gamma, beta, slope, weight)]
        out = ad.batchnorm_prelu_conv_transpose1d(
            *ts[:4], ad.BatchNormState(rm, rv), True, ts[4], padding=2
        )
        g = rng.standard_normal(out.shape).astype(np.float32)
        (gx, *_), peak = _traced_peak(lambda: ad.active_tape().pop()[2](g))
        assert gx.shape == x.shape
        cols = C * K * L * 4
        assert peak < x.nbytes + cols + x.nbytes / 4

    def test_conv1d_record_holds_no_padded_input(self):
        # A [4, 64, 4096] float32 input, 4 MiB, through a conv with padding
        # 2: a padded copy would hold 4 MiB more. The backward pads x again.
        rng = np.random.default_rng(28)
        x = Tensor(rng.standard_normal((4, 64, 4096)).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal((8, 64, 5)).astype(np.float32), requires_grad=True)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = ad.conv1d(x, w, padding=2)
            held = tracemalloc.get_traced_memory()[0] - base - out.data.nbytes
        finally:
            tracemalloc.stop()
        assert held < 0.05 * x.data.nbytes
        ad.backward(_sink(out, rng.standard_normal(out.shape).astype(np.float32)))
        assert x.grad.shape == x.shape and w.grad.shape == w.shape

    def test_no_grad_conv_transpose1d_frees_its_input_copy_before_the_output(self):
        rng = np.random.default_rng(24)
        (layer, shape) = _full_decoder_tconv_cases()[-2]  # dec5: [4, 64, 4096] -> same
        x = Tensor(rng.standard_normal(shape).astype(np.float32))
        w = Tensor(rng.standard_normal(layer.weight.shape).astype(np.float32))
        with ad.no_grad():
            out, peak = _traced_peak(
                lambda: ad.conv_transpose1d(x, w, stride=layer.stride, padding=layer.padding)
            )
        assert out.shape == shape
        Cout, K = w.shape[1:]
        cols = Cout * K * shape[2] * 4  # one example's [Cout*K, L] GEMM result
        # The output plus one example's columns (5.2 MB), which read the
        # input in place: B examples' columns (21 MB) and the input's
        # [Cin, B*L] copy never live.
        assert peak < cols + out.data.nbytes + x.data.nbytes / 8

    @pytest.mark.parametrize("index", [0, 1, 2], ids=["dec1", "dec2", "dec3"])
    def test_no_grad_weight_bound_conv_transpose1d_allocates_the_output_after_its_gemm(
        self, index
    ):
        rng = np.random.default_rng(26)
        (layer, shape) = _full_decoder_tconv_cases()[index]  # batch 4, one batched GEMM
        x = Tensor(rng.standard_normal(shape).astype(np.float32))
        w = Tensor(rng.standard_normal(layer.weight.shape).astype(np.float32))
        with ad.no_grad():
            out, peak = _traced_peak(
                lambda: ad.conv_transpose1d(
                    x, w, stride=layer.stride, padding=layer.padding,
                    output_padding=layer.output_padding,
                )
            )
        assert not ops.activation_bound(w.data.size, out.data[0].size)
        Cout, K = w.shape[1:]
        cols = Cout * K * shape[0] * shape[2] * 4  # the batch's [Cout*K, B*L] GEMM result
        # The columns and the output: the input's [Cin, B*L] copy is freed
        # before the output is allocated.
        assert peak < cols + out.data.nbytes + x.data.nbytes / 2

    def test_activation_bound_conv_transpose1d_backward_holds_one_examples_columns(self):
        rng = np.random.default_rng(25)
        (layer, shape) = _full_decoder_tconv_cases()[-2]  # dec5: [4, 64, 4096] -> same
        x = Tensor(rng.standard_normal(shape).astype(np.float32), requires_grad=True)
        w = Tensor(rng.standard_normal(layer.weight.shape).astype(np.float32), requires_grad=True)
        out = ad.conv_transpose1d(x, w, stride=layer.stride, padding=layer.padding)
        g = rng.standard_normal(out.shape).astype(np.float32)
        (gx, gw), peak = _traced_peak(lambda: ad.active_tape().pop()[2](g))
        Cout, K = w.shape[1:]
        cols = Cout * K * shape[2] * 4  # one example's [Cout*K, L] columns
        # The input gradient (4.2 MB) plus one example's columns (5.2 MB) and
        # its zero-padded gradient (1 MB); the batched backward held all
        # four examples' columns (21 MB) beside the padded batch.
        assert peak < cols + gx.nbytes + g.nbytes / 2
        assert gx.flags["C_CONTIGUOUS"]

    def test_failing_closure_leaves_only_unreached_records(self):
        other_leaf = Tensor(np.ones(2), requires_grad=True)
        other = other_leaf * 2.0  # another graph's record
        x = Tensor(np.ones(3), requires_grad=True)
        v = Tensor(np.ones(3), requires_grad=True)
        y = x * 3.0

        def boom(g):
            raise RuntimeError("boom")

        z = Tensor(y.data.copy())
        ad.record(z, (y,), boom)
        loss = (z + v).sum()
        with pytest.raises(RuntimeError, match="boom"):
            ad.backward(loss)
        assert [entry[0] for entry in ad.active_tape()] == [other.node_id]
        np.testing.assert_array_equal(v.grad, np.ones(3))  # handed over before boom
        assert x.grad is None
        with pytest.raises(InvalidInputError):
            ad.backward(loss)

    def test_failing_sweep_hands_over_no_partial_sum(self):
        # v feeds the add, whose record runs before boom, and y, whose record
        # runs after it: v's gradient is incomplete when boom raises.
        v = Tensor(np.ones(3), requires_grad=True)
        y = v * 3.0

        def boom(g):
            raise RuntimeError("boom")

        z = Tensor(y.data.copy())
        ad.record(z, (y,), boom)
        with pytest.raises(RuntimeError, match="boom"):
            ad.backward((z + v).sum())
        assert v.grad is None


def _toy_discriminator_graph():
    """(parameters, loss recorder) of a toy discriminator's real and fake
    forwards."""
    cfg = get_profile("toy").discriminator
    rng = np.random.default_rng(43)
    real, fake, cond = (rng.uniform(-0.9, 0.9, (3, 1, cfg.rir_len)) for _ in range(3))
    net = models.Discriminator(cfg, seed=1)

    def loss_of():
        r = net.forward(Tensor(real), Tensor(cond), train=True)
        f = net.forward(Tensor(fake), Tensor(cond), train=True)
        return ad.bce_logit_loss(r, np.ones(r.shape)) + ad.bce_logit_loss(f, np.zeros(f.shape))

    return net.parameters(), loss_of


def _full_train_step_graph():
    """(parameters of both networks, loss recorder) of the estimator
    half-step of a full-profile train_step at batch 2."""
    profile = get_profile("full")
    cfg = profile.train
    est = models.build_estimator(profile.estimator, seed=0)
    disc = models.build_discriminator(profile.discriminator, seed=1)
    basis, part = profile.analysis()
    rng = np.random.default_rng(44)
    rev = rng.uniform(-0.9, 0.9, (2, profile.estimator.input_len)).astype(est.dtype)
    rir = Tensor(rng.uniform(-0.9, 0.9, (2, 1, profile.estimator.rir_len)).astype(est.dtype))
    cond = Tensor(models.make_condition(rev, disc.config))

    def loss_of():
        fake = est.forward(Tensor(rev[:, None, :]), train=True)
        adv = disc.forward(fake, cond, train=True)
        l_edr = ad.mse_loss(
            ad.framed_band_energy(fake, basis, part), ad.framed_band_energy(rir, basis, part)
        )
        l_cgan = ad.bce_logit_loss(adv, np.ones(adv.shape))
        return l_cgan + cfg.lambda_edr * l_edr + cfg.lambda_mse * ad.mse_loss(fake, rir)

    return est.parameters() + disc.parameters(), loss_of


class TestBackwardOnLeaf:
    """backward(loss, on_leaf) hands each leaf its summed gradient once, as
    soon as the last record that feeds it has run, and writes no .grad."""

    def _collect(self, loss):
        calls = []
        ad.backward(loss, on_leaf=lambda leaf, grad: calls.append((leaf, grad)))
        return calls

    def test_leaf_with_two_consumers_gets_one_call_with_the_sum(self):
        a = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)
        calls = self._collect((a + a).sum())
        assert len(calls) == 1 and calls[0][0] is a
        np.testing.assert_array_equal(calls[0][1], np.full(3, 2.0))
        assert a.grad is None

    @pytest.mark.parametrize(
        "graph", [_toy_discriminator_graph, _full_train_step_graph],
        ids=["toy-discriminator", "full-train-step"],
    )
    def test_one_call_per_parameter_equal_to_the_default_hand_over(self, graph):
        params, loss_of = graph()
        calls = self._collect(loss_of())
        assert sorted(id(leaf) for leaf, _ in calls) == sorted(id(p) for p in params)
        assert all(p.grad is None for p in params)
        ad.backward(loss_of())
        by_leaf = {id(leaf): grad for leaf, grad in calls}
        for p in params:
            np.testing.assert_array_equal(by_leaf[id(p)], p.grad)

    def test_unreached_leaves_get_no_call(self):
        other_leaf = Tensor(np.ones(2), requires_grad=True)
        other = other_leaf * 2.0  # another graph's record
        x = Tensor(np.ones(3), requires_grad=True)
        blocked = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(blocked.data.copy())
        ad.record(y, (blocked,), lambda g: (None,))  # reached, but no gradient
        calls = self._collect((x * 3.0 + y).sum())
        assert [leaf for leaf, _ in calls] == [x]
        np.testing.assert_array_equal(calls[0][1], np.full(3, 3.0))
        assert [entry[0] for entry in ad.active_tape()] == [other.node_id]

    def test_each_leaf_is_handed_over_once_its_last_record_has_run(self):
        w = Tensor(np.ones(2), requires_grad=True)
        v = Tensor(np.ones(2), requires_grad=True)
        events = []

        def op(name, x, scale):
            out = Tensor(x.data * scale)
            ad.record(out, (x,), lambda g: (events.append(name) or g * scale,))
            return out

        z = op("z", op("h", w, 2.0), 3.0) + op("u", v, 5.0)
        ad.backward(z.sum(), on_leaf=lambda leaf, grad: events.append("w" if leaf is w else "v"))
        assert events == ["u", "v", "z", "h", "w"]

    def test_error_in_the_sweep_keeps_the_calls_already_made(self):
        # v's last record runs before boom, x's after it: v is handed over
        # (a caller's update of v stands), x is not, and no .grad is written.
        other_leaf = Tensor(np.ones(2), requires_grad=True)
        other = other_leaf * 2.0
        x = Tensor(np.ones(3), requires_grad=True)
        v = Tensor(np.ones(3), requires_grad=True)
        y = x * 3.0

        def boom(g):
            raise RuntimeError("boom")

        z = Tensor(y.data.copy())
        ad.record(z, (y,), boom)
        loss = (z + v).sum()
        updated = []

        def update(leaf, grad):
            leaf.data -= grad
            updated.append(leaf)

        with pytest.raises(RuntimeError, match="boom"):
            ad.backward(loss, on_leaf=update)
        assert updated == [v]
        np.testing.assert_array_equal(v.data, np.zeros(3))
        np.testing.assert_array_equal(x.data, np.ones(3))
        assert v.grad is None and x.grad is None
        assert [entry[0] for entry in ad.active_tape()] == [other.node_id]


def _conv_layer_cases(layer_type=models.Conv1dLayer):
    """(layer, dtype, [Cin, L] input) of every layer_type layer of both
    profiles' estimators and discriminators, found by running the layers on
    an empty batch."""
    nets = [
        (models.Estimator(get_profile("full").estimator, seed=0, draw=False), 1),
        (models.Estimator(get_profile("toy").estimator, seed=0, draw=False), 1),
        (models.Discriminator(get_profile("full").discriminator, seed=0), 2),
        (models.Discriminator(get_profile("toy").discriminator, seed=0), 2),
    ]
    cases = []
    for net, channels in nets:
        length = getattr(net.config, "input_len", net.config.rir_len)
        h = Tensor(np.zeros((0, channels, length), dtype=net.dtype))
        with ad.no_grad():
            for _, layer in net.layers:
                if isinstance(layer, models.FlattenLinearLayer):
                    break
                part = _part(layer, layer_type)
                if part is not None:
                    cases.append((part, net.dtype, h.shape[1:]))
                h = layer.forward(h, False)
    return cases


def _conv1d_reference(x, w, b, stride, padding):
    """conv1d's forward as the input-first GEMM cols @ W.T, then transposed."""
    (B, Cin, _), (Cout, _, K) = x.shape, w.shape
    x_pad = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
    windows = np.lib.stride_tricks.sliding_window_view(x_pad, K, axis=2)[:, :, ::stride, :]
    Lout = windows.shape[2]
    cols = np.ascontiguousarray(windows.transpose(0, 2, 1, 3)).reshape(B * Lout, Cin * K)
    out = (cols @ w.reshape(Cout, Cin * K).T).reshape(B, Lout, Cout).transpose(0, 2, 1)
    return np.ascontiguousarray(out) + b[None, :, None]


def _overlap_add_reference(y, w, stride, offset, length):
    """The overlap-add as einsum columns added into the uncropped result,
    whose window [offset, offset+length) is then copied into zeros."""
    (B, _, N), (_, Co, K) = y.shape, w.shape
    cols = np.einsum("bil,iok->bolk", y, w, optimize=True)
    L_full = (N - 1) * stride + K
    full = np.zeros((B, Co, L_full), dtype=y.dtype)
    for k in range(K):
        full[:, :, k : k + stride * N : stride] += cols[:, :, :, k]
    out = np.zeros((B, Co, length), dtype=y.dtype)
    span = min(L_full, offset + length) - offset
    if span > 0:
        out[:, :, :span] = full[:, :, offset : offset + span]
    return out


def _conv_transpose1d_input_gradient_reference(g, w, stride, padding, length):
    """conv_transpose1d's input gradient as one GEMM w [Cin, Cout*K] @ cols
    per group of examples, one each in an activation-bound layer, else the
    batch: cols are the windows of the zero-padded output gradient."""
    (B, Cout, L_out), (Cin, _, K) = g.shape, w.shape
    L_full = (length - 1) * stride + K
    gfull = np.zeros((B, Cout, L_full), dtype=g.dtype)
    span = min(L_full, padding + L_out) - padding
    gfull[:, :, padding : padding + span] = g[:, :, :span]
    gwin = sliding_window_view(gfull, K, axis=2)[:, :, ::stride, :][:, :, :length, :]
    n = 1 if ops.activation_bound(w.size, Cout * L_out) else B
    gx = np.empty((B, Cin, length), dtype=g.dtype)
    for b in range(0, B, n):
        cols = np.ascontiguousarray(gwin[b : b + n].transpose(1, 3, 0, 2))
        gemm = w.reshape(Cin, -1) @ cols.reshape(Cout * K, n * length)
        gx[b : b + n] = gemm.reshape(Cin, n, length).transpose(1, 0, 2)
    return gx


def _traced_peak(fn):
    """(result, peak bytes that numpy allocated while fn ran)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        result = fn()
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


class TestFlatten:
    def test_empty_batch(self):
        out = ad.flatten(Tensor(np.zeros((0, 3, 4))))
        assert out.shape == (0, 12)


class TestForwardReferences:
    """The forwards that build each output in one buffer give the bits of
    the formulations they replaced, and allocate less."""

    @pytest.mark.parametrize("batch", [1, 2, 4, 5, 16])
    def test_conv1d_weight_first_gemm_equals_input_first(self, batch):
        rng = np.random.default_rng(30 + batch)
        for layer, dtype, (cin, length) in _conv_layer_cases():
            x = rng.standard_normal((batch, cin, length)).astype(dtype)
            w = rng.standard_normal(layer.weight.shape).astype(dtype)
            b = rng.standard_normal(layer.bias.shape).astype(dtype)
            with ad.no_grad():
                out = ad.conv1d(Tensor(x), Tensor(w), Tensor(b), layer.stride, layer.padding)
            want = _conv1d_reference(x, w, b, layer.stride, layer.padding)
            assert out.data.flags["C_CONTIGUOUS"]
            np.testing.assert_array_equal(out.data, want, err_msg=f"{w.shape} at {batch}")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 4, 5, 16])
    def test_overlap_add_equals_einsum_on_every_layer_shape(self, batch, dtype):
        rng = np.random.default_rng(40 + batch)
        for layer, _, (cin, length) in _conv_layer_cases(models.ConvTranspose1dLayer):
            x = rng.standard_normal((batch, cin, length)).astype(dtype)
            w = rng.standard_normal(layer.weight.shape).astype(dtype)
            b = rng.standard_normal(layer.weight.shape[1]).astype(dtype)
            with ad.no_grad():
                out = ad.conv_transpose1d(
                    Tensor(x), Tensor(w), Tensor(b), layer.stride, layer.padding,
                    layer.output_padding,
                )
            want = _overlap_add_reference(x, w, layer.stride, layer.padding, out.shape[2])
            want = want + b[None, :, None]
            np.testing.assert_array_equal(out.data, want, err_msg=f"{w.shape} at {batch}")
        for layer, _, (cin, length) in _conv_layer_cases():
            x = Tensor(rng.standard_normal((batch, cin, length)).astype(dtype), requires_grad=True)
            w = rng.standard_normal(layer.weight.shape).astype(dtype)
            out = ad.conv1d(x, Tensor(w), stride=layer.stride, padding=layer.padding)
            g = rng.standard_normal(out.shape).astype(dtype)
            (gx, _) = ad.active_tape().pop()[2](g)
            want = _overlap_add_reference(g, w, layer.stride, layer.padding, length)
            np.testing.assert_array_equal(gx, want, err_msg=f"{w.shape} at {batch}")

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("batch", [1, 4, 5])
    def test_conv_transpose1d_input_gradient_equals_group_gemms(self, batch, dtype):
        rng = np.random.default_rng(42 + batch)
        for layer, _, (cin, length) in _conv_layer_cases(models.ConvTranspose1dLayer):
            x = Tensor(rng.standard_normal((batch, cin, length)).astype(dtype), requires_grad=True)
            w = rng.standard_normal(layer.weight.shape).astype(dtype)
            out = ad.conv_transpose1d(
                x, Tensor(w), stride=layer.stride, padding=layer.padding,
                output_padding=layer.output_padding,
            )
            g = rng.standard_normal(out.shape).astype(dtype)
            (gx, _) = ad.active_tape().pop()[2](g)
            want = _conv_transpose1d_input_gradient_reference(
                g, w, layer.stride, layer.padding, length
            )
            np.testing.assert_array_equal(gx, want, err_msg=f"{w.shape} at {batch}")

    @pytest.mark.parametrize(
        "stride, padding, output_padding, n",
        [
            (3, 1, 2, 5),  # the window runs past the uncropped result
            (2, 1, 1, 4),
            (2, 2, 1, 1),  # padding >= stride: taps 0, 1 and 5 land outside
            (2, 3, 0, 3),
            (1, 4, 0, 2),
        ],
    )
    def test_overlap_add_clips_taps_to_the_window(self, stride, padding, output_padding, n):
        rng = np.random.default_rng(41)
        x = rng.standard_normal((2, 3, n))
        w = rng.standard_normal((3, 2, 6 if n == 1 else 9))
        out = ad.conv_transpose1d(
            Tensor(x), Tensor(w), stride=stride, padding=padding, output_padding=output_padding
        )
        want = _overlap_add_reference(x, w, stride, padding, out.shape[2])
        assert out.data.flags["C_CONTIGUOUS"]
        np.testing.assert_array_equal(out.data, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("train", [True, False])
    def test_batchnorm1d_equals_scale_of_normalized_plus_shift(self, dtype, train):
        rng = np.random.default_rng(32)
        x = (3.0 * rng.standard_normal((4, 6, 50)) + 1.5).astype(dtype)
        gamma, beta = rng.standard_normal(6).astype(dtype), rng.standard_normal(6).astype(dtype)
        mean, var = rng.standard_normal(6), rng.uniform(0.5, 2.0, 6)
        state = _bn_state(dtype, mean, var)
        with ad.no_grad():
            out = ad.batchnorm1d(Tensor(x), Tensor(gamma), Tensor(beta), state, train)
        if train:
            mean, var = x.mean(axis=(0, 2)), x.var(axis=(0, 2))
        else:
            mean, var = mean.astype(dtype), var.astype(dtype)
        inv = 1.0 / np.sqrt(var + BN_EPS)
        want = gamma[None, :, None] * ((x - mean[None, :, None]) * inv[None, :, None])
        want = want + beta[None, :, None]
        assert out.data.dtype == dtype
        np.testing.assert_array_equal(out.data, want)

    def test_batch1_conv1d_makes_no_transposed_output_copy(self):
        rng = np.random.default_rng(33)
        x = Tensor(rng.standard_normal((1, 1, 4096)))
        w, b = Tensor(rng.standard_normal((256, 1, 3))), Tensor(rng.standard_normal(256))
        with ad.no_grad():
            out, peak = _traced_peak(lambda: ad.conv1d(x, w, b, stride=1, padding=1))
        assert out.data.flags["C_CONTIGUOUS"]
        # The output is 8 MB; the padded input and the columns add 0.1 MB.
        assert peak < 1.25 * out.data.nbytes

    def test_eval_batchnorm1d_builds_its_output_in_one_buffer(self):
        rng = np.random.default_rng(34)
        x = Tensor(rng.standard_normal((4, 64, 4096)).astype(np.float32))
        gamma = Tensor(rng.standard_normal(64).astype(np.float32))
        beta = Tensor(rng.standard_normal(64).astype(np.float32))
        state = _bn_state(np.float32, rng.standard_normal(64), rng.uniform(0.5, 2.0, 64))
        with ad.no_grad():
            out, peak = _traced_peak(lambda: ad.batchnorm1d(x, gamma, beta, state, False))
        assert peak < 1.25 * out.data.nbytes


def _decoder_bn_shapes():
    """[C, L] input of every BatchNorm+PReLU layer of both profiles'
    estimators."""
    return [shape for _, _, shape in _conv_layer_cases(models.BatchNormPReLUTconvLayer)]


def _sink(out, g):
    """A scalar whose backward sends exactly g, in g's memory layout, into
    out."""
    loss = Tensor(np.zeros((), dtype=out.data.dtype))
    ad.record(loss, (out,), lambda _: (g.copy(order="K"),))
    return loss


def _tiled_bn_prelu_run(x, gamma, beta, slope, state, train, g):
    """(output, the gradients of x, gamma, beta and slope) of the tiled
    BatchNorm+PReLU kernels that batchnorm_prelu_conv_transpose1d runs,
    on the statistics the op computes; g is the output's gradient, which
    the backward is handed a copy of, in g's layout, to write over."""
    mean, inv = ops._batchnorm_stats("test", Tensor(x), Tensor(gamma), Tensor(beta), state, train)
    s = slope[:, None]
    out = ops._bn_prelu_forward(x, mean, inv, gamma, beta, s)
    g = g.copy(order="K")
    return [out, *ops._bn_prelu_backward(g, x, mean, inv, gamma, beta, train, s, True)]


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestBatchNormPReLU:
    """The tiled BatchNorm+PReLU kernels that the decoder's fused op runs."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_train_mode_cancels_a_per_channel_shift(self, dtype):
        # Why the decoder tconvs feeding this op carry no bias: a bias adds
        # c to each channel, which the batch mean removes, so the output
        # does not move and the bias's gradient, the per-channel sum of the
        # input gradient, is zero, both up to rounding.
        eps, rng = np.finfo(dtype).eps, np.random.default_rng(43)
        for C, L in _decoder_bn_shapes():
            x = (3.0 * rng.standard_normal((2, C, L))).astype(dtype)
            c = (3.0 * rng.standard_normal(C)).astype(dtype)
            gamma = rng.uniform(0.5, 1.5, C).astype(dtype)
            beta = rng.standard_normal(C).astype(dtype)
            slope = np.full(C, 0.25, dtype=dtype)
            g = rng.standard_normal((2, C, L)).astype(dtype)
            runs = []
            for shift in (np.zeros(C, dtype=dtype), c):
                state = _bn_state(dtype, np.zeros(C), np.ones(C))
                out, gx, *_ = _tiled_bn_prelu_run(
                    x + shift[:, None], gamma, beta, slope, state, True, g
                )
                # Measured at most 0.62 eps in both dtypes.
                grad_sum = np.abs(gx.sum(axis=(0, 2)))
                assert np.all(grad_sum <= 4 * eps * np.abs(gx).sum(axis=(0, 2))), (C, L)
                runs.append(out)
            # Measured at most 2 eps in both dtypes.
            assert np.max(np.abs(runs[1] - runs[0])) <= 16 * eps * np.max(np.abs(runs[0]))


def _bn_prelu_inputs(rng, dtype, shape, batch, nan):
    """x, gamma and beta for [batch, C, L]. x holds +-0, and a NaN if nan
    (channel 0's train-mode statistics are then NaN); gamma = 0 and
    beta = -0.0 in channel 2 make the batchnorm output there exactly +-0,
    where the PReLU mask flips."""
    C, L = shape
    x = (3.0 * rng.standard_normal((batch, C, L)) + 0.5).astype(dtype)
    x[0, 0, :3] = [0.0, -0.0, np.nan if nan else 0.0]
    x[1, 1 % C, :2] = [-0.0, 0.0]
    gamma = rng.uniform(0.5, 1.5, C).astype(dtype)
    beta = rng.standard_normal(C).astype(dtype)
    gamma[2 % C], beta[2 % C] = 0.0, -0.0
    return x, gamma, beta


def _bn_prelu_tconv_run(fused, arrays, tconv, state, train, g):
    """(output, the gradients of x, gamma, beta, slope, weight and, if
    tconv has one, bias) of the fused op or of the reference ops
    conv_transpose1d(prelu(batchnorm1d())); the output alone under no_grad
    when g is None."""
    x, gamma, beta, slope, weight, *bias = ts = [
        Tensor(a.copy(), requires_grad=True) for a in arrays
    ]
    bias = bias[0] if bias else None
    args = {"stride": tconv.stride, "padding": tconv.padding,
            "output_padding": tconv.output_padding}

    def run():
        if fused:
            return ad.batchnorm_prelu_conv_transpose1d(
                x, gamma, beta, slope, state, train, weight, bias, **args
            )
        h = ad.prelu(ad.batchnorm1d(x, gamma, beta, state, train), slope)
        return ad.conv_transpose1d(h, weight, bias, **args)

    if g is None:
        with ad.no_grad():
            return [run().data]
    out = run()
    ad.backward(_sink(out, g))
    return [out.data] + [t.grad for t in ts]


# The slopes of the bit-identity test: channel c of run i takes
# SLOPES[(c - i) % 4], so each channel meets every slope.
SLOPES = (0.25, -0.3, 0.0, 1.7)


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
class TestBatchNormPReLUTconv:
    """batchnorm_prelu_conv_transpose1d is
    conv_transpose1d(prelu(batchnorm1d())) bit for bit, and checks its
    operands before the statistics change."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("train", [True, False])
    def test_equals_conv_transpose1d_of_prelu_of_batchnorm1d_bit_for_bit(self, dtype, train):
        rng = np.random.default_rng(44)
        cases = _conv_layer_cases(models.BatchNormPReLUTconvLayer)
        assert len(cases) == 9  # dec2 to out_tconv of the full and toy profiles
        names = ("out", "x.grad", "gamma.grad", "beta.grad", "slope.grad", "weight.grad",
                 "bias.grad")
        for layer, _, (C, L) in cases:
            tconv = layer.tconv
            Cout, K = tconv.weight.shape[1:]
            L_out = (L - 1) * tconv.stride - 2 * tconv.padding + K + tconv.output_padding
            mean, var = rng.standard_normal(C), rng.uniform(0.5, 2.0, C)
            for i in range(len(SLOPES)):
                # Batch 3: the activation-bound layers run three GEMM groups.
                # The last run's x holds a NaN, which in train mode makes
                # every output NaN.
                arrays = [*_bn_prelu_inputs(rng, dtype, (C, L), 3, nan=i == len(SLOPES) - 1),
                          np.resize(np.roll(np.array(SLOPES, dtype), i), C),
                          rng.standard_normal(tconv.weight.shape).astype(dtype)]
                if tconv.bias is not None:
                    arrays.append(rng.standard_normal(tconv.bias.shape).astype(dtype))
                g = rng.standard_normal((3, Cout, L_out)).astype(dtype)
                g[0, -1, :2] = [0.0, -0.0]
                runs = {}
                for grad in (True, False):
                    states = [_bn_state(dtype, mean, var) for _ in range(2)]
                    got, want = (_bn_prelu_tconv_run(fused, arrays, tconv, state, train,
                                                     g if grad else None)
                                 for fused, state in zip((True, False), states))
                    assert len(got) == (len(arrays) + 1 if grad else 1)
                    for name, a, b in zip(names, got, want):
                        assert a.dtype == dtype, name
                        np.testing.assert_array_equal(
                            _bits(a), _bits(b), err_msg=f"{name} {(C, L)} run {i}"
                        )
                    for attr in ("running_mean", "running_var"):
                        a, b = getattr(states[0], attr), getattr(states[1], attr)
                        np.testing.assert_array_equal(_bits(a), _bits(b), err_msg=attr)
                    runs[grad] = got[0]
                    assert len(ad.active_tape()) == 0
                # The no-grad forward gives the bits of the recorded one.
                np.testing.assert_array_equal(_bits(runs[True]), _bits(runs[False]))

    def test_gradients_reach_only_the_inputs_that_carry_them(self):
        rng = np.random.default_rng(45)
        arrays = [rng.standard_normal(s) for s in ((2, 3, 6), (3,), (3,), (3,), (3, 2, 4))]
        for wanted in ([4], [0], [1, 3], [2, 4]):
            ts = [Tensor(a, requires_grad=i in wanted) for i, a in enumerate(arrays)]
            state = _bn_state(np.float64, np.zeros(3), np.ones(3))
            out = ad.batchnorm_prelu_conv_transpose1d(*ts[:4], state, True, ts[4], stride=2)
            ad.backward(_sink(out, rng.standard_normal(out.shape)))
            assert [t.grad is not None for t in ts] == [i in wanted for i in range(5)]

    def test_checks_run_before_the_running_statistics_change(self):
        x, gamma, beta, slope = (Tensor(np.ones(s, dtype=np.float32), requires_grad=True)
                                 for s in ((2, 3, 4), (3,), (3,), (3,)))
        weight = Tensor(np.ones((3, 2, 3), dtype=np.float32))
        state = _bn_state(np.float32, np.zeros(3), np.ones(3))
        bad = [
            (Tensor(np.ones(3)), weight, {}),  # float64 slope
            (Tensor(np.ones(4, dtype=np.float32)), weight, {}),  # 4 slopes, not 3
            (slope, Tensor(np.ones((4, 2, 3), dtype=np.float32)), {}),  # Cin 4, not 3
            (slope, Tensor(np.ones((3, 2, 3))), {}),  # float64 weight
            (slope, weight, {"stride": 2, "output_padding": 2}),
            *((slope, weight, args) for args in BAD_TCONV_ARGS),
        ]
        for s, w, args in bad:
            with pytest.raises((InvalidConfigError, InvalidInputError, ShapeMismatchError)):
                ad.batchnorm_prelu_conv_transpose1d(x, gamma, beta, s, state, True, w, **args)
            np.testing.assert_array_equal(state.running_mean, np.zeros(3, dtype=np.float32))
        assert len(ad.active_tape()) == 0


def _bn_prelu_oracle(x, gamma, beta, slope, mean, var, train, g):
    """The BatchNorm+PReLU formulas the op ran before its tiled kernels,
    whole-array numpy in x's dtype: a dict of the output, the four
    gradients, the statistics used and the batchnorm output y and
    normalized input xhat."""
    if train:
        mean, var = x.mean(axis=(0, 2)), x.var(axis=(0, 2))
    col = lambda v: v[None, :, None]  # noqa: E731
    inv = 1.0 / np.sqrt(var + BN_EPS)
    xhat = (x - col(mean)) * col(inv)
    y = xhat * col(gamma) + col(beta)
    mask = y > 0
    gy = np.where(mask, g, col(slope) * g)
    gxhat = gy * col(gamma)
    if train:
        gx = col(inv) * (
            gxhat
            - gxhat.mean(axis=(0, 2), keepdims=True)
            - xhat * (gxhat * xhat).mean(axis=(0, 2), keepdims=True)
        )
    else:
        gx = gxhat * col(inv)
    return {
        "out": np.where(mask, y, col(slope) * y),
        "x.grad": gx,
        "gamma.grad": (gy * xhat).sum(axis=(0, 2)),
        "beta.grad": gy.sum(axis=(0, 2)),
        "slope.grad": (g * y * ~mask).sum(axis=(0, 2)),
        "mean": mean,
        "var": var,
        "y": y,
        "xhat": xhat,
    }


def _bn_prelu_case(rng, shape, batch=4):
    """float32 x, gamma, beta, slope, running mean and var and an upstream
    gradient for one [C, L] decoder shape, at decoder-like scales."""
    C, L = shape
    x = rng.standard_normal((batch, C, L)) * rng.uniform(0.5, 3.0, C)[:, None]
    x += rng.uniform(-2.0, 2.0, C)[:, None]
    arrays = (
        x,
        rng.uniform(0.5, 1.5, C),
        0.5 * rng.standard_normal(C),
        rng.uniform(0.0, 0.5, C),
        rng.standard_normal(C),
        rng.uniform(0.5, 2.0, C),
        rng.standard_normal((batch, C, L)),
    )
    return [a.astype(np.float32) for a in arrays]


class TestBatchNormPReLUOracle:
    """The fused op's tiled kernels against the formulas they replaced: the
    forward keeps their bits, and the float32 results stay near their
    float64 values.

    Over the accuracy test's cases the oracle run in float32, which is what
    the op computed before its tiled kernels, lies at most 3.5e-7 from
    float64 (slope.grad, 2.9 float32 eps; max abs error over max abs value),
    and so do the tiled kernels. The bound, 8 eps = 9.5e-7, leaves a margin
    of 2.7x."""

    BOUND = 8 * np.finfo(np.float32).eps

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("train", [True, False])
    def test_forward_keeps_the_oracles_bits(self, dtype, train):
        rng = np.random.default_rng(53)
        for batch in (2, 4, 5):
            for shape in _decoder_bn_shapes():
                case = [a.astype(dtype) for a in _bn_prelu_case(rng, shape, batch)]
                x, gamma, beta, slope, rm, rv, g = case
                want = _bn_prelu_oracle(x, gamma, beta, slope, rm, rv, train, g)
                state = ad.BatchNormState(rm.copy(), rv.copy())
                out = _tiled_bn_prelu_run(x, gamma, beta, slope, state, train, g)[0]
                np.testing.assert_array_equal(_bits(out), _bits(want["out"]))
                if train:
                    for got, old, new in ((state.running_mean, rm, want["mean"]),
                                          (state.running_var, rv, want["var"])):
                        np.testing.assert_array_equal(
                            _bits(got), _bits((1 - BN_MOMENTUM) * old + BN_MOMENTUM * new)
                        )

    @pytest.mark.parametrize("train", [True, False])
    def test_float32_within_bound_of_float64_oracle(self, train):
        rng = np.random.default_rng(50)
        for shape in _decoder_bn_shapes():
            x, gamma, beta, slope, rm, rv, g = _bn_prelu_case(rng, shape)
            wide = [a.astype(np.float64) for a in (x, gamma, beta, slope, rm, rv)]
            want = _bn_prelu_oracle(*wide, train, g.astype(np.float64))
            # Where the float64 pre-activation lies within 64 float32 eps of
            # its terms' size from 0, float32 may take the other side of the
            # PReLU, which moves one x.grad element by (1 - s)*g and every
            # sum over it. Those elements are left out: g is 0 there.
            terms = np.abs(want["xhat"] * wide[1][None, :, None]) + np.abs(wide[2])[None, :, None]
            g[np.abs(want["y"]) <= 64 * np.finfo(np.float32).eps * terms] = 0
            want = _bn_prelu_oracle(*wide, train, g.astype(np.float64))
            state = ad.BatchNormState(rm.copy(), rv.copy())
            names = ("out", "x.grad", "gamma.grad", "beta.grad", "slope.grad")
            got = dict(zip(names, _tiled_bn_prelu_run(x, gamma, beta, slope, state, train, g)))
            if train:
                got["running_mean"], got["running_var"] = state.running_mean, state.running_var
                want["running_mean"] = (1 - BN_MOMENTUM) * wide[4] + BN_MOMENTUM * want["mean"]
                want["running_var"] = (1 - BN_MOMENTUM) * wide[5] + BN_MOMENTUM * want["var"]
            for name, value in got.items():
                assert value.dtype == np.float32, name
                err = np.max(np.abs(value - want[name])) / np.max(np.abs(want[name]))
                assert err <= self.BOUND, f"{name} {shape}: {err:.3g}"


class TestBatchNormPReLUTiles:
    """The tile size and the ufunc buffer change the speed alone: no bit of
    any result hangs on them, nor on the layout of the upstream gradient."""

    def _results(self, x, gamma, beta, slope, rm, rv, g, train):
        state = ad.BatchNormState(rm.copy(), rv.copy())
        results = _tiled_bn_prelu_run(x, gamma, beta, slope, state, train, g)
        return results + [state.running_mean, state.running_var]

    @pytest.mark.parametrize("train", [True, False])
    def test_one_channel_and_whole_array_tiles_give_the_same_bits(self, train, monkeypatch):
        rng = np.random.default_rng(51)
        for shape in _decoder_bn_shapes():
            case = _bn_prelu_case(rng, shape)
            want = self._results(*case, train)
            for name, value in (("TILE", 1), ("TILE", case[0].size),
                                ("LONG_ROW", 1), ("LONG_ROW", 1 << 30)):
                monkeypatch.setattr(ops, name, value)
                got = self._results(*case, train)
                for a, b in zip(got, want):
                    np.testing.assert_array_equal(_bits(a), _bits(b), err_msg=f"{shape} {name}")
                monkeypatch.undo()

    def test_buffer_size_restored_after_the_op_and_after_an_error(self, monkeypatch):
        rng = np.random.default_rng(54)
        x, gamma, beta, slope, rm, rv, g = _bn_prelu_case(rng, (64, 4096))
        before = np.getbufsize()
        self._results(x, gamma, beta, slope, rm, rv, g, True)
        assert np.getbufsize() == before

        def boom(*args):
            raise RuntimeError("boom")

        monkeypatch.setattr(ops, "_batchnorm_tile", boom)
        weight = Tensor(np.ones((64, 1, 3), dtype=np.float32))
        with pytest.raises(RuntimeError, match="boom"):
            ad.batchnorm_prelu_conv_transpose1d(Tensor(x), Tensor(gamma), Tensor(beta),
                                                Tensor(slope), ad.BatchNormState(rm, rv), False,
                                                weight)
        assert np.getbufsize() == before

    @pytest.mark.parametrize("train", [True, False])
    def test_transposed_upstream_gradient_gives_the_same_bits(self, train):
        # conv_transpose1d hands its input gradient over as a [B, C, L]
        # view of a [C, B, L] array.
        rng = np.random.default_rng(52)
        for shape in _decoder_bn_shapes():
            x, gamma, beta, slope, rm, rv, g = _bn_prelu_case(rng, shape)
            view = np.ascontiguousarray(g.transpose(1, 0, 2)).transpose(1, 0, 2)
            assert not view.flags["C_CONTIGUOUS"]
            runs = [
                _tiled_bn_prelu_run(x, gamma, beta, slope,
                                    ad.BatchNormState(rm.copy(), rv.copy()), train, upstream)
                for upstream in (g, view)
            ]
            for a, b in zip(*runs):
                np.testing.assert_array_equal(_bits(a), _bits(b), err_msg=f"{shape}")


class TestThreadLocalGradMode:
    def test_interleaved_no_grad_blocks_in_two_threads(self):
        # A enters no_grad, B enters no_grad, A exits, B exits. With one
        # process-wide flag, B's exit would restore the "off" it saw on entry.
        a_in, b_in, a_out = threading.Event(), threading.Event(), threading.Event()
        seen = {}

        def thread_a():
            with ad.no_grad():
                a_in.set()
                assert b_in.wait(5)
            x = Tensor(np.ones(2), requires_grad=True)
            x + x  # recorded on A's own tape
            seen["a_tape"] = len(ad.active_tape())
            a_out.set()

        def thread_b():
            assert a_in.wait(5)
            with ad.no_grad():
                b_in.set()
                assert a_out.wait(5)
                seen["b_grad_after_a_exit"] = ad.is_grad_enabled()

        threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        assert not any(t.is_alive() for t in threads)
        assert seen == {"a_tape": 1, "b_grad_after_a_exit": False}
        assert ad.is_grad_enabled() is True
        assert len(ad.active_tape()) == 0


class TestRmsprop:
    def test_zero_gradient_decays_accumulator_only(self):
        p = Tensor(np.array([1.0, 2.0]))
        state = ad.RmspropState(lr=0.1, square_avg=[np.array([4.0, 4.0])])
        ad.rmsprop_step([p], [np.zeros(2)], state)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        np.testing.assert_allclose(state.square_avg[0], [3.96, 3.96])

    def test_first_step_closed_form(self):
        g = 0.5
        lr, rho, eps = 0.01, 0.99, 1e-8
        p = Tensor(np.array([1.0]))
        state = ad.RmspropState.for_params([p], lr=lr)
        ad.rmsprop_step([p], [np.array([g])], state)
        expected = 1.0 - lr * g / (np.sqrt((1 - rho) * g * g) + eps)
        assert p.data[0] == pytest.approx(expected, rel=1e-14)

    def test_two_step_hand_trace(self):
        lr, rho, eps, g = 0.1, 0.99, 1e-8, 0.5
        p = Tensor(np.array([1.0]))
        state = ad.RmspropState.for_params([p], lr=lr)
        acc = 0.0
        expected = 1.0
        for _ in range(2):
            acc = rho * acc + (1 - rho) * g * g
            expected -= lr * g / (np.sqrt(acc) + eps)
            ad.rmsprop_step([p], [np.array([g])], state)
        assert p.data[0] == pytest.approx(expected, rel=1e-14)
        assert state.square_avg[0][0] == pytest.approx(acc, rel=1e-14)

    def test_shape_mismatch_rejected(self):
        p = Tensor(np.zeros(3))
        state = ad.RmspropState.for_params([p], lr=0.1)
        with pytest.raises(ShapeMismatchError):
            ad.rmsprop_step([p], [np.zeros(4)], state)

    def test_blocked_update_bit_identical_to_closed_form(self):
        # 100,003 elements cross several block boundaries and end in a
        # partial block; the second parameter has no gradient.
        rng = np.random.default_rng(15)
        lr, rho, eps = 3e-4, 0.99, 1e-8
        big = Tensor(rng.standard_normal(100_003))
        frozen = Tensor(rng.standard_normal((4, 5)))
        state = ad.RmspropState.for_params([big, frozen], lr=lr)
        state.square_avg[1][:] = rng.uniform(0.0, 1.0, (4, 5))
        p_ref, acc_ref = big.data.copy(), np.zeros(100_003)
        frozen_ref, acc_frozen_ref = frozen.data.copy(), state.square_avg[1].copy()
        for _ in range(2):
            g = rng.standard_normal(100_003)
            ad.rmsprop_step([big, frozen], [g, None], state)
            acc_ref *= rho
            acc_ref += (1.0 - rho) * g * g
            p_ref -= lr * g / (np.sqrt(acc_ref) + eps)
            acc_frozen_ref *= rho
        np.testing.assert_array_equal(big.data, p_ref)
        np.testing.assert_array_equal(state.square_avg[0], acc_ref)
        np.testing.assert_array_equal(frozen.data, frozen_ref)
        np.testing.assert_array_equal(state.square_avg[1], acc_frozen_ref)

    def test_non_contiguous_parameter_updated_in_place(self):
        # A transposed array cannot be flattened without a copy; the update
        # must still land in the parameter and the accumulator.
        rng = np.random.default_rng(16)
        p = Tensor(rng.standard_normal((3, 5)).T)
        state = ad.RmspropState(lr=0.1, square_avg=[np.ones((3, 5)).T])
        assert not p.data.flags.c_contiguous and not state.square_avg[0].flags.c_contiguous
        g = rng.standard_normal((5, 3))
        acc_ref = 0.99 + (1 - 0.99) * g * g
        p_ref = p.data - 0.1 * g / (np.sqrt(acc_ref) + EPS)
        ad.rmsprop_step([p], [g], state)
        np.testing.assert_allclose(state.square_avg[0], acc_ref, rtol=1e-15)
        np.testing.assert_allclose(p.data, p_ref, rtol=1e-15)


def _bn_state(dtype, mean, var):
    return ad.BatchNormState(mean.astype(dtype), var.astype(dtype))


# Each case: (input shapes, forward over tensors). Every input carries a
# gradient; ops with a non-scalar output are reduced to a scalar by an MSE
# against a fixed random target of the same dtype.
DTYPE_CASES = {
    "conv1d": (
        [(2, 3, 20), (4, 3, 5), (4,)],
        lambda x, w, b: ad.conv1d(x, w, b, stride=2, padding=1),
    ),
    "conv_transpose1d": (
        [(2, 3, 9), (3, 4, 6), (4,)],
        lambda x, w, b: ad.conv_transpose1d(x, w, b, stride=3, padding=1, output_padding=1),
    ),
    "batchnorm1d_train": (
        [(3, 4, 7), (4,), (4,)],
        lambda x, g, b: ad.batchnorm1d(
            x, g, b, _bn_state(x.data.dtype, np.zeros(4), np.ones(4)), train=True
        ),
    ),
    "batchnorm1d_eval": (
        [(3, 4, 7), (4,), (4,)],
        lambda x, g, b: ad.batchnorm1d(
            x, g, b, _bn_state(x.data.dtype, np.linspace(-0.2, 0.2, 4), np.linspace(0.5, 2.0, 4)),
            train=False,
        ),
    ),
    "batchnorm_prelu_conv_transpose1d": (
        [(3, 4, 7), (4,), (4,), (4,), (4, 2, 5), (2,)],
        lambda x, g, b, s, w, c: ad.batchnorm_prelu_conv_transpose1d(
            x, g, b, s, _bn_state(x.data.dtype, np.zeros(4), np.ones(4)), True, w, c,
            stride=2, padding=1, output_padding=1,
        ),
    ),
    "prelu": ([(2, 3, 8), (3,)], ad.prelu),
    "leaky_relu": ([(2, 3, 8)], ad.leaky_relu),
    "tanh": ([(2, 3, 8)], ad.tanh),
    "framed_band_energy": ([(2, 1, 64)], lambda x: ad.framed_band_energy(x, BASIS, PART)),
    "mse_loss": ([(3, 5), (3, 5)], ad.mse_loss),
    "bce_logit_loss": (
        [(6, 1)],
        lambda z: ad.bce_logit_loss(z, np.array([[0.0], [1.0], [1.0], [0.0], [1.0], [0.0]])),
    ),
    "linear": ([(3, 5), (5, 2), (2,)], ad.linear),
}


def _run_case(name, dtype):
    shapes, fn = DTYPE_CASES[name]
    rng = np.random.default_rng(21)
    inputs = [Tensor(rng.standard_normal(s).astype(dtype), requires_grad=True) for s in shapes]
    out = fn(*inputs)
    loss = out
    if out.size != 1:
        loss = ad.mse_loss(out, Tensor(rng.standard_normal(out.shape).astype(dtype)))
    ad.backward(loss)
    return out, inputs


class TestFloat32:
    @pytest.mark.parametrize("name", sorted(DTYPE_CASES))
    def test_op_matches_float64_in_float32(self, name):
        out32, in32 = _run_case(name, np.float32)
        out64, in64 = _run_case(name, np.float64)
        assert out32.data.dtype == np.float32 and out64.data.dtype == np.float64
        np.testing.assert_allclose(out32.data, out64.data, rtol=1e-4)
        for t32, t64 in zip(in32, in64):
            assert t32.grad.dtype == np.float32
            np.testing.assert_allclose(t32.grad, t64.grad, rtol=1e-4)

    def test_tensor_keeps_float_dtypes_and_promotes_the_rest(self):
        assert Tensor(np.zeros(3, dtype=np.float32)).data.dtype == np.float32
        assert Tensor(np.zeros(3)).data.dtype == np.float64
        assert Tensor(np.arange(3)).data.dtype == np.float64
        assert Tensor([1, 2]).data.dtype == np.float64
        assert Tensor(np.zeros(3, dtype=np.float16)).data.dtype == np.float64

    def test_sum_gradient_keeps_dtype(self):
        x = Tensor(np.ones((2, 3), dtype=np.float32), requires_grad=True)
        ad.backward(x.sum())
        assert x.grad.dtype == np.float32
        np.testing.assert_array_equal(x.grad, np.ones((2, 3), dtype=np.float32))

    def test_scalar_multiple_keeps_dtype(self):
        # A 0-d float32 loss times a Python float stays float32, forward and
        # backward (NumPy before 2.0 promotes such a product to float64).
        x = Tensor(np.float32(2.5), requires_grad=True)
        y = -1.0 * x
        assert y.data.dtype == np.float32 and y.item() == -2.5
        ad.backward(y)
        assert x.grad.dtype == np.float32 and x.grad == -1.0

    def test_rmsprop_updates_float32_in_float32(self):
        rng = np.random.default_rng(3)
        p = Tensor(rng.standard_normal(70_001).astype(np.float32), requires_grad=True)
        g = rng.standard_normal(70_001).astype(np.float32)
        state = ad.RmspropState.for_params([p], lr=0.01)
        expected_acc = (np.float32(1 - 0.99) * g) * g
        expected_p = p.data - (g * np.float32(0.01)) / (np.sqrt(expected_acc) + np.float32(1e-8))
        ad.rmsprop_step([p], [g], state)
        assert p.data.dtype == np.float32 and state.square_avg[0].dtype == np.float32
        np.testing.assert_array_equal(state.square_avg[0], expected_acc)
        np.testing.assert_array_equal(p.data, expected_p)


def _pair(shape_a, shape_b):
    rng = np.random.default_rng(4)
    return (
        Tensor(rng.standard_normal(shape_a).astype(np.float32), requires_grad=True),
        Tensor(rng.standard_normal(shape_b), requires_grad=True),
    )


class TestMixedDtypes:
    @pytest.mark.parametrize(
        "call",
        [
            lambda: ad.conv1d(*_pair((1, 2, 8), (3, 2, 3))),
            lambda: ad.conv_transpose1d(*_pair((1, 2, 8), (2, 3, 3))),
            lambda: ad.batchnorm1d(*_pair((2, 3, 4), (3,)), Tensor(np.zeros(3)),
                                   ad.BatchNormState.for_channels(3), train=True),
            lambda: ad.prelu(*_pair((1, 3, 4), (3,))),
            lambda: ad.linear(*_pair((2, 3), (3, 4))),
            lambda: ad.concat_channels(*_pair((1, 2, 4), (1, 1, 4))),
            lambda: ad.mse_loss(*_pair((2, 3), (2, 3))),
            lambda: Tensor.__add__(*_pair((2, 3), (2, 3))),
        ],
        ids=["conv1d", "conv_transpose1d", "batchnorm1d", "prelu", "linear", "concat_channels",
             "mse_loss", "add"],
    )
    def test_op_with_mixed_operands_raises(self, call):
        with pytest.raises(InvalidInputError, match="mix dtypes"):
            call()
        assert len(ad.active_tape()) == 0

    @pytest.mark.parametrize("train", [True, False])
    def test_batchnorm_state_of_another_dtype_raises(self, train):
        x, gamma, beta = (Tensor(np.ones(s, dtype=np.float32), requires_grad=True)
                          for s in ((2, 3, 4), (3,), (3,)))
        state = ad.BatchNormState.for_channels(3)
        with pytest.raises(InvalidInputError, match="running statistics"):
            ad.batchnorm1d(x, gamma, beta, state, train=train)
        assert state.running_mean.dtype == np.float64 and len(ad.active_tape()) == 0

    def test_rmsprop_rejects_parameters_of_mixed_dtypes(self):
        params = list(_pair((3,), (3,)))
        grads = [np.ones(3, dtype=np.float32), np.ones(3)]
        state = ad.RmspropState.for_params(params, lr=0.1)
        before = [p.data.copy() for p in params]
        with pytest.raises(InvalidInputError, match="mix dtypes"):
            ad.rmsprop_step(params, grads, state)
        for p, b in zip(params, before):
            np.testing.assert_array_equal(p.data, b)

    def test_backward_rejects_gradient_of_another_dtype(self):
        x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
        y = Tensor(x.data * 2)
        ad.record(y, (x,), lambda g: (g.astype(np.float64) * 2,))
        with pytest.raises(InvalidInputError, match="gradient dtype float64"):
            ad.backward(y.sum())
        assert x.grad is None
