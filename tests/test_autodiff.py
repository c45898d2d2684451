"""Engine tests: forward oracles, finite-difference gradients, tape
semantics, and the optimizer's closed forms."""

import threading
import weakref

import numpy as np
import pytest

from conftest import numeric_grad, relative_error
from rirlab import autodiff as ad
from rirlab import models
from rirlab.autodiff import Tensor
from rirlab.dsp import Signal, StftConfig, octave_bands
from rirlab.errors import InvalidConfigError, InvalidInputError, ShapeMismatchError
from rirlab.metrics import edr

CFG = StftConfig(16, 8, "hann")
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
        out = ad.leaky_relu(Tensor(np.array([[[-1.0, 2.0]]])), slope=0.2)
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
    node_id, _, backward_fn = ad.active_tape().entries[-1]
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
    @pytest.mark.parametrize("slope", [None, 0.25, 1.7, -0.3, 0.0])
    def test_leaky_relu_matches_where_reference(self, dtype, slope):
        x, g = _activation_inputs(dtype)
        xt = Tensor(x, requires_grad=True)
        out = ad.leaky_relu(xt) if slope is None else ad.leaky_relu(xt, slope)
        (gx,) = _closure(out)(g)
        s = 0.2 if slope is None else slope  # the default slope
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

class TestFramedBandEnergy:
    def test_matches_fft_edr(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            x = rng.uniform(-1, 1, 120)
            ref = edr(Signal(x, 256), CFG, PART).values
            out = ad.framed_band_energy(Tensor(x[None, None, :]), BASIS, PART)
            assert np.max(np.abs(out.data[0] - ref)) < 1e-8

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


def _full_decoder_tconv_cases():
    """(layer, input shape) of each full-profile decoder tconv at batch 4,
    found by running the layers on an empty batch."""
    net = models.Estimator(models.full_estimator_config(), seed=0, draw=False)
    h, cases = Tensor(np.zeros((0, 1, net.config.input_len), dtype=net.dtype)), []
    with ad.no_grad():
        for _, layer in net.layers:
            if isinstance(layer, models.ConvTranspose1dLayer):
                cases.append((layer, (4,) + h.shape[1:]))
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
        rng = np.random.default_rng(22)
        for layer, shape in _full_decoder_tconv_cases():
            x = Tensor(rng.standard_normal(shape).astype(dtype))
            w = Tensor(rng.standard_normal(layer.weight.shape).astype(dtype), requires_grad=True)
            out = ad.conv_transpose1d(
                x, w, stride=layer.stride, padding=layer.padding,
                output_padding=layer.output_padding,
            )
            g = rng.standard_normal(out.shape).astype(dtype)
            _, gw = ad.active_tape().entries.pop()[2](g)
            assert gw.flags["C_CONTIGUOUS"]
            # Reference check: the einsum this GEMM replaced, bit for bit.
            K, stride, padding = w.shape[2], layer.stride, layer.padding
            L_full = (x.shape[2] - 1) * stride + K
            gfull = np.zeros(out.shape[:2] + (L_full,), dtype=dtype)
            span = min(L_full, padding + out.shape[2]) - padding
            gfull[:, :, padding : padding + span] = g[:, :, :span]
            gwin = np.lib.stride_tricks.sliding_window_view(gfull, K, axis=2)
            gwin = gwin[:, :, ::stride, :][:, :, : x.shape[2], :]
            want = np.einsum("bil,bolk->iok", x.data, gwin, optimize=True)
            np.testing.assert_array_equal(gw, want)

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
        assert [entry[0] for entry in ad.active_tape().entries] == [other.node_id]
        np.testing.assert_array_equal(v.grad, np.ones(3))  # reached before boom
        assert x.grad is None
        with pytest.raises(InvalidInputError):
            ad.backward(loss)


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
        state = ad.RmspropState(lr=0.1, rho=0.9, square_avg=[np.array([4.0, 4.0])])
        ad.rmsprop_step([p], [np.zeros(2)], state)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])
        np.testing.assert_allclose(state.square_avg[0], [3.6, 3.6])

    def test_first_step_closed_form(self):
        g = 0.5
        lr, rho, eps = 0.01, 0.99, 1e-8
        p = Tensor(np.array([1.0]))
        state = ad.RmspropState.for_params([p], lr=lr, rho=rho, eps=eps)
        ad.rmsprop_step([p], [np.array([g])], state)
        expected = 1.0 - lr * g / (np.sqrt((1 - rho) * g * g) + eps)
        assert p.data[0] == pytest.approx(expected, rel=1e-14)

    def test_two_step_hand_trace(self):
        lr, rho, eps, g = 0.1, 0.9, 1e-8, 0.5
        p = Tensor(np.array([1.0]))
        state = ad.RmspropState.for_params([p], lr=lr, rho=rho, eps=eps)
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
        state = ad.RmspropState.for_params([big, frozen], lr=lr, rho=rho, eps=eps)
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
        state = ad.RmspropState(lr=0.1, rho=0.9, square_avg=[np.ones((3, 5)).T])
        assert not p.data.flags.c_contiguous and not state.square_avg[0].flags.c_contiguous
        g = rng.standard_normal((5, 3))
        p_ref = p.data - 0.1 * g / (np.sqrt(0.9 + 0.1 * g * g) + state.eps)
        ad.rmsprop_step([p], [g], state)
        np.testing.assert_allclose(state.square_avg[0], 0.9 + 0.1 * g * g, rtol=1e-15)
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
