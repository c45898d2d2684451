"""DSP kernel tests against direct (O(n^2)) oracles."""

import numpy as np
import pytest

from rirlab.dsp import (
    Signal,
    StftConfig,
    band_power,
    fft_convolve,
    make_dft_basis,
    octave_bands,
    spectral_deconvolve,
    stft,
)
from rirlab.errors import InvalidConfigError, InvalidInputError
from rirlab.profiles import get_profile


def dft_oracle(frame):
    """Direct one-sided DFT, quadratic time."""
    n = frame.size
    out = np.zeros(n // 2 + 1, dtype=complex)
    for k in range(n // 2 + 1):
        for t in range(n):
            out[k] += frame[t] * np.exp(-2j * np.pi * k * t / n)
    return out


def hann(n):
    """The periodic Hann window, sample by sample."""
    return np.array([np.sin(np.pi * t / n) ** 2 for t in range(n)])


def conv_oracle(a, b):
    out = np.zeros(a.size + b.size - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] += ai * bj
    return out


class TestStft:
    def test_zero_signal_gives_zero_matrix(self):
        cfg = StftConfig(64, 32)
        spec = stft(Signal(np.zeros(256), 8000), cfg)
        assert spec.shape == (7, 33)
        assert np.all(spec == 0)

    def test_cosine_at_exact_bin_fills_the_hann_main_lobe(self):
        n = 64
        cfg = StftConfig(n, n)
        k0 = 5
        x = np.cos(2 * np.pi * k0 * np.arange(n * 3) / n)
        spec = stft(Signal(x, 8000), cfg)
        power = np.abs(spec) ** 2
        # The periodic Hann window's DFT is 1/2 at bin 0 and -1/4 at bins
        # +-1, so the cosine lands in bins k0-1..k0+1 with powers 1:4:1.
        for frame in power:
            assert frame[k0 - 1 : k0 + 2].sum() > (1 - 1e-12) * frame.sum()
            np.testing.assert_allclose(frame[[k0 - 1, k0 + 1]], frame[k0] / 4, rtol=1e-9)
        # frame 0 against the direct DFT oracle of the windowed frame
        oracle = dft_oracle(x[:n] * hann(n))
        np.testing.assert_allclose(spec[0], oracle, atol=1e-9)

    def test_parseval_on_hann_windowed_frames(self):
        rng = np.random.default_rng(3)
        n = 128
        x = rng.standard_normal(n * 4)
        cfg = StftConfig(n, n // 2)
        spec = stft(Signal(x, 8000), cfg)
        # one-sided: interior bins carry both halves of the spectrum
        weights = np.full(cfg.n_bins, 2.0)
        weights[0] = 1.0
        weights[-1] = 1.0
        spectral = np.sum(weights[None, :] * np.abs(spec) ** 2, axis=1) / n
        starts = np.arange(spec.shape[0]) * cfg.hop
        frames = np.stack([x[s : s + n] for s in starts])
        np.testing.assert_allclose(spectral, np.sum((frames * hann(n)) ** 2, axis=1), rtol=1e-12)

    @pytest.mark.parametrize("length", [64, 65, 100, 256, 1000])
    @pytest.mark.parametrize("window,hop", [(64, 64), (64, 32), (64, 16), (64, 7)])
    def test_frame_count_formula(self, length, window, hop):
        cfg = StftConfig(window, hop)
        spec = stft(Signal(np.ones(length), 8000), cfg)
        assert spec.shape[0] == (length - window) // hop + 1

    def test_signal_shorter_than_window_rejected(self):
        with pytest.raises(InvalidInputError):
            stft(Signal(np.ones(63), 8000), StftConfig(64, 32))

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        x = Signal(rng.standard_normal(500), 16000)
        cfg = StftConfig(128, 64)
        np.testing.assert_array_equal(stft(x, cfg), stft(x, cfg))


class TestBandPower:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("profile_name", ["toy", "full"])
    def test_each_row_equals_the_row_alone(self, profile_name, dtype):
        # Validation scores a chunk of rows and metric_report a pair in one
        # call; each row's bits must not depend on the rows beside it.
        profile = get_profile(profile_name)
        cfg = profile.train.stft()
        part = octave_bands(
            profile.estimator.sample_rate, cfg.window_size, list(profile.train.band_centers)
        )
        basis = make_dft_basis(cfg)
        rng = np.random.default_rng(5)
        for n in (1, 2, 4, 16):
            rows = rng.uniform(-1, 1, (n, profile.estimator.rir_len)).astype(dtype)
            power = band_power(rows, basis, part)
            assert power.dtype == dtype
            assert power.shape == (n, part.n_bands, cfg.frame_count(rows.shape[1]))
            for i in range(n):
                np.testing.assert_array_equal(power[i], band_power(rows[i : i + 1], basis, part)[0])


class TestOctaveBands:
    CENTERS = [16, 32, 63, 125, 250, 500, 1000, 2000, 4000]

    def test_reference_centers_at_16k(self):
        part = octave_bands(16000, 256, self.CENTERS)
        # 32 Hz owns no 62.5 Hz-spaced bin and merges upward
        assert 32.0 not in part.centers
        assert (32.0, 63.0) in part.merged
        assert part.centers[0] == 16.0
        assert part.bin_ranges[0] == (0, 1)  # DC belongs to the lowest band

    def test_disjoint_contiguous_cover(self):
        part = octave_bands(16000, 256, self.CENTERS)
        covered = []
        for start, stop in part.bin_ranges:
            assert stop > start
            covered.extend(range(start, stop))
        top_edge = 4000 * np.sqrt(2)
        freqs = np.arange(129) * (16000 / 256)
        assert covered == list(range(np.count_nonzero(freqs < top_edge)))

    def test_each_covered_bin_in_log_nearest_band(self):
        part = octave_bands(16000, 256, self.CENTERS)
        freqs = np.arange(129) * (16000 / 256)
        for band, (start, stop) in enumerate(part.bin_ranges):
            for k in range(start, stop):
                if k == 0:
                    continue
                dist = [abs(np.log(freqs[k]) - np.log(c)) for c in part.centers]
                assert int(np.argmin(dist)) == band

    def test_single_center_owns_all_bins_below_edge(self):
        part = octave_bands(8000, 64, [1000])
        assert part.centers == (1000.0,)
        freqs = np.arange(33) * (8000 / 64)
        expected = np.count_nonzero(freqs < 1000 * np.sqrt(2))
        assert part.bin_ranges == ((0, expected),)

    def test_bin_count_totals(self):
        part = octave_bands(8000, 64, [125, 250, 500, 1000, 2000])
        total = sum(stop - start for start, stop in part.bin_ranges)
        assert total == part.bin_ranges[-1][1]

    def test_center_at_nyquist_rejected(self):
        with pytest.raises(InvalidInputError):
            octave_bands(8000, 64, [125, 4000])

    def test_non_increasing_centers_rejected(self):
        with pytest.raises(InvalidInputError):
            octave_bands(8000, 64, [250, 125])

    @pytest.mark.parametrize(
        "centers",
        [[float("nan"), 125.0], ["x"], [float("nan")], [True], [125.0, False], [10**400],
         [-10**400]],
    )
    def test_non_finite_or_non_real_center_rejected(self, centers):
        with pytest.raises(InvalidInputError, match="finite real"):
            octave_bands(8000, 64, centers)

    @pytest.mark.parametrize("sample_rate, fft_size, name", [
        (8000, 0, "fft_size"), (8000, 3.5, "fft_size"), (8000, True, "fft_size"),
        ("8000", 64, "sample_rate"), (0, 64, "sample_rate"), (8000.0, 64, "sample_rate"),
    ])
    def test_rate_and_fft_size_must_be_positive_integers(self, sample_rate, fft_size, name):
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer in "):
            octave_bands(sample_rate, fft_size, [100.0])


class TestFftConvolve:
    def test_identity_kernel(self):
        rng = np.random.default_rng(1)
        clean = Signal(rng.standard_normal(100), 8000)
        rir = Signal(np.r_[1.0, np.zeros(9)], 8000)
        out = fft_convolve(clean, rir)
        assert len(out) == 109
        np.testing.assert_allclose(out.samples[:100], clean.samples, atol=1e-12)
        np.testing.assert_allclose(out.samples[100:], 0, atol=1e-12)

    def test_impulse_clean_returns_rir(self):
        rng = np.random.default_rng(2)
        rir = Signal(rng.standard_normal(30), 8000)
        clean = Signal(np.r_[1.0, np.zeros(4)], 8000)
        out = fft_convolve(clean, rir)
        np.testing.assert_allclose(out.samples[:30], rir.samples, atol=1e-12)

    def test_matches_direct_oracle(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal(50)
        b = rng.standard_normal(30)
        out = fft_convolve(Signal(a, 8000), Signal(b, 8000)).samples
        oracle = conv_oracle(a, b)
        assert np.max(np.abs(out - oracle)) / np.max(np.abs(oracle)) < 1e-10

    def test_commutes(self):
        rng = np.random.default_rng(4)
        a = Signal(rng.standard_normal(40), 8000)
        b = Signal(rng.standard_normal(25), 8000)
        ab = fft_convolve(a, b).samples
        ba = fft_convolve(b, a).samples
        assert np.max(np.abs(ab - ba)) <= 1e-10 * np.max(np.abs(ab))

    def test_linear_in_first_argument(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal(40)
        b = rng.standard_normal(40)
        r = Signal(rng.standard_normal(16), 8000)
        lhs = fft_convolve(Signal(a + b, 8000), r).samples
        rhs = fft_convolve(Signal(a, 8000), r).samples + fft_convolve(Signal(b, 8000), r).samples
        assert np.max(np.abs(lhs - rhs)) <= 1e-10 * max(np.max(np.abs(lhs)), 1.0)

    def test_sample_rate_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            fft_convolve(Signal(np.ones(10), 8000), Signal(np.ones(10), 16000))


class TestSpectralDeconvolve:
    def test_recovers_rir_from_forward_convolution(self):
        rng = np.random.default_rng(6)
        clean = Signal(rng.standard_normal(1024), 16000)
        rir = Signal(rng.standard_normal(64) * 0.2, 16000)
        reverberant = fft_convolve(clean, rir)
        recovered = spectral_deconvolve(reverberant, clean, out_len=64)
        assert np.mean((recovered.samples - rir.samples) ** 2) < 1e-8

    def test_identity_reverberant_gives_impulse(self):
        rng = np.random.default_rng(7)
        clean = Signal(rng.standard_normal(256), 8000)
        recovered = spectral_deconvolve(clean, clean, out_len=16)
        assert recovered.samples[0] == pytest.approx(1.0, abs=1e-6)
        assert np.max(np.abs(recovered.samples[1:])) < 1e-6

    def test_zeroed_spectral_bin_stays_finite(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(128)
        spec = np.fft.rfft(x, 128)
        spec[10] = 0.0
        clean = Signal(np.fft.irfft(spec, 128), 8000)
        rev = Signal(rng.standard_normal(128), 8000)
        out = spectral_deconvolve(rev, clean, out_len=128)
        assert np.all(np.isfinite(out.samples))

    def test_out_len_validation(self):
        clean = Signal(np.ones(16), 8000)
        with pytest.raises(InvalidInputError, match=r"out_len must be in \[1, 16\], got 64"):
            spectral_deconvolve(clean, clean, out_len=64)

    @pytest.mark.parametrize("out_len", [5.5, True, 0, "8", None])
    def test_out_len_must_be_a_positive_integer(self, out_len):
        clean = Signal(np.ones(16), 8000)
        with pytest.raises(InvalidInputError, match="out_len must be an integer in "):
            spectral_deconvolve(clean, clean, out_len)


class TestTypes:
    def test_signal_rejects_nan(self):
        for dtype in (np.float64, np.float32):  # each kept as given
            with pytest.raises(InvalidInputError):
                Signal(np.array([0.0, np.nan], dtype), 8000)

    @pytest.mark.parametrize(
        "samples, kept",
        [
            (np.arange(4, dtype=np.float64), True),
            (np.arange(4, dtype=np.float32), True),
            (np.arange(4, dtype=np.float16), False),
            (np.arange(4, dtype=">f4"), False),
            (np.arange(4), False),
            ([0, 1.5, 2, 3], False),
        ],
        ids=["float64", "float32", "float16", "big_endian_float32", "int", "list"],
    )
    def test_signal_keeps_float32_and_float64_and_widens_the_rest(self, samples, kept):
        signal = Signal(samples, 8000)
        if kept:
            assert signal.samples is samples
        else:
            assert signal.samples.dtype == np.float64
            np.testing.assert_array_equal(signal.samples, np.asarray(samples, np.float64))

    def test_signal_rejects_bad_rate(self):
        with pytest.raises(InvalidInputError):
            Signal(np.zeros(4), 0)

    @pytest.mark.parametrize("rate", [16000.7, 16000.0, True, "16000", None, np.float64(8000)])
    def test_signal_rejects_a_rate_that_is_not_an_integer(self, rate):
        with pytest.raises(InvalidInputError, match="sample_rate"):
            Signal(np.zeros(4), rate)

    def test_signal_stores_a_numpy_integer_rate_as_int(self):
        rate = Signal(np.zeros(4), np.int64(8000)).sample_rate
        assert rate == 8000 and type(rate) is int

    def test_stft_config_validation(self):
        with pytest.raises(InvalidConfigError):
            StftConfig(100, 32)  # not a power of two
        with pytest.raises(InvalidConfigError):
            StftConfig(64, 0)
        with pytest.raises(InvalidConfigError):
            StftConfig(64, 65)
        # bools and floats are not integers, even where they compare equal to one
        for window_size, hop in ((True, True), (64, 32.0), (64, True), (64.0, 32)):
            with pytest.raises(InvalidConfigError):
                StftConfig(window_size, hop)
