"""Acoustic metric tests with hand-rolled oracles."""

import dataclasses

import numpy as np
import pytest

from rirlab import metrics
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
from rirlab.errors import EstimationFailedError, InvalidInputError
from rirlab.metrics import (
    ENERGY_FLOOR,
    drr,
    edr,
    edr_loss,
    ere,
    metric_report,
    mse,
    schroeder_t60,
    write_report,
)

SR = 16000
CFG = StftConfig(64, 32)
BASIS = make_dft_basis(CFG)
PART = octave_bands(SR, 64, [500, 1000, 2000, 4000])
# partition whose top edge exceeds Nyquist: every FFT bin is covered
FULL_COVER = octave_bands(SR, 64, [750, 1500, 3000, 6000])


def naive_edr(samples, cfg, partition):
    """Suffix sums of per-band frame energies by explicit loops."""
    spec = stft(Signal(samples, SR), cfg)
    n_frames = spec.shape[0]
    values = np.zeros((partition.n_bands, n_frames))
    for b, (start, stop) in enumerate(partition.bin_ranges):
        for t in range(n_frames):
            acc = 0.0
            for tau in range(t, n_frames):
                for k in range(start, stop):
                    acc += abs(spec[tau, k]) ** 2
            values[b, t] = acc
    return values


class TestEdr:
    def test_impulse_total_energy_and_empty_frames(self):
        cfg = StftConfig(64, 64)
        x = np.zeros(256)
        x[32] = 1.0  # the Hann window's peak, where it is exactly 1
        matrix = edr(Signal(x, SR), make_dft_basis(cfg), FULL_COVER)
        # band totals at frame 0 sum to the windowed impulse's spectral energy
        assert np.sum(matrix.values[:, 0]) == pytest.approx(cfg.n_bins, rel=1e-12)
        # frames whose window excludes sample 32 hold nothing
        assert np.all(matrix.values[:, 1:] == 0)

    def test_rows_non_increasing(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.uniform(-1, 1, 320)
            matrix = edr(Signal(x, SR), BASIS, PART)
            assert np.all(np.diff(matrix.values, axis=1) <= 1e-12)
            assert np.all(matrix.values >= 0)

    def test_matches_naive_suffix_sum_oracle(self):
        rng = np.random.default_rng(1)
        x = rng.uniform(-1, 1, 512)
        matrix = edr(Signal(x, SR), BASIS, PART)
        oracle = naive_edr(x, CFG, PART)
        np.testing.assert_allclose(matrix.values, oracle, rtol=1e-10, atol=1e-12)

    def test_too_short_rejected(self):
        with pytest.raises(InvalidInputError):
            edr(Signal(np.ones(32), SR), BASIS, PART)


class TestEdrLoss:
    def test_identical_is_exactly_zero(self):
        rng = np.random.default_rng(2)
        x = Signal(rng.uniform(-1, 1, 256), SR)
        total, per_band = edr_loss(x, x, BASIS, PART)
        assert total == 0.0
        assert np.all(per_band == 0.0)

    def test_zero_estimate_matches_hand_loop(self):
        rng = np.random.default_rng(3)
        truth = rng.uniform(-1, 1, 256)
        zeros = Signal(np.zeros(256), SR)
        total, _ = edr_loss(zeros, Signal(truth, SR), BASIS, PART)
        oracle_vals = naive_edr(truth, CFG, PART)
        acc, count = 0.0, 0
        for b in range(oracle_vals.shape[0]):
            for t in range(oracle_vals.shape[1]):
                acc += oracle_vals[b, t] ** 2
                count += 1
        assert total == pytest.approx(acc / count, rel=1e-10)

    def test_symmetric(self):
        rng = np.random.default_rng(4)
        a = Signal(rng.uniform(-1, 1, 256), SR)
        b = Signal(rng.uniform(-1, 1, 256), SR)
        assert edr_loss(a, b, BASIS, PART)[0] == edr_loss(b, a, BASIS, PART)[0]

    def test_quadratic_amplitude_scaling(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, 256)
        b = rng.uniform(-1, 1, 256)
        base, _ = edr_loss(Signal(a, SR), Signal(b, SR), BASIS, PART)
        scaled, _ = edr_loss(Signal(2 * a, SR), Signal(2 * b, SR), BASIS, PART)
        assert scaled == pytest.approx(16.0 * base, rel=1e-10)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            edr_loss(Signal(np.ones(256), SR), Signal(np.ones(255), SR), BASIS, PART)


class TestEre:
    def test_unit_impulse_zero_db(self):
        x = np.zeros(SR)
        x[0] = 1.0
        assert ere(Signal(x, SR)) == pytest.approx(0.0, abs=1e-12)

    def test_half_impulse(self):
        x = np.zeros(SR)
        x[0] = 0.5
        assert ere(Signal(x, SR)) == pytest.approx(10 * np.log10(0.25), abs=1e-9)

    def test_energy_after_80ms_hits_floor(self):
        x = np.zeros(SR)
        x[int(0.081 * SR) :] = 0.3
        assert ere(Signal(x, SR)) == pytest.approx(-120.0, abs=1e-9)

    def test_depends_only_on_early_samples(self):
        rng = np.random.default_rng(6)
        x = rng.uniform(-1, 1, SR)
        before = ere(Signal(x, SR))
        y = x.copy()
        y[int(0.08 * SR) + 1 :] = rng.uniform(-1, 1, y.size - int(0.08 * SR) - 1)
        assert ere(Signal(y, SR)) == before


class TestDrr:
    def test_direct_plus_late_reflection(self):
        x = np.zeros(SR)
        x[0] = 1.0
        x[int(0.05 * SR)] = 0.5
        assert drr(Signal(x, SR)) == pytest.approx(10 * np.log10(4.0), abs=0.01)

    def test_lone_impulse_floor_capped(self):
        x = np.zeros(1000)
        x[100] = 1.0
        assert drr(Signal(x, SR)) == pytest.approx(120.0, abs=1e-9)

    def test_matches_partition_oracle(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            x = rng.standard_normal(2000) * np.exp(-np.arange(2000) / 300.0)
            peak = int(np.argmax(np.abs(x)))
            half = int(round(0.0025 * SR))
            lo, hi = max(0, peak - half), min(x.size, peak + half + 1)
            direct = np.sum(x[lo:hi] ** 2)
            rest = np.sum(x**2) - direct
            expected = 10 * np.log10(direct / max(rest, ENERGY_FLOOR))
            assert drr(Signal(x, SR)) == pytest.approx(expected, abs=1e-12)

    def test_global_scale_invariant(self):
        rng = np.random.default_rng(8)
        x = rng.standard_normal(1500)
        assert drr(Signal(10 * x, SR)) == pytest.approx(drr(Signal(x, SR)), abs=1e-9)

    def test_all_zero_rejected(self):
        with pytest.raises(InvalidInputError):
            drr(Signal(np.zeros(100), SR))


class TestMse:
    def test_identical_zero(self):
        x = Signal(np.arange(10.0), SR)
        assert mse(x, x) == 0.0

    def test_constant_offset(self):
        a = Signal(np.zeros(100), SR)
        b = Signal(np.full(100, 0.01), SR)
        assert mse(a, b) == pytest.approx(1e-4, rel=1e-12)

    def test_matches_naive_loop(self):
        rng = np.random.default_rng(9)
        a, b = rng.standard_normal(77), rng.standard_normal(77)
        acc = 0.0
        for x, y in zip(a, b):
            acc += (y - x) ** 2
        assert mse(Signal(a, SR), Signal(b, SR)) == pytest.approx(acc / 77, rel=1e-12)

    def test_length_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            mse(Signal(np.ones(5), SR), Signal(np.ones(6), SR))


class TestSchroederT60:
    @pytest.mark.parametrize("t60", [0.1, 0.2, 0.4])
    def test_exponential_envelope_recovered(self, t60):
        n = int(SR * t60)
        t = np.arange(n) / SR
        x = np.exp(-6.908 * t / t60)
        est = schroeder_t60(Signal(x, SR))
        assert abs(est - t60) / t60 < 0.05

    def test_scale_invariant(self):
        t = np.arange(3200) / SR
        x = np.exp(-6.908 * t / 0.2)
        a = schroeder_t60(Signal(x, SR))
        b = schroeder_t60(Signal(10 * x, SR))
        assert a == pytest.approx(b, rel=1e-12)

    def test_impulse_has_no_decay_segment(self):
        x = np.zeros(100)
        x[0] = 1.0
        with pytest.raises(EstimationFailedError):
            schroeder_t60(Signal(x, SR))

    def test_zero_energy_rejected(self):
        with pytest.raises(InvalidInputError):
            schroeder_t60(Signal(np.zeros(10), SR))


class TestMetricReport:
    def test_identical_pair_reports_floor(self):
        rng = np.random.default_rng(10)
        x = Signal(rng.uniform(-1, 1, 256), SR)
        report = metric_report([(x, x)], BASIS, PART)
        np.testing.assert_allclose(report.per_band_log_edr_loss, np.log10(ENERGY_FLOOR))
        np.testing.assert_allclose(report.per_band_ere_mae, 0.0)
        assert report.drr_mae == 0.0
        assert report.mse == 0.0
        assert report.n_pairs == 1

    def test_mse_aggregates_as_mean(self):
        rng = np.random.default_rng(11)
        truth1 = Signal(rng.uniform(-1, 1, 256), SR)
        truth2 = Signal(rng.uniform(-1, 1, 256), SR)
        est1 = Signal(truth1.samples + 0.01, SR)
        est2 = Signal(truth2.samples - 0.02, SR)
        pairs = [(est1, truth1), (est2, truth2)]
        report = metric_report(pairs, BASIS, PART)
        expected = 0.5 * (mse(est1, truth1) + mse(est2, truth2))
        assert report.mse == pytest.approx(expected, rel=1e-12)
        assert len(report.examples) == len(pairs)
        for row, (est, truth) in zip(report.examples, pairs):
            assert row == (
                edr_loss(est, truth, BASIS, PART)[0],
                abs(ere(est) - ere(truth)),
                abs(drr(est) - drr(truth)),
                mse(est, truth),
            )

    def test_csv_shape_and_column_order(self, tmp_path):
        rng = np.random.default_rng(12)
        x = Signal(rng.uniform(-1, 1, 256), SR)
        report = metric_report([(x, x)], BASIS, PART)
        write_report(report, tmp_path / "r.csv", ["x.wav"])
        lines = (tmp_path / "r.csv").read_text().strip().split("\n")
        assert lines[0] == "center_hz,log_edr_loss,ere_mae_db"
        assert len(lines) == 1 + len(PART.centers) + 1
        assert lines[1].startswith("500,")
        assert lines[-1].startswith("summary,")

    def test_csv_merged_band_annotation(self, tmp_path):
        merged_part = octave_bands(8000, 64, [16, 32, 63, 125, 250, 500, 1000, 2000])
        assert merged_part.merged  # 32 and 63 Hz own no 125 Hz-spaced bin
        rng = np.random.default_rng(13)
        x = Signal(rng.uniform(-1, 1, 256), 8000)
        report = metric_report([(x, x)], BASIS, merged_part)
        write_report(report, tmp_path / "r.csv", ["x.wav"])
        first = (tmp_path / "r.csv").read_text().split("\n")[0]
        assert first.startswith("# merged_bands:")
        assert "32Hz->" in first and "63Hz->" in first

    def test_empty_pairs_rejected(self):
        with pytest.raises(InvalidInputError):
            metric_report([], BASIS, PART)

    def test_one_basis_per_report_and_one_kernel_call_per_pair(self, monkeypatch):
        # The caller's basis serves every pair: a basis built per pair made
        # the full-profile report 3x slower.
        rows = []

        def counted_power(samples, basis, partition):
            assert basis is BASIS
            rows.append(samples.shape[0])
            return band_power(samples, basis, partition)

        monkeypatch.setattr(metrics, "band_power", counted_power)
        rng = np.random.default_rng(15)
        pairs = [(Signal(rng.uniform(-1, 1, 256), SR), Signal(rng.uniform(-1, 1, 256), SR))
                 for _ in range(3)]
        metric_report(pairs, BASIS, PART)
        assert rows == [2, 2, 2]


class TestBandedEarlyEnergy:
    def test_windowed_energy_in_db(self):
        # Against an estimate that is silent in the early frames, each band's
        # early-energy error is the truth's early energy in dB above the
        # -120 dB floor.
        rng = np.random.default_rng(14)
        x = Signal(rng.uniform(-1, 1, 4096), SR)
        late = np.zeros(4096)
        late[-1] = 1.0  # a peak for drr, long after 80 ms
        report = metric_report([(Signal(late, SR), x)], BASIS, PART)
        values = report.per_band_ere_mae + 10 * np.log10(ENERGY_FLOOR)
        spec = stft(x, CFG)
        times = CFG.frame_times(spec.shape[0], SR)
        early = times <= 0.080
        for b, (start, stop) in enumerate(PART.bin_ranges):
            expected = np.sum(np.abs(spec[early, start:stop]) ** 2)
            assert values[b] == pytest.approx(10 * np.log10(expected), abs=1e-9)


def _decaying_rir(seed: int, n: int = 4096) -> np.ndarray:
    """Noise under a 150 ms exponential decay with a direct-sound peak,
    rounded to float32: the values a float32 WAV holds."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n) * np.exp(-6.9 * np.arange(n) / (0.15 * SR))
    x[40] = 4.0
    return x.astype(np.float32)


# Each float64 kernel that reads Signal.samples, on a pair of signals.
FLOAT64_KERNELS = {
    "fft_convolve": fft_convolve,
    "spectral_deconvolve": lambda a, b: spectral_deconvolve(a, b, 1024),
    "stft": lambda a, b: stft(a, CFG),
    "_band_power": lambda a, b: metrics._band_power((a, b), BASIS, PART),
    "ere": lambda a, b: ere(a),
    "drr": lambda a, b: drr(a),
    "mse": mse,
    "schroeder_t60": lambda a, b: schroeder_t60(a),
    "edr": lambda a, b: edr(a, BASIS, PART),
    "edr_loss": lambda a, b: edr_loss(a, b, BASIS, PART),
    "metric_report": lambda a, b: metric_report([(a, b), (b, a)], BASIS, PART),
}


def _bits(value):
    """value as nested tuples of bytes, dtypes and Python scalars, so that
    == compares results bit for bit."""
    if isinstance(value, Signal):
        return "Signal", _bits(value.samples), value.sample_rate
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if dataclasses.is_dataclass(value):
        return type(value).__name__, _bits(dataclasses.astuple(value))
    if isinstance(value, (tuple, list)):
        return tuple(_bits(v) for v in value)
    if isinstance(value, float):
        return value.hex()
    return value


@pytest.mark.parametrize("kernel", FLOAT64_KERNELS.values(), ids=FLOAT64_KERNELS.keys())
def test_float32_signals_give_the_float64_signals_bits(kernel):
    # A Signal keeps float32 samples as read_wav returns them; each kernel
    # widens them on entry, so its result is that of the float64 Signal of
    # the same values. numpy's FFT of float32 input runs in single precision,
    # so a kernel that read the samples unwidened would give other bits.
    a, b = _decaying_rir(20), _decaying_rir(21)
    narrow = kernel(Signal(a, SR), Signal(b, SR))
    wide = _bits(kernel(Signal(a.astype(np.float64), SR), Signal(b.astype(np.float64), SR)))
    assert _bits(narrow) == wide
    assert _bits(kernel(Signal(a, SR), Signal(b.astype(np.float64), SR))) == wide
