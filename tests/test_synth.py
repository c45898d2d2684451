"""Synthetic response generation, dataset construction, and WAV I/O."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rirlab import metrics, synth
from rirlab.dsp import Signal, spectral_deconvolve
from rirlab.errors import InvalidInputError, UnsupportedFormatError
from rirlab.synth import (
    DatasetManifest,
    RirParamRanges,
    RirParams,
    build_dataset,
    load_manifest,
    render_example,
    speech_like,
    split_counts,
    synth_rir,
)
from rirlab.wavio import read_wav, write_wav

TOY_RANGES = RirParamRanges(
    t60=(0.06, 0.15), drr=(3.0, 10.0), n_early=(0, 6), direct_delay=(0, 8), rir_len=256
)


def toy_params(**overrides):
    base = dict(
        t60=0.1, drr_target=6.0, n_early_reflections=4, direct_delay=2, rir_len=256, seed=11
    )
    base.update(overrides)
    return RirParams(**base)


class TestSynthRir:
    def test_same_seed_bit_identical(self):
        a = synth_rir(toy_params(), 8000)
        b = synth_rir(toy_params(), 8000)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_peak_normalized(self):
        rir = synth_rir(toy_params(), 8000)
        assert np.max(np.abs(rir.samples)) == pytest.approx(1.0, abs=1e-12)
        assert len(rir) == 256

    def test_measured_drr_within_1db(self):
        for seed in range(20):
            params = toy_params(seed=seed, drr_target=3.0 + seed * 0.3)
            rir = synth_rir(params, 8000)
            assert abs(metrics.drr(rir) - params.drr_target) <= 1.0

    def test_t60_recovered_at_full_scale(self):
        params = RirParams(
            t60=0.2, drr_target=4.0, n_early_reflections=6, direct_delay=8, rir_len=4096, seed=3
        )
        rir = synth_rir(params, 16000)
        assert abs(metrics.schroeder_t60(rir) - 0.2) / 0.2 < 0.2

    def test_measured_t60_monotone_in_parameter(self):
        measured = []
        for t60 in (0.1, 0.2, 0.4):
            params = RirParams(
                t60=t60, drr_target=4.0, n_early_reflections=4, direct_delay=0,
                rir_len=8192, seed=5,
            )
            measured.append(metrics.schroeder_t60(synth_rir(params, 16000)))
        assert measured[0] < measured[1] < measured[2]

    def test_infeasible_target_rejected(self):
        # a tail that dies inside the direct window cannot reach a low ratio
        params = RirParams(
            t60=0.003, drr_target=0.0, n_early_reflections=0, direct_delay=0,
            rir_len=4096, seed=1,
        )
        with pytest.raises(InvalidInputError):
            synth_rir(params, 16000)

    def test_param_invariants(self):
        with pytest.raises(InvalidInputError):
            RirParams(t60=-0.1, drr_target=5, n_early_reflections=0, direct_delay=0,
                      rir_len=64, seed=0)
        with pytest.raises(InvalidInputError):
            RirParams(t60=0.1, drr_target=5, n_early_reflections=0, direct_delay=64,
                      rir_len=64, seed=0)


class TestMakeExample:
    def test_impulse_rir_returns_normalized_clean(self):
        rng = np.random.default_rng(0)
        clean = Signal(rng.standard_normal(1000), 8000)
        impulse = np.zeros(64)
        impulse[0] = 1.0
        reverberant, _ = render_example(clean, Signal(impulse, 8000), 1000)
        assert len(reverberant) == 1000
        expected = clean.samples * (0.95 / np.max(np.abs(clean.samples)))
        np.testing.assert_allclose(reverberant.samples, expected, atol=1e-12)

    def test_one_second_example_at_16k(self):
        rng = np.random.default_rng(1)
        clean = Signal(rng.standard_normal(16000), 16000)
        rir = synth_rir(
            RirParams(t60=0.2, drr_target=5.0, n_early_reflections=4, direct_delay=4,
                      rir_len=4096, seed=9),
            16000,
        )
        reverberant, _ = render_example(clean, rir, 16000)
        assert len(reverberant) == 16000
        assert np.max(np.abs(reverberant.samples)) == pytest.approx(0.95, abs=1e-12)

    def test_silent_clean_rejected(self):
        clean = Signal(np.zeros(500), 8000)
        rir = Signal(np.r_[1.0, np.zeros(15)], 8000)
        with pytest.raises(InvalidInputError):
            render_example(clean, rir, 500)

    def test_short_clean_rejected(self):
        clean = Signal(np.ones(100), 8000)
        rir = Signal(np.r_[1.0, np.zeros(15)], 8000)
        with pytest.raises(InvalidInputError):
            render_example(clean, rir, 500)


class TestSplitCounts:
    def test_largest_remainder_10(self):
        assert split_counts(10, (0.8, 0.1, 0.1)) == (8, 1, 1)

    def test_largest_remainder_rounding(self):
        assert split_counts(7, (0.5, 0.25, 0.25)) == (3, 2, 2)
        assert sum(split_counts(11, (0.7, 0.2, 0.1))) == 11

    def test_fractions_must_sum_to_one(self):
        with pytest.raises(InvalidInputError):
            split_counts(10, (0.5, 0.2, 0.2))
        with pytest.raises(InvalidInputError):
            split_counts(6, (0.5, 0.6, -0.1))


def _tree_digest(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


class TestBuildDataset:
    def test_split_sizes(self, tmp_path):
        manifest = build_dataset(tmp_path / "ds", 10, TOY_RANGES, 8000, 8000, seed=1)
        assert len(manifest.split_entries("train")) == 8
        assert len(manifest.split_entries("val")) == 1
        assert len(manifest.split_entries("test")) == 1

    def test_same_seed_identical_bytes(self, tmp_path):
        build_dataset(tmp_path / "a", 6, TOY_RANGES, 8000, 8000, seed=7)
        build_dataset(tmp_path / "b", 6, TOY_RANGES, 8000, 8000, seed=7)
        assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")

    def test_manifest_save_failing_part_way_keeps_the_previous_manifest(
        self, tmp_path, monkeypatch
    ):
        manifest = build_dataset(tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, seed=2)
        path = tmp_path / "ds" / "manifest.json"
        saved = path.read_bytes()
        # A lone surrogate cannot be encoded, so the write raises after the
        # file was opened.
        monkeypatch.setattr(DatasetManifest, "to_json", lambda self: '{"cut": "\udc80"}')
        with pytest.raises(UnicodeEncodeError):
            manifest.save(path)
        assert path.read_bytes() == saved
        assert not [p.name for p in path.parent.iterdir() if p.name.endswith(".tmp")]

    def test_lengths_match_config(self, tmp_path):
        manifest = build_dataset(tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, seed=2)
        for entry in manifest.entries:
            assert len(read_wav(manifest.path(entry.reverberant))) == 8000
            assert len(read_wav(manifest.path(entry.rir))) == 256

    def test_deconvolution_closes_the_loop(self, tmp_path):
        manifest = build_dataset(tmp_path / "ds", 6, TOY_RANGES, 8000, 8000, seed=3)
        for entry in manifest.split_entries("test"):
            reverberant = read_wav(manifest.path(entry.reverberant))
            clean = read_wav(manifest.path(entry.clean))
            rir = read_wav(manifest.path(entry.rir))
            recovered = spectral_deconvolve(reverberant, clean, eps=1e-12, out_len=256)
            assert np.mean((recovered.samples - rir.samples) ** 2) < 1e-6

    def test_manifest_schema(self, tmp_path):
        build_dataset(tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, seed=4)
        doc = json.loads((tmp_path / "ds" / "manifest.json").read_text())
        assert set(doc) == {"sample_rate", "example_len", "rir_len", "seed", "entries"}
        assert doc["rir_len"] == 256
        for item in doc["entries"]:
            assert set(item) == {"reverberant", "rir", "clean", "split", "params"}
            assert item["clean"] == item["reverberant"].replace("_reverb", "_clean")
            assert set(item["params"]) == {
                "t60", "drr_target", "n_early_reflections", "direct_delay", "seed",
            }

    def test_manifest_round_trip(self, tmp_path):
        manifest = build_dataset(tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, seed=5)
        loaded = load_manifest(tmp_path / "ds" / "manifest.json")
        assert loaded.sample_rate == manifest.sample_rate
        assert loaded.example_len == manifest.example_len
        assert [e.params for e in loaded.entries] == [e.params for e in manifest.entries]

    def test_manifest_loads_without_reading_wavs(self, tmp_path, monkeypatch):
        manifest = build_dataset(tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, seed=5)
        reads = []
        monkeypatch.setattr(synth, "read_wav", lambda path: reads.append(path))
        loaded = load_manifest(tmp_path / "ds" / "manifest.json")
        assert reads == []
        assert loaded == manifest
        assert loaded.rir_len == 256 and loaded.entries[0].clean == "ex_00000_clean.wav"

    def test_manifest_without_rir_len_and_clean_paths_loads_to_equal_entries(
        self, tmp_path, monkeypatch
    ):
        manifest = build_dataset(tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, seed=5)
        path = tmp_path / "ds" / "manifest.json"
        doc = json.loads(path.read_text())
        del doc["rir_len"]
        for item in doc["entries"]:
            del item["clean"]
        path.write_text(json.dumps(doc))
        reads = []
        monkeypatch.setattr(synth, "read_wav", lambda p: reads.append(p) or read_wav(p))
        assert load_manifest(path) == manifest
        assert [p.name for p in reads] == ["ex_00000_rir.wav"]

    def test_user_clean_sources(self, tmp_path):
        rng = np.random.default_rng(6)
        clean = [Signal(rng.uniform(-0.5, 0.5, 20000), 8000)]
        manifest = build_dataset(
            tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, seed=6, clean_signals=clean
        )
        entry = manifest.entries[0]
        recovered = spectral_deconvolve(
            read_wav(manifest.path(entry.reverberant)),
            read_wav(manifest.path(entry.clean)),
            eps=1e-12,
            out_len=256,
        )
        rir = read_wav(manifest.path(entry.rir))
        assert np.mean((recovered.samples - rir.samples) ** 2) < 1e-6

    def test_too_few_examples_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            build_dataset(tmp_path / "ds", 2, TOY_RANGES, 8000, 8000, seed=0)


class TestSpeechLike:
    def test_deterministic_and_normalized(self):
        a = speech_like(np.random.default_rng(5), 4000, 8000)
        b = speech_like(np.random.default_rng(5), 4000, 8000)
        np.testing.assert_array_equal(a.samples, b.samples)
        assert np.max(np.abs(a.samples)) == pytest.approx(1.0)


class TestWavIO:
    def test_float32_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(7)
        samples = rng.uniform(-1, 1, 500).astype(np.float32).astype(np.float64)
        write_wav(tmp_path / "x.wav", Signal(samples, 16000))
        back = read_wav(tmp_path / "x.wav")
        assert back.sample_rate == 16000
        np.testing.assert_array_equal(back.samples, samples)

    def test_pcm16_round_trip_quantization_bound(self, tmp_path):
        from scipy.io import wavfile

        rng = np.random.default_rng(8)
        samples = rng.uniform(-0.99, 0.99, 500)
        pcm = np.round(samples * 32768.0).astype(np.int16)
        wavfile.write(tmp_path / "x.wav", 8000, pcm)
        back = read_wav(tmp_path / "x.wav")
        assert back.sample_rate == 8000
        np.testing.assert_array_equal(back.samples, pcm / 32768.0)
        assert np.max(np.abs(back.samples - samples)) <= 1.0 / 32768

    def test_stereo_rejected(self, tmp_path):
        from scipy.io import wavfile

        wavfile.write(tmp_path / "st.wav", 8000, np.zeros((100, 2), dtype=np.float32))
        with pytest.raises(UnsupportedFormatError):
            read_wav(tmp_path / "st.wav")

    def test_unsupported_dtype_rejected(self, tmp_path):
        from scipy.io import wavfile

        wavfile.write(tmp_path / "i32.wav", 8000, np.zeros(100, dtype=np.int32))
        with pytest.raises(UnsupportedFormatError):
            read_wav(tmp_path / "i32.wav")

    def test_missing_file_raises_oserror(self, tmp_path):
        with pytest.raises(OSError):
            read_wav(tmp_path / "absent.wav")
