"""Synthetic response generation, dataset construction, and WAV I/O."""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from rirlab import metrics, synth
from rirlab.dsp import Signal, spectral_deconvolve
from rirlab.errors import InvalidConfigError, InvalidInputError, UnsupportedFormatError
from rirlab.synth import (
    DatasetManifest,
    ManifestEntry,
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

TOY_RANGES = RirParamRanges(t60=(0.06, 0.15), drr=(3.0, 10.0), n_early=(0, 6), direct_delay=(0, 8))


def toy_params(**overrides):
    base = dict(t60=0.1, drr_target=6.0, n_early_reflections=4, direct_delay=2, seed=11)
    base.update(overrides)
    return RirParams(**base)


class TestSynthRir:
    def test_same_seed_bit_identical(self):
        a = synth_rir(toy_params(), 256, 8000)
        b = synth_rir(toy_params(), 256, 8000)
        np.testing.assert_array_equal(a.samples, b.samples)

    def test_peak_normalized(self):
        rir = synth_rir(toy_params(), 256, 8000)
        assert np.max(np.abs(rir.samples)) == pytest.approx(1.0, abs=1e-12)
        assert len(rir) == 256

    def test_measured_drr_within_1db(self):
        for seed in range(20):
            params = toy_params(seed=seed, drr_target=3.0 + seed * 0.3)
            rir = synth_rir(params, 256, 8000)
            assert abs(metrics.drr(rir) - params.drr_target) <= 1.0

    def test_t60_recovered_at_full_scale(self):
        params = RirParams(t60=0.2, drr_target=4.0, n_early_reflections=6, direct_delay=8, seed=3)
        rir = synth_rir(params, 4096, 16000)
        assert abs(metrics.schroeder_t60(rir) - 0.2) / 0.2 < 0.2

    def test_measured_t60_monotone_in_parameter(self):
        measured = []
        for t60 in (0.1, 0.2, 0.4):
            params = RirParams(t60=t60, drr_target=4.0, n_early_reflections=4, direct_delay=0,
                               seed=5)
            measured.append(metrics.schroeder_t60(synth_rir(params, 8192, 16000)))
        assert measured[0] < measured[1] < measured[2]

    def test_infeasible_target_rejected(self):
        # a tail that dies inside the direct window cannot reach a low ratio
        params = RirParams(t60=0.003, drr_target=0.0, n_early_reflections=0, direct_delay=0,
                           seed=1)
        with pytest.raises(InvalidInputError):
            synth_rir(params, 4096, 16000)

    def test_param_invariants(self):
        with pytest.raises(InvalidConfigError):
            RirParams(t60=-0.1, drr_target=5, n_early_reflections=0, direct_delay=0, seed=0)
        with pytest.raises(InvalidInputError, match="rir_len"):
            synth_rir(RirParams(t60=0.1, drr_target=5, n_early_reflections=0, direct_delay=64,
                                seed=0), 64, 8000)
        for t60, drr_target in ((float("nan"), 5), (float("inf"), 5), (0.1, float("nan")),
                                (0.1, float("-inf"))):
            with pytest.raises(InvalidConfigError):
                RirParams(t60=t60, drr_target=drr_target, n_early_reflections=0,
                          direct_delay=0, seed=0)

    @pytest.mark.parametrize("rate", ["8000", None, 8000.5, True, 0])
    def test_bad_sample_rate_rejected(self, rate):
        with pytest.raises(InvalidInputError, match="sample_rate must be an integer in "):
            synth_rir(toy_params(), 256, rate)


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
        clean = Signal(rng.standard_normal(16000).astype(np.float32), 16000)
        rir = synth_rir(
            RirParams(t60=0.2, drr_target=5.0, n_early_reflections=4, direct_delay=4, seed=9),
            4096,
            16000,
        )
        example = render_example(clean, rir, 16000)
        reverberant = example[0]
        assert len(reverberant) == 16000
        assert np.max(np.abs(reverberant.samples)) == pytest.approx(0.95, abs=1e-12)
        # float32 clean samples are widened: the float64 clean's example, bit for bit
        wide = render_example(Signal(clean.samples.astype(np.float64), 16000), rir, 16000)
        for got, want in zip(example, wide):
            assert got.samples.dtype == np.float64
            assert got.samples.tobytes() == want.samples.tobytes()

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

    @pytest.mark.parametrize("example_len", [50.5, True, 0, "50"])
    def test_example_len_must_be_a_positive_integer(self, example_len):
        clean = Signal(np.ones(100), 8000)
        rir = Signal(np.r_[1.0, np.zeros(15)], 8000)
        with pytest.raises(InvalidInputError, match="example_len must be an integer in "):
            render_example(clean, rir, example_len)


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

    @pytest.mark.parametrize(
        "fractions", [("0.5", "0.25", "0.25"), (None, 0, 1), (True, 0, 0), (float("nan"), 0, 1)]
    )
    def test_fraction_that_is_not_a_real_number_rejected(self, fractions):
        with pytest.raises(InvalidInputError, match="split fractions"):
            split_counts(4, fractions)


def _tree_digest(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(root.iterdir())
        if p.is_file()
    }


class TestBuildDataset:
    def test_split_sizes(self, tmp_path):
        manifest = build_dataset(tmp_path / "ds", 10, TOY_RANGES, 8000, 8000, 256, seed=1)
        assert len(manifest.split_entries("train")) == 8
        assert len(manifest.split_entries("val")) == 1
        assert len(manifest.split_entries("test")) == 1

    def test_same_seed_identical_bytes(self, tmp_path):
        build_dataset(tmp_path / "a", 6, TOY_RANGES, 8000, 8000, 256, seed=7)
        build_dataset(tmp_path / "b", 6, TOY_RANGES, 8000, 8000, 256, seed=7)
        assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")

    def test_manifest_save_failing_part_way_keeps_the_previous_manifest(
        self, tmp_path, monkeypatch
    ):
        manifest = build_dataset(tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, 256, seed=2)
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
        manifest = build_dataset(tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, 256, seed=2)
        for entry in manifest.entries:
            assert len(read_wav(manifest.path(entry.reverberant))) == 8000
            assert len(read_wav(manifest.path(entry.rir))) == 256

    def test_deconvolution_closes_the_loop(self, tmp_path):
        manifest = build_dataset(tmp_path / "ds", 6, TOY_RANGES, 8000, 8000, 256, seed=3)
        for entry in manifest.split_entries("test"):
            reverberant = read_wav(manifest.path(entry.reverberant))
            clean = read_wav(manifest.path(entry.clean))
            rir = read_wav(manifest.path(entry.rir))
            recovered = spectral_deconvolve(reverberant, clean, out_len=256)
            assert np.mean((recovered.samples - rir.samples) ** 2) < 1e-6

    def test_manifest_schema(self, tmp_path):
        build_dataset(tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, 256, seed=4)
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
        manifest = build_dataset(tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, 256, seed=5)
        loaded = load_manifest(tmp_path / "ds" / "manifest.json")
        assert loaded.sample_rate == manifest.sample_rate
        assert loaded.example_len == manifest.example_len
        assert [e.params for e in loaded.entries] == [e.params for e in manifest.entries]

    def test_manifest_loads_without_reading_wavs(self, tmp_path, monkeypatch):
        manifest = build_dataset(tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, 256, seed=5)
        for wav in (tmp_path / "ds").glob("*.wav"):
            wav.unlink()
        reads = []
        monkeypatch.setattr(synth, "read_wav", reads.append)
        loaded = load_manifest(tmp_path / "ds" / "manifest.json")
        assert reads == []
        assert loaded == manifest
        assert loaded.rir_len == 256 and loaded.entries[0].clean == "ex_00000_clean.wav"

    def test_user_clean_sources(self, tmp_path):
        rng = np.random.default_rng(6)
        clean = {"voice": Signal(rng.uniform(-0.5, 0.5, 20000), 8000)}
        manifest = build_dataset(
            tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, 256, seed=6, clean_signals=clean
        )
        entry = manifest.entries[0]
        recovered = spectral_deconvolve(
            read_wav(manifest.path(entry.reverberant)),
            read_wav(manifest.path(entry.clean)),
            out_len=256,
        )
        rir = read_wav(manifest.path(entry.rir))
        assert np.mean((recovered.samples - rir.samples) ** 2) < 1e-6

    def test_clean_signal_at_another_rate_rejected_before_the_directory(self, tmp_path):
        clean = {"a": Signal(np.ones(16000), 8000), "b": Signal(np.ones(16000), 16000)}
        with pytest.raises(InvalidInputError, match=r"not at sample_rate 8000 Hz .*: b$"):
            build_dataset(tmp_path / "ds", 3, TOY_RANGES, 8000, 8000, 256, clean_signals=clean)
        assert not (tmp_path / "ds").exists()

    def test_empty_clean_signal_named_before_the_directory(self, tmp_path):
        clean = {"a": Signal(np.ones(16000), 8000), "quiet": Signal(np.zeros(0), 8000)}
        with pytest.raises(InvalidInputError, match=r"hold no samples: quiet$"):
            build_dataset(tmp_path / "ds", 3, TOY_RANGES, 8000, 8000, 256, clean_signals=clean)
        assert not (tmp_path / "ds").exists()

    def test_clean_signals_without_names_rejected_before_the_directory(self, tmp_path):
        with pytest.raises(InvalidInputError, match="must map a name to each Signal, got list"):
            build_dataset(tmp_path / "ds", 3, TOY_RANGES, 8000, 8000, 256,
                          clean_signals=[Signal(np.ones(16000), 8000)])
        assert not (tmp_path / "ds").exists()

    def test_too_few_examples_rejected(self, tmp_path):
        with pytest.raises(InvalidInputError):
            build_dataset(tmp_path / "ds", 2, TOY_RANGES, 8000, 8000, 256, seed=0)

    @pytest.mark.parametrize("field", ["n_examples", "seed", "sample_rate", "example_len",
                                       "rir_len"])
    @pytest.mark.parametrize("value", [3.5, 3.0, True, "3", None])
    def test_mistyped_count_or_seed_rejected_before_the_directory(self, tmp_path, field, value):
        args = {"n_examples": 3, "seed": 0, "sample_rate": 8000, "example_len": 8000,
                "rir_len": 256, field: value}
        with pytest.raises(InvalidInputError, match=field):
            build_dataset(tmp_path / "ds", ranges=TOY_RANGES, **args)
        assert not (tmp_path / "ds").exists()

    @pytest.mark.parametrize("splits", [(0.5, 0.5), (0.25,) * 4])
    def test_wrong_number_of_split_fractions_leaves_no_directory(self, tmp_path, splits):
        with pytest.raises(InvalidInputError, match="split fractions must be 3 values"):
            build_dataset(tmp_path / "ds", 4, TOY_RANGES, 8000, 8000, 256, splits=splits)
        assert not (tmp_path / "ds").exists()

    def test_numpy_integer_seed_writes_the_manifest_of_the_int_seed(self, tmp_path):
        build_dataset(tmp_path / "a", 3, TOY_RANGES, 8000, 8000, 256, seed=np.int64(3))
        build_dataset(tmp_path / "b", 3, TOY_RANGES, 8000, 8000, 256, seed=3)
        assert json.loads((tmp_path / "a" / "manifest.json").read_text())["seed"] == 3
        assert _tree_digest(tmp_path / "a") == _tree_digest(tmp_path / "b")


# manifest.json is DatasetManifest written field by field; this is the file
# that to_json wrote when it spelled out each key by hand.
TWO_ENTRY_JSON = """{
  "sample_rate": 8000,
  "example_len": 8000,
  "rir_len": 256,
  "seed": 3,
  "entries": [
    {
      "reverberant": "ex_00000_reverb.wav",
      "rir": "ex_00000_rir.wav",
      "clean": "ex_00000_clean.wav",
      "split": "train",
      "params": {
        "t60": 0.125,
        "drr_target": 6.5,
        "n_early_reflections": 4,
        "direct_delay": 2,
        "seed": 11
      }
    },
    {
      "reverberant": "ex_00001_reverb.wav",
      "rir": "ex_00001_rir.wav",
      "clean": "ex_00001_clean.wav",
      "split": "test",
      "params": {
        "t60": 0.3,
        "drr_target": -1.5,
        "n_early_reflections": 0,
        "direct_delay": 0,
        "seed": 9223372036854775807
      }
    }
  ]
}"""


class TestManifestFormat:
    def test_field_order_writes_the_pinned_file_and_loads_back(self, tmp_path):
        manifest = DatasetManifest(
            sample_rate=8000,
            example_len=8000,
            rir_len=256,
            seed=3,
            entries=(
                ManifestEntry("ex_00000_reverb.wav", "ex_00000_rir.wav", "ex_00000_clean.wav",
                              "train", RirParams(t60=0.125, drr_target=6.5,
                                                 n_early_reflections=4, direct_delay=2, seed=11)),
                ManifestEntry("ex_00001_reverb.wav", "ex_00001_rir.wav", "ex_00001_clean.wav",
                              "test", RirParams(t60=0.3, drr_target=-1.5, n_early_reflections=0,
                                                direct_delay=0, seed=2**63 - 1)),
            ),
        )
        assert manifest.to_json() == TWO_ENTRY_JSON
        assert load_manifest(manifest.save(tmp_path / "manifest.json")) == manifest

    @pytest.mark.parametrize(
        "edit, where",
        [
            (lambda m: {**m, "rir_length": 999},
             r"manifest\.json has unknown keys \['rir_length'\]"),
            (lambda m: {**m, "entries": [{**m["entries"][0], "reverb": "x.wav"}]},
             r"entries\[0\] has unknown keys \['reverb'\]"),
            (lambda m: {**m, "entries": [{**m["entries"][0],
                                          "params": {**m["entries"][0]["params"], "t61": 3}}]},
             r"entries\[0\]\.params has unknown keys \['t61'\]"),
        ],
        ids=["header", "entry", "params"],
    )
    def test_unknown_key_rejected_by_name_and_place(self, tmp_path, edit, where):
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(edit(json.loads(TWO_ENTRY_JSON))))
        with pytest.raises(InvalidConfigError, match=where):
            load_manifest(path)


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
