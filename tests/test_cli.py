"""End-to-end CLI behavior and the exit-code contract."""

import hashlib
import json
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from conftest import MALFORMED_HEADERS, SMALL_JSON_VALUES, edit_header, json_paths
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.io import wavfile

from rirlab import cli, synth
from rirlab.cli import main
from rirlab.errors import UnsupportedFormatError
from rirlab.synth import load_manifest
from rirlab.wavio import read_wav


def _digest_tree(root: Path) -> dict:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(root).iterdir())
        if p.is_file()
    }


@pytest.fixture(scope="module")
def cli_dataset(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli_ds")
    assert main(["synth", "--out", str(out), "--n", "12", "--profile", "toy", "--seed", "5"]) == 0
    return out


def _malformed_wav(wav: bytes, kind: str) -> bytes:
    """A file that scipy cannot parse as a WAV we read, made from a valid one."""
    if kind == "truncated":
        return wav[:30]  # cut inside the fmt chunk
    if kind == "cut_in_samples":
        return wav[: len(wav) // 2]  # scipy loads what is left, with a warning
    if kind == "not_riff":
        return b"plain text, not audio\n" * 4
    if kind == "empty":
        return b""
    mu_law = bytearray(wav)  # format tag 7 in the fmt chunk
    struct.pack_into("<H", mu_law, mu_law.index(b"fmt ") + 8, 7)
    return bytes(mu_law)


MALFORMED_WAVS = ["truncated", "cut_in_samples", "not_riff", "empty", "mu_law"]


@pytest.fixture(scope="module")
def cli_run(tmp_path_factory, cli_dataset):
    out = tmp_path_factory.mktemp("cli_run")
    code = main(
        [
            "train",
            "--manifest", str(cli_dataset / "manifest.json"),
            "--out", str(out),
            "--profile", "toy",
            "--set", "epochs=2",
        ]
    )
    assert code == 0
    return out


class TestSynth:
    def test_same_seed_identical_trees(self, tmp_path):
        for sub in ("a", "b"):
            code = main(
                ["synth", "--out", str(tmp_path / sub), "--n", "6", "--profile", "toy",
                 "--seed", "7"]
            )
            assert code == 0
        assert _digest_tree(tmp_path / "a") == _digest_tree(tmp_path / "b")

    def test_toy_profile_shapes(self, cli_dataset):
        manifest = json.loads((cli_dataset / "manifest.json").read_text())
        assert manifest["sample_rate"] == 8000
        assert manifest["example_len"] == 8000
        rir = read_wav(cli_dataset / manifest["entries"][0]["rir"])
        assert len(rir) == 256

    def test_prints_split_counts(self, tmp_path, capsys):
        main(["synth", "--out", str(tmp_path / "ds"), "--n", "10", "--profile", "toy",
              "--seed", "1"])
        out = capsys.readouterr().out
        assert "train=8 val=1 test=1" in out
        assert "manifest" in out

    def test_empty_clean_dir_exits_2(self, tmp_path, capsys):
        empty = tmp_path / "empty"
        empty.mkdir()
        code = main(
            ["synth", "--out", str(tmp_path / "ds"), "--n", "4", "--profile", "toy",
             "--clean-dir", str(empty)]
        )
        assert code == 2
        assert str(empty) in capsys.readouterr().err

    def test_clean_dir_sources_used(self, tmp_path):
        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        rng = np.random.default_rng(0)
        wavfile.write(
            clean_dir / "voice.wav", 8000, rng.uniform(-0.5, 0.5, 30000).astype(np.float32)
        )
        code = main(
            ["synth", "--out", str(tmp_path / "ds"), "--n", "4", "--profile", "toy",
             "--seed", "2", "--clean-dir", str(clean_dir)]
        )
        assert code == 0

    def test_non_numeric_splits_exit_2(self, tmp_path, capsys):
        code = main(
            ["synth", "--out", str(tmp_path / "ds"), "--n", "4", "--profile", "toy",
             "--splits", "a,b,c"]
        )
        assert code == 2
        assert "--splits" in capsys.readouterr().err

    def test_bad_splits_leave_no_directory(self, tmp_path):
        out = tmp_path / "ds"
        code = main(
            ["synth", "--out", str(out), "--n", "4", "--profile", "toy",
             "--splits", "0.5,0.6,-0.1"]
        )
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("splits", ["nan,0,1", "0,1,nan", "inf,0,0", "0.5,0.5,-inf"])
    def test_non_finite_splits_exit_2_without_directory(self, tmp_path, capsys, splits):
        out = tmp_path / "ds"
        code = main(["synth", "--out", str(out), "--n", "4", "--profile", "toy",
                     "--splits", splits])
        assert code == 2
        assert "split fractions" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2_without_directory(self, tmp_path, capsys):
        out = tmp_path / "ds"
        code = main(["synth", "--out", str(out), "--n", "4", "--profile", "toy", "--seed", "-1"])
        assert code == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_empty_clean_wav_exits_2_without_directory(self, tmp_path, capsys):
        clean_dir = tmp_path / "clean"
        clean_dir.mkdir()
        wavfile.write(clean_dir / "a.wav", 8000, np.ones(100, dtype=np.float32))
        wavfile.write(clean_dir / "b.wav", 8000, np.zeros(0, dtype=np.float32))
        out = tmp_path / "ds"
        code = main(["synth", "--out", str(out), "--n", "4", "--profile", "toy",
                     "--clean-dir", str(clean_dir)])
        assert code == 2
        assert "positions [1] hold no samples" in capsys.readouterr().err
        assert not out.exists()

    def test_wrong_rate_clean_dir_exits_2(self, tmp_path):
        clean_dir = tmp_path / "clean16k"
        clean_dir.mkdir()
        wavfile.write(clean_dir / "x.wav", 16000, np.zeros(1000, dtype=np.float32))
        code = main(
            ["synth", "--out", str(tmp_path / "ds"), "--n", "4", "--profile", "toy",
             "--clean-dir", str(clean_dir)]
        )
        assert code == 2


class TestTrain:
    def test_override_reflected_in_config_echo(self, tmp_path, cli_dataset):
        out = tmp_path / "run"
        code = main(
            ["train", "--manifest", str(cli_dataset / "manifest.json"), "--out", str(out),
             "--profile", "toy", "--set", "epochs=1", "--set", "lambda_mse=0"]
        )
        assert code == 0
        echo = json.loads((out / "config.json").read_text())
        assert echo["train"]["epochs"] == 1
        assert echo["train"]["lambda_mse"] == 0.0
        assert echo["profile"] == "toy"

    def test_run_directory_layout(self, cli_run):
        for name in ("config.json", "log.csv", "best.ckpt", "last.ckpt"):
            assert (cli_run / name).exists()

    def test_rerun_reproduces_log_bytes(self, tmp_path, cli_dataset, cli_run):
        out = tmp_path / "rerun"
        code = main(
            ["train", "--manifest", str(cli_dataset / "manifest.json"), "--out", str(out),
             "--profile", "toy", "--set", "epochs=2"]
        )
        assert code == 0
        assert (out / "log.csv").read_bytes() == (cli_run / "log.csv").read_bytes()

    def test_unknown_override_exits_2(self, tmp_path, cli_dataset):
        code = main(
            ["train", "--manifest", str(cli_dataset / "manifest.json"),
             "--out", str(tmp_path / "r"), "--profile", "toy", "--set", "nonsense=1"]
        )
        assert code == 2

    def test_non_integer_override_exits_2(self, tmp_path, cli_dataset, capsys):
        code = main(
            ["train", "--manifest", str(cli_dataset / "manifest.json"),
             "--out", str(tmp_path / "r"), "--profile", "toy", "--set", "epochs=abc"]
        )
        assert code == 2
        assert "epochs=abc" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "edit",
        [
            lambda m: "not json {",
            lambda m: json.dumps({k: v for k, v in m.items() if k != "sample_rate"}),
            lambda m: json.dumps({k: v for k, v in m.items() if k != "entries"}),
            lambda m: json.dumps({**m, "entries": [{**m["entries"][0], "params": None}]}),
        ],
        ids=["not_json", "missing_sample_rate", "missing_entries", "entry_without_params"],
    )
    def test_malformed_manifest_exits_2(self, tmp_path, cli_dataset, capsys, edit):
        manifest = json.loads((cli_dataset / "manifest.json").read_text())
        bad = tmp_path / "manifest.json"
        bad.write_text(edit(manifest))
        code = main(
            ["train", "--manifest", str(bad), "--out", str(tmp_path / "r"), "--profile", "toy"]
        )
        assert code == 2
        assert str(bad) in capsys.readouterr().err

    def test_empty_val_split_leaves_no_run_directory(self, tmp_path, capsys):
        data = tmp_path / "ds"
        assert main(["synth", "--out", str(data), "--n", "4", "--profile", "toy", "--seed", "1",
                     "--splits", "1,0,0"]) == 0
        out = tmp_path / "run"
        code = main(["train", "--manifest", str(data / "manifest.json"), "--out", str(out),
                     "--profile", "toy"])
        assert code == 2
        assert "'val'" in capsys.readouterr().err
        assert not out.exists()

    def test_wav_of_wrong_length_exits_2_without_run_directory(
        self, tmp_path, cli_dataset, capsys
    ):
        data = tmp_path / "ds"
        shutil.copytree(cli_dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        second = [e for e in manifest["entries"] if e["split"] == "train"][1]
        wavfile.write(data / second["rir"], 8000, np.zeros(100, dtype=np.float32))
        out = tmp_path / "run"
        code = main(["train", "--manifest", str(data / "manifest.json"), "--out", str(out),
                     "--profile", "toy"])
        assert code == 2
        err = capsys.readouterr().err
        assert Path(second["rir"]).name in err and "100" in err and "256" in err
        assert not out.exists()

    def test_other_profile_dataset_exits_2_without_run_directory(self, tmp_path, capsys):
        data = tmp_path / "full"
        assert main(["synth", "--out", str(data), "--n", "3", "--profile", "full", "--seed", "1",
                     "--splits", "0.5,0.5,0"]) == 0
        out = tmp_path / "run"
        code = main(["train", "--manifest", str(data / "manifest.json"), "--out", str(out),
                     "--profile", "toy"])
        assert code == 2
        assert "16000" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_wav_exits_3_without_run_directory(self, tmp_path, cli_dataset):
        data = tmp_path / "ds"
        shutil.copytree(cli_dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        (data / [e for e in manifest["entries"] if e["split"] == "val"][0]["rir"]).unlink()
        out = tmp_path / "run"
        code = main(["train", "--manifest", str(data / "manifest.json"), "--out", str(out),
                     "--profile", "toy"])
        assert code == 3
        assert not out.exists()

    def test_generator_loss_form_is_not_a_key(self, tmp_path, cli_dataset, capsys):
        code = main(
            ["train", "--manifest", str(cli_dataset / "manifest.json"),
             "--out", str(tmp_path / "r"), "--profile", "toy",
             "--set", "generator_loss_form=saturating"]
        )
        assert code == 2
        assert "generator_loss_form" in capsys.readouterr().err
        assert not (tmp_path / "r").exists()

    def test_missing_manifest_exits_3(self, tmp_path):
        code = main(
            ["train", "--manifest", str(tmp_path / "absent.json"), "--out", str(tmp_path / "r"),
             "--profile", "toy"]
        )
        assert code == 3


class TestEstimate:
    def test_output_length_and_determinism(self, tmp_path, cli_dataset, cli_run):
        manifest = json.loads((cli_dataset / "manifest.json").read_text())
        wav_in = cli_dataset / manifest["entries"][0]["reverberant"]
        out1, out2 = tmp_path / "a.wav", tmp_path / "b.wav"
        for out in (out1, out2):
            code = main(
                ["estimate", "--ckpt", str(cli_run / "best.ckpt"), "--in", str(wav_in),
                 "--out", str(out)]
            )
            assert code == 0
        assert len(read_wav(out1)) == 256
        assert out1.read_bytes() == out2.read_bytes()

    def test_stereo_input_exits_2(self, tmp_path, cli_run):
        stereo = tmp_path / "stereo.wav"
        wavfile.write(stereo, 8000, np.zeros((8000, 2), dtype=np.float32))
        code = main(
            ["estimate", "--ckpt", str(cli_run / "best.ckpt"), "--in", str(stereo),
             "--out", str(tmp_path / "o.wav")]
        )
        assert code == 2

    def test_wav_as_checkpoint_exits_2(self, tmp_path, cli_dataset, capsys):
        wav = next(cli_dataset.glob("*_reverb.wav"))
        code = main(
            ["estimate", "--ckpt", str(wav), "--in", str(wav), "--out", str(tmp_path / "o.wav")]
        )
        assert code == 2
        assert "not a checkpoint" in capsys.readouterr().err

    @pytest.mark.parametrize("edit", MALFORMED_HEADERS.values(), ids=MALFORMED_HEADERS.keys())
    def test_malformed_checkpoint_header_exits_2(
        self, tmp_path, cli_dataset, cli_run, capsys, edit
    ):
        ckpt = tmp_path / "bad.ckpt"
        shutil.copyfile(cli_run / "best.ckpt", ckpt)
        edit_header(ckpt, edit)
        wav = next(cli_dataset.glob("*_reverb.wav"))
        out = tmp_path / "o.wav"
        code = main(["estimate", "--ckpt", str(ckpt), "--in", str(wav), "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()

    @pytest.mark.parametrize("kind", MALFORMED_WAVS)
    def test_malformed_wav_exits_2(self, tmp_path, cli_dataset, cli_run, capsys, kind):
        bad = tmp_path / "in.wav"
        bad.write_bytes(_malformed_wav(next(cli_dataset.glob("*_reverb.wav")).read_bytes(), kind))
        out = tmp_path / "o.wav"
        code = main(["estimate", "--ckpt", str(cli_run / "best.ckpt"), "--in", str(bad),
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {bad}: not a readable WAV")
        assert not out.exists()

    def test_missing_input_exits_3(self, tmp_path, cli_run):
        code = main(["estimate", "--ckpt", str(cli_run / "best.ckpt"),
                     "--in", str(tmp_path / "absent.wav"), "--out", str(tmp_path / "o.wav")])
        assert code == 3

    def test_sample_rate_mismatch_exits_2_with_expected_rate(self, tmp_path, cli_run, capsys):
        wrong = tmp_path / "wrong.wav"
        wavfile.write(wrong, 16000, np.zeros(16000, dtype=np.float32))
        code = main(
            ["estimate", "--ckpt", str(cli_run / "best.ckpt"), "--in", str(wrong),
             "--out", str(tmp_path / "o.wav")]
        )
        assert code == 2
        assert "8000" in capsys.readouterr().err


class TestEvaluate:
    def test_identity_reports_floor(self, tmp_path, cli_dataset):
        out = tmp_path / "ident.csv"
        code = main(
            ["evaluate", "--manifest", str(cli_dataset / "manifest.json"), "--split", "test",
             "--method", "identity", "--out", str(out)]
        )
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0].startswith("# merged_bands:")
        assert lines[1] == "center_hz,log_edr_loss,ere_mae_db"
        for line in lines[2:-1]:
            _, log_loss, ere_mae = line.split(",")
            assert float(log_loss) == -12.0
            assert float(ere_mae) == 0.0
        label, drr_mae, mse = lines[-1].split(",")
        assert label == "summary"
        assert float(drr_mae) == 0.0
        assert float(mse) == 0.0

    def test_identity_reads_each_truth_once(self, tmp_path, cli_dataset, monkeypatch):
        from rirlab import cli

        reads = []
        monkeypatch.setattr(cli, "read_wav", lambda path: reads.append(path) or read_wav(path))
        code = main(
            ["evaluate", "--manifest", str(cli_dataset / "manifest.json"), "--split", "train",
             "--method", "identity", "--out", str(tmp_path / "ident.csv")]
        )
        assert code == 0
        manifest = json.loads((cli_dataset / "manifest.json").read_text())
        truths = [e["rir"] for e in manifest["entries"] if e["split"] == "train"]
        assert sorted(Path(p).name for p in reads) == sorted(Path(t).name for t in truths)

    @pytest.mark.parametrize(
        "key, value", [("t60", "x"), ("drr_target", None), ("direct_delay", 1.5), ("seed", True)]
    )
    def test_mistyped_entry_param_exits_2(self, tmp_path, cli_dataset, capsys, key, value):
        data = tmp_path / "ds"
        shutil.copytree(cli_dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        manifest["entries"][-1]["params"][key] = value
        (data / "manifest.json").write_text(json.dumps(manifest))
        code = main(
            ["evaluate", "--manifest", str(data / "manifest.json"), "--split", "test",
             "--method", "identity", "--out", str(tmp_path / "ident.csv")]
        )
        assert code == 2
        assert key in capsys.readouterr().err

    def test_entry_naming_a_non_wav_file_exits_2(self, tmp_path, cli_dataset, capsys):
        data = tmp_path / "ds"
        shutil.copytree(cli_dataset, data)
        (data / "notes.txt").write_text("not audio\n")
        manifest = json.loads((data / "manifest.json").read_text())
        next(e for e in manifest["entries"] if e["split"] == "test")["rir"] = "notes.txt"
        (data / "manifest.json").write_text(json.dumps(manifest))
        code = main(
            ["evaluate", "--manifest", str(data / "manifest.json"), "--split", "test",
             "--method", "identity", "--out", str(tmp_path / "ident.csv")]
        )
        assert code == 2
        assert "notes.txt: not a readable WAV" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("rir", 3), ("reverberant", None), ("split", 3), ("split", "training"),
         ("example_len", 1.5), ("example_len", 0), ("example_len", True)],
    )
    def test_mistyped_manifest_field_exits_2_before_reading_wavs(
        self, tmp_path, cli_dataset, capsys, monkeypatch, field, value
    ):
        data = tmp_path / "ds"
        shutil.copytree(cli_dataset, data)
        manifest = json.loads((data / "manifest.json").read_text())
        (manifest if field == "example_len" else manifest["entries"][-1])[field] = value
        (data / "manifest.json").write_text(json.dumps(manifest))
        reads = []
        for module in (cli, synth):
            monkeypatch.setattr(module, "read_wav", lambda path: reads.append(path))
        code = main(
            ["evaluate", "--manifest", str(data / "manifest.json"), "--split", "test",
             "--method", "identity", "--out", str(tmp_path / "ident.csv")]
        )
        assert code == 2
        assert f"{field}={value!r}" in capsys.readouterr().err
        assert reads == []

    def test_baseline_near_exact_on_synthetic_data(self, tmp_path, cli_dataset):
        out = tmp_path / "base.csv"
        code = main(
            ["evaluate", "--manifest", str(cli_dataset / "manifest.json"), "--split", "test",
             "--method", "baseline", "--out", str(out)]
        )
        assert code == 0
        summary = out.read_text().strip().split("\n")[-1].split(",")
        assert float(summary[2]) < 1e-6

    def test_model_method_and_per_example_rows(self, tmp_path, cli_dataset, cli_run):
        out = tmp_path / "model.csv"
        code = main(
            ["evaluate", "--manifest", str(cli_dataset / "manifest.json"), "--split", "test",
             "--method", f"model:{cli_run / 'best.ckpt'}", "--out", str(out)]
        )
        assert code == 0
        per_example = tmp_path / "model_examples.csv"
        lines = per_example.read_text().strip().split("\n")
        assert lines[0] == "example,reverberant,edr_loss,ere_err_db,drr_err_db,mse"
        manifest = json.loads((cli_dataset / "manifest.json").read_text())
        n_test = sum(1 for e in manifest["entries"] if e["split"] == "test")
        assert len(lines) == 1 + n_test

    def test_report_bytes_do_not_depend_on_thread_count(
        self, tmp_path, cli_dataset, cli_run, monkeypatch
    ):
        # The train split has 10 entries, so several workers run at once.
        outputs = []
        for threads in ("1", "2", "8"):
            monkeypatch.setenv("RIRLAB_THREADS", threads)
            out = tmp_path / threads / "model.csv"
            code = main(
                ["evaluate", "--manifest", str(cli_dataset / "manifest.json"), "--split",
                 "train", "--method", f"model:{cli_run / 'best.ckpt'}", "--out", str(out)]
            )
            assert code == 0
            outputs.append((out.read_bytes(), (out.parent / "model_examples.csv").read_bytes()))
        assert len(outputs[0][1].splitlines()) == 1 + 10
        assert outputs[1] == outputs[0] and outputs[2] == outputs[0]

    # 5 and 6 test examples leave a last chunk of 1 and of 2.
    @pytest.mark.parametrize("n_test", [5, 6])
    @pytest.mark.parametrize("profile", ["toy", "full"])
    def test_batched_model_estimates_equal_single_estimates(
        self, tmp_path, monkeypatch, profile, n_test
    ):
        from rirlab import cli
        from rirlab.models import build_estimator, estimate, load_checkpoint, save_checkpoint
        from rirlab.profiles import get_profile
        from rirlab.synth import load_manifest

        assert n_test % cli.EVAL_BATCH in (1, 2)
        data = tmp_path / "ds"
        assert main(["synth", "--out", str(data), "--n", str(n_test), "--profile", profile,
                     "--seed", "3", "--splits", "0,0,1"]) == 0
        ckpt = save_checkpoint(build_estimator(get_profile(profile).estimator, seed=4),
                               tmp_path / "e.ckpt")
        scored = []
        metric_report = cli.metrics.metric_report

        def spy(pairs, *args):
            scored.extend(pairs)
            return metric_report(pairs, *args)

        monkeypatch.setattr(cli.metrics, "metric_report", spy)
        assert main(["evaluate", "--manifest", str(data / "manifest.json"), "--method",
                     f"model:{ckpt}", "--out", str(tmp_path / "model.csv")]) == 0

        net = load_checkpoint(ckpt)
        manifest = load_manifest(data / "manifest.json")
        entries = manifest.split_entries("test")
        assert len(scored) == len(entries) == n_test
        for entry, (batched, _) in zip(entries, scored):
            single = estimate(net, read_wav(manifest.path(entry.reverberant))).samples
            if profile == "full":  # float32
                np.testing.assert_array_equal(batched.samples, single)
            else:  # float64: the GEMMs may round differently with the batch size
                np.testing.assert_allclose(batched.samples, single, rtol=1e-12, atol=1e-15)

    def test_eps_is_not_an_option(self, tmp_path, cli_dataset):
        with pytest.raises(SystemExit) as exc:
            main(["evaluate", "--manifest", str(cli_dataset / "manifest.json"),
                  "--method", "baseline", "--out", str(tmp_path / "b.csv"), "--eps", "1e-9"])
        assert exc.value.code == 2

    def test_unknown_method_exits_2(self, tmp_path, cli_dataset):
        code = main(
            ["evaluate", "--manifest", str(cli_dataset / "manifest.json"), "--split", "test",
             "--method", "oracle", "--out", str(tmp_path / "x.csv")]
        )
        assert code == 2


class TestPlotData:
    def test_outputs_and_monotone_truth(self, tmp_path, cli_dataset, cli_run):
        out = tmp_path / "plots"
        code = main(
            ["plot-data", "--ckpt", str(cli_run / "best.ckpt"),
             "--manifest", str(cli_dataset / "manifest.json"), "--example", "0",
             "--out", str(out)]
        )
        assert code == 0
        waveform = (out / "waveform.csv").read_text().strip().split("\n")
        assert waveform[0] == "time_s,truth,estimated"
        assert len(waveform) == 1 + 256
        edr_files = sorted(out.glob("edr_*.csv"))
        assert edr_files
        for path in edr_files:
            rows = path.read_text().strip().split("\n")[1:]
            truth_col = [float(r.split(",")[1]) for r in rows]
            assert all(a >= b - 1e-9 for a, b in zip(truth_col, truth_col[1:]))
            assert all(v >= -120.0 for v in truth_col)

    def test_frame0_gap_equals_total_band_energy_difference(
        self, tmp_path, cli_dataset, cli_run
    ):
        from rirlab.dsp import StftConfig, octave_bands, stft
        from rirlab.models import estimate, load_checkpoint
        from rirlab.profiles import get_profile

        out = tmp_path / "plots"
        assert main(
            ["plot-data", "--ckpt", str(cli_run / "best.ckpt"),
             "--manifest", str(cli_dataset / "manifest.json"), "--example", "1",
             "--out", str(out)]
        ) == 0
        manifest = json.loads((cli_dataset / "manifest.json").read_text())
        entry = manifest["entries"][1]
        truth = read_wav(cli_dataset / entry["rir"])
        est = estimate(load_checkpoint(cli_run / "best.ckpt"),
                       read_wav(cli_dataset / entry["reverberant"]))
        profile = get_profile("toy")
        cfg = StftConfig(profile.train.stft_window, profile.train.stft_hop, "hann")
        partition = octave_bands(8000, profile.train.stft_window, list(profile.train.band_centers))
        # independent totals: direct bin sums of |STFT|^2 over all frames
        spec_truth = np.abs(stft(truth, cfg)) ** 2
        spec_est = np.abs(stft(est, cfg)) ** 2
        for b, center in enumerate(partition.centers):
            rows = (out / f"edr_{int(center)}.csv").read_text().strip().split("\n")[1:]
            first = rows[0].split(",")
            gap = float(first[1]) - float(first[2])
            start, stop = partition.bin_ranges[b]
            truth_total = max(np.sum(spec_truth[:, start:stop]), 1e-12)
            est_total = max(np.sum(spec_est[:, start:stop]), 1e-12)
            expected_gap = 10 * np.log10(truth_total) - 10 * np.log10(est_total)
            assert gap == pytest.approx(expected_gap, abs=1e-9)

    def test_out_of_range_example_exits_2(self, tmp_path, cli_dataset, cli_run):
        code = main(
            ["plot-data", "--ckpt", str(cli_run / "best.ckpt"),
             "--manifest", str(cli_dataset / "manifest.json"), "--example", "99",
             "--out", str(tmp_path / "p")]
        )
        assert code == 2


class TestArgumentErrors:
    def test_bad_subcommand_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_profile_exits_2(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(tmp_path), "--n", "4", "--profile", "huge"])
        assert exc.value.code == 2


def _as_rf64(wav: bytes) -> bytes:
    """The same samples in an RF64 file: the data size moves to a ds64 chunk."""
    body = wav[12:]
    at = body.index(b"data") + 4
    size = struct.unpack_from("<I", body, at)[0]
    body = body[:at] + b"\xff\xff\xff\xff" + body[at + 4 :]
    ds64 = b"ds64" + struct.pack("<IQQQI", 28, 36 + 4 + len(body), size, size // 4, 0)
    return b"RF64\xff\xff\xff\xffWAVE" + ds64 + body


class TestReadWavDataChunk:
    @pytest.mark.parametrize("rf64", [False, True], ids=["riff", "rf64"])
    def test_whole_file_loads_and_cut_samples_raise(self, tmp_path, cli_dataset, rf64):
        original = next(cli_dataset.glob("*_rir.wav"))
        wav = original.read_bytes()
        if rf64:
            wav = _as_rf64(wav)
        whole, cut = tmp_path / "whole.wav", tmp_path / "cut.wav"
        whole.write_bytes(wav)
        cut.write_bytes(wav[:-6])
        np.testing.assert_array_equal(read_wav(whole).samples, read_wav(original).samples)
        with pytest.raises(UnsupportedFormatError, match="data chunk holds"):
            read_wav(cut)


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory, cli_dataset):
    """A copy of the CLI dataset that the property tests write edited files into."""
    root = tmp_path_factory.mktemp("fuzz") / "ds"
    shutil.copytree(cli_dataset, root)
    return root


class TestMalformedInputProperties:
    """Edited inputs either load or raise an error that the CLI maps to exit
    code 2 (cli.USAGE_ERRORS) or 3 (OSError); never anything else."""

    # A flipped chunk id or RIFF size still loads whole samples, with a warning.
    @pytest.mark.filterwarnings("ignore::scipy.io.wavfile.WavFileWarning")
    @settings(max_examples=150, database=None, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_cut_or_flipped_wav_loads_or_raises_usage_error(self, fuzz_dataset, data):
        name = data.draw(st.sampled_from(["ex_00000_rir.wav", "ex_00000_reverb.wav"]))
        wav = bytearray((fuzz_dataset / name).read_bytes())
        cut = data.draw(st.booleans())
        if cut:
            wav = wav[: data.draw(st.integers(0, len(wav) - 1))]
        for _ in range(data.draw(st.integers(0 if cut else 1, 3)) if wav else 0):
            # Half the flips land in the header, where the parser branches.
            head = st.integers(0, min(len(wav), 64) - 1)
            at = data.draw(head | st.integers(0, len(wav) - 1))
            wav[at] = data.draw(st.integers(0, 255))
        edited = fuzz_dataset / "edited.wav"
        edited.write_bytes(bytes(wav))
        try:
            read_wav(edited)
        except (*cli.USAGE_ERRORS, OSError):
            pass

    @settings(max_examples=150, database=None, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_edited_manifest_loads_or_raises_usage_error(self, fuzz_dataset, data):
        manifest = json.loads((fuzz_dataset / "manifest.json").read_text())
        *parents, key = data.draw(st.sampled_from(list(json_paths(manifest))))
        node = manifest
        for step in parents:
            node = node[step]
        if data.draw(st.booleans()):
            del node[key]
        else:
            node[key] = data.draw(SMALL_JSON_VALUES)
        edited = fuzz_dataset / "edited.json"
        edited.write_text(json.dumps(manifest))
        try:
            load_manifest(edited)
        except (*cli.USAGE_ERRORS, OSError):
            pass


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory, cli_dataset, cli_run):
    """Paths the CLI property test passes: ones that work and malformed ones."""
    root = tmp_path_factory.mktemp("argv")
    reverb = next(cli_dataset.glob("*_reverb.wav"))
    raw = reverb.read_bytes()
    files = {"dir": root / "dir", "missing": root / "absent.wav", "cut": root / "cut.wav",
             "empty_wav": root / "empty.wav", "stereo": root / "stereo.wav",
             "rate": root / "rate.wav", "clean_empty": root / "clean_empty",
             "clean_cut": root / "clean_cut"}
    for key in ("dir", "clean_empty", "clean_cut"):
        files[key].mkdir()
    files["cut"].write_bytes(raw[: len(raw) // 2])
    (files["clean_cut"] / "x.wav").write_bytes(raw[: len(raw) // 2])
    wavfile.write(files["empty_wav"], 8000, np.zeros(0, dtype=np.float32))
    wavfile.write(files["clean_empty"] / "x.wav", 8000, np.zeros(0, dtype=np.float32))
    wavfile.write(files["stereo"], 8000, np.zeros((100, 2), dtype=np.float32))
    wavfile.write(files["rate"], 16000, np.zeros(100, dtype=np.float32))
    files.update(root=root, reverb=reverb, ckpt=cli_run / "best.ckpt",
                 manifest=cli_dataset / "manifest.json")
    return {key: str(value) for key, value in files.items()}


FRESH = object()  # stands for an output path that does not exist yet


def _argv_options(f: dict) -> dict:
    """Per subcommand, each option's working value and its malformed ones."""
    counts = ["-1", "0", "1.5", "abc", "", "nan"]
    ckpts = [f["missing"], f["dir"], f["manifest"], f["reverb"]]
    manifests = [f["missing"], f["dir"], f["reverb"], f["ckpt"]]
    return {
        "synth": {
            "--out": (FRESH, [f["manifest"]]),
            "--n": ("3", counts),
            "--seed": ("1", ["-1", "x", "2.5"]),
            "--splits": ("0.4,0.3,0.3", ["nan,0,1", "0,1,nan", "inf,0,0", "0.5,0.5,-inf",
                                         "1,0", "a,b,c", "1e999,-1e999,1", "0.5,0.6,-0.1"]),
            "--clean-dir": (None, [f["missing"], f["manifest"], f["root"], f["clean_empty"],
                                   f["clean_cut"]]),
        },
        "estimate": {
            "--ckpt": (f["ckpt"], ckpts),
            "--in": (f["reverb"], [f["missing"], f["dir"], f["cut"], f["stereo"], f["rate"],
                                   f["ckpt"], f["empty_wav"]]),
            "--out": (FRESH, [f["dir"], f["missing"] + "/o.wav"]),
        },
        "evaluate": {
            "--manifest": (f["manifest"], manifests),
            "--split": ("test", ["val", "bogus", ""]),
            "--method": ("identity", ["model:" + f["ckpt"], "baseline", "bogus", "model:",
                                      *("model:" + path for path in ckpts)]),
            "--out": (FRESH, [f["dir"], f["manifest"] + "/r.csv"]),
        },
        "plot-data": {
            "--ckpt": (f["ckpt"], ckpts),
            "--manifest": (f["manifest"], manifests),
            "--example": ("0", [*counts, "12", "99"]),
            "--out": (FRESH, [f["manifest"]]),
        },
    }


class TestCliExitCodeProperty:
    """Any mix of working and malformed argument values exits 0, 2 or 3:
    never with a traceback."""

    @settings(max_examples=100, database=None, derandomize=True, deadline=None)
    @given(data=st.data())
    def test_malformed_argv_exits_0_2_or_3(self, argv_files, data):
        command = data.draw(st.sampled_from(["synth", "estimate", "evaluate", "plot-data"]))
        options = _argv_options(argv_files)[command]
        bad = data.draw(st.sets(st.sampled_from(sorted(options)), min_size=1, max_size=2))
        argv = [command] + (["--profile", "toy"] if command == "synth" else [])
        for name, (good, malformed) in options.items():
            value = data.draw(st.sampled_from(malformed)) if name in bad else good
            if value is FRESH:
                value = tempfile.mkdtemp(dir=argv_files["root"]) + "/out"
            if value is not None:
                argv += [name, value]
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects a value
            code = exc.code
        assert code in (0, 2, 3), argv
