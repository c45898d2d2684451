"""Built-in profiles: profiles.py is the one home of every number of both,
and the estimator config the one home of the response length and the dtype,
which the discriminator and synth take from it."""

import ast
import dataclasses
from pathlib import Path

import pytest

import rirlab
from rirlab import models
from rirlab.cli import build_parser, main
from rirlab.models import DiscriminatorConfig, EstimatorConfig
from rirlab.profiles import PROFILES, get_profile
from rirlab.synth import SPLITS, RirParams, load_manifest
from rirlab.training import TrainConfig
from rirlab.wavio import read_wav


# The RirParams fields that only a manifest entry's params hold; "seed" also
# names the header's and the train config's.
_ENTRY_PARAM_KEYS = {f.name for f in dataclasses.fields(RirParams)} - {"seed"}


def _bool_checks(tree: ast.Module):
    """(top-level def or class, line) of each isinstance(..., bool) call."""
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = node.args[1].elts if isinstance(node.args[1], ast.Tuple) else node.args[1:]
                if any(getattr(kind, "id", None) == "bool" for kind in kinds):
                    yield getattr(top, "name", None), node.lineno


def _entry_param_literals(tree: ast.Module):
    """(top-level def or class, line) of each string literal that is the name
    of an entry param, outside the RirParams class."""
    for top in tree.body:
        if getattr(top, "name", None) == "RirParams":
            continue
        for node in ast.walk(top):
            if isinstance(node, ast.Constant) and node.value in _ENTRY_PARAM_KEYS:
                yield getattr(top, "name", None), node.lineno


def _choices(command: str, dest: str) -> list:
    subparsers = next(a for a in build_parser()._actions if a.dest == "command")
    option = next(a for a in subparsers.choices[command]._actions if a.dest == dest)
    return list(option.choices)


class TestOneHome:
    @pytest.mark.parametrize("config", [TrainConfig, EstimatorConfig, DiscriminatorConfig])
    def test_config_fields_have_no_defaults(self, config):
        for field in dataclasses.fields(config):
            assert field.default is dataclasses.MISSING, field.name
            assert field.default_factory is dataclasses.MISSING, field.name

    def test_models_holds_no_profile_schedule(self):
        assert not hasattr(models, "full_estimator_config")
        assert not hasattr(models, "toy_estimator_config")

    def test_no_number_rule_outside_errors(self):
        """Config values and operation arguments check numbers with errors'
        check_count, check_arg, check_real and finite_real; a bool test
        elsewhere is a copy of them."""
        root = Path(rirlab.__file__).parent
        copies = [
            f"{path.relative_to(root)}:{line} ({owner})"
            for path in sorted(root.rglob("*.py"))
            if path.name != "errors.py"
            for owner, line in _bool_checks(ast.parse(path.read_text()))
        ]
        assert copies == []

    def test_manifest_entry_keys_are_named_only_by_rir_params(self):
        """The manifest's entry keys are RirParams' field names; a string that
        names one elsewhere starts a second, hand-written list of them."""
        root = Path(rirlab.__file__).parent
        literals = [
            f"{path.relative_to(root)}:{line} ({owner})"
            for path in sorted(root.rglob("*.py"))
            for owner, line in _entry_param_literals(ast.parse(path.read_text()))
        ]
        assert literals == []

    def test_cli_choices_come_from_the_profiles_and_splits(self):
        assert _choices("synth", "profile") == _choices("train", "profile") == sorted(PROFILES)
        assert _choices("evaluate", "split") == list(SPLITS)

    def test_top_level_api_scores_a_pair_with_the_profile_setup(self):
        profile = rirlab.get_profile("toy")
        assert isinstance(profile, rirlab.Profile)
        basis, partition = profile.analysis()
        sample_rate = profile.estimator.sample_rate
        truth, other = (
            rirlab.synth_rir(
                rirlab.RirParams(t60=t60, drr_target=5.0, n_early_reflections=2,
                                 direct_delay=2, seed=0),
                profile.rir_len,
                sample_rate,
            )
            for t60 in (0.1, 0.05)
        )
        report = rirlab.metric_report([(truth, truth), (other, truth)], basis, partition)
        assert report.centers == partition.centers
        assert report.n_pairs == 2
        assert report.examples[0] == (0.0, 0.0, 0.0, 0.0)
        assert report.examples[1][0] > 0.0


@pytest.mark.parametrize("name", sorted(PROFILES))
class TestDiscriminatorFollowsEstimator:
    def test_rir_len_and_dtype_are_the_estimator_s(self, name):
        profile = get_profile(name)
        disc = profile.discriminator
        assert disc.rir_len == profile.estimator.rir_len == profile.rir_len
        assert disc.dtype == profile.estimator.dtype
        assert (disc.condition_len, disc.blocks) == (
            profile.condition_len, profile.discriminator_blocks
        )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_replaced_estimator_dtype_reaches_the_discriminator(self, name, dtype):
        profile = get_profile(name)
        replaced = dataclasses.replace(
            profile, estimator=dataclasses.replace(profile.estimator, dtype=dtype)
        )
        assert replaced.discriminator == dataclasses.replace(profile.discriminator, dtype=dtype)

    def test_replaced_estimator_rir_len_reaches_the_discriminator(self, name):
        profile = get_profile(name)
        longer = dataclasses.replace(profile.estimator, rir_len=2 * profile.rir_len)
        replaced = dataclasses.replace(profile, estimator=longer)
        assert replaced.discriminator.rir_len == replaced.rir_len == 2 * profile.rir_len

    def test_synth_writes_the_estimator_s_rir_len(self, name, tmp_path):
        profile = get_profile(name)
        assert main(["synth", "--out", str(tmp_path), "--n", "3", "--profile", name]) == 0
        manifest = load_manifest(tmp_path / "manifest.json")
        assert manifest.rir_len == profile.estimator.rir_len
        assert manifest.example_len == profile.estimator.input_len
        for entry in manifest.entries:
            assert len(read_wav(manifest.path(entry.rir))) == profile.estimator.rir_len


class TestGetProfile:
    @pytest.mark.parametrize("name", PROFILES)
    def test_assignment_through_a_profile_reaches_no_later_profile(self, name):
        before = dataclasses.asdict(get_profile(name))
        profile = get_profile(name)
        blocks = (profile.estimator.encoder[0], profile.estimator.decoder[0],
                  profile.estimator.collapse, profile.discriminator_blocks[0],
                  profile.discriminator.blocks[1])
        kernels = [blk["kernel"] for blk in blocks]
        try:
            for blk in blocks:
                blk["kernel"] = 9
            assert dataclasses.asdict(get_profile(name)) == before
        finally:  # a profile shared across calls must not leak into other tests
            for blk, kernel in zip(blocks, kernels):
                blk["kernel"] = kernel
        # The config echo still holds plain JSON objects.
        assert type(before["estimator"]["encoder"][0]) is dict
        assert type(before["discriminator_blocks"][0]) is dict
