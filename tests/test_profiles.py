"""Built-in profiles: the estimator config is the one home of the response
length and the dtype, which the discriminator and synth take from it."""

import dataclasses

import pytest

from rirlab.cli import main
from rirlab.profiles import PROFILES
from rirlab.synth import load_manifest
from rirlab.wavio import read_wav


@pytest.mark.parametrize("name", sorted(PROFILES))
class TestDiscriminatorFollowsEstimator:
    def test_rir_len_and_dtype_are_the_estimator_s(self, name):
        profile = PROFILES[name]
        disc = profile.discriminator
        assert disc.rir_len == profile.estimator.rir_len == profile.rir_len
        assert disc.dtype == profile.estimator.dtype
        assert (disc.condition_len, disc.blocks) == (
            profile.condition_len, profile.discriminator_blocks
        )

    @pytest.mark.parametrize("dtype", ["float32", "float64"])
    def test_replaced_estimator_dtype_reaches_the_discriminator(self, name, dtype):
        profile = PROFILES[name]
        replaced = dataclasses.replace(
            profile, estimator=dataclasses.replace(profile.estimator, dtype=dtype)
        )
        assert replaced.discriminator == dataclasses.replace(profile.discriminator, dtype=dtype)

    def test_replaced_estimator_rir_len_reaches_the_discriminator(self, name):
        profile = PROFILES[name]
        longer = dataclasses.replace(profile.estimator, rir_len=2 * profile.rir_len)
        replaced = dataclasses.replace(profile, estimator=longer)
        assert replaced.discriminator.rir_len == replaced.rir_len == 2 * profile.rir_len

    def test_synth_writes_the_estimator_s_rir_len(self, name, tmp_path):
        profile = PROFILES[name]
        assert main(["synth", "--out", str(tmp_path), "--n", "3", "--profile", name]) == 0
        manifest = load_manifest(tmp_path / "manifest.json")
        assert manifest.rir_len == profile.estimator.rir_len
        assert manifest.example_len == profile.estimator.input_len
        for entry in manifest.entries:
            assert len(read_wav(manifest.path(entry.rir))) == profile.estimator.rir_len
