"""Built-in profiles and the values their configs must share."""

import dataclasses

import pytest

from rirlab.errors import InvalidConfigError
from rirlab.profiles import PROFILES


@pytest.mark.parametrize("name", sorted(PROFILES))
class TestProfileAgreement:
    def test_built_in_profile_is_consistent(self, name):
        profile = PROFILES[name]
        assert profile.ranges.rir_len == profile.estimator.rir_len == profile.discriminator.rir_len
        assert profile.estimator.dtype == profile.discriminator.dtype

    @pytest.mark.parametrize("field", ["ranges", "estimator", "discriminator"])
    def test_rir_len_must_agree(self, name, field):
        profile = PROFILES[name]
        other = dataclasses.replace(getattr(profile, field), rir_len=profile.rir_len * 2)
        with pytest.raises(InvalidConfigError, match="rir_len"):
            dataclasses.replace(profile, **{field: other})
