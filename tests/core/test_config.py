"""Unit tests for SecureCyclon configuration."""

import pytest

from repro.core.config import SecureCyclonConfig
from repro.errors import ConfigError


def test_defaults_match_paper_proposal():
    config = SecureCyclonConfig()
    assert config.view_length == 20
    assert config.swap_length == 3
    assert config.redemption_cache_cycles == 5
    assert config.tit_for_tat is True


def test_effective_sample_horizon_defaults_to_twice_view():
    assert SecureCyclonConfig(view_length=20).effective_sample_horizon == 40
    assert (
        SecureCyclonConfig(sample_horizon_cycles=7).effective_sample_horizon
        == 7
    )


def test_effective_timestamp_tolerance_defaults_to_period():
    config = SecureCyclonConfig()
    assert config.effective_timestamp_tolerance(10.0) == 10.0
    custom = SecureCyclonConfig(timestamp_tolerance_seconds=3.0)
    assert custom.effective_timestamp_tolerance(10.0) == 3.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"view_length": 0},
        {"swap_length": 0},
        {"view_length": 3, "swap_length": 4},
        {"redemption_cache_cycles": -1},
        {"sample_horizon_cycles": 0},
        {"timestamp_tolerance_seconds": -1.0},
        {"non_swappable_swap_limit": -1},
    ],
)
def test_validation(kwargs):
    with pytest.raises(ConfigError):
        SecureCyclonConfig(**kwargs)
