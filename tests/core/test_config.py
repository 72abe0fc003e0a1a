"""Tests for PmcastConfig / SimConfig validation."""

import pytest

from repro.config import PmcastConfig, SimConfig
from repro.errors import ConfigError


class TestPmcastConfig:
    def test_defaults_match_paper_core_parameters(self):
        config = PmcastConfig()
        assert config.fanout == 2
        assert config.redundancy == 3
        assert config.threshold_h == 0

    def test_frozen(self):
        with pytest.raises(Exception):
            PmcastConfig().fanout = 5

    def test_tuned_copy(self):
        config = PmcastConfig().tuned(8)
        assert config.threshold_h == 8
        assert PmcastConfig().threshold_h == 0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"fanout": 0},
            {"redundancy": 0},
            {"period_ms": 0},
            {"threshold_h": -1},
            {"assumed_loss": 1.0},
            {"assumed_crash": -0.5},
            {"min_rounds_per_depth": -1},
            {"max_rounds_per_depth": 0},
            {"min_rounds_per_depth": 9, "max_rounds_per_depth": 3},
            {"leaf_flood_threshold": -0.1},
            {"leaf_flood_threshold": float("nan")},
            {"pittel_c": float("nan")},
            {"fanout": 2.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            PmcastConfig(**kwargs)


class TestSimConfig:
    def test_defaults(self):
        sim = SimConfig()
        assert sim.loss_probability == 0.0
        assert sim.crash_fraction == 0.0
        assert sim.max_rounds >= 1

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"loss_probability": 1.0},
            {"loss_probability": -0.1},
            {"crash_fraction": 1.0},
            {"max_rounds": 0},
            {"max_rounds": 2.5},
        ],
    )
    def test_invalid_values_rejected(self, kwargs):
        with pytest.raises(ConfigError):
            SimConfig(**kwargs)
