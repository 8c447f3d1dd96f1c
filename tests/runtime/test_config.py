"""Unit tests for EngineConfig validation and derived properties."""

import pytest

from repro.runtime.config import EngineConfig


class TestValidation:
    def test_defaults_are_valid(self):
        config = EngineConfig()
        assert config.scheduler == "cameo"
        assert config.policy == "llf"

    @pytest.mark.parametrize("field,value", [
        ("scheduler", "spark"),
        ("policy", "psychic"),
        ("nodes", 0),
        ("workers_per_node", 0),
        ("quantum", -1.0),
        ("local_delay", -1.0),
        ("remote_delay", -1.0),
        ("profile_noise_sigma", -0.1),
        ("switch_cost", -0.1),
        ("starvation_aging", -0.1),
        ("backend", "threads"),
        ("mp_cost_mode", "burn"),
        ("mp_poll_interval", 0.0),
        ("mp_poll_interval", -0.01),
        ("mp_loss_rate", 1.0),
        ("mp_wall_timeout", 0.0),
    ])
    def test_invalid_values_rejected(self, field, value):
        with pytest.raises(ValueError):
            EngineConfig(**{field: value})

    def test_mp_knob_defaults(self):
        config = EngineConfig()
        assert config.mp_cost_mode == "sleep"
        assert config.mp_poll_interval > 0


class TestContextsEnabled:
    def test_cameo_on(self):
        assert EngineConfig(scheduler="cameo").contexts_enabled

    def test_baselines_off(self):
        assert not EngineConfig(scheduler="fifo").contexts_enabled
        assert not EngineConfig(scheduler="orleans").contexts_enabled


def test_total_workers():
    assert EngineConfig(nodes=3, workers_per_node=4).total_workers == 12
