"""Unit tests for EngineConfig validation and derived properties."""

import math

import pytest

from repro.core.profiler import PROFILER_ALPHA
from repro.core.progress_map import PROGRESS_WINDOW
from repro.core.shedding import SHED_SLACK
from repro.runtime.config import (
    FAILURE_TIMEOUT,
    HEARTBEAT_INTERVAL,
    EngineConfig,
)
from repro.runtime.delivery import RETRANSMIT_BACKOFF_CAP, RETRANSMIT_TIMEOUT
from repro.sim.faults import CrashWindow, FaultSchedule, Partition
from repro.sim.network import (
    LINK_BYTES_PER_TUPLE,
    LOCAL_DELAY,
    REMOTE_DELAY,
    ConstantDelay,
)


INVALID_VALUES = [
    ("scheduler", "spark"),
    ("policy", "psychic"),
    ("nodes", 0),
    ("workers_per_node", 0),
    ("quantum", -1.0),
    ("profile_noise_sigma", -0.1),
    ("switch_cost", -0.1),
    ("starvation_aging", -0.1),
    ("backend", "threads"),
    ("mp_cost_mode", "burn"),
    ("mp_cost_mode", "spin"),
    ("mp_wall_timeout", 0.0),
    *((field, math.nan) for field in (
        "quantum", "profile_noise_sigma", "switch_cost", "starvation_aging",
        "checkpoint_interval", "link_capacity", "trace_sample_interval",
        "mp_wall_timeout",
    )),
]

#: two-node sim configs the mp backend cannot realise
MP_UNREALISABLE = {
    "partition": {"nodes": 2, "fault_schedule": FaultSchedule(
        partitions=[Partition(start=1.0, end=2.0, groups=((1,),))])},
    "state_recovery": {"nodes": 2, "state_recovery": "replay",
                       "fault_schedule": FaultSchedule(
                           crashes=[CrashWindow(node=1, start=1.0, end=2.0)])},
    # never both down on sim, both dead for good on mp
    "every_node_killed": {"nodes": 2, "fault_schedule": FaultSchedule(crashes=[
        CrashWindow(node=0, start=1.0, end=2.0), CrashWindow(node=1, start=3.0)])},
}


class TestValidation:
    def test_defaults_are_valid(self):
        config = EngineConfig()
        assert config.scheduler == "cameo"
        assert config.policy == "llf"

    @pytest.mark.parametrize("overrides", [
        *(pytest.param({field: value}, id=f"{field}-{value}")
          for field, value in INVALID_VALUES),
        *(pytest.param({"backend": "mp", **overrides}, id=f"mp-{name}")
          for name, overrides in MP_UNREALISABLE.items()),
    ])
    def test_invalid_values_rejected(self, overrides):
        with pytest.raises(ValueError):
            EngineConfig(**overrides)

    @pytest.mark.parametrize("name", list(MP_UNREALISABLE))
    def test_mp_rejections_are_valid_on_sim(self, name):
        """The backend alone fails each ``mp-`` row above."""
        EngineConfig(**MP_UNREALISABLE[name])

    def test_mp_knob_defaults(self):
        config = EngineConfig()
        assert config.mp_cost_mode == "sleep"


class TestContextsEnabled:
    def test_cameo_on(self):
        assert EngineConfig(scheduler="cameo").contexts_enabled

    def test_baselines_off(self):
        assert not EngineConfig(scheduler="fifo").contexts_enabled
        assert not EngineConfig(scheduler="orleans").contexts_enabled


def test_total_workers():
    assert EngineConfig(nodes=3, workers_per_node=4).total_workers == 12


class TestConstants:
    """Values no run ever varied are module constants, not fields."""

    def test_values_equal_the_field_defaults_they_replace(self):
        assert (LOCAL_DELAY, REMOTE_DELAY) == (2e-5, 5e-4)
        assert PROFILER_ALPHA == 0.2
        assert PROGRESS_WINDOW == 64
        assert (HEARTBEAT_INTERVAL, FAILURE_TIMEOUT) == (0.05, 0.2)
        assert (RETRANSMIT_TIMEOUT, RETRANSMIT_BACKOFF_CAP) == (0.05, 0.8)
        assert LINK_BYTES_PER_TUPLE == 64.0
        assert SHED_SLACK == 0.0

    def test_delay_models_built_without_arguments_agree(self):
        # the one place three defaults disagreed (0.0 / 5e-5 / 2e-5 local)
        model = ConstantDelay()
        assert model.delay(0, 0) == LOCAL_DELAY
        assert model.delay(0, 1) == REMOTE_DELAY

    @pytest.mark.parametrize("field", [
        "local_delay", "remote_delay", "profiler_alpha", "progress_window",
        "heartbeat_interval", "failure_timeout", "retransmit_timeout",
        "retransmit_backoff_cap", "link_bytes_per_tuple", "mp_poll_interval",
        "shed_slack", "network_jitter_sigma",
        # the two execution logs that ``record_timeline`` replaced
        *(f"record_{log}_timeline" for log in ("schedule", "completion")),
    ])
    def test_removed_fields_are_not_accepted(self, field):
        with pytest.raises(TypeError):
            EngineConfig(**{field: 1.0})
