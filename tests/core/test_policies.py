"""Unit tests for the pluggable scheduling policies."""

import pytest

from repro.core.context import PriorityContext
from repro.core.converter import ContextConverter
from repro.core.policies import (
    ConstantPolicy,
    EarliestDeadlineFirstPolicy,
    LeastLaxityFirstPolicy,
    ShortestJobFirstPolicy,
    make_policy,
)
from repro.core.progress_map import IdentityProgressMap
from repro.core.tokens import TokenFairPolicy


def build(policy, latency_constraint=1.0, c_m=0.1, c_path=0.2) -> PriorityContext:
    """The PC of one hop with ``p_MF = 10``, ``t_MF = 12`` under ``policy``."""
    converter = ContextConverter(
        job_name="job", latency_constraint=latency_constraint, own_window=None,
        policy=policy, progress_map=IdentityProgressMap(),
    )
    converter.seed_reply_state("next", c_m, c_path)
    return converter.build(p=10.0, t=12.0, now=0.0, target_stage="next",
                           target_window=None)


def pair(policy, **overrides) -> tuple[float, float]:
    pc = build(policy, **overrides)
    return (pc.pri_local, pc.pri_global)


class TestLLF:
    def test_global_priority_is_start_deadline(self):
        local, global_ = pair(LeastLaxityFirstPolicy())
        assert local == 10.0  # p_MF
        assert global_ == pytest.approx(12.0 + 1.0 - 0.1 - 0.2)

    def test_tighter_constraint_is_more_urgent(self):
        tight = pair(LeastLaxityFirstPolicy(), latency_constraint=0.1)
        lax = pair(LeastLaxityFirstPolicy(), latency_constraint=10.0)
        assert tight[1] < lax[1]

    def test_costlier_target_is_more_urgent(self):
        heavy = pair(LeastLaxityFirstPolicy(), c_m=0.5)
        light = pair(LeastLaxityFirstPolicy(), c_m=0.0)
        assert heavy[1] < light[1]


class TestEDF:
    def test_omits_operator_cost(self):
        llf = pair(LeastLaxityFirstPolicy())
        edf = pair(EarliestDeadlineFirstPolicy())
        assert edf[1] == pytest.approx(llf[1] + 0.1)  # C_oM added back

    def test_identical_when_cost_zero(self):
        assert (pair(EarliestDeadlineFirstPolicy(), c_m=0.0)
                == pair(LeastLaxityFirstPolicy(), c_m=0.0))


class TestSJF:
    def test_priority_is_cost(self):
        local, global_ = pair(ShortestJobFirstPolicy(), c_m=0.42)
        assert global_ == 0.42

    def test_deadline_blind(self):
        a = pair(ShortestJobFirstPolicy(), latency_constraint=0.01)
        b = pair(ShortestJobFirstPolicy(), latency_constraint=100.0)
        assert a == b


class TestConstant:
    def test_fixed_pair(self):
        policy = ConstantPolicy(1.0, 2.0)
        assert pair(policy) == (1.0, 2.0)
        assert pair(policy, latency_constraint=9.0) == (1.0, 2.0)


class TestFactory:
    @pytest.mark.parametrize("name,cls", [
        ("llf", LeastLaxityFirstPolicy),
        ("edf", EarliestDeadlineFirstPolicy),
        ("sjf", ShortestJobFirstPolicy),
        ("constant", ConstantPolicy),
    ])
    def test_known_policies(self, name, cls):
        assert isinstance(make_policy(name), cls)

    def test_token_policy(self):
        policy = make_policy("token", rates={"job": 10.0})
        assert isinstance(policy, TokenFairPolicy)

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            make_policy("random")


class TestLLFDeadlineField:
    @pytest.mark.parametrize("policy", [
        LeastLaxityFirstPolicy(), EarliestDeadlineFirstPolicy(),
        ShortestJobFirstPolicy(), ConstantPolicy(),
    ], ids=lambda policy: policy.name)
    def test_pc_deadline_is_eq3_under_every_policy(self, policy):
        assert build(policy).deadline == 12.0 + 1.0 - 0.1 - 0.2
