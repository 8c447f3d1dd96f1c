"""Unit tests for priority and reply contexts."""

import pytest

from repro.core.context import (
    MIN_PRIORITY,
    PriorityContext,
    ReplyContext,
    ReplyState,
)


class TestPriorityContext:
    def test_defaults(self):
        pc = PriorityContext()
        assert pc.latency_constraint == float("inf")
        assert pc.deadline == float("inf")
        assert pc.token_interval == -1

    def test_priority_pair(self):
        pc = PriorityContext(pri_local=1.5, pri_global=2.5)
        assert pc.priority_pair == (1.5, 2.5)

    def test_min_priority_is_positive_infinity(self):
        # lower = higher priority everywhere, so MIN priority must sort last
        assert MIN_PRIORITY > 1e300


class TestReplyContext:
    def test_downstream_cost(self):
        rc = ReplyContext(c_m=0.5, c_path=1.5)
        assert rc.downstream_cost == 2.0

    def test_defaults_are_zero(self):
        rc = ReplyContext()
        assert rc.downstream_cost == 0.0
        assert rc.queueing_delay == 0.0


class TestReplyState:
    def test_empty_state_costs_nothing(self):
        # a sink has no downstream: C_path = 0 (Alg. 1 line 23)
        assert ReplyState().max_downstream_cost() == 0.0

    def test_single_stage(self):
        state = ReplyState()
        state.update("next", ReplyContext(c_m=0.3, c_path=0.7))
        assert state.max_downstream_cost() == 1.0
        assert state.get("next").c_m == 0.3

    def test_max_over_downstream_stages(self):
        # critical path = max over paths (Eq. 2)
        state = ReplyState()
        state.update("cheap", ReplyContext(c_m=0.1, c_path=0.1))
        state.update("costly", ReplyContext(c_m=0.5, c_path=2.0))
        assert state.max_downstream_cost() == 2.5

    def test_update_replaces(self):
        state = ReplyState()
        state.update("next", ReplyContext(c_m=1.0))
        state.update("next", ReplyContext(c_m=0.2))
        assert state.max_downstream_cost() == pytest.approx(0.2)

    def test_missing_stage_is_none(self):
        assert ReplyState().get("nope") is None
