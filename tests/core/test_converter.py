"""Unit tests for the context converter (Algorithm 1)."""

import pytest

from repro.core.context import ReplyContext
from repro.core.converter import ContextConverter
from repro.core.policies import LeastLaxityFirstPolicy
from repro.core.progress_map import IdentityProgressMap, LinearProgressMap
from repro.core.tokens import TokenFairPolicy
from repro.dataflow.windows import WindowSpec


def converter(own_window=None, progress_map=None, semantics=True, latency=1.0):
    return ContextConverter(
        job_name="job",
        latency_constraint=latency,
        own_window=own_window,
        policy=LeastLaxityFirstPolicy(),
        progress_map=progress_map or IdentityProgressMap(),
        use_query_semantics=semantics,
    )


class TestRegularTarget:
    def test_no_extension(self):
        c = converter()
        c.seed_reply_state("next", 0.1, 0.2)
        pc = c.build(p=5.0, t=5.0, now=5.0, target_stage="next", target_window=None)
        assert pc.pri_local == 5.0  # p_MF = p
        # ddl = t_MF + L - C_m - C_path with t_MF = t = 5
        assert pc.deadline == 5.0 + 1.0 - 0.1 - 0.2
        assert pc.pri_global == pytest.approx(5.7)

    def test_unknown_target_costs_default_to_zero(self):
        pc = converter().build(p=5.0, t=5.0, now=5.0, target_stage="next",
                               target_window=None)
        assert pc.pri_global == pytest.approx(6.0)


class TestWindowedTarget:
    def test_deadline_extended_to_frontier(self):
        c = converter()  # identity progress map: ingestion-time domain
        window = WindowSpec.tumbling(10.0)
        # the first message on a channel is conservatively a closer
        first = c.build(p=1.0, t=1.0, now=1.0, target_stage="agg", target_window=window)
        assert first.pri_local == 1.0
        # an interior follow-up is extended to the window frontier
        pc = c.build(p=3.0, t=3.0, now=3.0, target_stage="agg", target_window=window)
        assert pc.pri_local == 10.0  # PRI_local is p_MF
        assert pc.deadline == 10.0 + 1.0  # t_MF = 10, zero costs
        assert pc.pri_global == pytest.approx(11.0)

    def test_boundary_crossing_message_not_extended(self):
        c = converter()
        window = WindowSpec.tumbling(10.0)
        c.build(p=8.0, t=8.0, now=8.0, target_stage="agg", target_window=window)
        # p=12 crosses the boundary at 10: it closes window [0,10) -> urgent
        pc = c.build(p=12.0, t=12.0, now=12.0, target_stage="agg", target_window=window)
        assert pc.pri_local == 12.0
        assert pc.deadline == 12.0 + 1.0

    def test_fanout_partitions_share_classification(self):
        c = converter()
        window = WindowSpec.tumbling(10.0)
        c.build(p=1.0, t=1.0, now=1.0, target_stage="agg", target_window=window)
        a = c.build(p=3.0, t=3.0, now=3.0, target_stage="agg", target_window=window)
        b = c.build(p=3.0, t=3.0, now=3.0, target_stage="agg", target_window=window)
        assert a.pri_local == b.pri_local == 10.0

    def test_event_time_uses_regression(self):
        mapper = LinearProgressMap()
        c = converter(progress_map=mapper)
        window = WindowSpec.tumbling(10.0)
        # observe a constant 2s ingestion lag
        for p in (1.0, 4.0, 7.0):
            c.build(p=p, t=p + 2.0, now=p + 2.0, target_stage="agg",
                    target_window=window)
        pc = c.build(p=8.0, t=10.0, now=10.0, target_stage="agg", target_window=window)
        # p=8 is interior to window [0, 10): extended
        assert pc.pri_local == 10.0
        # frontier arrives ~2s after p=10
        assert pc.deadline - 1.0 == pytest.approx(12.0)

    def test_cold_regression_falls_back_to_regular(self):
        mapper = LinearProgressMap(min_points=5)
        c = converter(progress_map=mapper)
        window = WindowSpec.tumbling(10.0)
        pc = c.build(p=3.0, t=3.5, now=3.5, target_stage="agg", target_window=window)
        # model not trustworthy yet: treat as regular (t_MF = t_M)
        assert pc.deadline == 3.5 + 1.0
        assert pc.pri_local == 3.0

    def test_inconsistent_prediction_falls_back(self):
        mapper = LinearProgressMap()
        c = converter(progress_map=mapper)
        window = WindowSpec.tumbling(10.0)
        # lag shrinks over observations -> fitted line can predict t_MF < t;
        # build with an arrival far past the prediction
        for p, t in ((1.0, 10.0), (2.0, 10.5)):
            c.build(p=p, t=t, now=t, target_stage="agg", target_window=window)
        pc = c.build(p=9.5, t=30.0, now=30.0, target_stage="agg", target_window=window)
        assert pc.deadline >= 30.0 + 1.0

    def test_semantics_disabled_never_extends(self):
        c = converter(semantics=False)
        window = WindowSpec.tumbling(10.0)
        pc = c.build(p=3.0, t=3.0, now=3.0, target_stage="agg", target_window=window)
        assert pc.pri_local == 3.0
        assert pc.deadline == 3.0 + 1.0

    def test_window_to_same_slide_window_not_extended(self):
        c = converter(own_window=WindowSpec.tumbling(10.0))
        window = WindowSpec.tumbling(10.0)
        pc = c.build(p=10.0, t=10.0, now=10.0, target_stage="agg", target_window=window)
        assert pc.pri_local == 10.0
        assert pc.deadline == 10.0 + 1.0


class TestReplies:
    def test_prepare_reply_at_sink(self):
        c = converter()  # no downstream feedback: sink-like
        rc = c.prepare_reply(own_cost=0.05)
        assert rc.c_m == 0.05
        assert rc.c_path == 0.0

    def test_prepare_reply_accumulates_critical_path(self):
        c = converter()
        c.process_reply("next", ReplyContext(c_m=0.2, c_path=0.3))
        rc = c.prepare_reply(own_cost=0.1)
        assert rc.c_m == 0.1
        assert rc.c_path == pytest.approx(0.5)  # C_m + C_path downstream

    def test_live_feedback_overrides_seed(self):
        c = converter()
        c.seed_reply_state("next", 0.5, 0.5)
        c.process_reply("next", ReplyContext(c_m=0.1, c_path=0.1))
        pc = c.build(p=0.0, t=0.0, now=0.0, target_stage="next", target_window=None)
        assert pc.pri_global == pytest.approx(0.0 + 1.0 - 0.2)

    def test_seed_does_not_override_feedback(self):
        c = converter()
        c.process_reply("next", ReplyContext(c_m=0.1, c_path=0.1))
        c.seed_reply_state("next", 0.5, 0.5)
        assert c.reply_state.get("next").c_m == 0.1


class TestInheritance:
    def test_token_tag_inherited_through_build(self):
        # downstream of a source, the token policy hands on the trigger's
        # pair; the PC's deadline stays Eq. 3 of this hop
        c = ContextConverter(
            job_name="job", latency_constraint=1.0, own_window=None,
            policy=TokenFairPolicy(rates={"job": 2.0}),
            progress_map=IdentityProgressMap(),
        )
        for _ in range(2):  # the second token of interval 0 is tagged 0.5
            parent = c.build(p=0.5, t=0.5, now=0.5, target_stage="x",
                             target_window=None, at_source=True)
        assert (parent.pri_local, parent.pri_global) == (0.0, 0.5)
        child = c.build(p=1.0, t=1.0, now=1.0, target_stage="x", target_window=None,
                        inherited=parent)
        assert (child.pri_local, child.pri_global) == (0.0, 0.5)
        assert child.deadline == 1.0 + 1.0
