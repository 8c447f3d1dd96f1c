"""Unit tests for the token-based proportional-fair policy (§5.4)."""

import pytest

from repro.core.context import MIN_PRIORITY, PriorityContext
from repro.core.converter import ContextConverter
from repro.core.progress_map import IdentityProgressMap
from repro.core.tokens import TokenFairPolicy


def _converter(policy: TokenFairPolicy, job: str, source: int) -> ContextConverter:
    return ContextConverter(
        job_name=job, latency_constraint=1.0, own_window=None, policy=policy,
        progress_map=IdentityProgressMap(), source_index=source,
    )


def source_pair(policy: TokenFairPolicy, now: float, job: str = "job",
                source: int = 0) -> tuple[float, float]:
    """The pair of a batch the ingestion client of ``job``/``source``
    sends at ``now``."""
    pc = _converter(policy, job, source).build(
        p=0.0, t=now, now=now, target_stage="next", target_window=None,
        at_source=True,
    )
    return (pc.pri_local, pc.pri_global)


def downstream_pair(policy: TokenFairPolicy,
                    inherited: PriorityContext | None) -> tuple[float, float]:
    pc = _converter(policy, "job", 0).build(
        p=0.0, t=5.0, now=5.0, target_stage="next", target_window=None,
        inherited=inherited,
    )
    return (pc.pri_local, pc.pri_global)


class TestTokenAssignment:
    def test_tokens_spread_across_interval(self):
        policy = TokenFairPolicy(rates={"job": 4.0}, interval=1.0)
        tags = [source_pair(policy, 0.0)[1] for _ in range(4)]
        assert tags == [0.0, 0.25, 0.5, 0.75]

    def test_exhausted_bucket_gives_min_priority(self):
        policy = TokenFairPolicy(rates={"job": 2.0}, interval=1.0)
        source_pair(policy, 0.0)
        source_pair(policy, 0.1)
        local, global_ = source_pair(policy, 0.2)
        assert global_ == MIN_PRIORITY
        # untokened messages sort behind ALL tokened messages
        assert local == MIN_PRIORITY

    def test_bucket_refills_each_interval(self):
        policy = TokenFairPolicy(rates={"job": 1.0}, interval=1.0)
        assert source_pair(policy, 0.0)[1] == 0.0
        assert source_pair(policy, 0.5)[1] == MIN_PRIORITY
        assert source_pair(policy, 1.2)[1] == 1.0

    def test_sources_have_independent_buckets(self):
        policy = TokenFairPolicy(rates={"job": 1.0}, interval=1.0)
        assert source_pair(policy, 0.0, source=0)[1] == 0.0
        assert source_pair(policy, 0.0, source=1)[1] == 0.0

    def test_jobs_have_independent_buckets(self):
        policy = TokenFairPolicy(rates={"a": 1.0, "b": 1.0})
        assert source_pair(policy, 0.0, job="a")[1] == 0.0
        assert source_pair(policy, 0.0, job="b")[1] == 0.0

    def test_higher_rate_means_denser_tags(self):
        policy = TokenFairPolicy(rates={"a": 2.0, "b": 4.0})
        a2 = [source_pair(policy, 0.0, job="a")[1] for _ in range(2)]
        b2 = [source_pair(policy, 0.0, job="b")[1] for _ in range(2)]
        assert a2[1] == 0.5 and b2[1] == 0.25  # b's tokens are denser in time

    def test_uncontrolled_job_scheduled_by_arrival(self):
        policy = TokenFairPolicy(rates={"other": 1.0})
        local, global_ = source_pair(policy, 3.3, job="free")
        assert global_ == 3.3


class TestInheritance:
    def test_downstream_inherits_tag(self):
        policy = TokenFairPolicy(rates={"job": 1.0})
        pc = PriorityContext(pri_local=2.0, pri_global=2.5)
        assert downstream_pair(policy, pc) == (2.0, 2.5)

    def test_downstream_without_pc_is_min_priority(self):
        policy = TokenFairPolicy(rates={"job": 1.0})
        assert downstream_pair(policy, None)[1] == MIN_PRIORITY


class TestValidation:
    def test_zero_rate_rejected(self):
        with pytest.raises(ValueError):
            TokenFairPolicy(rates={"job": 0.0})

    def test_zero_interval_rejected(self):
        with pytest.raises(ValueError):
            TokenFairPolicy(rates={"job": 1.0}, interval=0.0)

    def test_rate_lookup(self):
        policy = TokenFairPolicy(rates={"job": 7.0})
        assert policy.rate_for("job") == 7.0
        assert policy.rate_for("missing") is None
