"""TraceRecorder: span lifecycle, and exact stats/trace agreement.

The dispatch loop measures each message's mailbox wait and execution cost
once and feeds the *same floats* to the per-stage RunningStats and the
span recorder (single source of truth).  Replaying the recorded spans in
execution order must therefore rebuild the per-stage stats **bitwise
exactly** — not approximately."""

from __future__ import annotations

import pytest

from repro.experiments.common import TenantMix, run_tenant_mix
from repro.metrics.stats import RunningStat
from repro.obs.recorder import TraceRecorder
from repro.obs.spans import EXECUTED, OUTPUT, PENDING


@pytest.fixture(scope="module")
def traced_engine():
    mix = TenantMix(ls_count=2, ba_count=1)
    return run_tenant_mix(
        "cameo", mix, duration=5.0, nodes=2, workers_per_node=2, seed=3,
        config_overrides={"record_trace": True},
    )


def test_every_span_reaches_a_terminal_outcome(traced_engine):
    recorder = traced_engine.tracer
    assert len(recorder.spans) > 500
    outcomes = recorder.outcome_counts()
    # a drained fault-free run leaves nothing pending
    assert outcomes.get(PENDING, 0) == 0
    assert outcomes.get(OUTPUT, 0) > 0
    assert outcomes.get(EXECUTED, 0) > 0


def test_span_fields_are_populated(traced_engine):
    recorder = traced_engine.tracer
    for span in recorder.spans.values():
        assert span.sent == span.sent
        assert span.first_admit >= span.sent
        assert span.admitted >= span.first_admit
        assert span.started >= span.admitted
        assert span.finished >= span.started
        assert span.wait >= 0.0
        assert span.exec > 0.0
        assert span.node_id >= 0
        assert span.worker >= 0
        assert span.attempts >= 1


def test_causal_links_telescope(traced_engine):
    """A child's send instant is exactly its parent's completion instant."""
    recorder = traced_engine.tracer
    children_seen = 0
    for span in recorder.spans.values():
        parent = recorder.spans.get(span.parent)
        if parent is None:
            assert span.parent == -1  # ingested root
            continue
        children_seen += 1
        assert span.sent == parent.finished
        assert span.job == parent.job
    assert children_seen > 100


def test_stats_and_trace_agree_bitwise(traced_engine):
    """Replaying spans in execution order rebuilds the per-stage
    RunningStats exactly (same values, same order => identical floats)."""
    recorder = traced_engine.tracer
    metrics = traced_engine.metrics
    replayed_wait: dict = {}
    replayed_exec: dict = {}
    for span in recorder.start_order:
        key = (span.job, span.stage)
        replayed_wait.setdefault(key, RunningStat()).add(span.wait)
        replayed_exec.setdefault(key, RunningStat()).add(span.exec)
    assert replayed_wait, "traced run should have executed messages"
    for (job, stage), stat in replayed_wait.items():
        recorded = metrics.job(job).queueing[stage]
        assert stat.count == recorded.count
        assert stat.mean == recorded.mean
        assert stat.max == recorded.max
        assert stat.std == recorded.std
    for (job, stage), stat in replayed_exec.items():
        recorded = metrics.job(job).execution[stage]
        assert stat.count == recorded.count
        assert stat.mean == recorded.mean
        assert stat.max == recorded.max
        assert stat.std == recorded.std


def test_record_queueing_helpers_share_the_stat_objects():
    """The legacy record_* API and the get-or-create helpers must hit the
    same RunningStat instances (no double bookkeeping)."""
    from repro.metrics.collectors import JobMetrics

    job = JobMetrics("j", "LS", 0.5)
    job.record_queueing("stage", 0.25)
    assert job.queueing_stat("stage") is job.queueing["stage"]
    assert job.queueing["stage"].count == 1
    job.queueing_stat("stage").add(0.5)
    assert job.queueing["stage"].count == 2
    job.record_execution("stage", 0.1)
    assert job.execution_stat("stage") is job.execution["stage"]


def test_summary_counts_are_consistent(traced_engine):
    recorder = traced_engine.tracer
    summary = recorder.summary()
    assert summary["spans"] == len(recorder.spans)
    assert summary["outputs"] == len(recorder.outputs())
    assert summary["sched_samples"] == len(recorder.samples)
    assert summary["executed"] + summary["shed"] + summary["lost_crash"] + \
        summary["pending"] == summary["spans"]


def test_inversion_counter_only_via_priority_queues():
    """FIFO run queues expose no head priority, so the inversion counter
    must stay zero there."""
    mix = TenantMix(ls_count=2, ba_count=1)
    engine = run_tenant_mix(
        "fifo", mix, duration=2.0, nodes=2, workers_per_node=2, seed=3,
        config_overrides={"record_trace": True},
    )
    assert engine.tracer.inversions == 0


def test_recorder_ignores_unknown_messages():
    """Hooks on messages sent before tracing was enabled must be no-ops."""

    class FakeMsg:
        msg_id = 424242

    recorder = TraceRecorder()
    recorder.on_admit(FakeMsg(), 1.0)
    recorder.on_transmit(FakeMsg(), 1.0)
    recorder.on_execute_end(FakeMsg(), 1.0, 0.1)
    recorder.on_lost_crash(FakeMsg(), 1.0)
    assert recorder.spans == {}
    assert recorder.lost_crash_events == 1  # counted even without a span
