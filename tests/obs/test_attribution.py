"""Deadline-miss attribution: the telescoping identity, end to end.

Two layers of evidence that per-stage components sum to end-to-end
latency:

* a hypothesis property test over *synthetic* chains — arbitrary hop
  counts, arbitrary (non-negative) waits/exec/flight/recovery gaps — so
  the algebra holds for every shape the runtime could produce, and
* a real traced run under crashes + loss, checking every output chain,
  and runs under each state-recovery mode that re-executes a rolled-back
  message, checking every re-executed span.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.messages import reset_message_ids
from repro.experiments.common import TenantMix, run_tenant_mix
from repro.obs.attribution import (
    attribute,
    causal_chain,
    chain_total,
    decompose_chain,
    render_attribution,
)
from repro.obs.spans import EXECUTED, OUTPUT, SHED, MessageSpan
from repro.sim.faults import ChannelLoss, CrashWindow, FaultSchedule

_COMPONENTS = ("network", "recovery", "queueing", "execution")


# ---------------------------------------------------------------------------
# property test: synthetic chains
# ---------------------------------------------------------------------------

_gap = st.floats(min_value=0.0, max_value=10.0, allow_nan=False,
                 allow_infinity=False)
_hop = st.tuples(_gap, _gap, _gap, _gap)  # flight, replay gap, wait, exec


def _build_chain(hops):
    """Materialize spans the way the runtime would: each child is sent at
    its parent's completion instant."""
    chain = []
    now = 0.0
    for i, (flight, replay, wait, cost) in enumerate(hops):
        span = MessageSpan(i, i - 1, "job", f"stage{i}", 0, now)
        span.first_admit = now + flight
        span.admitted = span.first_admit + replay
        span.started = span.admitted + wait
        span.wait = wait
        span.exec = cost
        span.finished = span.started + cost
        now = span.finished
        chain.append(span)
    return chain


@settings(max_examples=200, deadline=None)
@given(st.lists(_hop, min_size=1, max_size=8))
def test_components_sum_to_end_to_end_latency(hops):
    chain = _build_chain(hops)
    rows = decompose_chain(chain)
    total = chain_total(chain)
    summed = sum(row[name] for row in rows for name in _COMPONENTS)
    assert math.isclose(summed, total, rel_tol=1e-9, abs_tol=1e-9)


@settings(max_examples=50, deadline=None)
@given(st.lists(_hop, min_size=1, max_size=8))
def test_chain_walk_recovers_the_synthetic_chain(hops):
    chain = _build_chain(hops)

    class FakeRecorder:
        spans = {s.msg_id: s for s in chain}

    walked = causal_chain(FakeRecorder(), chain[-1])
    assert walked == chain


# ---------------------------------------------------------------------------
# real runs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def faulted_engine():
    reset_message_ids()
    mix = TenantMix(ls_count=2, ba_count=2)
    return run_tenant_mix(
        "cameo", mix, duration=6.0, nodes=3, workers_per_node=2, seed=11,
        config_overrides={
            "record_trace": True,
            "fault_schedule": FaultSchedule(
                crashes=[CrashWindow(node=1, start=1.0, end=2.0)],
                losses=[ChannelLoss(rate=0.05, scope="remote")],
            ),
        },
    )


def test_every_real_output_chain_telescopes(faulted_engine):
    recorder = faulted_engine.tracer
    outputs = recorder.outputs()
    assert len(outputs) > 10
    checked = 0
    for sink in outputs:
        chain = causal_chain(recorder, sink)
        assert chain[0].parent == -1, "chain must reach an ingested root"
        rows = decompose_chain(chain)
        summed = sum(row[name] for row in rows for name in _COMPONENTS)
        assert math.isclose(summed, chain_total(chain),
                            rel_tol=1e-9, abs_tol=1e-9)
        checked += 1
    assert checked == len(outputs)


@pytest.mark.parametrize("state_recovery", ["checkpoint", "replay"])
def test_re_executed_spans_telescope(state_recovery):
    """A rolled-back message is admitted and executed again; the first
    attempt lies inside ``recovery``, so ``wait``/``exec`` must be the
    last admission's alone."""
    reset_message_ids()
    overrides = {
        "record_trace": True,
        "state_recovery": state_recovery,
        "fault_schedule": FaultSchedule(
            crashes=[CrashWindow(node=1, start=1.0, end=2.0)]),
    }
    if state_recovery == "checkpoint":
        overrides["checkpoint_interval"] = 0.5
    engine = run_tenant_mix(
        "cameo", TenantMix(ls_count=1, ba_count=1), duration=4.0, nodes=3,
        seed=11, config_overrides=overrides)
    recorder = engine.tracer
    re_executed = [
        span for span in recorder.spans.values()
        if span.outcome in (EXECUTED, OUTPUT) and span.attempts > 1
    ]
    assert re_executed, "the crash must roll back executed messages"
    for span in re_executed:
        assert span.admitted > span.first_admit
        assert math.isclose(sum(span.components().values()), span.total,
                            rel_tol=1e-9, abs_tol=1e-9)


def test_attribution_report_structure(faulted_engine):
    report = attribute(faulted_engine.tracer, faulted_engine.metrics)
    assert report["jobs"], "faulted run should produce attributable jobs"
    for job in report["jobs"].values():
        assert job["outputs"] > 0
        assert 0 <= job["misses"] <= job["outputs"]
        if job["misses"]:
            assert job["stages"], "missed outputs must attribute to stages"
            thief = job["slack_thief"]
            assert thief["component"] in _COMPONENTS
            assert 0.0 <= thief["share"] <= 1.0
            # per-stage component sums equal the total traced miss time
            summed = sum(
                agg[name]
                for agg in job["stages"].values() for name in _COMPONENTS
            )
            assert math.isclose(summed, job["miss_traced_seconds"],
                                rel_tol=1e-9, abs_tol=1e-9)


def test_attribution_counts_match_recorded_miss_rate(faulted_engine):
    """Misses are classified on recorded latency, so attribution must agree
    with the success-rate bookkeeping the figures use."""
    report = attribute(faulted_engine.tracer, faulted_engine.metrics)
    for name, job in report["jobs"].items():
        recorded = faulted_engine.metrics.job(name)
        assert job["outputs"] == recorded.output_count
        traced_misses = sum(
            1 for s in faulted_engine.tracer.outputs()
            if s.job == name and s.latency > job["constraint"]
        )
        assert job["misses"] == traced_misses


def test_shed_messages_are_attributed_separately():
    reset_message_ids()
    mix = TenantMix(ls_count=2, ba_count=2)
    engine = run_tenant_mix(
        "cameo", mix, duration=6.0, nodes=2, workers_per_node=1, seed=11,
        config_overrides={"record_trace": True, "shed_expired": True},
    )
    recorder = engine.tracer
    shed = [s for s in recorder.spans.values() if s.outcome == SHED]
    report = attribute(recorder, engine.metrics)
    reported = sum(
        entry["count"]
        for job in report["jobs"].values() for entry in job["shed"].values()
    )
    assert reported == len(shed)
    # shed spans never appear on any output chain
    on_chains = set()
    for sink in recorder.outputs():
        for span in causal_chain(recorder, sink):
            on_chains.add(span.msg_id)
    assert not on_chains.intersection({s.msg_id for s in shed})


def test_render_attribution_is_plain_text(faulted_engine):
    report = attribute(faulted_engine.tracer, faulted_engine.metrics)
    text = render_attribution(report)
    assert isinstance(text, str) and text
    for name in report["jobs"]:
        assert name in text
    assert render_attribution({"jobs": {}}) == "(no traced outputs)"
