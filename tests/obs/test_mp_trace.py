"""Cross-process observability of the mp backend.

Three layers of evidence:

* **Zero interference** — a traced 1-worker mp run produces completion
  aggregates identical to the untraced run, for every scheduler (the
  observability plane observes, never steers).
* **Real cross-process traces** — a traced 2-worker run (with loss, so
  the go-back-N path is exercised) yields spans witnessed by two real
  processes whose merged timestamps telescope exactly into the
  network/recovery/queueing/execution identity: forked workers stamp on
  the coordinator's one clock, so no component goes negative.
* **Merge semantics** — unit tests of :class:`SpanMerger`: latest part
  wins per origin, sender and receiver witnesses fold into one span,
  fail-over re-execution does not double count the casualty's work, and
  each worker's priority-inversion count reaches the merged trace.
"""

from __future__ import annotations

import json
import math
from types import SimpleNamespace

import pytest

from repro.experiments.common import TenantMix, run_tenant_mix
from repro.obs.attribution import attribute
from repro.obs.export import jsonl_events
from repro.obs.merge import PART_FIELDS, SpanMerger
from repro.obs.recorder import MpSpanRecorder
from repro.obs.spans import EXECUTED, LOST_CRASH, PENDING, MessageSpan, span_to_part
from repro.sim.faults import ChannelLoss, FaultSchedule

_NAN = float("nan")


def _small_mix() -> TenantMix:
    return TenantMix(
        ls_count=1, ba_count=1, ls_sources=2, ba_sources=2, tuples_per_msg=200
    )


def _aggregates(engine) -> dict:
    out = {}
    for name in engine.metrics.job_names:
        job = engine.metrics.job(name)
        out[name] = {
            "messages": job.messages_processed,
            "outputs": job.output_count,
            "ingested": job.tuples_ingested,
            "processed": job.tuples_processed,
            "stages": {k: v.count for k, v in job.execution.items()},
        }
    return out


def _run_mp(scheduler: str, traced: bool, **overrides):
    base = {
        "backend": "mp",
        "mp_cost_mode": "none",
        "mp_realtime": False,
        "record_trace": traced,
    }
    base.update(overrides)
    return run_tenant_mix(
        scheduler, _small_mix(), duration=2.0, drain=1.0, nodes=1, seed=3,
        config_overrides=base,
    )


class TestTracedParity:
    """Tracing on vs off must not change what the run computes."""

    @pytest.mark.parametrize("scheduler", ("cameo", "orleans", "fifo"))
    def test_traced_run_matches_untraced_aggregates(self, scheduler):
        untraced = _run_mp(scheduler, traced=False)
        traced = _run_mp(scheduler, traced=True)
        assert _aggregates(traced) == _aggregates(untraced)
        assert untraced.tracer is None
        assert traced.tracer is not None
        assert len(traced.tracer.spans) > 0

    def test_untraced_run_leaves_no_obs_surface(self):
        engine = _run_mp("cameo", traced=False)
        assert engine.tracer is None
        assert engine.process_map is None
        assert "trace_parts" not in engine.info


@pytest.fixture(scope="module")
def traced_mp_engine():
    """2 worker processes, injected loss (exercises retransmission)."""
    return run_tenant_mix(
        "cameo", _small_mix(), duration=2.0, drain=1.0, nodes=2,
        workers_per_node=1, seed=3,
        config_overrides={
            "backend": "mp",
            "mp_cost_mode": "none",
            "mp_realtime": False,
            "record_trace": True,
            "fault_schedule": FaultSchedule(losses=[ChannelLoss(rate=0.2, scope="all")]),
        },
    )


class TestCrossProcessTrace:
    def test_spans_witnessed_by_two_real_processes(self, traced_mp_engine):
        engine = traced_mp_engine
        nodes = {s.node_id for s in engine.tracer.spans.values() if s.node_id >= 0}
        assert nodes == {0, 1}
        pids = {entry["pid"] for entry in engine.process_map.values()}
        assert len(pids) == 2, "each worker must be a distinct real process"
        assert all(pid > 0 for pid in pids)
        assert engine.process_map.keys() == {0, 1}

    def test_telescoping_identity_within_skew_bound(self, traced_mp_engine):
        """One clock across processes: zero tolerance beyond rounding."""
        engine = traced_mp_engine
        checked = 0
        for span in engine.tracer.spans.values():
            if any(math.isnan(v) for v in (span.sent, span.first_admit,
                                           span.admitted, span.finished)):
                continue
            residual = span.total - (span.network + span.recovery
                                     + span.wait + span.exec)
            assert abs(residual) <= 1e-9, span
            # instants stamped by different workers compare as they are
            assert span.network >= 0, span
            assert span.recovery >= 0, span
            checked += 1
        assert checked > 50

    def test_loss_produced_retransmit_evidence(self, traced_mp_engine):
        engine = traced_mp_engine
        assert engine.metrics.retransmissions > 0
        traced_rtx = sum(s.retransmits for s in engine.tracer.spans.values())
        assert traced_rtx > 0
        backoff = sum(s.backoff for s in engine.tracer.spans.values())
        assert backoff > 0.0

    def test_every_span_reaches_a_terminal_outcome(self, traced_mp_engine):
        counts = traced_mp_engine.tracer.outcome_counts()
        assert counts.get(PENDING, 0) == 0
        assert counts.get(EXECUTED, 0) > 0

    def test_attribution_runs_on_merged_trace(self, traced_mp_engine):
        engine = traced_mp_engine
        report = attribute(engine.tracer, engine.metrics)
        assert "jobs" in report

    def test_each_reading_appears_once_with_real_counters(self, traced_mp_engine):
        engine = traced_mp_engine
        samples = engine.tracer.samples
        assert len(samples) > 0
        kinds = [json.loads(line)["type"] for line in
                 jsonl_events(engine.tracer, engine.fault_timeline).splitlines()]
        assert kinds.count("sched_sample") == len(samples)
        assert set(kinds) <= {"meta", "span", "sched_sample", "fault"}
        assert {s.node_id for s in samples} == {0, 1}
        for node_id in (0, 1):
            last = [s for s in samples if s.node_id == node_id][-1]
            assert last.pops > 0 and last.pushes >= last.pops
            assert last.messages_processed == \
                engine.info["reports"][node_id]["messages"]
        assert engine.info["trace_parts"] >= len(engine.tracer.spans)


# ---------------------------------------------------------------------------
# SpanMerger unit semantics
# ---------------------------------------------------------------------------


def _part(msg_id: int, **overrides) -> tuple:
    span = MessageSpan(msg_id, overrides.pop("parent", -1),
                       overrides.pop("job", "job"),
                       overrides.pop("stage", "stage"),
                       overrides.pop("index", 0),
                       overrides.pop("sent", _NAN))
    for name, value in overrides.items():
        setattr(span, name, value)
    return span_to_part(span)


def test_part_fields_match_span_slots():
    assert PART_FIELDS == MessageSpan.__slots__


def test_sender_and_receiver_parts_fold_into_one_span():
    merger = SpanMerger()
    merger.add(0, [_part(7, sent=1.0, parent=3, transmits=2,
                         retransmits=1, backoff=0.05)], [], 0)
    merger.add(1, [_part(7, first_admit=1.2, admitted=1.2, started=1.5,
                         finished=1.7, wait=0.3, exec=0.2, attempts=1,
                         node_id=1, worker=0, outcome=EXECUTED)], [], 0)
    recorder = merger.build()
    span = recorder.spans[7]
    assert span.sent == 1.0
    assert span.parent == 3
    assert span.first_admit == 1.2
    assert span.finished == 1.7
    assert span.transmits == 2 and span.retransmits == 1
    assert span.wait == 0.3 and span.exec == 0.2 and span.attempts == 1
    assert span.node_id == 1 and span.outcome == EXECUTED
    assert math.isclose(span.total,
                        span.network + span.recovery + span.wait + span.exec)


def test_latest_part_wins_per_origin():
    merger = SpanMerger()
    merger.add(1, [_part(9, admitted=1.0, outcome=PENDING)], [], 0)
    merger.add(1, [_part(9, admitted=1.0, started=1.4, finished=1.6,
                         wait=0.4, exec=0.2, attempts=1, node_id=1,
                         outcome=EXECUTED)], [], 0)
    span = merger.build().spans[9]
    assert span.outcome == EXECUTED
    assert span.wait == 0.4
    assert merger.part_count == 2


def test_failover_reexecution_does_not_double_count_work():
    """The casualty's partial work lives inside the recovery window; only
    the decisive (surviving) execution contributes wait/exec."""
    merger = SpanMerger()
    merger.add(0, [_part(5, sent=1.0, transmits=2, retransmits=1,
                         backoff=0.1)], [], 0)
    # the node that died after executing (part flushed pre-crash) ...
    merger.add(1, [_part(5, first_admit=1.1, admitted=1.1, started=1.2,
                         finished=1.3, wait=0.1, exec=0.1, attempts=1,
                         node_id=1, worker=0, outcome=EXECUTED)], [], 0)
    # ... and the survivor that re-executed the replayed copy
    merger.add(2, [_part(5, first_admit=2.0, admitted=2.0, started=2.3,
                         finished=2.5, wait=0.3, exec=0.2, attempts=1,
                         node_id=2, worker=0, outcome=EXECUTED)], [], 0)
    span = merger.build().spans[5]
    assert span.node_id == 2, "decisive part is the latest-finishing one"
    assert span.wait == 0.3 and span.exec == 0.2 and span.attempts == 1
    assert span.first_admit == 1.1 and span.admitted == 2.0
    assert math.isclose(span.total,
                        span.network + span.recovery + span.wait + span.exec)


def test_replay_supersedes_lost_crash():
    merger = SpanMerger()
    merger.add(1, [_part(4, first_admit=1.0, admitted=1.0, finished=1.1,
                         node_id=1, outcome=LOST_CRASH)], [], 0)
    merger.add(2, [_part(4, first_admit=1.5, admitted=1.5, started=1.6,
                         finished=1.8, wait=0.1, exec=0.2, attempts=1,
                         node_id=2, outcome=EXECUTED)], [], 0)
    recorder = merger.build()
    assert recorder.spans[4].outcome == EXECUTED
    assert recorder.lost_crash_events == 0


def _inverted_start(recorder: MpSpanRecorder, msg_id: int) -> None:
    """Start message ``msg_id`` while a more urgent head waits."""
    target = SimpleNamespace(job="job", stage="stage", index=0)
    msg = SimpleNamespace(msg_id=msg_id, target=target, tuple_count=1,
                          pc=SimpleNamespace(pri_global=2.0, deadline=3.0))
    queue = SimpleNamespace(peek_best_priority=lambda: 1.0)
    recorder.on_admit(msg, 0.0)
    recorder.on_start(msg, SimpleNamespace(node_id=0), 0, 0.1, 0.1, 0.0,
                      queue)


def test_inversions_of_every_origin_reach_the_merged_trace():
    """Each worker counts its own priority inversions; the merged trace
    sums each origin's latest cumulative count."""
    recorders = {0: MpSpanRecorder(None), 1: MpSpanRecorder(None)}
    for msg_id in (1, 2):
        _inverted_start(recorders[0], msg_id)
    for msg_id in (3, 4, 5):
        _inverted_start(recorders[1], msg_id)
    merger = SpanMerger()
    for origin, recorder in recorders.items():
        merger.add(origin, *recorder.drain())
    assert merger.build().inversions == 5
    _inverted_start(recorders[0], 6)  # cumulative: the later drain supersedes
    merger.add(0, *recorders[0].drain())
    assert merger.build().inversions == 6
