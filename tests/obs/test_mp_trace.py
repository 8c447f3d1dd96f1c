"""Cross-process observability of the mp backend.

Three layers of evidence:

* **Zero interference** — a traced 1-worker mp run produces completion
  aggregates identical to the untraced run, for every scheduler (the
  observability plane observes, never steers).
* **Real cross-process traces** — a traced 2-worker run (with loss, so
  the go-back-N path is exercised) yields spans witnessed by two real
  processes whose merged timestamps telescope into the
  network/recovery/queueing/execution identity; residual cross-clock
  error is bounded by the measured ``ClockSync.skew_bound``.
* **Merge semantics** — unit and property tests of :class:`SpanMerger` /
  :class:`ClockSync`: latest part wins per origin, sender and receiver
  witnesses fold into one span, fail-over re-execution does not double
  count the casualty's work, and offset reconciliation keeps the
  identity exact for any synthetic clock skew.
"""

from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments.common import TenantMix, run_tenant_mix
from repro.obs.attribution import attribute
from repro.obs.export import jsonl_events
from repro.obs.merge import PART_FIELDS, ClockSync, SpanMerger
from repro.obs.spans import EXECUTED, LOST_CRASH, PENDING, MessageSpan, span_to_part

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
        assert untraced.tracer is None and untraced.telemetry is None
        assert traced.tracer is not None
        assert len(traced.tracer.spans) > 0

    def test_untraced_run_leaves_no_obs_surface(self):
        engine = _run_mp("cameo", traced=False)
        assert engine.tracer is None
        assert engine.telemetry is None
        assert engine.clock is None
        assert engine.process_map is None
        assert "trace_parts" not in engine.info
        assert "telemetry_samples" not in engine.info


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
            "mp_loss_rate": 0.2,
        },
    )


class TestCrossProcessTrace:
    def test_spans_witnessed_by_two_real_processes(self, traced_mp_engine):
        engine = traced_mp_engine
        nodes = {s.node_id for s in engine.tracer.spans.values() if s.node_id >= 0}
        assert nodes == {0, 1}
        pids = set(engine.clock.pids.values())
        assert len(pids) == 2, "each worker must be a distinct real process"
        assert all(pid > 0 for pid in pids)
        assert engine.process_map.keys() == {0, 1}

    def test_telescoping_identity_within_skew_bound(self, traced_mp_engine):
        engine = traced_mp_engine
        skew = engine.clock.skew_bound
        assert skew >= 0.0
        checked = 0
        for span in engine.tracer.spans.values():
            if any(math.isnan(v) for v in (span.sent, span.first_admit,
                                           span.admitted, span.finished)):
                continue
            residual = span.total - (span.network + span.recovery
                                     + span.wait + span.exec)
            assert abs(residual) <= skew + 1e-9, span
            # cross-clock instants may disagree by at most the skew bound
            assert span.network >= -skew - 1e-9, span
            assert span.recovery >= -skew - 1e-9, span
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
        assert len(engine.telemetry) > 0
        assert len(engine.tracer.samples) == len(engine.telemetry)
        kinds = [json.loads(line)["type"] for line in
                 jsonl_events(engine.tracer, engine.fault_timeline).splitlines()]
        assert kinds.count("sched_sample") == len(engine.telemetry)
        assert set(kinds) <= {"meta", "span", "sched_sample", "fault"}
        for node_id, samples in engine.telemetry.per_node().items():
            last = samples[-1]
            assert last.pops > 0 and last.pushes >= last.pops
            assert last.messages_processed == \
                engine.info["reports"][node_id]["messages"]

    def test_clock_offsets_are_plausible(self, traced_mp_engine):
        clock = traced_mp_engine.clock
        # forked workers share CLOCK_MONOTONIC: offsets are bounded by
        # the exchange RTT, not by anything physical
        for node, offset in clock.offsets.items():
            assert abs(offset) <= 10 * max(clock.uncertainties.values()) + 1e-3
        info = traced_mp_engine.info
        assert info["trace_parts"] >= len(traced_mp_engine.tracer.spans)


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
    merger.add_parts(0, [_part(7, sent=1.0, parent=3, transmits=2,
                               retransmits=1, backoff=0.05)])
    merger.add_parts(1, [_part(7, first_admit=1.2, admitted=1.2, started=1.5,
                               finished=1.7, wait=0.3, exec=0.2, attempts=1,
                               node_id=1, worker=0, outcome=EXECUTED)])
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
    merger.add_parts(1, [_part(9, admitted=1.0, outcome=PENDING)])
    merger.add_parts(1, [_part(9, admitted=1.0, started=1.4, finished=1.6,
                               wait=0.4, exec=0.2, attempts=1, node_id=1,
                               outcome=EXECUTED)])
    span = merger.build().spans[9]
    assert span.outcome == EXECUTED
    assert span.wait == 0.4
    assert merger.part_count == 2


def test_failover_reexecution_does_not_double_count_work():
    """The casualty's partial work lives inside the recovery window; only
    the decisive (surviving) execution contributes wait/exec."""
    merger = SpanMerger()
    merger.add_parts(0, [_part(5, sent=1.0, transmits=2, retransmits=1,
                               backoff=0.1)])
    # the node that died after executing (part flushed pre-crash) ...
    merger.add_parts(1, [_part(5, first_admit=1.1, admitted=1.1, started=1.2,
                               finished=1.3, wait=0.1, exec=0.1, attempts=1,
                               node_id=1, worker=0, outcome=EXECUTED)])
    # ... and the survivor that re-executed the replayed copy
    merger.add_parts(2, [_part(5, first_admit=2.0, admitted=2.0, started=2.3,
                               finished=2.5, wait=0.3, exec=0.2, attempts=1,
                               node_id=2, worker=0, outcome=EXECUTED)])
    span = merger.build().spans[5]
    assert span.node_id == 2, "decisive part is the latest-finishing one"
    assert span.wait == 0.3 and span.exec == 0.2 and span.attempts == 1
    assert span.first_admit == 1.1 and span.admitted == 2.0
    assert math.isclose(span.total,
                        span.network + span.recovery + span.wait + span.exec)


def test_replay_supersedes_lost_crash():
    merger = SpanMerger()
    merger.add_parts(1, [_part(4, first_admit=1.0, admitted=1.0, finished=1.1,
                               node_id=1, outcome=LOST_CRASH)])
    merger.add_parts(2, [_part(4, first_admit=1.5, admitted=1.5, started=1.6,
                               finished=1.8, wait=0.1, exec=0.2, attempts=1,
                               node_id=2, outcome=EXECUTED)])
    recorder = merger.build()
    assert recorder.spans[4].outcome == EXECUTED
    assert recorder.lost_crash_events == 0


# ---------------------------------------------------------------------------
# clock reconciliation property
# ---------------------------------------------------------------------------

_offset = st.floats(min_value=-5.0, max_value=5.0, allow_nan=False)
_err = st.floats(min_value=-1e-4, max_value=1e-4, allow_nan=False)
_gap = st.floats(min_value=0.0, max_value=2.0, allow_nan=False)


@settings(max_examples=200, deadline=None)
@given(offset0=_offset, offset1=_offset, err0=_err, err1=_err,
       flight=_gap, wait=_gap, cost=_gap)
def test_offset_reconciled_components_telescope(offset0, offset1, err0, err1,
                                                flight, wait, cost):
    """Sender and receiver stamp their parts on skewed clocks; after
    reconciliation with offsets measured to within ``uncertainty``, the
    identity is exact and the cross-clock components are within the
    skew bound of truth."""
    sent_true = 1.0
    admit_true = sent_true + flight
    start_true = admit_true + wait
    finish_true = start_true + cost

    merger = SpanMerger(ClockSync(
        offsets={0: offset0 + err0, 1: offset1 + err1},
        uncertainties={0: abs(err0), 1: abs(err1)},
        pids={0: 11, 1: 12},
    ))
    merger.add_parts(0, [_part(1, sent=sent_true + offset0, transmits=1)])
    merger.add_parts(1, [_part(
        1, first_admit=admit_true + offset1, admitted=admit_true + offset1,
        started=start_true + offset1, finished=finish_true + offset1,
        wait=wait, exec=cost, attempts=1, node_id=1, outcome=EXECUTED,
    )])
    span = merger.build().spans[1]
    skew = 2.0 * max(abs(err0), abs(err1))

    # the identity telescopes exactly (components derive from the same
    # reconciled instants) ...
    residual = span.total - (span.network + span.recovery
                             + span.wait + span.exec)
    assert abs(residual) <= 1e-9
    # ... and each reconciled instant lands within its clock's error
    assert abs(span.sent - sent_true) <= skew + 1e-9
    assert abs(span.finished - finish_true) <= skew + 1e-9
    assert abs(span.network - flight) <= skew + 1e-9


def test_skew_bound_empty_and_adjust_nan():
    sync = ClockSync({}, {}, {})
    assert sync.skew_bound == 0.0
    sync = ClockSync({0: 0.5}, {0: 1e-6}, {0: 1})
    assert math.isnan(sync.adjust(0, _NAN))
    assert sync.adjust(0, 1.5) == 1.0
    assert sync.adjust(99, 2.0) == 2.0  # unknown node passes through
    d = sync.as_dict()
    assert d["skew_bound"] == 2e-6 and d["pids"] == {0: 1}
