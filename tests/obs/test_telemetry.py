"""Node samples on the mp backend: wire tuple, merge, export.

Unit layer: a :class:`~repro.obs.spans.SchedSample` round-trips through
its ``TRACE``-frame tuple (including the NaN head-priority sentinel), the
coordinator's :class:`~repro.obs.merge.SpanMerger` sorts every worker's
samples deterministically, and the config knob validates.  Integration
layer: a traced mp run yields per-node time series in
``engine.tracer.samples`` that are monotone in time and cumulative in
``messages_processed``, carrying the worker's real run-queue counters.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.common import TenantMix, run_tenant_mix
from repro.obs.merge import SpanMerger
from repro.obs.schema import validate_jsonl_trace
from repro.obs.spans import SchedSample, sample_to_tuple
from repro.runtime.config import EngineConfig

_NAN = float("nan")


def _sample(time=1.0, node_id=0, depth=3, head=0.25, busy=0.5, rtx=2,
            backlog=7, state=4096, windows=5, processed=42):
    return SchedSample(time, node_id, depth, head, 1, 1, busy, 11, 9,
                       state, windows, rtx, backlog, processed)


def _per_node(samples) -> dict[int, list[SchedSample]]:
    """node_id -> its samples, in the order given."""
    series: dict[int, list[SchedSample]] = {}
    for sample in samples:
        series.setdefault(sample.node_id, []).append(sample)
    return series


class TestWireFormat:
    def test_pack_unpack_round_trip(self):
        samples = [_sample(), _sample(time=2.0, node_id=1, head=_NAN)]
        out = [SchedSample(*sample_to_tuple(s)) for s in samples]
        assert len(out) == 2
        for before, after in zip(samples, out):
            for name in SchedSample.__slots__:
                a, b = getattr(before, name), getattr(after, name)
                if isinstance(a, float) and math.isnan(a):
                    assert math.isnan(b)
                else:
                    assert a == b

    def test_nan_head_priority_serializes_as_none(self):
        record = _sample(head=_NAN).as_dict()
        assert record["head_priority"] is None
        assert record["node"] == 0
        json.dumps(record)  # strict JSON, no NaN tokens
        assert _sample(head=0.25).as_dict()["head_priority"] == 0.25


class TestTelemetryLog:
    def test_sorted_and_per_node(self):
        """Samples of two origins arrive out of order; the merged trace
        holds them sorted by ``(time, node)``."""
        merger = SpanMerger()
        merger.add(1, [], [sample_to_tuple(_sample(time=2.0, node_id=1,
                                                   processed=9))], 0)
        merger.add(0, [], [sample_to_tuple(_sample(time=2.0, node_id=0,
                                                   processed=8)),
                           sample_to_tuple(_sample(time=1.0, node_id=0,
                                                   processed=4))], 0)
        samples = merger.build().samples
        assert len(samples) == 3
        order = [(s.time, s.node_id) for s in samples]
        assert order == [(1.0, 0), (2.0, 0), (2.0, 1)]
        series = _per_node(samples)
        assert sorted(series) == [0, 1]
        assert [s.messages_processed for s in series[0]] == [4, 8]


class TestConfigKnobs:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError, match="sample interval"):
            EngineConfig(trace_sample_interval=0.0)
        with pytest.raises(ValueError, match="sample interval"):
            EngineConfig(trace_sample_interval=-1.0)


class TestJsonlExport:
    def test_validator_flags_bad_lines(self):
        assert validate_jsonl_trace("") == ["log is empty"]
        errors = validate_jsonl_trace('{"type": "span"}')
        assert any("missing" in e for e in errors)
        assert any("meta" in e for e in errors)
        errors = validate_jsonl_trace('not json\n{"type": "wat"}')
        assert any("not JSON" in e for e in errors)
        assert any("unexpected type" in e for e in errors)


@pytest.fixture(scope="module")
def telemetry_engine():
    """A traced mp run: the workers sample themselves exactly when tracing
    is on."""
    mix = TenantMix(ls_count=1, ba_count=1, ls_sources=2, ba_sources=2,
                    tuples_per_msg=200)
    # a 20 s trace floods through in about a quarter second of wall time
    # (mp_realtime off) and the run ends right after its last message, so
    # the series is ~13 readings a node at the fast cadence below (a 2 s
    # trace gave 3, the bare minimum the series test asks for)
    return run_tenant_mix(
        "cameo", mix, duration=20.0, drain=1.0, nodes=2, workers_per_node=1,
        seed=3,
        config_overrides={
            "backend": "mp",
            "mp_cost_mode": "none",
            "mp_realtime": False,
            "record_trace": True,
            "trace_sample_interval": 0.01,
        },
    )


class TestMpRun:
    def test_bus_runs_with_record_trace(self, telemetry_engine):
        """(An untraced run samples nothing: see test_mp_trace.py's
        ``test_untraced_run_leaves_no_obs_surface``.)"""
        engine = telemetry_engine
        assert engine.tracer is not None
        assert len(engine.tracer.samples) > 0
        assert engine.tracer.summary()["sched_samples"] == \
            len(engine.tracer.samples)

    def test_every_node_reports_monotone_series(self, telemetry_engine):
        series = _per_node(telemetry_engine.tracer.samples)
        assert sorted(series) == [0, 1]
        for node_id, samples in series.items():
            assert len(samples) >= 3, f"node {node_id} starved the sampler"
            times = [s.time for s in samples]
            assert times == sorted(times)
            processed = [s.messages_processed for s in samples]
            assert processed == sorted(processed), "cumulative counter"
            assert processed[-1] > 0
            for s in samples:
                assert 0.0 <= s.quantum_utilization <= 1.0
                assert s.depth >= 0 and s.state_bytes >= 0

    def test_last_sample_carries_the_workers_real_counters(self, telemetry_engine):
        reports = telemetry_engine.info["reports"]
        for node_id, samples in _per_node(
                telemetry_engine.tracer.samples).items():
            last = samples[-1]  # the forced reading of the _report flush
            assert last.pops > 0 and last.pushes >= last.pops
            assert last.messages_processed == reports[node_id]["messages"]

    def test_cadence_roughly_matches_interval(self, telemetry_engine):
        for samples in _per_node(telemetry_engine.tracer.samples).values():
            # drop the final forced reading (the _report flush samples once
            # more regardless of cadence so short runs still get a series)
            periodic = samples[:-1]
            gaps = [b.time - a.time for a, b in zip(periodic, periodic[1:])]
            # cooperative sampling: gaps can stretch, never shrink below
            # the configured cadence
            if gaps:
                assert min(gaps) >= 0.01 - 1e-6
