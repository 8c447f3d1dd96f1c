"""The mp worker telemetry bus: wire format, log folding, export.

Unit layer: the struct-packed frame payload round-trips every
:class:`~repro.obs.spans.SchedSample` field (including the NaN
head-priority sentinel), the coordinator-side
:class:`~repro.obs.telemetry.TelemetryLog` sorts/exports
deterministically, and the config knob validates.  Integration layer: a
traced mp run (``record_trace=True`` runs the bus) yields per-node time
series that are monotone in time and cumulative in
``messages_processed``, carrying the worker's real run-queue counters.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.common import TenantMix, run_tenant_mix
from repro.obs.schema import validate_jsonl_trace
from repro.obs.spans import SchedSample
from repro.obs.telemetry import TelemetryLog, pack_samples, unpack_samples
from repro.runtime.config import EngineConfig

_NAN = float("nan")


def _sample(time=1.0, node_id=0, depth=3, head=0.25, busy=0.5, rtx=2,
            backlog=7, state=4096, windows=5, processed=42):
    return SchedSample(time, node_id, depth, head, 1, 1, busy, 11, 9, 2,
                       state, windows, rtx, backlog, processed)


class TestWireFormat:
    def test_pack_unpack_round_trip(self):
        samples = [_sample(), _sample(time=2.0, node_id=1, head=_NAN)]
        out = unpack_samples(pack_samples(samples))
        assert len(out) == 2
        for before, after in zip(samples, out):
            for name in SchedSample.__slots__:
                a, b = getattr(before, name), getattr(after, name)
                if isinstance(a, float) and math.isnan(a):
                    assert math.isnan(b)
                else:
                    assert a == b

    def test_empty_payload(self):
        assert pack_samples([]) == b""
        assert unpack_samples(b"") == []

    def test_partial_record_rejected(self):
        payload = pack_samples([_sample()])
        with pytest.raises(ValueError, match="whole number of records"):
            unpack_samples(payload[:-1])

    def test_nan_head_priority_serializes_as_none(self):
        record = _sample(head=_NAN).as_dict()
        assert record["head_priority"] is None
        assert record["node"] == 0
        json.dumps(record)  # strict JSON, no NaN tokens
        assert _sample(head=0.25).as_dict()["head_priority"] == 0.25


class TestTelemetryLog:
    def _log(self):
        log = TelemetryLog()
        log.extend([_sample(time=2.0, node_id=1, processed=9)])
        log.extend([_sample(time=1.0, node_id=0, processed=4),
                    _sample(time=2.0, node_id=0, processed=8)])
        return log

    def test_sorted_and_per_node(self):
        log = self._log()
        assert len(log) == 3
        order = [(s.time, s.node_id) for s in log.sorted_samples()]
        assert order == [(1.0, 0), (2.0, 0), (2.0, 1)]
        series = log.per_node()
        assert sorted(series) == [0, 1]
        assert [s.messages_processed for s in series[0]] == [4, 8]

    def test_as_dicts_is_sorted_export(self):
        records = self._log().as_dicts()
        assert [(r["time"], r["node"]) for r in records] == \
            [(1.0, 0), (2.0, 0), (2.0, 1)]

    def test_summary(self):
        assert self._log().summary() == {
            "telemetry_samples": 3, "telemetry_nodes": [0, 1],
        }


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
    """A traced mp run: the telemetry bus runs exactly when tracing does."""
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
        """(An untraced run has no bus: see test_mp_trace.py's
        ``test_untraced_run_leaves_no_obs_surface``.)"""
        engine = telemetry_engine
        assert engine.tracer is not None and engine.clock is not None
        assert len(engine.telemetry) > 0
        assert engine.info["telemetry_samples"] == len(engine.telemetry)
        assert len(engine.tracer.samples) == len(engine.telemetry)

    def test_every_node_reports_monotone_series(self, telemetry_engine):
        series = telemetry_engine.telemetry.per_node()
        assert sorted(series) == [0, 1]
        for node_id, samples in series.items():
            assert len(samples) >= 3, f"node {node_id} starved the bus"
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
        for node_id, samples in telemetry_engine.telemetry.per_node().items():
            last = samples[-1]  # the forced reading of the _report flush
            assert last.pops > 0 and last.pushes >= last.pops
            assert last.messages_processed == reports[node_id]["messages"]

    def test_cadence_roughly_matches_interval(self, telemetry_engine):
        for samples in telemetry_engine.telemetry.per_node().values():
            # drop the final forced reading (the _report flush samples once
            # more regardless of cadence so short runs still get a series)
            periodic = samples[:-1]
            gaps = [b.time - a.time for a, b in zip(periodic, periodic[1:])]
            # cooperative sampling: gaps can stretch, never shrink below
            # the configured cadence
            if gaps:
                assert min(gaps) >= 0.01 - 1e-6
