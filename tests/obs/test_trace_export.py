"""Exporters: Chrome-trace structure, JSONL stream, schema validation."""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.common import TenantMix, run_tenant_mix
from repro.obs.export import chrome_trace, jsonl_events, write_chrome_trace
from repro.obs.schema import validate_chrome_trace
from repro.sim.faults import ChannelLoss, CrashWindow, FaultSchedule


@pytest.fixture(scope="module")
def traced_engine():
    mix = TenantMix(ls_count=2, ba_count=1)
    return run_tenant_mix(
        "cameo", mix, duration=4.0, nodes=2, workers_per_node=2, seed=9,
        config_overrides={
            "record_trace": True,
            "shed_expired": True,
            "fault_schedule": FaultSchedule(
                crashes=[CrashWindow(node=1, start=1.0, end=1.5)],
                losses=[ChannelLoss(rate=0.05, scope="remote")],
            ),
        },
    )


@pytest.fixture(scope="module")
def payload(traced_engine):
    return chrome_trace(
        traced_engine.tracer, fault_timeline=traced_engine.fault_timeline
    )


def test_chrome_trace_validates(payload):
    assert validate_chrome_trace(payload) == []


def test_chrome_trace_is_strict_json(payload):
    # allow_nan=False raises on any NaN/Infinity leaking into the payload
    text = json.dumps(payload, allow_nan=False)
    assert json.loads(text)["displayTimeUnit"] == "ms"


def test_chrome_trace_has_expected_event_phases(payload):
    phases = {}
    for event in payload["traceEvents"]:
        phases[event["ph"]] = phases.get(event["ph"], 0) + 1
    assert phases.get("X", 0) > 100          # execution slices
    assert phases.get("M", 0) >= 4           # process/thread names
    assert phases.get("C", 0) > 10           # run-queue/utilization counters
    assert phases.get("s", 0) == phases.get("f", 0) > 0  # flow arrows pair up
    assert phases.get("i", 0) > 0            # shed / fault instants


def test_flow_arrows_bind_parent_to_child(payload, traced_engine):
    spans = traced_engine.tracer.spans
    starts = {e["id"]: e for e in payload["traceEvents"] if e["ph"] == "s"}
    for event in payload["traceEvents"]:
        if event["ph"] != "f":
            continue
        start = starts[event["id"]]
        span = spans[event["id"]]
        parent = spans[span.parent]
        # arrow leaves at the parent's completion, lands at the child's start
        assert math.isclose(start["ts"], parent.finished * 1e6, abs_tol=0.5)
        assert math.isclose(event["ts"], span.started * 1e6, abs_tol=0.5)


def test_slices_carry_span_args(payload):
    slices = [e for e in payload["traceEvents"] if e["ph"] == "X"]
    for event in slices:
        args = event["args"]
        assert args["msg_id"] >= 0
        assert event["dur"] >= 0
        assert args["wait_ms"] >= 0
    retransmitted = [e for e in slices if e["args"].get("retransmits")]
    assert retransmitted, "lossy run should show retransmitted slices"
    for event in retransmitted:
        assert event["args"]["backoff_ms"] >= 0


def test_jsonl_stream_round_trips(traced_engine):
    lines = jsonl_events(
        traced_engine.tracer, fault_timeline=traced_engine.fault_timeline
    ).splitlines()
    records = [json.loads(line) for line in lines]
    assert records[0]["type"] == "meta"
    kinds = {record["type"] for record in records}
    assert {"meta", "span", "sched_sample"} <= kinds
    spans = [r for r in records if r["type"] == "span"]
    assert len(spans) == len(traced_engine.tracer.spans)
    assert records[0]["spans"] == len(spans)


def test_write_chrome_trace_creates_loadable_file(tmp_path, traced_engine):
    path = tmp_path / "trace.json"
    write_chrome_trace(path, traced_engine.tracer)
    with open(path) as handle:
        loaded = json.load(handle)
    assert validate_chrome_trace(loaded) == []


def test_validator_rejects_malformed_payloads():
    assert validate_chrome_trace({}) != []
    assert validate_chrome_trace({"traceEvents": []}) != []
    assert validate_chrome_trace(
        {"traceEvents": [{"ph": "X", "name": "x"}]}
    ) != []  # missing ts/dur/pid/tid
    assert validate_chrome_trace(
        {"traceEvents": [{"ph": "X", "name": "x", "cat": "c",
                          "ts": 0.0, "dur": -1.0, "pid": 0, "tid": 0}]}
    ) != []  # negative duration
    assert validate_chrome_trace(
        {"traceEvents": [{"ph": "Z", "name": "x"}]}
    ) != []  # unknown phase
