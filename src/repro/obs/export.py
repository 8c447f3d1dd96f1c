"""Trace exporters: Chrome-trace JSON (Perfetto) and a flat JSONL log.

Two sinks over one :class:`~repro.obs.recorder.TraceRecorder`:

* :func:`chrome_trace` — the Chrome Trace Event Format (the JSON Object
  Format variant: ``{"traceEvents": [...]}``), loadable in Perfetto
  (https://ui.perfetto.dev) or ``chrome://tracing``.  Simulated nodes map
  to processes, workers to threads; executions are complete (``X``)
  slices, message causality is drawn with flow (``s``/``f``) arrows,
  scheduler samples become counter (``C``) tracks and faults / sheds
  become instant (``i``) markers.  Timestamps are microseconds, the
  format's native unit.
* :func:`jsonl_events` — one self-describing JSON object per line
  (``type`` field: ``meta`` / ``span`` / ``sched_sample`` / ``fault``),
  for grep/pandas-style post-processing without a trace viewer.

Both exporters are deterministic: they iterate spans in send order and
samples in record order, and ``json.dumps`` with sorted keys does the
rest — the same run produces byte-identical files (pinned by
``tests/obs/test_export.py``).
"""

from __future__ import annotations

import json

from repro.obs.spans import SHED, MessageSpan

_US = 1_000_000.0  # seconds -> Chrome-trace microseconds


def _finite(value: float, default: float = 0.0) -> float:
    return value if value == value else default


def _span_args(span: MessageSpan) -> dict:
    args = {
        "msg_id": span.msg_id,
        "parent": span.parent,
        "outcome": span.outcome,
        "tuples": span.tuples,
        "wait_ms": span.wait * 1000.0,
        "exec_ms": span.exec * 1000.0,
        "attempts": span.attempts,
    }
    if span.pri_global == span.pri_global:
        args["pri_global"] = span.pri_global
        args["deadline"] = span.deadline
    if span.transmits:
        args["transmits"] = span.transmits
        args["retransmits"] = span.retransmits
        args["backoff_ms"] = span.backoff * 1000.0
    return args


def chrome_trace(recorder, fault_timeline=None, label: str = "repro",
                 process_map: dict | None = None) -> dict:
    """Build the Chrome-trace JSON object for one traced run.

    ``process_map`` (mp backend) maps node ids to ``{"pid": ..., "name":
    ...}`` so trace processes carry the *real* worker pids; ``None`` (sim)
    keeps the synthetic ``pid = node`` mapping and stays byte-identical
    to earlier revisions."""
    events: list[dict] = []
    seen_nodes: set[int] = set()
    seen_threads: set[tuple[int, int]] = set()
    spans = recorder.spans

    def pid_of(node: int) -> int:
        if process_map is not None and node in process_map:
            return process_map[node]["pid"]
        return node

    def pname(node: int) -> str:
        if process_map is not None and node in process_map:
            return process_map[node]["name"]
        return f"node {node}"

    for span in spans.values():
        started, finished = span.started, span.finished
        if started == started and finished == finished:
            node, worker = span.node_id, span.worker
            if node not in seen_nodes:
                seen_nodes.add(node)
                events.append({
                    "ph": "M", "name": "process_name", "pid": pid_of(node),
                    "tid": 0, "args": {"name": pname(node)},
                })
            if (node, worker) not in seen_threads:
                seen_threads.add((node, worker))
                events.append({
                    "ph": "M", "name": "thread_name", "pid": pid_of(node),
                    "tid": worker, "args": {"name": f"worker {worker}"},
                })
            events.append({
                "ph": "X", "name": f"{span.job}/{span.stage}", "cat": "exec",
                "pid": pid_of(node), "tid": worker,
                "ts": started * _US, "dur": (finished - started) * _US,
                "args": _span_args(span),
            })
            parent = spans.get(span.parent)
            if parent is not None and parent.finished == parent.finished \
                    and parent.node_id >= 0:
                # flow arrow: parent completion -> this execution start
                events.append({
                    "ph": "s", "name": "msg", "cat": "flow", "id": span.msg_id,
                    "pid": pid_of(parent.node_id), "tid": parent.worker,
                    "ts": parent.finished * _US,
                })
                events.append({
                    "ph": "f", "bp": "e", "name": "msg", "cat": "flow",
                    "id": span.msg_id, "pid": pid_of(node), "tid": worker,
                    "ts": started * _US,
                })
        elif span.outcome == SHED:
            events.append({
                "ph": "i", "name": f"shed {span.job}/{span.stage}",
                "cat": "shed", "s": "g",
                "pid": pid_of(max(span.node_id, 0)), "tid": 0,
                "ts": _finite(span.finished) * _US,
                "args": {"msg_id": span.msg_id, "tuples": span.tuples},
            })

    for sample in recorder.samples:
        ts = sample.time * _US
        node = sample.node_id
        pid = pid_of(node)
        events.append({
            "ph": "C", "name": f"node {node} run queue", "pid": pid, "tid": 0,
            "ts": ts, "args": {"depth": sample.depth,
                               "busy_workers": sample.busy_workers},
        })
        events.append({
            "ph": "C", "name": f"node {node} quantum util", "pid": pid,
            "tid": 0, "ts": ts,
            "args": {"utilization": sample.quantum_utilization},
        })
        events.append({
            "ph": "C", "name": f"node {node} state", "pid": pid,
            "tid": 0, "ts": ts,
            "args": {"state_bytes": sample.state_bytes,
                     "pending_windows": sample.pending_windows},
        })

    if fault_timeline is not None:
        for time, kind, detail in fault_timeline.events:
            events.append({
                "ph": "i", "name": kind, "cat": "fault", "s": "g",
                "pid": pid_of(0), "tid": 0, "ts": time * _US,
                "args": {"detail": detail},
            })

    events.sort(key=lambda e: (e.get("ts", -1.0), e["ph"], e["pid"],
                               e.get("tid", 0), e["name"]))
    return {
        "displayTimeUnit": "ms",
        "traceEvents": events,
        "otherData": {"source": label, **recorder.summary()},
    }


def span_record(span: MessageSpan) -> dict:
    """One span as a flat JSON-able record (NaN-free: absent when unset)."""
    record = {
        "type": "span",
        "msg_id": span.msg_id,
        "parent": span.parent,
        "job": span.job,
        "stage": span.stage,
        "index": span.index,
        "sent": span.sent,
        "wait": span.wait,
        "exec": span.exec,
        "backoff": span.backoff,
        "transmits": span.transmits,
        "retransmits": span.retransmits,
        "attempts": span.attempts,
        "node": span.node_id,
        "worker": span.worker,
        "tuples": span.tuples,
        "outcome": span.outcome,
    }
    for name in ("first_admit", "admitted", "started", "finished",
                 "pri_global", "deadline", "latency", "replied"):
        value = getattr(span, name)
        if value == value:
            record[name] = value
    return record


def jsonl_events(recorder, fault_timeline=None, label: str = "repro") -> str:
    """The flat JSONL event log (one JSON object per line)."""
    lines = [json.dumps(
        {"type": "meta", "source": label, **recorder.summary()},
        sort_keys=True,
    )]
    for span in recorder.spans.values():
        lines.append(json.dumps(span_record(span), sort_keys=True))
    for sample in recorder.samples:
        lines.append(json.dumps(
            {"type": "sched_sample", **sample.as_dict()}, sort_keys=True
        ))
    if fault_timeline is not None:
        for time, kind, detail in fault_timeline.events:
            lines.append(json.dumps(
                {"type": "fault", "time": time, "kind": kind,
                 "detail": detail},
                sort_keys=True,
            ))
    return "\n".join(lines) + "\n"


def write_chrome_trace(path, recorder, fault_timeline=None,
                       label: str = "repro",
                       process_map: dict | None = None) -> dict:
    """Serialize :func:`chrome_trace` to ``path``; returns the payload."""
    payload = chrome_trace(recorder, fault_timeline, label,
                           process_map=process_map)
    with open(path, "w") as handle:
        json.dump(payload, handle, sort_keys=True, indent=1)
        handle.write("\n")
    return payload
