"""Minimal Chrome-trace schema validation (the CI smoke check).

Not a full JSON-Schema engine (no new dependencies): a hand-rolled
structural check of the subset of the Chrome Trace Event Format the
exporter emits, strict enough to catch a malformed export before anyone
tries to load it in Perfetto.  Usable as a library
(:func:`validate_chrome_trace` returns a list of error strings) and as a
command line tool::

    PYTHONPATH=src python -m repro.obs.schema trace.json trace.jsonl

``.jsonl`` paths are validated as the flat event log
(:func:`validate_jsonl_trace`); everything else as Chrome-trace JSON.
"""

from __future__ import annotations

import json
import sys

#: event types the exporter emits, with their required per-event keys
_REQUIRED_BY_PHASE = {
    "X": ("name", "ts", "dur", "pid", "tid"),
    "M": ("name", "pid", "args"),
    "C": ("name", "ts", "pid", "args"),
    "i": ("name", "ts", "pid", "s"),
    "s": ("name", "ts", "pid", "tid", "id"),
    "f": ("name", "ts", "pid", "tid", "id"),
}

_NUMERIC = (int, float)


def validate_chrome_trace(payload, max_errors: int = 20) -> list[str]:
    """Structural check of a Chrome-trace JSON object.

    Returns a list of human-readable problems (empty = valid)."""
    errors: list[str] = []

    def report(problem: str) -> bool:
        errors.append(problem)
        return len(errors) >= max_errors

    if not isinstance(payload, dict):
        return [f"top level must be a JSON object, got {type(payload).__name__}"]
    events = payload.get("traceEvents")
    if not isinstance(events, list):
        return ["'traceEvents' must be a list"]
    if not events:
        return ["'traceEvents' is empty"]
    for position, event in enumerate(events):
        if not isinstance(event, dict):
            if report(f"event #{position} is not an object"):
                break
            continue
        phase = event.get("ph")
        if not isinstance(phase, str) or not phase:
            if report(f"event #{position} has no 'ph' phase"):
                break
            continue
        required = _REQUIRED_BY_PHASE.get(phase)
        if required is None:
            if report(f"event #{position} has unexpected phase {phase!r}"):
                break
            continue
        for key in required:
            if key not in event:
                if report(f"event #{position} (ph={phase}) missing {key!r}"):
                    break
        for key in ("ts", "dur", "pid", "tid"):
            value = event.get(key)
            if value is not None and not isinstance(value, _NUMERIC):
                if report(f"event #{position} field {key!r} is not numeric"):
                    break
        duration = event.get("dur")
        if isinstance(duration, _NUMERIC) and duration < 0:
            if report(f"event #{position} has negative duration"):
                break
        timestamp = event.get("ts")
        if isinstance(timestamp, _NUMERIC) and timestamp != timestamp:
            if report(f"event #{position} has NaN timestamp"):
                break
        if len(errors) >= max_errors:
            break
    return errors


#: line types the JSONL exporter emits, with their required keys
_REQUIRED_BY_TYPE = {
    "meta": ("source",),
    "span": ("msg_id", "parent", "job", "stage", "index", "outcome",
             "node", "worker", "wait", "exec", "attempts", "tuples"),
    "sched_sample": ("time", "node", "depth", "head_priority",
                     "busy_workers", "active_workers", "quantum_utilization",
                     "pushes", "pops", "notify_skips", "state_bytes",
                     "pending_windows", "outstanding_retransmits",
                     "ingest_backlog", "messages_processed"),
    "fault": ("time", "kind", "detail"),
}


def validate_jsonl_trace(text: str, max_errors: int = 20) -> list[str]:
    """Structural check of the flat JSONL event log.

    Returns a list of human-readable problems (empty = valid)."""
    errors: list[str] = []
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return ["log is empty"]
    for position, line in enumerate(lines, start=1):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            errors.append(f"line {position}: not JSON ({exc.msg})")
        else:
            if not isinstance(record, dict):
                errors.append(f"line {position}: not an object")
            else:
                kind = record.get("type")
                required = _REQUIRED_BY_TYPE.get(kind)
                if required is None:
                    errors.append(
                        f"line {position}: unexpected type {kind!r}"
                    )
                else:
                    for key in required:
                        if key not in record:
                            errors.append(
                                f"line {position} (type={kind}) missing {key!r}"
                            )
                            break
        if len(errors) >= max_errors:
            break
    try:
        first = json.loads(lines[0])
    except json.JSONDecodeError:
        first = None
    if isinstance(first, dict) and first.get("type") != "meta":
        errors.append("first line must be the 'meta' record")
    return errors


def main(argv: list[str] | None = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if not paths:
        print("usage: python -m repro.obs.schema TRACE.json [...]",
              file=sys.stderr)
        return 2
    status = 0
    for path in paths:
        if path.endswith(".jsonl"):
            with open(path) as handle:
                text = handle.read()
            errors = validate_jsonl_trace(text)
            count = len([line for line in text.splitlines() if line.strip()])
        else:
            with open(path) as handle:
                payload = json.load(handle)
            errors = validate_chrome_trace(payload)
            count = len(payload.get("traceEvents", [])) \
                if isinstance(payload, dict) else 0
        if errors:
            status = 1
            print(f"{path}: INVALID")
            for problem in errors:
                print(f"  - {problem}")
        else:
            print(f"{path}: ok ({count} events)")
    return status


if __name__ == "__main__":
    sys.exit(main())
