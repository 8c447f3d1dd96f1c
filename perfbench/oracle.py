"""Reference computation: what every sink must have emitted, and when it
was due.

For every job and every window that closes before the ingest horizon the
oracle computes, with plain numpy over the generated traces, the expected
sink record — the summed result value, the number of result keys — and the
window's *due* instant: the scheduled arrival of the last ingest message
that contributed an event to it.  ``failed`` outputs, ``ls_success`` and
every latency are computed against this reference, on sim and on mp alike
(the sim is the oracle for mp, so both must match the same reference).

The window arithmetic repeats the engine's float expressions
(``(floor(p / slide) + 1) * slide + k * slide``, membership
``p >= end - size``) so boundary events land in the same window; values
are small integers, so sums are exact whatever the arrival order.
"""

from __future__ import annotations

import difflib
from dataclasses import dataclass, field

import numpy as np

from perfbench.inputs import POOL, SourceTrace

#: rows (messages) folded per numpy pass: bounds the oracle's own memory
_CHUNK_ELEMENTS = 2_000_000


@dataclass(frozen=True)
class Expected:
    """One expected sink output of a job."""

    end: float      # window end (logical time)
    value: float    # sum of the result values over keys
    tuples: int     # number of result keys
    due: float      # due arrival of the last contributing ingest message


def _first_windowed_stage(job):
    for name in job.graph.stage_names:
        stage = job.graph.stage(name)
        if stage.is_windowed:
            return stage
    raise ValueError(f"job {job.name!r} has no windowed stage")


class _Fold:
    """Per-(window end, key) sums and counts of one input side of a job."""

    def __init__(self, window, key_count: int):
        self.size = window.size
        self.slide = window.slide
        self.replicas = window.window_count_containing()
        self.key_count = key_count
        self.sums: dict[float, np.ndarray] = {}
        self.counts: dict[float, np.ndarray] = {}
        self.due: dict[float, float] = {}

    def add(self, trace: SourceTrace) -> None:
        rows = max(1, _CHUNK_ELEMENTS // len(trace.offsets))
        for start in range(0, len(trace), rows):
            self._add_rows(trace, start, min(len(trace), start + rows))

    def _add_rows(self, trace: SourceTrace, start: int, stop: int) -> None:
        index = np.arange(start, stop)
        lowers = np.asarray(trace.lowers[start:stop])
        due = np.asarray(trace.due[start:stop])
        times = trace.offsets[None, :] + lowers[:, None]
        if start == 0:
            times[0] = trace.first
        values = np.stack(trace.values)[index % POOL]
        keys = np.stack(trace.keys)[index % POOL]
        row = np.broadcast_to(np.arange(stop - start)[:, None], times.shape)
        slide, size, width = self.slide, self.size, self.key_count
        floors = np.floor(times / slide)
        base = int(floors.min())
        span = int(floors.max()) - base + 1
        local = (floors - base).astype(np.int64)
        first_end = (floors + 1.0) * slide
        for k in range(self.replicas):
            # replica 0 holds every event: end - size <= p < end by construction
            mask = slice(None) if k == 0 else times >= (first_end + k * slide) - size
            flat_local, flat_keys = local[mask].ravel(), keys[mask].ravel()
            flat_values, flat_row = values[mask].ravel(), row[mask].ravel()
            combined = flat_local * width + flat_keys
            sums = np.bincount(combined, weights=flat_values,
                               minlength=span * width).reshape(span, width)
            counts = np.bincount(combined, minlength=span * width).reshape(span, width)
            touched = np.zeros((stop - start, span), dtype=bool)
            touched[flat_row, flat_local] = True
            for i in range(span):
                if not counts[i].any():
                    continue
                end = (float(base + i) + 1.0) * slide + k * slide
                if end in self.sums:
                    self.sums[end] += sums[i]
                    self.counts[end] += counts[i]
                else:
                    self.sums[end] = sums[i].copy()
                    self.counts[end] = counts[i].copy()
                latest = float(due[touched[:, i]].max())
                if latest > self.due.get(end, -np.inf):
                    self.due[end] = latest


def reference(job, traces: list[SourceTrace]) -> list[Expected]:
    """Expected sink outputs of ``job`` in emission (window-end) order."""
    mine = [t for t in traces if t.spec.job == job.name]
    if not mine or any(len(t) == 0 for t in mine):
        return []
    # a window fires once every source's progress has passed its end
    horizon = min(t.last_upper for t in mine)
    stage = _first_windowed_stage(job)
    key_count = max(t.spec.key_count for t in mine)
    if stage.kind == "window_join":
        left_stage, right_stage = job.graph.upstream(stage.name)
        sides = []
        for side_stage in (left_stage, right_stage):
            fold = _Fold(stage.window, key_count)
            for trace in mine:
                if trace.spec.stage == side_stage:
                    fold.add(trace)
            sides.append(fold)
        left, right = sides
        expected = []
        for end in sorted(set(left.counts) | set(right.counts)):
            if end > horizon:
                continue
            zeros = np.zeros(key_count, dtype=np.int64)
            pairs = left.counts.get(end, zeros) * right.counts.get(end, zeros)
            matched = int(np.count_nonzero(pairs))
            if matched == 0:
                continue  # an empty join result reaches no sink
            # both sides anchor the window, matching keys or not
            due = max(left.due.get(end, -np.inf), right.due.get(end, -np.inf))
            expected.append(Expected(end, float(pairs.sum()), matched, due))
        return expected
    if stage.kind != "window_agg" or stage.agg not in ("sum", "count"):
        raise ValueError(
            f"no reference for stage kind {stage.kind!r} / aggregate {stage.agg!r}"
        )
    fold = _Fold(stage.window, key_count)
    for trace in mine:
        fold.add(trace)
    results = fold.sums if stage.agg == "sum" else fold.counts
    return [
        Expected(end, float(results[end].sum()),
                 int(np.count_nonzero(fold.counts[end])), fold.due[end])
        for end in sorted(results) if end <= horizon
    ]


@dataclass
class Verdict:
    """Outcome of checking one job's recorded sink outputs."""

    expected: int = 0
    missing: int = 0
    wrong: int = 0
    spurious: int = 0       # duplicates and outputs nothing accounts for
    anchor_mismatch: int = 0  # sim only: engine latency != emission - due
    #: per matched output: (emission time, due instant of its window,
    #: latency the engine recorded against the actual arrival)
    matched: list = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.missing + self.wrong + self.spurious + self.anchor_mismatch


def check(expected: list[Expected], job_metrics, exact_anchor: bool) -> Verdict:
    """Align a job's recorded outputs with the reference.

    Outputs carry no window id, so the two sequences are aligned on their
    ``(value, tuples)`` records: a dropped output then costs one miss, not
    a shifted tail.  ``exact_anchor`` (sim) additionally requires the
    engine's recorded ``now - msg.t`` to equal emission minus due."""
    want = [(e.value, e.tuples) for e in expected]
    got = list(zip(job_metrics.output_values, job_metrics.output_tuples))
    verdict = Verdict(expected=len(want))
    matcher = difflib.SequenceMatcher(a=want, b=got, autojunk=False)
    for tag, i1, i2, j1, j2 in matcher.get_opcodes():
        if tag == "equal":
            for i, j in zip(range(i1, i2), range(j1, j2)):
                emitted, due = job_metrics.output_times[j], expected[i].due
                if exact_anchor and abs(job_metrics.latencies[j] - (emitted - due)) > 1e-9:
                    verdict.anchor_mismatch += 1
                    continue
                verdict.matched.append((emitted, due, job_metrics.latencies[j]))
            continue
        wanted, seen = i2 - i1, j2 - j1
        verdict.wrong += min(wanted, seen)
        verdict.missing += max(0, wanted - seen)
        verdict.spurious += max(0, seen - wanted)
    return verdict
