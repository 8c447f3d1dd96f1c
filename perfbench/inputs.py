"""Seeded input traces: everything the engine is fed, made from the seed.

One :class:`SourceTrace` per source operator: periodic arrivals with a
seeded phase, a fixed batch size, integer-valued ``float64`` values (so
window sums are exact in any arrival order) and integer keys.  The engine
receives only ``engine.ingest(...)`` calls scheduled on ``engine.sim`` —
the same code drives ``backend="sim"`` and the mp capture phase.

A source's events form one continuous stream from logical time 0: message
``k`` carries the logical times ``(upper[k-1], upper[k]]`` with ``upper[k] =
due[k] - delay`` (the first one ``(0, upper[0]]``), so every message that
crosses a window end both contributes to the closing window and carries the
progress that closes it — no window waits on a source that has nothing
more to add to it.  Logical times are ``offsets + lowers[k]`` — one vector
add per message, materialised when the message is due (precomputing them
costs 8 bytes per tuple, hundreds of MB per rep); values and keys cycle
through a small seeded pool per source.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

#: distinct (values, keys) blocks per source, cycled by message index
POOL = 4


@dataclass(frozen=True)
class SourceSpec:
    """One source operator's arrival process."""

    job: str
    stage: str
    index: int
    rate: float      # messages per second
    tuples: int      # events per message
    key_count: int   # keys drawn uniformly from [0, key_count)
    delay: float     # logical time lags the arrival instant by this much


class SourceTrace:
    """The generated arrivals of one source (see the module docstring)."""

    __slots__ = ("spec", "due", "lowers", "offsets", "first", "values", "keys")

    def __init__(self, spec: SourceSpec, rng: np.random.Generator, duration: float):
        period = 1.0 / spec.rate
        # the first message is due within (delay, delay + period]
        first_due = spec.delay + period - float(rng.uniform(0.0, period))
        count = max(0, int(np.floor((duration - first_due) / period)) + 1)
        due = first_due + np.arange(count, dtype=np.float64) * period
        self.spec = spec
        #: scheduled arrival instant of every message (the latency anchor)
        self.due = due.tolist()
        #: exclusive lower logical-time bound of every message
        self.lowers = (due - spec.delay - period).tolist()
        fractions = np.arange(1, spec.tuples + 1, dtype=np.float64) / spec.tuples
        self.offsets = fractions * period
        #: logical times of the first message: the stream starts at 0
        self.first = fractions * (first_due - spec.delay)
        self.values = list(
            rng.integers(1, 9, size=(POOL, spec.tuples)).astype(np.float64)
        )
        self.keys = list(
            rng.integers(0, spec.key_count, size=(POOL, spec.tuples), dtype=np.int64)
        )

    def __len__(self) -> int:
        return len(self.due)

    def times(self, k: int) -> np.ndarray:
        """Logical times of message ``k`` (sorted, ``(lower, upper]``)."""
        return self.first if k == 0 else self.offsets + self.lowers[k]

    @property
    def last_upper(self) -> float:
        """Stream progress after the source's final message."""
        return float(self.times(len(self.due) - 1)[-1])


def build_traces(specs: list[SourceSpec], seed: int, duration: float) -> list[SourceTrace]:
    """Generate every source's trace; source ``i`` draws from its own
    substream of ``seed``, so its arrivals do not depend on the others."""
    return [
        SourceTrace(spec, np.random.default_rng([seed, i]), duration)
        for i, spec in enumerate(specs)
    ]


def trace_digest(traces: list[SourceTrace]) -> str:
    """SHA-256 over every generated array: same seed, same digest."""
    digest = hashlib.sha256()
    for trace in traces:
        digest.update(repr(trace.spec).encode())
        for array in (trace.due, trace.lowers):
            digest.update(np.asarray(array, dtype=np.float64).tobytes())
        digest.update(trace.offsets.tobytes() + trace.first.tobytes())
        for block in trace.values + trace.keys:
            digest.update(block.tobytes())
    return digest.hexdigest()[:16]


class _Feeder:
    """Self-rescheduling ingest callback of one source: the only benchmark
    code that runs inside the timed region (``workloads.ingest`` spans)."""

    __slots__ = ("trace", "engine", "k")

    def __init__(self, trace: SourceTrace, engine):
        self.trace = trace
        self.engine = engine
        self.k = 0

    def fire(self) -> None:
        trace = self.trace
        spec = trace.spec
        k = self.k
        slot = k % POOL
        self.engine.ingest(
            spec.job, spec.stage, spec.index, trace.times(k),
            trace.values[slot], trace.keys[slot], True,
        )
        k += 1
        self.k = k
        if k < len(trace.due):
            self.engine.sim.schedule_at_fast(trace.due[k], self.fire)


def install(engine, traces: list[SourceTrace]) -> None:
    """Schedule every source's first arrival on the engine's clock."""
    for trace in traces:
        if trace.due:
            engine.sim.schedule_at_fast(trace.due[0], _Feeder(trace, engine).fire)
