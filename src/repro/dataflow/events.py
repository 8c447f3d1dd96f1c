"""Events and columnar event batches.

Following Trill (and the paper's §6.3 "Cameo encloses a columnar batch of
data in each message"), the unit of data exchange is an :class:`EventBatch`:
parallel arrays of logical times, keys and values.  The batch also carries
the *physical* (wall-clock) instant at which its last event arrived in the
system — the quantity the paper's latency definition (§4.1) is measured
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np


@dataclass(frozen=True)
class Event:
    """A single input event.

    Attributes:
        logical_time: stream progress `p` of the event (event time or
            ingestion time, per the job's time domain).
        value: numeric payload.
        key: partitioning / grouping key.
    """

    logical_time: float
    value: float = 1.0
    key: int = 0


class EventBatch:
    """Columnar batch of events with uniform provenance.

    All events in a batch arrived at the system together at
    ``arrival_time`` (batches are formed at the ingestion point).
    ``max_logical_time`` is the stream progress carried by the batch.
    """

    __slots__ = (
        "logical_times",
        "values",
        "keys",
        "arrival_time",
        "source_id",
        "times_sorted",
    )

    def __init__(
        self,
        logical_times: Sequence[float],
        values: Optional[Sequence[float]] = None,
        keys: Optional[Sequence[int]] = None,
        arrival_time: float = 0.0,
        source_id: int = 0,
        times_sorted: bool = False,
    ):
        self.logical_times = np.asarray(logical_times, dtype=np.float64)
        if self.logical_times.ndim != 1:
            raise ValueError("logical_times must be one-dimensional")
        n = len(self.logical_times)
        if values is None:
            self.values = np.ones(n, dtype=np.float64)
        else:
            self.values = np.asarray(values, dtype=np.float64)
        if keys is None:
            self.keys = np.zeros(n, dtype=np.int64)
        else:
            self.keys = np.asarray(keys, dtype=np.int64)
        if not (len(self.values) == len(self.keys) == n):
            raise ValueError("logical_times, values and keys must have equal length")
        self.arrival_time = float(arrival_time)
        self.source_id = int(source_id)
        #: caller-supplied monotonicity hint: when True, ``logical_times``
        #: is non-decreasing and min/max are the endpoints (no reduction
        #: needed on the hot path).  Selection preserves the property.
        self.times_sorted = times_sorted

    # -- pickling ------------------------------------------------------
    # Explicit state methods so batches pickle under every protocol (a
    # bare ``__slots__`` class needs protocol >= 2) without re-running the
    # validating constructor on the receiving side.

    def __getstate__(self) -> tuple:
        return (
            self.logical_times, self.values, self.keys,
            self.arrival_time, self.source_id, self.times_sorted,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.logical_times, self.values, self.keys,
            self.arrival_time, self.source_id, self.times_sorted,
        ) = state

    def __reduce__(self):
        return (_rebuild_batch, (self.__getstate__(),))

    def __len__(self) -> int:
        return len(self.logical_times)

    @property
    def max_logical_time(self) -> float:
        """Stream progress of the batch (−inf for an empty batch)."""
        times = self.logical_times
        if len(times) == 0:
            return float("-inf")
        if self.times_sorted:
            return float(times[-1])
        return float(times.max())

    @property
    def min_logical_time(self) -> float:
        times = self.logical_times
        if len(times) == 0:
            return float("inf")
        if self.times_sorted:
            return float(times[0])
        return float(times.min())

    @classmethod
    def _raw(
        cls,
        logical_times: np.ndarray,
        values: np.ndarray,
        keys: np.ndarray,
        arrival_time: float,
        source_id: int,
        times_sorted: bool = False,
    ) -> "EventBatch":
        """Validation-free constructor for internal hot paths (arrays must
        already be well-formed, equal-length float64/float64/int64)."""
        batch = cls.__new__(cls)
        batch.logical_times = logical_times
        batch.values = values
        batch.keys = keys
        batch.arrival_time = arrival_time
        batch.source_id = source_id
        batch.times_sorted = times_sorted
        return batch

    def select(self, rows: np.ndarray) -> "EventBatch":
        """A new batch (owning its arrays) of the rows a boolean mask marks
        True, or of the rows an integer index array names, in its order —
        an increasing index keeps ``times_sorted`` truthful."""
        return EventBatch._raw(
            self.logical_times[rows],
            self.values[rows],
            self.keys[rows],
            arrival_time=self.arrival_time,
            source_id=self.source_id,
            times_sorted=self.times_sorted,
        )

    def partition(self, parallelism: int) -> list["EventBatch"]:
        """Split for a key-partitioned hand-off: part ``j`` holds the rows
        with ``key % parallelism == j`` (the rule state is split by on
        rescale) in input order — one modulo, one index gather per part."""
        if parallelism & (parallelism - 1) == 0:
            # a power of two: the low bits are the (non-negative) remainder,
            # for negative keys too (two's complement)
            part = self.keys & (parallelism - 1)
        else:
            part = self.keys % parallelism
        return [self.select((part == j).nonzero()[0]) for j in range(parallelism)]

    @staticmethod
    def from_events(events: Sequence[Event], arrival_time: float = 0.0, source_id: int = 0) -> "EventBatch":
        return EventBatch(
            [e.logical_time for e in events],
            [e.value for e in events],
            [e.key for e in events],
            arrival_time=arrival_time,
            source_id=source_id,
        )

    @staticmethod
    def single(
        logical_time: float,
        value: float = 1.0,
        key: int = 0,
        arrival_time: float = 0.0,
        source_id: int = 0,
    ) -> "EventBatch":
        return EventBatch(
            [logical_time], [value], [key],
            arrival_time=arrival_time, source_id=source_id, times_sorted=True,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"EventBatch(n={len(self)}, p_max={self.max_logical_time:.3f}, "
            f"arrival={self.arrival_time:.3f})"
        )


def _rebuild_batch(state: tuple) -> EventBatch:
    """Pickle reconstructor: restores without re-validating arrays."""
    batch = EventBatch.__new__(EventBatch)
    batch.__setstate__(state)
    return batch
