"""Dataflow operators.

The paper distinguishes (§4.1) *regular* operators — triggered immediately
on invocation — and *windowed* operators — which buffer input and trigger
only when the window's frontier progress has been observed on every input
channel.  Operator logic here is pure data transformation; all scheduling,
routing, context conversion and cost accounting live in ``repro.runtime``.

``on_message`` returns the list of output batches produced by the
invocation.  Each output batch's ``arrival_time`` is the wall-clock arrival
of the latest contributing event (the latency anchor), and its logical
times are the stream progress of the result.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.dataflow.events import EventBatch
from repro.dataflow.messages import Message
from repro.dataflow.progress import ProgressTracker
from repro.dataflow.windows import WindowSpec
from repro.state.store import (
    AggregateStateStore,
    JoinStateStore,
    KeyedStateStore,
    _Accumulator,
    _JoinWindowState,
    _WindowState,
)

AGGREGATES = ("sum", "count", "mean", "max", "min")

#: Window results are stamped just inside the window they summarize
#: (``end - EPS``) so that a downstream window of the same size receives
#: them in the matching window, while the *message* progress carries the
#: full window end — the Flink-style "end-exclusive timestamp, end-inclusive
#: watermark" convention.
WINDOW_RESULT_EPS = 1e-9


def _dense_keys(keys: np.ndarray) -> bool:
    """Whether all keys lie in ``[0, 2**20)``, where ``np.bincount`` groups
    them — one reduction: viewed unsigned, negative int64 keys exceed it."""
    return int(keys.view(np.uint64).max()) < 1 << 20


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Start index of every run of equal values in a sorted array."""
    return np.concatenate(([0], (ordered[1:] != ordered[:-1]).nonzero()[0] + 1))


@dataclass
class Emission:
    """One output of an operator invocation.

    ``progress`` is the logical time (stream progress) of the resulting
    message and ``arrival`` its physical anchor — the wall-clock arrival of
    the latest event that influenced it.  Carrying these explicitly (rather
    than inferring them from the batch) keeps empty batches — progress
    heartbeats and empty join results — first-class.
    """

    batch: EventBatch
    progress: float
    arrival: float


@dataclass(frozen=True, eq=False)
class OpAddress:
    """Globally unique operator address: (job, stage, parallel index).

    Hash is precomputed — addresses key several hot dictionaries (profiler,
    channel table, operator index).  Addresses are interned: each process
    holds one object per operator (the topology hands the placement's
    object to the operator, and an mp worker's ``DataCodec`` decodes every
    address a peer defines to the worker's own), so every message's
    ``target`` and ``sender`` *is* the dict key and lookups resolve on
    identity, on both backends and across processes."""

    job: str
    stage: str
    index: int

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.job, self.stage, self.index)))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if self is other:
            # reached only by direct comparison: dict hits on an interned
            # address resolve on identity before calling __eq__
            return True
        if not isinstance(other, OpAddress):
            return NotImplemented
        return (
            self.index == other.index
            and self.stage == other.stage
            and self.job == other.job
        )

    def __str__(self) -> str:
        return f"{self.job}/{self.stage}[{self.index}]"


#: operator-level snapshot framing: magic + progress channel count
_OP_SNAPSHOT = struct.Struct("<4sI")
_OP_MAGIC = b"ROP1"
_F64 = struct.Struct("<d")


class Operator:
    """Base operator.  Subclasses implement :meth:`on_message`."""

    #: windowed operators may extend message deadlines (paper §4.2.2)
    is_windowed = False
    #: windowed operators install a :class:`KeyedStateStore`; regular
    #: operators keep None (their only durable state is stream progress)
    state_store: Optional[KeyedStateStore] = None

    def __init__(self, address: OpAddress):
        self.address = address
        self.progress: Optional[ProgressTracker] = None
        self.invocations = 0
        self.triggers = 0

    def wire_inputs(self, channel_count: int) -> None:
        """Called by the runtime once the input channel count is known."""
        self.progress = ProgressTracker(channel_count) if channel_count > 0 else None

    # -- state snapshot / restore (checkpointing surface) ---------------

    def state_snapshot(self) -> bytes:
        """Serialize everything a fail-over restore needs: per-channel
        stream progress plus the state store (when the operator has one).
        Deterministic: same state produces identical bytes."""
        progress = self.progress.progress_values() if self.progress is not None else []
        out = [_OP_SNAPSHOT.pack(_OP_MAGIC, len(progress))]
        out.extend(_F64.pack(value) for value in progress)
        if self.state_store is not None:
            out.append(self.state_store.snapshot())
        return b"".join(out)

    def state_restore(self, data: Optional[bytes]) -> None:
        """Restore from :meth:`state_snapshot` bytes (in place).

        ``None`` resets to pristine state — the fail-over path for an
        operator that crashed before its first checkpoint."""
        if not data:
            if self.progress is not None:
                self.progress.reset()
            if self.state_store is not None:
                self.state_store.restore(None)
            return
        magic, count = _OP_SNAPSHOT.unpack_from(data, 0)
        if magic != _OP_MAGIC:
            raise ValueError(f"bad operator snapshot magic {magic!r}")
        offset = _OP_SNAPSHOT.size
        values = [
            _F64.unpack_from(data, offset + i * _F64.size)[0] for i in range(count)
        ]
        offset += count * _F64.size
        if self.progress is not None:
            self.progress.restore_values(values)
        if self.state_store is not None:
            self.state_store.restore(data[offset:])

    def on_message(self, msg: Message, now: float) -> list[Emission]:
        raise NotImplementedError

    def _observe_progress(self, msg: Message) -> None:
        if self.progress is not None:
            self.progress.observe(msg.channel_index, msg.p)

    def _safe_progress(self, msg: Message) -> float:
        """Progress a *regular* operator may emit: its frontier (minimum
        across input channels).  With a single input this equals the
        message's progress; with several (stream union) it prevents the
        faster channel's watermark from overrunning the slower one."""
        if self.progress is None or self.progress.channel_count == 1:
            return msg.p
        return self.progress.frontier


class SourceOperator(Operator):
    """Entry point of a dataflow: forwards ingested batches downstream.

    Stream progress and physical time are assigned at ingestion (by the
    engine); the source merely passes batches through, modelling the
    de-serialisation / routing work a real source grain performs.
    """

    def on_message(self, msg: Message, now: float) -> list[Emission]:
        self.invocations += 1
        self._observe_progress(msg)
        if msg.batch is None:
            return []
        self.triggers += 1
        return [Emission(msg.batch, msg.p, msg.t)]


class MapOperator(Operator):
    """Regular operator applying a vectorised value transform."""

    def __init__(self, address: OpAddress, fn: Callable[[np.ndarray], np.ndarray]):
        super().__init__(address)
        self._fn = fn

    def on_message(self, msg: Message, now: float) -> list[Emission]:
        self.invocations += 1
        self._observe_progress(msg)
        if msg.batch is None or len(msg.batch) == 0:
            # empty batches are progress heartbeats: forward the progress
            if msg.batch is None:
                return []
            return [Emission(msg.batch, self._safe_progress(msg), msg.t)]
        batch = msg.batch
        values = np.asarray(self._fn(batch.values), dtype=np.float64)
        if values.shape != batch.values.shape:
            raise ValueError("map function must return one value per event")
        # times and keys pass through untouched, so does the sortedness hint
        out = EventBatch._raw(
            batch.logical_times, values, batch.keys,
            arrival_time=batch.arrival_time, source_id=batch.source_id,
            times_sorted=batch.times_sorted,
        )
        self.triggers += 1
        return [Emission(out, self._safe_progress(msg), msg.t)]


class FilterOperator(Operator):
    """Regular operator keeping rows where the predicate holds."""

    def __init__(self, address: OpAddress, predicate: Callable[[np.ndarray], np.ndarray]):
        super().__init__(address)
        self._predicate = predicate

    def on_message(self, msg: Message, now: float) -> list[Emission]:
        self.invocations += 1
        self._observe_progress(msg)
        if msg.batch is None:
            return []
        if len(msg.batch) == 0:
            return [Emission(msg.batch, self._safe_progress(msg), msg.t)]
        mask = np.asarray(self._predicate(msg.batch.values), dtype=bool)
        self.triggers += 1
        return [Emission(msg.batch.select(mask), self._safe_progress(msg), msg.t)]


class WindowedOperator(Operator):
    """A windowed operator (§4.1): buffers per-window state in a
    :class:`KeyedStateStore`; when the frontier (minimum progress across
    input channels) passes a window end, emits one result batch whose
    logical time equals the window end — exactly the paper's ``p_MF``.

    Every windowed operator assigns rows to windows with one loop
    (:meth:`_absorb`); a subclass supplies three hooks.  ``_group(keys,
    values)`` reduces rows to a per-key partial, keys ascending;
    ``_fold(window_end, partial, rows, arrival)`` adds a partial covering
    ``rows`` rows to a window (created on first use); ``_result(state)``
    gives a finished window's keys and values.

    ``self._windows`` aliases ``self.state_store.windows`` (one dict,
    shared by reference): the hot path keeps direct attribute access
    while the store's split/merge/restore mutate the same dict in place.
    """

    is_windowed = True
    #: rows are folded per key; when False every row folds under key 0
    by_key = True

    def __init__(self, address: OpAddress, window: WindowSpec, store: KeyedStateStore):
        super().__init__(address)
        self.window = window
        self.state_store = store
        self._windows: dict = store.windows
        #: windows over each tuple (size / slide); above 1 they share panes
        self._replicas = window.window_count_containing()
        self.late_tuples = 0

    @property
    def _emitted_through(self) -> float:
        return self.state_store.emitted_through

    @_emitted_through.setter
    def _emitted_through(self, value: float) -> None:
        self.state_store.emitted_through = value

    @property
    def pending_window_count(self) -> int:
        return len(self._windows)

    def _absorb(self, batch: EventBatch) -> None:
        """Assign the batch's rows to their windows: group once, fold often.

        An event at logical time ``p`` falls into the windows ending at
        ``first_end(p) + k * slide`` for ``k`` in ``0..size/slide - 1``.
        A *pane* is the rows sharing a ``first_end``; every window over a
        pane takes all of its rows, so the pane is grouped once and the
        partial folded into each covering window.  A tumbling window is
        the one-replica case: its own pane.  The loop is replica-outer,
        pane-inner and a pane's rows keep their batch order, so each
        replica creates its windows in ascending end order and a window
        receives its panes in the order a regrouping of every replica
        would add them: every float sum is bit-identical to it.  Only a
        window that starts inside a pane (``size`` not a multiple of
        ``slide``) groups rows of its own: those at or after its start.
        """
        keys = batch.keys if self.by_key else np.zeros(len(batch), dtype=np.int64)
        p, values = batch.logical_times, batch.values
        slide, size = self.window.slide, self.window.size
        p_min = batch.min_logical_time
        pane_end = (math.floor(p_min / slide) + 1.0) * slide
        if pane_end == (math.floor(batch.max_logical_time / slide) + 1.0) * slide:
            pane_ends, lows, cuts = [pane_end], [p_min], [0, len(p)]
        else:
            first_end = (np.floor(p / slide) + 1.0) * slide
            if not batch.times_sorted:
                # stable: rows keep their batch order inside a pane
                order = np.argsort(first_end, kind="stable")
                first_end, p = first_end[order], p[order]
                keys, values = keys[order], values[order]
            starts = _run_starts(first_end)
            pane_ends = first_end[starts].tolist()
            lows = (
                p[starts] if batch.times_sorted else np.minimum.reduceat(p, starts)
            ).tolist()
            cuts = starts.tolist() + [len(p)]
        emitted, arrival = self._emitted_through, batch.arrival_time
        partials: list = [None] * len(pane_ends)
        for k in range(self._replicas):
            for j, pane_end in enumerate(pane_ends):
                window_end = pane_end + k * slide
                lo, hi = cuts[j], cuts[j + 1]
                if k and lows[j] < window_end - size:
                    # the window starts inside this pane
                    inside = p[lo:hi] >= window_end - size
                    rows = np.count_nonzero(inside)
                    if window_end <= emitted:
                        self.late_tuples += rows
                    elif rows:
                        partial = self._group(keys[lo:hi][inside], values[lo:hi][inside])
                        self._fold(window_end, partial, rows, arrival)
                elif window_end <= emitted:
                    self.late_tuples += hi - lo
                else:
                    if partials[j] is None:
                        partials[j] = self._group(keys[lo:hi], values[lo:hi])
                    self._fold(window_end, partials[j], hi - lo, arrival)

    def _emit_complete_windows(self) -> list[Emission]:
        if self.progress is None:
            return []
        frontier = self.progress.frontier
        ready = sorted(end for end in self._windows if end <= frontier)
        outputs = []
        for window_end in ready:
            state = self._windows.pop(window_end)
            keys, values = self._result(state)
            batch = EventBatch(
                [window_end - WINDOW_RESULT_EPS] * len(keys),
                values,
                keys,
                arrival_time=state.max_arrival,
                source_id=self.address.index,
                times_sorted=True,  # constant logical times
            )
            outputs.append(Emission(batch, window_end, state.max_arrival))
            self.triggers += 1
            if window_end > self._emitted_through:
                self._emitted_through = window_end
        return outputs


class WindowedAggregateOperator(WindowedOperator):
    """Windowed aggregation (tumbling or sliding), optionally grouped by
    key: per-window accumulators in an :class:`AggregateStateStore`."""

    def __init__(self, address: OpAddress, window: WindowSpec, agg: str = "sum", by_key: bool = True):
        if agg not in AGGREGATES:
            raise ValueError(f"unknown aggregate {agg!r}; expected one of {AGGREGATES}")
        super().__init__(address, window, AggregateStateStore())
        self.agg = agg
        self.by_key = by_key

    def on_message(self, msg: Message, now: float) -> list[Emission]:
        self.invocations += 1
        self._observe_progress(msg)
        if msg.batch is not None and len(msg.batch) > 0:
            self._absorb(msg.batch)
        return self._emit_complete_windows()

    def _group(self, keys: np.ndarray, values: np.ndarray) -> tuple:
        """Reduce rows to per-key partials ``(keys, counts, sums)`` — plus
        ``(maxs, mins)`` for a max/min aggregate — as lists, keys ascending.
        A sum adds a key's values in row order."""
        need_minmax = self.agg in ("max", "min")
        if _dense_keys(keys):
            per_key = np.bincount(keys)
            groups = per_key.nonzero()[0]
            counts = per_key[groups]
            sums = np.bincount(keys, weights=values)[groups]
            if need_minmax:
                maxs = np.full(len(per_key), -np.inf)
                mins = np.full_like(maxs, np.inf)
                np.maximum.at(maxs, keys, values)
                np.minimum.at(mins, keys, values)
                maxs, mins = maxs[groups], mins[groups]
        else:
            # arbitrary (large / negative) keys: sort-based grouping
            order = np.argsort(keys, kind="stable")
            k_sorted, v_sorted = keys[order], values[order]
            starts = _run_starts(k_sorted)
            groups = k_sorted[starts]
            counts = np.diff(starts, append=len(keys))
            sums = np.add.reduceat(v_sorted, starts)
            if need_minmax:
                maxs = np.maximum.reduceat(v_sorted, starts)
                mins = np.minimum.reduceat(v_sorted, starts)
        partial = (groups.tolist(), counts.tolist(), sums.tolist())
        if need_minmax:
            partial += (maxs.tolist(), mins.tolist())
        return partial

    def _fold(self, window_end: float, partial: tuple, rows: int, arrival: float) -> None:
        """Add one :meth:`_group` result, covering ``rows`` rows, to the
        window's accumulators (the window is created on first use)."""
        state = self._windows.get(window_end)
        if state is None:
            state = self._windows[window_end] = _WindowState()
        accumulators = state.accumulators
        groups = partial[0]
        for key, count, total in zip(groups, partial[1], partial[2]):
            accumulator = accumulators.get(key)
            if accumulator is None:
                accumulator = accumulators[key] = _Accumulator()
            accumulator.sum += total
            accumulator.count += count
        if len(partial) > 3:
            for key, high, low in zip(groups, partial[3], partial[4]):
                accumulator = accumulators[key]
                accumulator.max = max(accumulator.max, high)
                accumulator.min = min(accumulator.min, low)
        state.tuple_count += rows
        if arrival > state.max_arrival:
            state.max_arrival = arrival

    def _result(self, state: _WindowState) -> tuple[list, list]:
        keys = sorted(state.accumulators)
        return keys, [state.accumulators[k].result(self.agg) for k in keys]


class WindowedJoinOperator(WindowedOperator):
    """Windowed equi-join of two input stages.

    Input channels are tagged left/right by the runtime via
    :meth:`set_channel_sides`.  On window completion, emits one tuple per
    matching key whose value is the number of joined pairs (count join),
    with logical time = window end.
    """

    def __init__(self, address: OpAddress, window: WindowSpec):
        super().__init__(address, window, JoinStateStore())
        self._channel_sides: list[int] = []
        #: side (0 left, 1 right) of the batch being absorbed
        self._side = 0

    def set_channel_sides(self, sides: list[int]) -> None:
        """``sides[i]`` is 0 (left) or 1 (right) for input channel ``i``."""
        if any(side not in (0, 1) for side in sides):
            raise ValueError("channel sides must be 0 (left) or 1 (right)")
        self._channel_sides = list(sides)

    def on_message(self, msg: Message, now: float) -> list[Emission]:
        self.invocations += 1
        self._observe_progress(msg)
        if msg.batch is not None and len(msg.batch) > 0:
            if not self._channel_sides:
                raise RuntimeError("join operator used before set_channel_sides()")
            self._side = self._channel_sides[msg.channel_index]
            self._absorb(msg.batch)
        return self._emit_complete_windows()

    def _group(self, keys: np.ndarray, values: np.ndarray) -> tuple:
        """Per-key row counts ``(keys, counts)`` as lists, keys ascending
        (int64 keys throughout: a float detour would merge keys past
        2**53)."""
        if _dense_keys(keys):
            per_key = np.bincount(keys)
            groups = per_key.nonzero()[0]
            counts = per_key[groups]
        else:
            groups, counts = np.unique(keys, return_counts=True)
        return groups.tolist(), counts.tolist()

    def _fold(self, window_end: float, partial: tuple, rows: int, arrival: float) -> None:
        """Add per-key counts to the absorbed side's table of the window."""
        state = self._windows.get(window_end)
        if state is None:
            state = self._windows[window_end] = _JoinWindowState()
        table = state.right if self._side else state.left
        for key, count in zip(*partial):
            table[key] = table.get(key, 0) + count
        if arrival > state.max_arrival:
            state.max_arrival = arrival

    def _result(self, state: _JoinWindowState) -> tuple[list, list]:
        keys = sorted(set(state.left) & set(state.right))
        return keys, [float(state.left[k] * state.right[k]) for k in keys]


class WindowedTopKOperator(WindowedAggregateOperator):
    """Windowed top-k: like a keyed windowed aggregate, but each trigger
    emits only the ``k`` keys with the largest aggregate value, ordered
    descending (dashboard-style "top advertisers per second")."""

    def __init__(self, address: OpAddress, window: WindowSpec, k: int,
                 agg: str = "sum"):
        if k < 1:
            raise ValueError("k must be at least 1")
        super().__init__(address, window, agg=agg, by_key=True)
        self.k = k

    def _emit_complete_windows(self) -> list[Emission]:
        emissions = super()._emit_complete_windows()
        trimmed = []
        for emission in emissions:
            batch = emission.batch
            if len(batch) > self.k:
                order = np.argsort(batch.values)[::-1][: self.k]
                batch = EventBatch._raw(
                    batch.logical_times[order],
                    batch.values[order],
                    batch.keys[order],
                    arrival_time=batch.arrival_time,
                    source_id=batch.source_id,
                    # window-result times are constant, so any reordering
                    # preserves sortedness
                    times_sorted=batch.times_sorted,
                )
            trimmed.append(Emission(batch, emission.progress, emission.arrival))
        return trimmed


class SinkOperator(Operator):
    """Terminal operator: hands finished results to the runtime's recorder."""

    def __init__(self, address: OpAddress):
        super().__init__(address)
        self.outputs_seen = 0

    def on_message(self, msg: Message, now: float) -> list[Emission]:
        self.invocations += 1
        self._observe_progress(msg)
        if msg.batch is not None and len(msg.batch) > 0:
            self.outputs_seen += 1
            self.triggers += 1
        return []
