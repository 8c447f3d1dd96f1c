"""Ingest replay of the mp backend: sequencing, sharding, in-worker driving.

The capture phase (:class:`~repro.runtime.mp.engine.MpStreamEngine`)
records a flat trace of ``(trace_time, src_key, times, values, keys,
sorted)`` tuples.  Before replay, :func:`sequence_trace` stamps every
entry with a per-source sequence number — the identity a fail-over
resumes by: heartbeats report contiguous *processed* watermarks over it,
and the coordinator keeps the latest watermark per source.

Only workers touch the data path.  :func:`shard_by_owner` splits the
sequenced trace by the node owning each source (placement is a pure
function of the config, so the split is computed once in the parent and
inherited through fork), and a per-worker :class:`IngestDriver` replays
its shard against the local clock.  Every worker also inherits the whole
sequenced trace, left untouched until a fail-over: when the
coordinator's ``REWIRE`` hands a worker a dead node's sources,
:meth:`IngestDriver.adopt` takes each one's entries past the watermark
it resumes from.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Callable


def sequence_trace(trace: list) -> tuple[list, dict]:
    """Assign per-source sequence numbers in trace order.

    Returns ``(timed, last_seq)`` where ``timed`` is a list of
    ``(trace_time, entry)`` pairs — ``entry`` being the ingest shape
    ``(src_key, seq, trace_time, times, values, keys, sorted)`` — and
    ``last_seq`` maps each source to its final sequence number (the
    quiescence target: the run is ingest-complete when every source's
    processed watermark reaches it)."""
    timed: list = []
    next_seq: dict[tuple, int] = {}
    last_seq: dict[tuple, int] = {}
    for trace_time, src_key, times, values, keys, sorted_times in trace:
        seq = next_seq.get(src_key, 0)
        next_seq[src_key] = seq + 1
        last_seq[src_key] = seq
        timed.append(
            (trace_time, (src_key, seq, trace_time, times, values, keys, sorted_times))
        )
    return timed, last_seq


def shard_by_owner(
    timed: list, owner_of: Callable[[tuple], int], node_count: int
) -> dict[int, list]:
    """Partition sequenced entries by owning node (order-preserving).

    Every node gets a shard (possibly empty) so fork arguments are
    uniform; within a shard both global time order and per-source
    sequence order are preserved."""
    shards: dict[int, list] = {i: [] for i in range(node_count)}
    for item in timed:
        shards[owner_of(item[1][0])].append(item)
    return shards


class IngestDriver:
    """Replays one worker's sources against the local clock.

    Paced mode (``mp_realtime=True``) releases entries whose trace time
    has arrived on the shared wall clock; flooded mode releases them as
    fast as the dispatch loop absorbs chunks.  Chunking bounds how long
    ingestion can starve dispatch in flooded runs — the worker loop
    interleaves one pump with one dispatch quantum."""

    __slots__ = ("_timed", "_pos", "_realtime")

    def __init__(self, timed: list, realtime: bool):
        self._timed = timed
        self._pos = 0
        self._realtime = realtime

    @property
    def exhausted(self) -> bool:
        return self._pos >= len(self._timed)

    @property
    def remaining(self) -> int:
        """Undelivered entries left (the node sampler's ingest-backlog
        reading)."""
        return len(self._timed) - self._pos

    def next_due(self) -> float | None:
        """Trace time of the next undelivered entry (None when done)."""
        if self._pos >= len(self._timed):
            return None
        return self._timed[self._pos][0]

    def pump(self, now: float, sink: Callable[[list], None],
             chunk: int = 256) -> bool:
        """Deliver up to ``chunk`` due entries into ``sink``.

        Returns True when anything was delivered."""
        timed = self._timed
        pos = self._pos
        end = min(len(timed), pos + chunk)
        if self._realtime:
            entries = []
            while pos < end and timed[pos][0] <= now:
                entries.append(timed[pos][1])
                pos += 1
        else:
            entries = [item[1] for item in timed[pos:end]]
            pos = end
        if not entries:
            return False
        self._pos = pos
        sink(entries)
        return True

    def adopt(self, timed: list, resume: dict) -> None:
        """Take over the sources of ``resume`` (src_key -> processed
        watermark) from the whole sequenced trace ``timed``: every entry
        past its source's watermark joins the undelivered remainder.

        Both lists are in trace order and the merge is a stable sort by
        trace time, so per-source sequence order holds; adopted entries
        already due go out on the next pump."""
        adopted = [item for item in timed
                   if item[1][0] in resume and item[1][1] > resume[item[1][0]]]
        self._timed = sorted(self._timed[self._pos:] + adopted, key=itemgetter(0))
        self._pos = 0
