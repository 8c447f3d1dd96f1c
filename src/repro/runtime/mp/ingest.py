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

Admission follows the run queue's order.  When the run queue orders
operators by deadline (:func:`ingest_slack`), a shard is one
trace-ordered FIFO per latency target ``L`` and the driver releases the
due head with the earliest deadline on the trace clock,
``trace_time + L``; the worker also holds a pump back while a more
urgent operator is runnable (see :mod:`~repro.runtime.mp.worker`).
Under every other scheduler a shard is one FIFO and replays in trace
order.
"""

from __future__ import annotations

from heapq import heapify, heappop, heapreplace
from operator import itemgetter
from typing import Callable

_INF = float("inf")


def ingest_slack(config, jobs) -> dict | None:
    """Each job's latency target ``L`` when the run queue orders operators
    by deadline — Cameo's queue under LLF (Eq. 3) or EDF — else None.
    Only then is ingest admitted in deadline order; the other schedulers
    and policies keep trace order and a pump every loop turn."""
    if config.scheduler == "cameo" and config.policy in ("llf", "edf"):
        return {job.name: job.latency_constraint for job in jobs}
    return None


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
    timed: list, owner_of: Callable[[tuple], int], node_count: int,
    slack: dict | None = None,
) -> dict[int, dict]:
    """Partition sequenced entries by owning node (order-preserving).

    Each shard maps a FIFO key to its trace-ordered entries: the job's
    latency target ``L`` when ``slack`` (job -> ``L``) is given, so jobs
    that share a target share a FIFO, else ``None`` (one FIFO).  Every
    node gets a shard (possibly empty) so fork arguments are uniform;
    within a FIFO both global time order and per-source sequence order
    are preserved."""
    shards: dict[int, dict] = {i: {} for i in range(node_count)}
    fifo_of: dict[tuple, list] = {}
    for item in timed:
        src_key = item[1][0]
        fifo = fifo_of.get(src_key)
        if fifo is None:
            fifos = shards[owner_of(src_key)]
            fifo = fifo_of[src_key] = fifos.setdefault(
                slack[src_key[1]] if slack else None, [])
        fifo.append(item)
    return shards


class _Fifo:
    """One trace-ordered FIFO of a driver: its entries, the next one to
    release, and the slack ``L`` that turns a trace time into a deadline."""

    __slots__ = ("timed", "pos", "slack")

    def __init__(self, timed: list, slack: float | None):
        self.timed = timed
        self.pos = 0
        self.slack = slack or 0.0


class IngestDriver:
    """Replays one worker's sources against the local clock.

    Paced mode (``mp_realtime=True``) releases entries whose trace time
    has arrived on the shared wall clock; flooded mode releases them as
    fast as the dispatch loop absorbs chunks.  ``fifos`` maps a FIFO key
    to trace-ordered entries and ``slack`` maps each job to its latency
    target, or is None, as for :func:`shard_by_owner`.

    Among the due heads, a pump releases the one with the smallest
    ``trace_time + L`` first, so in a flooded replay every latency-
    sensitive entry leaves before any bulk one, while each FIFO — and so
    each source — stays in trace order.  Jobs that share ``L`` share a
    FIFO: among them the rule is trace order, which one FIFO keeps
    without an entry-by-entry merge.  Chunking bounds one pump; how often
    the worker pumps is its admission gate's call."""

    __slots__ = ("_by_key", "_fifos", "_slack", "_realtime")

    def __init__(self, fifos: dict, realtime: bool, slack: dict | None = None):
        self._slack = slack
        self._realtime = realtime
        self._by_key = {key: _Fifo(timed, key) for key, timed in fifos.items()}
        #: the FIFOs with undelivered entries
        self._fifos = [fifo for fifo in self._by_key.values() if fifo.timed]

    @property
    def exhausted(self) -> bool:
        return not self._fifos

    @property
    def remaining(self) -> int:
        """Undelivered entries left (the node sampler's ingest-backlog
        reading)."""
        return sum(len(fifo.timed) - fifo.pos for fifo in self._fifos)

    def next_due(self) -> float | None:
        """Trace time of the earliest undelivered entry (None when done)."""
        return min((fifo.timed[fifo.pos][0] for fifo in self._fifos), default=None)

    def _due_heads(self, now: float) -> list:
        """``(deadline, index)`` of every FIFO whose head is due."""
        limit = now if self._realtime else _INF
        return [(fifo.timed[fifo.pos][0] + fifo.slack, i)
                for i, fifo in enumerate(self._fifos)
                if fifo.timed[fifo.pos][0] <= limit]

    def peek(self, now: float) -> tuple | None:
        """Source key of the entry the next pump releases first (None
        when nothing is due)."""
        heads = self._due_heads(now)
        if not heads:
            return None
        fifo = self._fifos[min(heads)[1]]
        return fifo.timed[fifo.pos][1][0]

    def pump(self, now: float, sink: Callable[[list], None],
             chunk: int = 256) -> bool:
        """Deliver up to ``chunk`` due entries into ``sink``, earliest
        deadline first.

        Returns True when anything was delivered."""
        heads = self._due_heads(now)
        if not heads:
            return False
        heapify(heads)
        limit = now if self._realtime else _INF
        fifos = self._fifos
        entries: list = []
        drained = False
        while heads and len(entries) < chunk:
            i = heads[0][1]
            fifo = fifos[i]
            timed, pos, slack = fifo.timed, fifo.pos, fifo.slack
            end = min(len(timed), pos + chunk - len(entries))
            # a run of this FIFO: due, and no later than any other due head
            bound = min(heads[1:3])[0] if len(heads) > 1 else _INF
            if bound == _INF and limit == _INF:
                stop = end
            else:
                stop = pos + 1
                while (stop < end and timed[stop][0] <= limit
                       and timed[stop][0] + slack <= bound):
                    stop += 1
            entries += [item[1] for item in timed[pos:stop]]
            fifo.pos = stop
            if stop == len(timed):
                drained = True
                heappop(heads)
            elif timed[stop][0] <= limit:
                heapreplace(heads, (timed[stop][0] + slack, i))
            else:
                heappop(heads)
        if drained:
            self._fifos = [fifo for fifo in fifos if fifo.pos < len(fifo.timed)]
        sink(entries)
        return True

    def adopt(self, timed: list, resume: dict) -> None:
        """Take over the sources of ``resume`` (src_key -> processed
        watermark) from the whole sequenced trace ``timed``: every entry
        past its source's watermark joins the undelivered remainder of
        its job's FIFO (a new FIFO if this worker held none).

        Both lists are in trace order and the merge is a stable sort by
        trace time, so per-source sequence order holds; adopted entries
        already due go out on the next pump."""
        slack = self._slack
        adopted: dict = {}
        for item in timed:
            src_key, seq = item[1][0], item[1][1]
            if src_key in resume and seq > resume[src_key]:
                adopted.setdefault(slack[src_key[1]] if slack else None, []).append(item)
        for key, items in adopted.items():
            fifo = self._by_key.get(key)
            if fifo is None:
                self._by_key[key] = _Fifo(items, key)
                continue
            fifo.timed = sorted(fifo.timed[fifo.pos:] + items, key=itemgetter(0))
            fifo.pos = 0
        self._fifos = [fifo for fifo in self._by_key.values()
                       if fifo.pos < len(fifo.timed)]
