"""Unit tests for the mp backend's ingest replay.

Every source enters a worker through one :class:`IngestDriver`: the
shard the worker inherited, and after a fail-over the sources it adopts
from its own copy of the trace.  Paced pumping releases what is due on
the wall clock, flooded pumping ignores time, and adoption merges by
trace time without breaking any source's sequence order.
"""

from __future__ import annotations

from repro.runtime.mp.ingest import IngestDriver, sequence_trace


def _key(source: int) -> tuple:
    return ("client", "j", "src", source)


def _trace(*rows) -> list:
    """A sequenced trace of ``(trace_time, source)`` rows (no payload)."""
    timed, _ = sequence_trace(
        [(when, _key(source), None, None, None, True) for when, source in rows])
    return timed


def _pumped(ingest: IngestDriver, now: float, chunk: int = 256) -> list:
    """``(source, seq, trace_time)`` of what one pump releases."""
    out: list = []
    ingest.pump(now, out.extend, chunk)
    return [(entry[0][3], entry[1], entry[2]) for entry in out]


class TestPump:
    def test_paced_pump_releases_only_due_entries_chunk_at_a_time(self):
        timed = _trace((0.0, 0), (0.1, 0), (0.2, 0), (0.3, 0), (0.4, 0), (1.0, 0))
        ingest = IngestDriver(timed, realtime=True)
        assert _pumped(ingest, 0.35, chunk=2) == [(0, 0, 0.0), (0, 1, 0.1)]
        assert _pumped(ingest, 0.35, chunk=2) == [(0, 2, 0.2), (0, 3, 0.3)]
        assert not ingest.pump(0.35, [].extend, 2)
        assert ingest.next_due() == 0.4
        assert ingest.remaining == 2 and not ingest.exhausted
        assert _pumped(ingest, 5.0) == [(0, 4, 0.4), (0, 5, 1.0)]
        assert ingest.exhausted and ingest.next_due() is None

    def test_flooded_pump_ignores_time(self):
        timed = _trace((10.0, 0), (20.0, 1), (30.0, 0))
        ingest = IngestDriver(timed, realtime=False)
        assert _pumped(ingest, 0.0, chunk=2) == [(0, 0, 10.0), (1, 0, 20.0)]
        assert _pumped(ingest, 0.0, chunk=2) == [(0, 1, 30.0)]
        assert ingest.exhausted


class TestAdopt:
    #: the whole trace: this worker owns source 0, a dead node owned 1 and
    #: 2, and the fail-over hands this worker source 1 only
    TRACE = ((0.0, 0), (0.5, 1), (1.0, 0), (1.5, 1), (2.0, 0), (2.0, 1),
             (2.5, 2), (3.0, 0), (3.5, 1))

    def _ingest(self) -> tuple[IngestDriver, list]:
        timed = _trace(*self.TRACE)
        shard = [item for item in timed if item[1][0] == _key(0)]
        return IngestDriver(shard, realtime=True), timed

    def test_merges_by_trace_time_and_keeps_each_sources_order(self):
        ingest, timed = self._ingest()
        assert _pumped(ingest, 1.2) == [(0, 0, 0.0), (0, 1, 1.0)]
        # source 1 was processed up to seq 0 by its dead owner
        ingest.adopt(timed, {_key(1): 0})
        released = _pumped(ingest, 10.0)
        assert released == [(1, 1, 1.5), (0, 2, 2.0), (1, 2, 2.0),
                            (0, 3, 3.0), (1, 3, 3.5)]
        assert all(source != 2 for source, _, _ in released)

    def test_overdue_adopted_entries_go_out_on_the_next_pump(self):
        ingest, timed = self._ingest()
        assert _pumped(ingest, 2.7) == [(0, 0, 0.0), (0, 1, 1.0), (0, 2, 2.0)]
        ingest.adopt(timed, {_key(1): -1})  # nothing of source 1 processed
        assert ingest.next_due() == 0.5
        assert _pumped(ingest, 2.7) == [(1, 0, 0.5), (1, 1, 1.5), (1, 2, 2.0)]
        assert ingest.next_due() == 3.0
        assert ingest.remaining == 2

    def test_a_fully_processed_source_adds_nothing(self):
        ingest, timed = self._ingest()
        ingest.adopt(timed, {_key(1): 3})
        assert [source for source, _, _ in _pumped(ingest, 10.0)] == [0, 0, 0, 0]
