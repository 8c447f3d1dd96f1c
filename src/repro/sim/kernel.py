"""Discrete-event simulation kernel.

The whole reproduction runs on this kernel: a single monotonic clock and a
binary heap of timestamped callbacks.  Determinism matters — the paper's
claims are about scheduling *order*, so two runs with the same seed must
produce identical schedules.  Ties in event time are broken by insertion
sequence number, never by object identity.

Heap entries are plain ``(time, seq, callback, args)`` tuples: ``seq`` is
unique, so tuple comparison never reaches the payload — this keeps the hot
path free of custom comparator calls (the kernel handles millions of events
per experiment).  Events cannot be cancelled: a timer that may be
superseded carries its own generation and ignores a stale firing.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Any, Callable, Optional


class SimulationError(Exception):
    """Raised when the kernel is used inconsistently (e.g. scheduling in the past)."""


class Simulator:
    """A deterministic discrete-event simulator.

    Usage::

        sim = Simulator()
        sim.schedule(1.0, lambda: print("fires at t=1"))
        sim.run()
    """

    def __init__(self):
        self._now = 0.0
        #: entries are (time, seq, callback, args)
        self._heap: list[tuple] = []
        self._seq = 0
        self._fired = 0
        self._running = False
        self._run_until: Optional[float] = None

    @property
    def now(self) -> float:
        """Current simulation time in seconds."""
        return self._now

    @property
    def fired_count(self) -> int:
        """Number of callbacks dispatched from the event heap.

        Work executed inline via :meth:`try_advance` (the engine's
        quantum-batched fast path) never enters the heap and is not counted
        here."""
        return self._fired

    # ------------------------------------------------------------------
    # scheduling
    # ------------------------------------------------------------------

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` to fire ``delay`` seconds from now."""
        if not delay >= 0:  # also rejects NaN
            raise SimulationError(f"cannot schedule {delay}s in the past")
        heappush(self._heap, (self._now + delay, self._seq, callback, args))
        self._seq += 1

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Schedule ``callback(*args)`` at an absolute simulation time."""
        if not time >= self._now:  # also rejects NaN
            raise SimulationError(
                f"cannot schedule at t={time} (now={self._now}): time travels forward only"
            )
        heappush(self._heap, (time, self._seq, callback, args))
        self._seq += 1

    # the names the hot paths call; perfbench wraps all four by name, so
    # they stay class attributes rather than call-site renames
    schedule_fast = schedule
    schedule_at_fast = schedule_at

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------

    def try_advance(self, time: float) -> bool:
        """Advance the clock to ``time`` if no pending event precedes it.

        This is the engine's quantum-batching hook: when a worker knows the
        completion instant of the message it just started, and no other
        event fires at or before that instant, the completion may run
        *inline* — the clock jumps forward and the kernel heap is never
        touched.  An event pending at exactly ``time`` refuses the advance:
        it was scheduled earlier, so it holds an older sequence number and
        must dispatch before a completion scheduled now.  Only legal while
        :meth:`run` is active; callers fall back to scheduling a normal
        event when this returns False, so behaviour is bit-identical either
        way.
        """
        if not self._running or time < self._now:
            return False
        run_until = self._run_until
        if run_until is not None and time > run_until:
            return False
        heap = self._heap
        if heap and heap[0][0] <= time:
            return False
        self._now = time
        return True

    def run(self, until: Optional[float] = None) -> int:
        """Run until the heap drains or ``until`` is reached.

        Returns the number of events fired by this call.  When ``until`` is
        given, the clock is advanced to ``until`` even if the heap drains
        earlier, so back-to-back ``run(until=...)`` calls see monotonic time.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._run_until = until
        heap = self._heap
        fired = 0
        pop = heappop
        limit = until if until is not None else math.inf
        try:
            # the fired counter is folded back into self._fired on exit.
            # Entries are popped before the limit check and pushed back
            # intact when they overshoot (at most once per run call) — one
            # sift instead of a peek-then-pop pair per event.
            while heap:
                entry = pop(heap)
                time, _, callback, args = entry
                if time > limit:
                    heappush(heap, entry)
                    break
                self._now = time
                fired += 1
                callback(*args)
        finally:
            self._fired += fired
            self._running = False
            self._run_until = None
        if until is not None and self._now < until:
            self._now = until
        return fired
