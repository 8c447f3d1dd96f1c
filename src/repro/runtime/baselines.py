"""Baseline run queues: default Orleans and custom FIFO (§6).

* :class:`OrleansRunQueue` models Orleans 1.5.2's ConcurrentBag-backed
  global run queue: each worker prefers its *thread-local* work (LIFO, as
  ConcurrentBag's per-thread stack behaves) over the shared global queue,
  and steals from the fullest peer when both are empty.  No priorities —
  ordering is driven purely by message arrival and production locality.
* :class:`FifoRunQueue` is the paper's custom FIFO baseline: operators are
  inserted into one global run queue and extracted in FIFO order.

Both order messages *within* an operator in FIFO order, and both rotate the
running operator at quantum expiry whenever any other operator is waiting
(fair-share behaviour, schedule "a"/"b" of Fig. 4).
"""

from __future__ import annotations

from collections import deque
from typing import Any, Optional

from repro.core.scheduler import FifoMailbox, Mailbox, RunQueue


class FifoRunQueue(RunQueue):
    """One global FIFO queue of operators with pending messages."""

    def __init__(self):
        self._queue: deque[Any] = deque()

    def create_mailbox(self) -> Mailbox:
        return FifoMailbox()

    def notify(self, op: Any, now: float, worker_hint: Optional[int] = None) -> None:
        if op.busy or op.in_queue:
            return
        op.in_queue = True
        self._queue.append(op)

    def pop(self, worker_id: int) -> Optional[Any]:
        while self._queue:
            op = self._queue.popleft()
            op.in_queue = False
            if len(op.mailbox) > 0:
                return op
        return None

    def requeue(self, op: Any, worker_id: int) -> None:
        if not op.in_queue:
            op.in_queue = True
            self._queue.append(op)

    def should_swap(self, op: Any) -> bool:
        return len(self._queue) > 0

    def peek_best_priority(self) -> None:
        return None  # arrival order: no key

    def discard(self, op: Any) -> None:
        if op.in_queue:
            op.in_queue = False
            try:
                self._queue.remove(op)
            except ValueError:  # already skipped by a draining pop
                pass

    def pending_operator_count(self) -> int:
        return len(self._queue)


class OrleansRunQueue(RunQueue):
    """Thread-local-first scheduling in the style of Orleans' ConcurrentBag."""

    def __init__(self, worker_count: int):
        if worker_count < 1:
            raise ValueError("need at least one worker")
        self._locals: list[list[Any]] = [[] for _ in range(worker_count)]
        self._global: deque[Any] = deque()

    def create_mailbox(self) -> Mailbox:
        return FifoMailbox()

    def add_worker_slot(self) -> None:
        """Grow the per-worker local queues (elastic pools)."""
        self._locals.append([])

    def notify(self, op: Any, now: float, worker_hint: Optional[int] = None) -> None:
        if op.busy or op.in_queue:
            return
        op.in_queue = True
        if worker_hint is not None and 0 <= worker_hint < len(self._locals):
            # work produced by a worker lands on that worker's local stack
            self._locals[worker_hint].append(op)
        else:
            self._global.append(op)

    def pop(self, worker_id: int) -> Optional[Any]:
        while True:
            op = self._pop_once(worker_id)
            if op is None:
                return None
            op.in_queue = False
            if len(op.mailbox) > 0:
                return op

    def _pop_once(self, worker_id: int) -> Optional[Any]:
        local = self._locals[worker_id]
        if local:
            return local.pop()  # LIFO: freshest local work first
        if self._global:
            return self._global.popleft()
        # steal the oldest item from the fullest peer
        victim = max(
            (q for q in self._locals if q), key=len, default=None
        )
        if victim is not None:
            return victim.pop(0)
        return None

    def requeue(self, op: Any, worker_id: int) -> None:
        if not op.in_queue:
            op.in_queue = True
            self._locals[worker_id].append(op)

    def should_swap(self, op: Any) -> bool:
        return self.pending_operator_count() > 0

    def peek_best_priority(self) -> None:
        return None  # locality and arrival order: no key

    def discard(self, op: Any) -> None:
        if not op.in_queue:
            return
        op.in_queue = False
        queues = [self._global] + self._locals
        for queue in queues:
            try:
                queue.remove(op)
                return
            except ValueError:
                continue

    def pending_operator_count(self) -> int:
        return len(self._global) + sum(len(q) for q in self._locals)
