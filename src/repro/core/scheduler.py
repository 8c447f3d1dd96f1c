"""The two-level stateless scheduler (§5.2, Fig. 5b).

Level 1: operators with pending messages, ordered by the *global* priority
of each operator's next message.  Level 2: within an operator, messages
ordered by *local* priority.  The scheduler holds no per-job state — every
ordering decision reads only the priority pair stamped on messages by the
context converters — which is what lets it scale with message volume.

This module defines the mailbox types, the run-queue interface shared with
the baseline schedulers (:mod:`repro.runtime.baselines`), and Cameo's
priority run queue.  Operators are duck-typed: a run queue only touches
``mailbox``, ``busy``, ``queue_token`` and ``in_queue``.
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush
from typing import Any, Optional

from repro.dataflow.messages import Message


class Mailbox:
    """Per-operator pending-message container (level 2)."""

    def push(self, msg: Message) -> None:
        raise NotImplementedError

    def pop(self) -> Message:
        raise NotImplementedError

    def head_global_priority(self) -> float:
        """Global priority of the message :meth:`pop` would return next."""
        raise NotImplementedError

    def __len__(self) -> int:
        raise NotImplementedError

    def __bool__(self) -> bool:
        return len(self) > 0


    def head_message(self) -> Message:
        """The message :meth:`pop` would return next."""
        raise NotImplementedError


class FifoMailbox(Mailbox):
    """Arrival-order mailbox (both baselines; §6: "an operator processes
    its messages in FIFO order")."""

    def __init__(self):
        self._queue: deque[Message] = deque()

    def push(self, msg: Message) -> None:
        self._queue.append(msg)

    def pop(self) -> Message:
        return self._queue.popleft()

    def head_message(self) -> Message:
        if not self._queue:
            raise IndexError("mailbox is empty")
        return self._queue[0]

    def head_global_priority(self) -> float:
        queue = self._queue
        if not queue:
            raise IndexError("mailbox is empty")
        pc = queue[0].pc
        return pc.pri_global if pc is not None else 0.0

    def __len__(self) -> int:
        return len(self._queue)


class PriorityMailbox(Mailbox):
    """Local-priority mailbox (Cameo).  Ties broken by arrival sequence so
    equal-priority messages keep FIFO order (determinism)."""

    def __init__(self):
        self._heap: list[tuple[float, int, Message]] = []
        self._seq = 0

    def push(self, msg: Message) -> None:
        if msg.pc is None:
            raise ValueError("a PriorityMailbox requires messages with a PriorityContext")
        heappush(self._heap, (msg.pc.pri_local, self._seq, msg))
        self._seq += 1

    def pop(self) -> Message:
        return heappop(self._heap)[2]

    def head_message(self) -> Message:
        if not self._heap:
            raise IndexError("mailbox is empty")
        return self._heap[0][2]

    def head_global_priority(self) -> float:
        return self._heap[0][2].pc.pri_global

    def __len__(self) -> int:
        return len(self._heap)


class RunQueue:
    """Level-1 interface.  ``worker_id`` parameters exist for schedulers
    with thread affinity (Orleans); others ignore them."""

    def create_mailbox(self) -> Mailbox:
        raise NotImplementedError

    def notify(self, op: Any, now: float, worker_hint: Optional[int] = None) -> None:
        """A message was just pushed to ``op``'s mailbox; make sure the
        operator is (re)queued if it is not currently executing."""
        raise NotImplementedError

    def pop(self, worker_id: int) -> Optional[Any]:
        """Take the next runnable operator, or None."""
        raise NotImplementedError

    def requeue(self, op: Any, worker_id: int) -> None:
        """Operator yielded at quantum expiry with messages still pending."""
        raise NotImplementedError

    def should_swap(self, op: Any) -> bool:
        """After the quantum: should the worker switch away from ``op``?"""
        raise NotImplementedError

    def peek_best_priority(self) -> Optional[float]:
        """Key of the operator :meth:`pop` would return next, or None when
        nothing is queued or the queue orders by no key."""
        raise NotImplementedError

    def discard(self, op: Any) -> None:
        """Forget a queued operator (lifecycle migration): after this call
        the queue must never hand ``op`` to a worker, however many entries
        it held.  Discarding an unqueued operator is a no-op.  Migration is
        rare, so implementations may take O(n)."""
        raise NotImplementedError

    def pending_operator_count(self) -> int:
        raise NotImplementedError


class CameoRunQueue(RunQueue):
    """Cameo's priority run queue: operators keyed by the global priority of
    their head message, with lazy decrease-key through per-operator tokens.

    Every notify of an idle operator pushes a fresh ``(key, seq, op)``
    entry and stores ``seq`` on the operator as its ``queue_token``; the
    earlier entry, whose sequence number no longer matches, is superseded
    and dropped when it reaches the heap top, so every operation stays
    O(log n).  Equal keys break by ``seq``: among operators with the same
    head priority the one notified longest ago runs first, and a notify
    sends the operator to the back of its tie class.

    ``aging`` enables the starvation-prevention extension (§6.3): each
    second a message has waited discounts the operator's effective priority
    key by ``aging`` seconds, so even minimum-priority work is eventually
    scheduled under sustained high-priority load.  The discount is computed
    when the operator is (re)queued — a deliberate approximation that keeps
    the queue a plain heap.
    """

    def __init__(self, clock: Optional[Any] = None, aging: float = 0.0):
        if aging < 0:
            raise ValueError("aging must be non-negative")
        if aging > 0 and clock is None:
            raise ValueError("aging requires a clock callable")
        self._heap: list[tuple[float, int, Any]] = []
        self._seq = 0
        self._clock = clock
        self._aging = aging
        #: operators with a live entry (superseded entries not counted)
        self._queued = 0
        #: lifetime counters, for introspection
        self.pushes = 0
        self.pops = 0

    def create_mailbox(self) -> Mailbox:
        return PriorityMailbox()

    def _priority_key(self, op: Any) -> float:
        key = op.mailbox.head_global_priority()
        if self._aging > 0:
            head = op.mailbox.head_message()
            enqueued = head.enqueue_time
            if enqueued == enqueued:  # NaN-safe
                # 1/aging is the *deferral horizon*: no message sorts later
                # than "enqueue + horizon", however lax its deadline, and
                # beyond that it keeps ageing.  Choose the horizon above the
                # largest latency constraint that must stay in deadline
                # order (deadlines below the cap are untouched).
                key = min(key, enqueued + 1.0 / self._aging)
                waited = self._clock() - enqueued
                if waited > 0:
                    key -= self._aging * waited
        return key

    def _push(self, op: Any, key: Optional[float] = None) -> None:
        if key is None:
            key = self._priority_key(op)
        if op.queue_token == -1:
            self._queued += 1
        seq = self._seq
        op.queue_token = seq
        heappush(self._heap, (key, seq, op))
        self._seq = seq + 1
        self.pushes += 1

    def notify(self, op: Any, now: float, worker_hint: Optional[int] = None) -> None:
        if op.busy:
            return
        # inline the no-aging priority key (one attribute chain on the hot
        # path); the aging extension goes through _priority_key
        self._push(
            op,
            op.mailbox.head_global_priority()
            if self._aging == 0.0
            else self._priority_key(op),
        )

    def requeue(self, op: Any, worker_id: int) -> None:
        self._push(op)

    def _clean_top(self) -> None:
        heap = self._heap
        while heap:
            _, seq, op = heap[0]
            if seq == op.queue_token:
                if not op.busy and len(op.mailbox) > 0:
                    return
                # Defensive: a live entry whose operator became busy or
                # drained without being popped.  Reset the token so a later
                # notify counts the operator as queued again.
                op.queue_token = -1
                self._queued -= 1
            heappop(heap)

    def pop(self, worker_id: int) -> Optional[Any]:
        self._clean_top()
        if not self._heap:
            return None
        op = heappop(self._heap)[2]
        op.queue_token = -1
        self._queued -= 1
        self.pops += 1
        return op

    def discard(self, op: Any) -> None:
        """Eager removal of every entry of ``op``.  The operator is leaving
        this queue (migration, crash), and the next queue numbers its
        token afresh: an entry left behind here could match that token
        and hand ``op`` to a worker of the wrong node.  Filtering keeps
        the total ``(key, seq)`` order, so pop order is unchanged."""
        if op.queue_token != -1:
            op.queue_token = -1
            self._queued -= 1
        heap = [entry for entry in self._heap if entry[2] is not op]
        heapify(heap)
        self._heap = heap

    def peek_best_priority(self) -> Optional[float]:
        self._clean_top()
        return self._heap[0][0] if self._heap else None

    def should_swap(self, op: Any) -> bool:
        best = self.peek_best_priority()
        if best is None:
            return False
        if len(op.mailbox) == 0:
            return True
        # swap only for a strictly more urgent operator (§5.2)
        return best < op.mailbox.head_global_priority()

    def pending_operator_count(self) -> int:
        return self._queued
