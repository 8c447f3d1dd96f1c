"""The two-level stateless scheduler (§5.2, Fig. 5b).

Level 1: operators with pending messages, ordered by the *global* priority
of each operator's next message.  Level 2: within an operator, messages
ordered by *local* priority.  The scheduler holds no per-job state — every
ordering decision reads only the priority pair stamped on messages by the
context converters — which is what lets it scale with message volume.

This module defines the mailbox types, the run-queue interface shared with
the baseline schedulers (:mod:`repro.runtime.baselines`), and Cameo's
priority run queue.  Operators are duck-typed: a run queue only touches
``mailbox``, ``busy``, ``queue_token``, ``queued_key``, ``queued_seq``
and ``in_queue`` (``queued_key``/``queued_seq`` cache the head-priority
key and tie-break sequence the operator was queued under; slotted
operator stubs must declare them).
"""

from __future__ import annotations

from collections import deque
from heapq import heapify, heappop, heappush, heapreplace
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
    their head message; lazy invalidation via per-operator tokens.

    When a new message *changes* an already-queued operator's head priority,
    a fresh entry is pushed and the old one is skipped at pop time — the
    classic lazy-decrease-key pattern, keeping every operation O(log n).
    When the head priority key is unchanged (the common case under fan-in:
    more messages for an operator whose head message stays the same), the
    heap push is skipped — the cached ``op.queued_key`` makes that check
    O(1).  Ties between equal keys break by the sequence number of the
    operator's *latest* notify (each notify re-pushed under the original
    scheme, sending the operator to the back of its tie class), so a
    skipped notify still consumes a sequence number and records it in
    ``op.queued_seq``; when the entry surfaces at the heap top with an
    outdated sequence number, a single ``heapreplace`` rotates it to its
    logical position.  K skipped notifies therefore cost one deferred heap
    rotation instead of K pushes plus K stale pops, and the pop order is
    bit-identical to the always-re-push scheme.  Stale superseded entries
    are dropped lazily at the heap top, plus eagerly in bulk once they
    exceed half the heap (the (key, seq) order is total, so compaction
    never reorders live entries).

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
        self._heap: list[tuple[float, int, int, Any]] = []
        self._seq = 0
        self._token = 0
        self._clock = clock
        self._aging = aging
        #: superseded (token-mismatch) entries still sitting in the heap
        self._stale = 0
        #: number of (possibly stale) heap entries, for introspection
        self.pushes = 0
        self.pops = 0
        #: notify calls skipped because the queued head key was unchanged
        self.notify_skips = 0
        #: bulk compactions of superseded entries
        self.compactions = 0

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
        self._token += 1
        op.queue_token = self._token
        op.queued_key = key
        op.queued_seq = self._seq
        heappush(self._heap, (key, self._seq, self._token, op))
        self._seq += 1
        self.pushes += 1

    def notify(self, op: Any, now: float, worker_hint: Optional[int] = None) -> None:
        if op.busy:
            return
        # inline the no-aging priority key (one attribute chain on the hot
        # path); the aging extension goes through _priority_key
        key = (
            op.mailbox.head_global_priority()
            if self._aging == 0.0
            else self._priority_key(op)
        )
        if op.queue_token != -1:
            # Already queued.  If the head priority key is unchanged the
            # existing entry is still heap-positioned correctly — skip the
            # re-push (the common case under fan-in) but still consume a
            # sequence number into ``queued_seq``: among exactly-equal keys
            # the historical tie-break is the seq of the *latest* notify, so
            # the entry is lazily re-sequenced in ``_clean_top`` when it
            # surfaces.  Otherwise supersede the entry (lazy decrease-key).
            if key == op.queued_key:
                op.queued_seq = self._seq
                self._seq += 1
                self.notify_skips += 1
                return
            stale = self._stale + 1
            self._stale = stale
            self._push(op, key)
            if stale >= 32:  # cheap guard before the compaction check
                self._maybe_compact()
            return
        self._push(op, key)

    def requeue(self, op: Any, worker_id: int) -> None:
        self._push(op)

    def _clean_top(self) -> None:
        while self._heap:
            key, seq, token, op = self._heap[0]
            if token == op.queue_token:
                if not op.busy and len(op.mailbox) > 0:
                    if seq != op.queued_seq:
                        # Deferred re-sequencing: skipped notifies advanced
                        # ``queued_seq`` without touching the heap.  One
                        # rotation puts the entry exactly where an eager
                        # re-push would have left it among equal keys.
                        heapreplace(self._heap, (key, op.queued_seq, token, op))
                        continue
                    return
                # Defensive: a current entry whose operator became busy or
                # drained without being popped.  Reset the token so a later
                # notify re-queues the operator instead of skipping.
                op.queue_token = -1
            else:
                self._stale -= 1
            heappop(self._heap)

    def _maybe_compact(self) -> None:
        """Drop superseded entries in bulk once they dominate the heap.

        Entries are ordered by a total ``(key, seq)`` order, so filtering
        and re-heapifying never changes the relative order of live entries.
        """
        if self._stale >= 32 and self._stale * 2 > len(self._heap):
            self._heap = [e for e in self._heap if e[2] == e[3].queue_token]
            heapify(self._heap)
            self._stale = 0
            self.compactions += 1

    def pop(self, worker_id: int) -> Optional[Any]:
        self._clean_top()
        if not self._heap:
            return None
        _, _, _, op = heappop(self._heap)
        op.queue_token = -1
        self.pops += 1
        return op

    def discard(self, op: Any) -> None:
        """Lazy removal: invalidating the token turns the live heap entry
        into an ordinary superseded (stale) one, dropped at the top or by
        the next bulk compaction."""
        if op.queue_token != -1:
            op.queue_token = -1
            self._stale += 1

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
        self._clean_top()
        return len(self._heap)
