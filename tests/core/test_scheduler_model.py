"""Model-based property tests: CameoRunQueue vs a brute-force reference.

A random interleaving of operations (deliver message to an operator, pop
the best operator, finish the popped operator) is replayed against both
the lazy-heap implementation and an O(n) reference scan.  Priorities are
drawn from a small range, so equal head keys across operators are common:
the reference breaks them by each operator's latest notify, and the
sequences of popped operators must be identical.
"""

from hypothesis import given
from hypothesis import strategies as st

from repro.core.context import PriorityContext
from repro.core.scheduler import CameoRunQueue
from repro.dataflow.messages import Message


class FakeOp:
    def __init__(self, name, mailbox):
        self.name = name
        self.mailbox = mailbox
        self.busy = False
        self.queue_token = -1
        self.in_queue = False


class ReferenceModel:
    """Ground truth: scan all idle operators for the best head message."""

    def __init__(self):
        self.mailboxes: dict[str, list[tuple[float, int, float]]] = {}
        self.busy: set[str] = set()
        #: op -> clock value of its latest notify (the tie-break)
        self.notified: dict[str, int] = {}
        self._seq = 0
        self._clock = 0

    def _notify(self, op: str) -> None:
        self.notified[op] = self._clock
        self._clock += 1

    def deliver(self, op: str, local: float, global_: float) -> None:
        self.mailboxes.setdefault(op, []).append((local, self._seq, global_))
        self.mailboxes[op].sort(key=lambda e: (e[0], e[1]))
        self._seq += 1
        if op not in self.busy:
            self._notify(op)

    def head_global(self, op: str) -> float:
        return self.mailboxes[op][0][2]

    def queued(self) -> list[str]:
        return [op for op, queue in self.mailboxes.items()
                if queue and op not in self.busy]

    def pop_best(self):
        candidates = self.queued()
        if not candidates:
            return None
        # equal head priorities: the operator notified longest ago first
        best = min(candidates,
                   key=lambda op: (self.head_global(op), self.notified[op]))
        self.busy.add(best)
        return best

    def finish(self, op: str) -> None:
        self.busy.discard(op)
        if self.mailboxes.get(op):
            self.mailboxes[op].pop(0)
        if self.mailboxes.get(op):
            self._notify(op)  # the runtime requeues it


# operations: ("deliver", op_index, local, global) | ("pop",) | ("finish",)
operations = st.lists(
    st.one_of(
        st.tuples(st.just("deliver"), st.integers(0, 4),
                  st.integers(0, 3), st.integers(0, 3)),
        st.tuples(st.just("pop")),
        st.tuples(st.just("finish")),
    ),
    min_size=1,
    max_size=120,
)


def _replay(ops, check):
    """Drive a queue and the reference through ``ops``, then drain both;
    ``check(queue, model)`` runs after every step."""
    queue = CameoRunQueue()
    real_ops = {i: FakeOp(f"op{i}", queue.create_mailbox()) for i in range(5)}
    model = ReferenceModel()
    running_real: list[FakeOp] = []
    running_model: list[str] = []

    def finish_oldest():
        real = running_real.pop(0)
        name = running_model.pop(0)
        real.mailbox.pop()
        real.busy = False
        model.finish(name)
        if len(real.mailbox) > 0:
            queue.requeue(real, 0)

    def pop_both():
        real = queue.pop(0)
        expected = model.pop_best()
        assert (real.name if real else None) == expected
        if real is not None:
            real.busy = True
            running_real.append(real)
            running_model.append(expected)
        return real

    for op in ops:
        if op[0] == "deliver":
            _, index, local, global_ = op
            msg = Message(target=None, pc=PriorityContext(
                pri_local=float(local), pri_global=float(global_)))
            real_ops[index].mailbox.push(msg)
            queue.notify(real_ops[index], now=0.0)
            model.deliver(f"op{index}", float(local), float(global_))
        elif op[0] == "pop":
            pop_both()
        elif running_real:  # finish the oldest running operator
            finish_oldest()
        check(queue, model)

    # drain both to the end: remaining pops must also agree
    while True:
        while running_real:
            finish_oldest()
        check(queue, model)
        if pop_both() is None:
            break


@given(ops=operations)
def test_cameo_run_queue_matches_reference(ops):
    _replay(ops, lambda queue, model: None)


@given(ops=operations)
def test_pending_operator_count_matches_reference(ops):
    """``pending_operator_count()`` counts queued operators, however many
    superseded entries key-changing notifies left in the heap."""

    def check(queue, model):
        assert queue.pending_operator_count() == len(model.queued())

    _replay(ops, check)
