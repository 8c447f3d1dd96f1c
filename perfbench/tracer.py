"""Span recording from outside the program: wrappers on class attributes.

A :class:`Tracer` replaces chosen functions of the program with wrappers
*before* the engine is built (hot paths cache bound methods at wiring
time).  While the tracer is started, every wrapped call is a span —
(function, start, end, parent) on this process's call stack.  Per function
the tracer always aggregates the call count and the *self* time: the
span's duration minus the part its child spans cover, so the self times of
all spans under a root add up to the root's duration.  Raw spans are kept
in memory for the first seconds of a run only (bounded), aggregates for
the whole run.

Forked mp workers inherit the wrappers and the started state; each worker
resets the inherited aggregates when it starts and dumps its own before it
reports (see ``layers.py``), and the parent merges the dumps.
"""

from __future__ import annotations

import pickle
import time

#: raw spans are kept for this long after ``start`` ...
KEEP_SECONDS = 2.0
#: ... and never more than this many
KEEP_SPANS = 200_000


class Tracer:
    def __init__(self):
        self.active = False
        #: function id -> (layer, function label)
        self.names: list[tuple[str, str]] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.total_ns: list[int] = []
        #: function id -> sum of the function's probe values (see ``wrap``)
        self.probed: list[float] = []
        #: raw spans: (span id, function id, start ns, end ns, parent span id)
        self.spans: list[tuple] = []
        self._stack: list[list] = []
        self._next_span = 1
        self._keep_until = 0
        self._patched: list[tuple] = []

    # -- wrapping ------------------------------------------------------

    def wrap(self, layer: str, label: str, fn, probe=None):
        """Wrap ``fn`` as a span source of ``layer``.

        ``probe(args, result)`` returns a number summed per function — a
        count measured where the work happens (hits, bytes, tuples)."""
        fid = len(self.names)
        self.names.append((layer, label))
        for column in (self.calls, self.self_ns, self.total_ns, self.probed):
            column.append(0)
        tracer, stack, spans = self, self._stack, self.spans
        calls, self_ns, total_ns, probed = (
            self.calls, self.self_ns, self.total_ns, self.probed)
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            span_id = tracer._next_span
            tracer._next_span = span_id + 1
            start = clock()
            # [time covered by child spans, own span id, function id, start]
            frame = [0, span_id, fid, start]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
                if probe is not None:
                    probed[fid] += probe(args, result)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                calls[fid] += 1
                total_ns[fid] += duration
                self_ns[fid] += duration - frame[0]
                parent = 0
                if stack:
                    above = stack[-1]
                    above[0] += duration
                    parent = above[1]
                if start < tracer._keep_until and len(spans) < KEEP_SPANS:
                    spans.append((span_id, fid, start, end, parent))

        traced.__wrapped__ = fn
        return traced

    def replace(self, owner, attr: str, value):
        """Set ``owner.attr`` (class or module attribute) until ``uninstall``;
        returns what was there."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patched.append((owner, attr, raw))
        setattr(owner, attr, value)
        return raw

    def patch(self, owner, attr: str, layer: str, probe=None) -> None:
        """Replace ``owner.attr`` by its span wrapper."""
        raw = self.replace(owner, attr, None)
        fn = raw.__func__ if isinstance(raw, staticmethod) else raw
        label = f"{owner.__name__.rsplit('.', 1)[-1]}.{attr}"
        wrapped = self.wrap(layer, label, fn, probe)
        setattr(owner, attr,
                staticmethod(wrapped) if isinstance(raw, staticmethod) else wrapped)

    def patch_methods(self, cls: type, layer: str, names=None) -> None:
        """Wrap the named methods of ``cls`` — by default every plain
        function the class itself defines."""
        if names is None:
            names = [
                name for name, value in cls.__dict__.items()
                if callable(value) and not name.startswith("__")
                and not isinstance(value, (staticmethod, classmethod, type))
            ]
        for name in names:
            self.patch(cls, name, layer)

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patched):
            setattr(owner, attr, raw)
        self._patched.clear()

    # -- recording -----------------------------------------------------

    def reset(self) -> None:
        """Forget everything recorded so far (the wrappers stay)."""
        for column in (self.calls, self.self_ns, self.total_ns, self.probed):
            column[:] = [0] * len(column)
        self.spans.clear()
        self._stack.clear()
        self._keep_until = time.perf_counter_ns() + int(KEEP_SECONDS * 1e9)

    def start(self) -> None:
        self.reset()
        self.active = True

    def stop(self) -> None:
        self.active = False

    def aggregates(self) -> dict:
        """``(layer, function) -> [calls, self ns, total ns, probed]``,
        closing any span still open (a worker dumps from inside its root)."""
        now = time.perf_counter_ns()
        table = {
            name: [self.calls[fid], self.self_ns[fid], self.total_ns[fid],
                   self.probed[fid]]
            for fid, name in enumerate(self.names) if self.calls[fid]
        }
        inner = 0
        for children, _span_id, fid, started in reversed(self._stack):
            # open spans, innermost first: each also covers the open one inside
            duration = now - started
            row = table.setdefault(self.names[fid], [0, 0, 0, 0])
            row[0] += 1
            row[1] += duration - children - inner
            row[2] += duration
            inner = duration
        return table

    def dump(self, path) -> None:
        """Write this process's aggregates (a worker's hand-over)."""
        with open(path, "wb") as handle:
            pickle.dump(self.aggregates(), handle)


def merge(into: dict, other: dict) -> dict:
    """Add one process's aggregates to another's."""
    for name, row in other.items():
        mine = into.setdefault(name, [0, 0, 0, 0])
        for i, value in enumerate(row):
            mine[i] += value
    return into
