"""Deterministic, seed-driven fault models.

Cameo's evaluation assumes a healthy cluster; this module is the missing
adversary.  A :class:`FaultSchedule` describes *what goes wrong and when*
— node crash/restart windows, per-channel message loss, transit delay
spikes and network partitions (nodes alive yet mutually unreachable) —
as plain data, independent of any engine instance.  The same schedule
object can therefore be replayed against every scheduler under
comparison, exactly like the workload itself (see :mod:`repro.sim.rng`:
the fault stream is a named substream, so enabling faults never shifts
the randomness any other component sees).

A :class:`FaultInjector` binds a schedule to one run's clock and RNG
stream and answers the runtime's point queries (*should this transmission
drop? what is the transit inflation right now? is this link cut?*).  All
probabilistic draws happen injector-side in kernel event order, which
keeps same-seed runs bit-identical.  An **empty schedule is
inert by construction**: the engine installs no fault machinery at all
(`FaultSchedule().enabled is False`), so zero-fault runs are bit-identical
to runs without a schedule.

The recovery half (ack/retransmit, failure detection, crash fail-over,
load shedding) lives in :mod:`repro.runtime.recovery`; this module is the
pure fault *model* and has no runtime dependencies.
"""

from __future__ import annotations

from dataclasses import dataclass, field

INF = float("inf")

#: channel scopes a loss model may target
LOSS_SCOPES = ("all", "remote", "local")


def _check_window(start: float, end: float, what: str) -> None:
    if start < 0:
        raise ValueError(f"{what} start must be non-negative, got {start}")
    if end <= start:
        raise ValueError(f"{what} window must end after it starts "
                         f"(start={start}, end={end})")


@dataclass(frozen=True)
class CrashWindow:
    """Node ``node`` is down (fail-stop) during ``[start, end)``.

    ``end=inf`` models a node that never restarts.  Crash loses all
    volatile state on the node: operator mailboxes, back-pressure queues
    and in-flight executions.  Messages survive only in upstream
    retransmit buffers (see ``runtime/recovery.py``).
    """

    node: int
    start: float
    end: float = INF

    def __post_init__(self):
        if self.node < 0:
            raise ValueError("crash window needs a non-negative node id")
        _check_window(self.start, self.end, "crash")


@dataclass(frozen=True)
class ChannelLoss:
    """Bernoulli loss on data transmissions during ``[start, end)``.

    ``scope`` restricts the loss to cross-node hops (``"remote"``, which
    includes client ingestion), same-node hops (``"local"``), or every
    transmission (``"all"``).  Acknowledgements of the reliable delivery
    layer traverse the same channels and share the loss rate.
    """

    rate: float
    scope: str = "remote"
    start: float = 0.0
    end: float = INF

    def __post_init__(self):
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError(f"loss rate must be in [0, 1], got {self.rate}")
        if self.scope not in LOSS_SCOPES:
            raise ValueError(f"unknown loss scope {self.scope!r}; expected {LOSS_SCOPES}")
        _check_window(self.start, self.end, "loss")

    def applies(self, now: float, src_node: int, dst_node: int) -> bool:
        if not (self.start <= now < self.end) or self.rate == 0.0:
            return False
        if self.scope == "all":
            return True
        remote = src_node != dst_node
        return remote if self.scope == "remote" else not remote


@dataclass(frozen=True)
class DelaySpike:
    """Transit-delay inflation during ``[start, end)``.

    Every transmission started inside the window pays
    ``transit * factor + extra`` — a congested or flapping link.
    """

    start: float
    end: float
    factor: float = 1.0
    extra: float = 0.0

    def __post_init__(self):
        _check_window(self.start, self.end, "delay spike")
        if self.factor < 1.0:
            raise ValueError("delay spike factor must be >= 1")
        if self.extra < 0.0:
            raise ValueError("delay spike extra must be non-negative")


@dataclass(frozen=True)
class Partition:
    """Network partition during ``[start, end)``: nodes stay alive but
    links *between* groups carry nothing — data frames, acks and
    heartbeats all drop at the cut.

    ``groups`` is a tuple of disjoint node-id groups.  Nodes not listed
    in any group form one implicit "rest" group, so ``groups=((2,),)``
    on a three-node cluster isolates node 2 from ``{0, 1}``.  Traffic
    *within* a group is unaffected, and clients (node id ``-1``) reach
    every node — a partition severs the inter-node fabric only.

    Partitions are pure time-window predicates: no RNG draw is involved,
    so adding an empty partition list can never shift the randomness any
    other fault model sees.
    """

    start: float
    end: float = INF
    groups: tuple = ()

    def __post_init__(self):
        _check_window(self.start, self.end, "partition")
        canonical = tuple(tuple(int(n) for n in group) for group in self.groups)
        object.__setattr__(self, "groups", canonical)
        if not canonical:
            raise ValueError("partition needs at least one node group")
        seen: set[int] = set()
        for group in canonical:
            if not group:
                raise ValueError("partition groups must be non-empty")
            for node in group:
                if node < 0:
                    raise ValueError("partition groups need non-negative node ids")
                if node in seen:
                    raise ValueError(
                        f"partition groups must be disjoint: node {node} "
                        "appears twice"
                    )
                seen.add(node)

    def side_of(self, node: int) -> int:
        """Index of the explicit group holding ``node``; -1 for the
        implicit rest group."""
        for i, group in enumerate(self.groups):
            if node in group:
                return i
        return -1

    def severs(self, now: float, src_node: int, dst_node: int) -> bool:
        """True when this cut is active and ``src -> dst`` crosses it."""
        if not (self.start <= now < self.end):
            return False
        if src_node < 0 or dst_node < 0:
            return False  # client links are out of scope
        return self.side_of(src_node) != self.side_of(dst_node)


@dataclass(frozen=True)
class FaultSchedule:
    """Everything that goes wrong during one run, as replayable data.

    An empty schedule (the default) is inert: ``enabled`` is False and the
    engine installs no fault machinery, so outputs stay bit-identical to a
    run without any schedule at all.
    """

    crashes: tuple = ()
    losses: tuple = ()
    delay_spikes: tuple = ()
    partitions: tuple = ()

    def __post_init__(self):
        # accept any iterable, store canonical tuples (dataclass is frozen)
        object.__setattr__(self, "crashes", tuple(self.crashes))
        object.__setattr__(self, "losses", tuple(self.losses))
        object.__setattr__(self, "delay_spikes", tuple(self.delay_spikes))
        object.__setattr__(self, "partitions", tuple(self.partitions))
        for crash in self.crashes:
            if not isinstance(crash, CrashWindow):
                raise TypeError(f"expected CrashWindow, got {type(crash).__name__}")
        for loss in self.losses:
            if not isinstance(loss, ChannelLoss):
                raise TypeError(f"expected ChannelLoss, got {type(loss).__name__}")
        for spike in self.delay_spikes:
            if not isinstance(spike, DelaySpike):
                raise TypeError(f"expected DelaySpike, got {type(spike).__name__}")
        for part in self.partitions:
            if not isinstance(part, Partition):
                raise TypeError(f"expected Partition, got {type(part).__name__}")
        overlapping: dict[int, list[CrashWindow]] = {}
        for crash in self.crashes:
            for other in overlapping.setdefault(crash.node, []):
                if crash.start < other.end and other.start < crash.end:
                    raise ValueError(
                        f"overlapping crash windows for node {crash.node}"
                    )
            overlapping[crash.node].append(crash)

    @property
    def enabled(self) -> bool:
        """True when the schedule injects anything at all."""
        return bool(self.crashes or self.losses or self.delay_spikes
                    or self.partitions)

    @property
    def has_partitions(self) -> bool:
        return bool(self.partitions)

    def describe(self) -> dict:
        """JSON-renderable summary of every fault window (``repro faults
        --describe``)."""
        return {
            "enabled": self.enabled,
            "crashes": [
                {"node": c.node, "start": c.start,
                 "end": None if c.end == INF else c.end}
                for c in self.crashes
            ],
            "losses": [
                {"rate": loss.rate, "scope": loss.scope, "start": loss.start,
                 "end": None if loss.end == INF else loss.end}
                for loss in self.losses
            ],
            "delay_spikes": [
                {"start": s.start, "end": None if s.end == INF else s.end,
                 "factor": s.factor, "extra": s.extra}
                for s in self.delay_spikes
            ],
            "partitions": [
                {"start": p.start, "end": None if p.end == INF else p.end,
                 "groups": [list(g) for g in p.groups]}
                for p in self.partitions
            ],
        }

    def validate_cluster(self, node_count: int) -> None:
        """Reject schedules that reference nodes the cluster doesn't have,
        or that at some instant leave no node standing."""
        for crash in self.crashes:
            if crash.node >= node_count:
                raise ValueError(
                    f"crash window targets node {crash.node} but the cluster "
                    f"has {node_count} nodes"
                )
        for part in self.partitions:
            for group in part.groups:
                for node in group:
                    if node >= node_count:
                        raise ValueError(
                            f"partition group references node {node} but the "
                            f"cluster has {node_count} nodes"
                        )
        boundaries = sorted(
            {c.start for c in self.crashes} | {c.end for c in self.crashes if c.end < INF}
        )
        for t in boundaries:
            down = {c.node for c in self.crashes if c.start <= t < c.end}
            if len(down) >= node_count:
                raise ValueError(
                    f"fault schedule takes every node down at t={t}; at least "
                    "one node must survive for fail-over"
                )


class FaultInjector:
    """One run's binding of a :class:`FaultSchedule` to clock and RNG.

    Point-query interface consumed by the transport and the reliable
    delivery layer.  Draws happen in kernel event order, so a seeded run
    replays its fault pattern exactly.
    """

    __slots__ = ("schedule", "_rng", "_clock", "loss_drops", "ack_drops")

    def __init__(self, schedule: FaultSchedule, rng, clock):
        self.schedule = schedule
        self._rng = rng
        self._clock = clock
        #: data transmissions dropped by the loss models
        self.loss_drops = 0
        #: acknowledgements dropped by the loss models
        self.ack_drops = 0

    # -- channel queries ----------------------------------------------------

    def severs(self, src_node: int, dst_node: int) -> bool:
        """True when an active partition cuts the ``src -> dst`` link now.

        Pure point query — no RNG draw — so partition checks never shift
        the loss randomness, and an empty partition list is
        exactly as inert as no partition support at all.
        """
        now = self._clock()
        for part in self.schedule.partitions:
            if part.severs(now, src_node, dst_node):
                return True
        return False

    def _loss_rate(self, now: float, src_node: int, dst_node: int) -> float:
        rate = 0.0
        for loss in self.schedule.losses:
            if loss.applies(now, src_node, dst_node):
                # independent loss processes compose: survive all to survive
                rate = 1.0 - (1.0 - rate) * (1.0 - loss.rate)
        return rate

    def drops_message(self, src_node: int, dst_node: int) -> bool:
        """Draw the fate of one data transmission starting now."""
        rate = self._loss_rate(self._clock(), src_node, dst_node)
        if rate > 0.0 and self._rng.random() < rate:
            self.loss_drops += 1
            return True
        return False

    def drops_ack(self, src_node: int, dst_node: int) -> bool:
        """Draw the fate of one acknowledgement transmission starting now."""
        rate = self._loss_rate(self._clock(), src_node, dst_node)
        if rate > 0.0 and self._rng.random() < rate:
            self.ack_drops += 1
            return True
        return False

    def inflate_transit(self, transit: float) -> float:
        """Apply any active delay spike to a sampled transit delay."""
        now = self._clock()
        for spike in self.schedule.delay_spikes:
            if spike.start <= now < spike.end:
                transit = transit * spike.factor + spike.extra
        return transit


@dataclass
class FaultTimeline:
    """Mutable per-run log of injected faults and recovery milestones.

    Filled in by the recovery layer; rendered by ``repro faults`` and the
    ``ext_faults`` experiment."""

    events: list = field(default_factory=list)

    def record(self, time: float, kind: str, detail: str) -> None:
        self.events.append((time, kind, detail))
