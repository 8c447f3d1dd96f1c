"""Transport layer: message delivery, emission routing, and RC replies.

Everything that moves a message between operators lives here, behind the
channel-table interface of :mod:`repro.sim.network`: per-channel FIFO
delivery (§4.3), constant local/remote transit, ingestion from external
clients, key-partitioned emission routing with progress heartbeats, and
the RC-carrying acknowledgements that flow back upstream (Fig. 5a steps
5-6).  Keeping delivery semantics in one place is what lets future failure
models (loss, partitions) hook in without touching the node dispatch loop.

The transport also owns the wiring-time caches that depend on placement
(route links, reply routes, the ingest fast path) and rebuilds them when
the lifecycle controller migrates an operator to a different node.
"""

from __future__ import annotations

from itertools import count
from typing import Optional

import numpy as np

from repro.core.context import PriorityContext
from repro.core.converter import ContextConverter
from repro.dataflow.events import EventBatch
from repro.dataflow.messages import Message
from repro.dataflow.operators import Emission
from repro.runtime.topology import OperatorRuntime, client_key
from repro.runtime.workers import Worker


class IngestRoute:
    """What admitting one client's batches to its source needs, resolved
    once per source rather than per batch.  ``channel`` and ``transit``
    are the sim's wire (None on mp, where a worker replays its sources
    into its own mailboxes).  A client converter exists only when
    contexts are enabled."""

    __slots__ = ("src_rt", "key", "converter", "channel_index", "stage_name",
                 "window", "source_index", "ingestion_time", "channel", "transit")

    def __init__(self, src_rt: OperatorRuntime, key: tuple,
                 converter: Optional[ContextConverter]):
        self.src_rt = src_rt
        self.key = key
        self.converter = converter
        self.channel_index = src_rt.channel_index_of(key)
        self.stage_name = src_rt.stage_name
        self.window = src_rt.stage.window
        self.source_index = src_rt.address.index
        self.ingestion_time = src_rt.job.time_domain == "ingestion"
        self.channel = None
        self.transit = None


class Transport:
    """Routes messages across the channel table of a simulated cluster."""

    __slots__ = (
        "channels",
        "sim",
        "metrics",
        "_nodes",
        "_ops",
        "_client_converters",
        "_builder",
        "_delay_model",
        "_contexts",
        "_profiler",
        "_capacity",
        "_ingest_cache",
        "_sources",
        "_reliable",
        "_tracer",
        "_bandwidth",
        "_msg_ids",
    )

    def __init__(
        self,
        sim,
        nodes: list,
        plan,
        channels,
        delay_model,
        metrics,
        profiler,
        config,
        builder,
        first_id: int = 0,
    ):
        self.sim = sim
        self.channels = channels
        self.metrics = metrics
        self._nodes = nodes
        self._ops = plan.ops
        self._client_converters = plan.client_converters
        self._builder = builder
        self._delay_model = delay_model
        self._contexts = config.contexts_enabled
        self._profiler = profiler
        self._capacity = config.source_mailbox_capacity
        #: client key -> IngestRoute, resolved at the key's first batch
        self._ingest_cache: dict[tuple, IngestRoute] = {}
        #: client key -> runtime of the source operator it feeds
        self._sources = {
            client_key(address.job, address.stage, address.index): op_rt
            for address, op_rt in self._ops.items()
            if op_rt.is_source
        }
        self._reliable = None
        self._tracer = None
        self._bandwidth = None
        #: ``msg_id`` of every message this transport mints, from ``first_id``
        self._msg_ids = count(first_id)

    def attach_bandwidth(self, bandwidth) -> None:
        """Install the shared-link model (``link_capacity`` runs only).

        Cross-node sends then pay a serialization time on the source
        node's contended uplink on top of the propagation delay.  When
        the reliable layer is installed it charges bandwidth itself (per
        wire attempt, so retransmissions contend too)."""
        self._bandwidth = bandwidth

    def attach_tracer(self, tracer) -> None:
        """Install the span recorder (``record_trace`` runs only).

        Stays None otherwise, so the send/deliver hot paths keep a single
        dead ``is not None`` branch — the same idiom as ``_reliable``."""
        self._tracer = tracer

    def attach_reliable(self, reliable) -> None:
        """Install the reliable-delivery layer (fault-schedule runs only).

        When installed, every data send is routed through ack/retransmit
        channels (see :mod:`repro.runtime.recovery`); :meth:`deliver` stays
        the admission body the reliable layer calls back into.  Fault-free
        runs never install it, keeping the original fire-and-forget path
        bit-identical."""
        self._reliable = reliable

    # ------------------------------------------------------------------
    # ingestion (client -> source operator)
    # ------------------------------------------------------------------

    def ingest(
        self,
        job_name: str,
        stage_name: str,
        source_index: int,
        logical_times,
        values=None,
        keys=None,
        sorted_times: bool = False,
    ) -> None:
        """Deliver a batch of external events to a source operator.

        For event-time jobs the given logical times are kept; for
        ingestion-time jobs the logical time of every event is the arrival
        instant (§4.3).  ``sorted_times`` asserts the given logical times
        are non-decreasing, enabling endpoint min/max on the hot path.
        """
        now = self.sim.now
        key = client_key(job_name, stage_name, source_index)
        route = self._ingest_cache.get(key) or self._ingest_route(key)
        msg = self._source_message(
            route, now, now, logical_times, values, keys, sorted_times
        )
        src_rt = route.src_rt
        if self._reliable is not None:
            self._reliable.send(None, src_rt, route.channel, msg)
            return
        arrival = route.channel.deliver_time(now, route.transit)
        self.sim.schedule_at_fast(arrival, self.deliver, src_rt, msg, None)

    def _ingest_route(self, key: tuple) -> IngestRoute:
        """Resolve (and cache until the source moves) the route of the
        client ``key``, with its channel and transit."""
        src_rt = self._sources[key]
        route = IngestRoute(src_rt, key, self._client_converters.get(key))
        route.channel = self.channels.channel(key, src_rt.address)
        # clients are remote machines (node id -1 never matches)
        route.transit = self._delay_model.delay(-1, src_rt.node_id)
        self._ingest_cache[key] = route
        return route

    def _source_message(self, route: IngestRoute, now: float, logical_now: float,
                        logical_times, values, keys, sorted_times: bool) -> Message:
        """The message one client batch becomes at its source, counted as
        ingested and (when tracing) sent.  ``logical_now`` stamps the
        events of an ingestion-time job: the arrival instant on sim, the
        replayed trace time on mp."""
        src_rt = route.src_rt
        count = len(logical_times)
        if route.ingestion_time:
            logical_times = np.full(count, logical_now)
            sorted_times = True  # constant logical times
        batch = EventBatch(
            logical_times, values, keys, arrival_time=now,
            source_id=route.source_index, times_sorted=sorted_times,
        )
        progress = batch.max_logical_time
        pc = None
        converter = route.converter
        if converter is not None:
            pc = converter.build(
                p=progress, t=now, now=now, target_stage=route.stage_name,
                target_window=route.window, tuple_count=count, at_source=True,
            )
        msg = Message(
            target=src_rt.address, batch=batch, p=progress, t=now,
            deps_arrival=now, sender=route.key, pc=pc,
            channel_index=route.channel_index, msg_id=next(self._msg_ids),
        )
        src_rt.job_metrics.tuples_ingested += count
        if self._tracer is not None:
            self._tracer.on_send(msg, -1, now)  # ingested root: no parent
        return msg

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------

    def deliver(
        self, op_rt: OperatorRuntime, msg: Message, producer: Optional[Worker]
    ) -> None:
        # one clock read: on a wall clock ``enqueue_time`` and the span's
        # admission must be the same instant (wait = started - admitted)
        now = self.sim.now
        if op_rt.is_source:
            capacity = self._capacity
            if capacity is not None and (
                op_rt.blocked or len(op_rt.mailbox) >= capacity
            ):
                # ingestion back-pressure: hold the message in arrival order
                # until the source's mailbox drains below capacity
                op_rt.blocked.append(msg)
                op_rt.job_metrics.backpressure_events += 1
                return
            msg.enqueue_time = now
            op_rt.mailbox.push(msg)
            job_metrics = op_rt.job_metrics
            size = len(op_rt.mailbox)
            if size > job_metrics.max_source_mailbox:
                job_metrics.max_source_mailbox = size
        else:
            msg.enqueue_time = now
            op_rt.mailbox.push(msg)
        if self._tracer is not None:
            # mailbox admission (back-pressured messages are admitted later,
            # when the dispatch loop releases them below capacity)
            self._tracer.on_admit(msg, now)
        node = self._nodes[op_rt.node_id]
        hint = None
        if producer is not None and producer.node_id == op_rt.node_id:
            hint = producer.local_id
        node.run_queue.notify(op_rt, now, hint)
        node.wake_idle_worker()

    # ------------------------------------------------------------------
    # emission routing
    # ------------------------------------------------------------------

    def route_emissions(
        self,
        src_rt: OperatorRuntime,
        trigger: Message,
        emissions: list[Emission],
        worker: Worker,
    ) -> None:
        for route in src_rt.routes:
            for emission in emissions:
                for link, part in route.fan_out(emission.batch):
                    self._send(src_rt, link, part, emission, trigger, worker)

    def _send(
        self,
        src_rt: OperatorRuntime,
        link: tuple,
        batch: EventBatch,
        emission: Emission,
        trigger: Message,
        worker: Worker,
    ) -> None:
        dst_rt, channel, channel_index, transit = link
        if len(batch) == 0 and not dst_rt.stage.is_windowed:
            # only windowed operators consume progress heartbeats
            return
        now = self.sim.now
        pc: Optional[PriorityContext] = None
        converter = src_rt.converter
        if self._contexts and converter is not None:
            pc = converter.build(
                p=emission.progress,
                t=emission.arrival,
                now=now,
                target_stage=dst_rt.stage_name,
                target_window=dst_rt.stage.window,
                tuple_count=len(batch),
                inherited=trigger.pc,
                at_source=False,
            )
        out = Message(
            target=dst_rt.address,
            batch=batch,
            p=emission.progress,
            t=emission.arrival,
            deps_arrival=emission.arrival,
            sender=src_rt.address,
            pc=pc,
            channel_index=channel_index,
            msg_id=next(self._msg_ids),
        )
        if self._tracer is not None:
            # child span: its ``sent`` equals the trigger's completion
            # instant, so causal chains telescope end to end
            self._tracer.on_send(out, trigger.msg_id, now)
        if self._reliable is not None:
            self._reliable.send(src_rt, dst_rt, channel, out)
            return
        if self._bandwidth is not None:
            transit += self._bandwidth.transfer_time(
                now, src_rt.node_id, dst_rt.node_id, len(batch),
                float("inf") if pc is None else pc.deadline,
            )
        arrival = channel.deliver_time(now, transit)
        self.sim.schedule_at_fast(arrival, self.deliver, dst_rt, out, worker)

    # ------------------------------------------------------------------
    # reply contexts
    # ------------------------------------------------------------------

    def send_reply(self, op_rt: OperatorRuntime, msg: Message) -> None:
        """PREPAREREPLY at ``op_rt`` → PROCESSCTXFROMREPLY at the sender.

        Acknowledgements carry no data and execute no operator logic, so
        they bypass the run queue; they still pay the network delay
        (Fig. 5a steps 5-6)."""
        rc = self._reply_context(op_rt, msg)
        if rc is None:
            return
        sender = msg.sender
        route = op_rt.reply_cache.get(sender)
        if route is None:
            if isinstance(sender, tuple) and sender and sender[0] == "client":
                # clients are remote machines (node id -1 never matches)
                converter, dst_node = self._client_converters.get(sender), -1
            else:
                sender_rt = self._ops[sender]
                converter, dst_node = sender_rt.converter, sender_rt.node_id
            route = (converter, self._delay_model.delay(op_rt.node_id, dst_node))
            op_rt.reply_cache[sender] = route
        converter, transit = route
        if converter is None:
            return
        self.sim.schedule_fast(transit, converter.process_reply, op_rt.stage_name, rc)

    def _reply_context(self, op_rt: OperatorRuntime, msg: Message):
        """PREPAREREPLY: the RC ``op_rt`` acknowledges ``msg`` with, or None
        when the message earns no reply.  How the RC travels back is the
        backend's (a kernel event here, an outbox entry on mp)."""
        if msg.sender is None or op_rt.converter is None:
            return None
        rc = op_rt.converter.prepare_reply(self._profiler.estimate(op_rt.address))
        rc.mailbox_size = len(op_rt.mailbox)
        enqueue_time = msg.enqueue_time
        if enqueue_time == enqueue_time:  # not NaN
            rc.queueing_delay = max(0.0, self.sim.now - enqueue_time)
        self.metrics.total_acks += 1
        if self._tracer is not None:
            self._tracer.on_reply(msg, self.sim.now)
        return rc

    # ------------------------------------------------------------------
    # reconfiguration support
    # ------------------------------------------------------------------

    def rewire(self, op_rt: OperatorRuntime) -> None:
        """Rebuild every placement-dependent cache after ``op_rt`` moved.

        Migration changes ``op_rt.node_id``, which invalidates three kinds
        of pre-resolved state: the operator's own out-links (transit is
        computed from its node), every upstream link that targets it, and
        reply routes in either direction.  Channels themselves are keyed by
        address, not node, so per-channel FIFO order survives the move —
        in-flight messages keep their already-sampled transit (they were
        on the wire when the operator moved) and deliver to the operator's
        new mailbox on arrival.
        """
        address = op_rt.address
        self._builder.resolve_links(op_rt)
        op_rt.reply_cache.clear()
        for other in self._ops.values():
            if other is op_rt:
                continue
            other.reply_cache.pop(address, None)
            for route in other.routes:
                if any(link[0] is op_rt for link in route.links):
                    self._builder.resolve_links(other)
                    break
        # source migration: the ingest fast path caches a transit computed
        # from the old placement (clients are always remote, so the value
        # is unchanged today — dropped anyway so the invariant is "caches
        # never outlive the placement they were computed from")
        self._ingest_cache.pop(
            client_key(address.job, address.stage, address.index), None
        )
