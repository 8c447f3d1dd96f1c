"""ProcessTransport: the transport of one worker process.

A :class:`~repro.runtime.transport.Transport` on the worker's wall clock:
emission routing, context construction, mailbox admission and RC
preparation are the inherited code.  What is the pipe's lives here.  The
transport is its own delivery layer behind the inherited ``_reliable``
hook: local destinations are delivered by direct function call
(in-process order *is* per-channel FIFO), remote destinations go through
the channel driver's wall-clock port (:class:`~repro.runtime.mp.reliable.
MpReliableDelivery`, which also admits what arrives through
:meth:`deliver`).  Its ``transmit`` — first sends and go-back-N replays
alike — appends to per-destination **outboxes** that :meth:`flush`
encodes, with the coalesced acks, as one ``DATA`` frame per destination
per dispatch quantum — the amortized batching that keeps the hot send path at one
write per quantum instead of one per message.  A frame goes onto the
peer's :class:`~repro.runtime.mp.frames.PipeEnd` only once the previous
one has left it, so at most one frame per peer waits on a full pipe; the
worker loop writes it and holds dispatch until it has.

Loss windows of the config's fault schedule act here, receiver-side: the
worker's :class:`~repro.sim.faults.FaultInjector` draws each incoming
``DATA`` entry's fate on the link from its sender's node before the
channel protocol sees it.  Every pipe is a remote link, so a ``"local"``
loss drops nothing, and in-process ingest is never lost.

Ingestion entries carry a per-source sequence number and always arrive
from the worker's own :class:`~repro.runtime.mp.ingest.IngestDriver`
(after a fail-over, an adopted source starts past the watermark it
resumes from); the transport reports per-source processed watermarks
back in heartbeats, which is where a fail-over resumes each moved
source.

Every admission to a mailbox passes the per-channel FIFO audit, the one
run-time check of §4.3 order on this backend: a sequence number at or
below the previously admitted one on the same channel counts as a
violation (the run reports the counter; it must stay zero — in-order
admission is structural in the channel protocol's receiver half).
"""

from __future__ import annotations

from repro.dataflow.messages import Message
from repro.runtime.delivery import ReceiverHalf
from repro.runtime.topology import OperatorRuntime
from repro.runtime.transport import IngestRoute, Transport


class ProcessTransport(Transport):
    """Routes messages for one worker process of the mp backend."""

    def __init__(self, node_id: int, clock, nodes: list, plan, metrics,
                 profiler, config, delivery, faults=None):
        # no channel table, delay model or link builder: pipes carry what
        # leaves the process, and :meth:`rewire` re-places by node id
        super().__init__(clock, nodes, plan, None, None,
                         metrics, profiler, config, None)
        self._node_id = node_id
        #: the delivery layer behind the inherited hook is this transport
        #: (:meth:`send` / :meth:`on_processed`); the channel protocol of
        #: its remote half is the :class:`MpReliableDelivery` beside it
        self._reliable = self
        self._delivery = delivery
        delivery.bind(self._ops, self._outbox, self.deliver)
        #: the fault schedule's loss windows (a FaultInjector; None: no loss)
        self._faults = faults
        #: node_id -> pending wire entries (flushed as one frame each)
        self._outboxes: dict[int, list] = {}
        #: node_id -> PipeEnd of every live peer
        self._pipes: dict = {}
        #: src_key -> the source's processed ingest watermark (a channel
        #: receiver half, of which only the processed side is used)
        self._ingest_state: dict[tuple, ReceiverHalf] = {}
        #: per-channel FIFO audit: (sender, target) -> last admitted seq
        self._audit: dict[tuple, int] = {}
        self.fifo_violations = 0
        #: messages admitted to this process's mailboxes, ingest included
        #: (heartbeats carry it: the coordinator's end-of-run probe reads
        #: an unchanged count between two idle reports as no new work)
        self.admissions = 0

    def attach_pipes(self, pipes: dict) -> None:
        """Bind the peer ends (node_id -> PipeEnd, each carrying the
        ``DataCodec`` its frames are encoded with).  The dict is the
        worker's own: a peer it drops as dead is gone from here too."""
        self._pipes = pipes

    # ------------------------------------------------------------------
    # ingestion (trace replay -> source operator)
    # ------------------------------------------------------------------

    def on_ingest(self, entries: list) -> None:
        """Admit a batch of replayed ingest entries to local sources.  A
        source's first entry resolves its route and sets its watermark
        just below itself (seq 0, or the entry after the watermark an
        adopted source resumes from)."""
        routes = self._ingest_cache
        clock = self.sim
        for src_key, seq, trace_time, times, values, keys, sorted_times in entries:
            route = routes.get(src_key)
            if route is None:
                route = self._ingest_route(src_key)
                state = self._ingest_state[src_key] = ReceiverHalf()
                state.reset(seq)
            # determinism choice (see docs): the *logical* clock of an
            # ingestion-time job is the replayed trace time, so window
            # contents are bit-identical to the sim backend; the *physical*
            # anchor (t / arrival) is the wall clock, so latencies are real
            msg = self._source_message(
                route, clock.now, trace_time, times, values, keys, sorted_times
            )
            msg.seq = seq
            self.deliver(route.src_rt, msg)

    def admission_priority(self, src_key: tuple, now: float) -> float | None:
        """The ``pri_global`` a batch of ``src_key`` admitted at ``now``
        would carry (None without contexts), computed without building it."""
        converter = self._client_converters.get(src_key)
        if converter is None:
            return None
        return converter.admission_priority(now, self._sources[src_key].stage_name)

    def _ingest_route(self, key: tuple) -> IngestRoute:
        """The route of the client ``key``, without a wire: the source is
        in this process, and the channel protocol covers only pipes."""
        route = IngestRoute(self._sources[key], key, self._client_converters.get(key))
        self._ingest_cache[key] = route
        return route

    def on_processed(self, op_rt: OperatorRuntime, msg: Message) -> None:
        """Final disposition of a message (executed or shed): advance the
        source's contiguous-processed ingest watermark, or ack the remote
        channel the message arrived on (local edges carry no seq)."""
        if not op_rt.is_source:
            if msg.seq != -1:
                self._delivery.on_processed(op_rt, msg)
            return
        state = self._ingest_state.get(msg.sender)
        if state is not None:
            state.on_processed(msg.seq)

    def ingest_acks(self) -> dict:
        """src_key -> contiguous processed ingest watermark (heartbeats)."""
        return {key: state.watermark for key, state in self._ingest_state.items()}

    # ------------------------------------------------------------------
    # delivery
    # ------------------------------------------------------------------

    def deliver(self, op_rt: OperatorRuntime, msg: Message, producer=None) -> None:
        self.admissions += 1
        if msg.seq != -1:
            channel = (msg.sender, msg.target)
            last = self._audit.get(channel, -1)
            if msg.seq <= last:
                self.fifo_violations += 1
            self._audit[channel] = msg.seq
        Transport.deliver(self, op_rt, msg, producer)

    def on_entries(self, entries: list) -> None:
        """Handle one incoming ``DATA`` frame's entries."""
        reliable = self._delivery
        faults = self._faults
        for entry in entries:
            tag = entry[0]
            if tag == "msg":
                # loss injection: the entry's fate on the link from its
                # sender's node, drawn before the receiver half sees it
                if faults is not None and faults.drops_message(
                        self._ops[entry[1].sender].node_id, self._node_id):
                    self.metrics.messages_lost_network += 1
                    continue
                reliable.on_data(entry[1])
            elif tag == "ack":
                reliable.on_ack(entry[1], entry[2], entry[3])
            elif tag == "reply":
                _, sender, replier_stage, rc = entry
                converter = self._ops[sender].converter
                if converter is not None:
                    converter.process_reply(replier_stage, rc)
            elif tag == "reset":
                _, key, base_seq = entry
                reliable.install_reset(key, base_seq)
                self._audit.pop(key, None)

    # ------------------------------------------------------------------
    # delivery layer (behind the inherited ``_reliable`` hook)
    # ------------------------------------------------------------------

    def send(self, src_rt, dst_rt: OperatorRuntime, channel, msg: Message) -> None:
        if dst_rt.node_id == self._node_id:
            # in-process call order preserves per-channel FIFO directly
            self.deliver(dst_rt, msg)
            return
        self._delivery.send(msg)  # onto the destination node's outbox

    def outstanding_total(self, src_node: int) -> int:
        """The sampler's unacked-sends reading: every sender channel of
        this process sends from its one node."""
        return self._delivery.outstanding_total()

    # ------------------------------------------------------------------
    # reply contexts
    # ------------------------------------------------------------------

    def send_reply(self, op_rt: OperatorRuntime, msg: Message) -> None:
        """PREPAREREPLY at ``op_rt`` → PROCESSCTXFROMREPLY at the sender."""
        rc = self._reply_context(op_rt, msg)
        if rc is None:
            return
        sender = msg.sender
        if isinstance(sender, tuple) and sender and sender[0] == "client":
            # the client converter that built this source's PCs lives in
            # this very process (it moves with the source on fail-over)
            converter = self._client_converters.get(sender)
            if converter is not None:
                converter.process_reply(op_rt.stage_name, rc)
            return
        sender_rt = self._ops[sender]
        if sender_rt.node_id == self._node_id:
            if sender_rt.converter is not None:
                sender_rt.converter.process_reply(op_rt.stage_name, rc)
            return
        self._outbox(sender_rt.node_id).append(("reply", sender, op_rt.stage_name, rc))

    # ------------------------------------------------------------------
    # outboxes
    # ------------------------------------------------------------------

    def _outbox(self, node_id: int) -> list:
        outbox = self._outboxes.get(node_id)
        if outbox is None:
            outbox = []
            self._outboxes[node_id] = outbox
        return outbox

    def flush(self) -> None:
        """Encode pending entries: one ``DATA`` frame per destination whose
        pipe has sent its previous frame (the others keep their entries).

        Cumulative acks are coalesced per channel and piggybacked on the
        same frame as data heading to the channel's sender."""
        for key, admitted, processed in self._delivery.drain_acks():
            sender = key[0]
            if isinstance(sender, tuple) and sender and sender[0] == "client":
                continue  # client acks travel in heartbeats
            self._outbox(self._ops[sender].node_id).append(
                ("ack", key, admitted, processed)
            )
        for node_id, entries in self._outboxes.items():
            if not entries:
                continue
            pipe = self._pipes.get(node_id)
            if pipe is None:
                # the peer died: drop the entries — every message among
                # them sits in a go-back-N send buffer and replays to the
                # survivor once the coordinator's REWIRE lands; acks for a
                # dead sender have no one left to care
                self._outboxes[node_id] = []
            elif not pipe.unsent:
                pipe.queue(pipe.codec.encode_data(entries))
                self._outboxes[node_id] = []

    def pending_output(self) -> bool:
        """Entries not yet encoded, or frame bytes not yet sent."""
        return (any(self._outboxes.values())
                or any(pipe.unsent for pipe in self._pipes.values()))

    # ------------------------------------------------------------------
    # reconfiguration (fail-over)
    # ------------------------------------------------------------------

    def rewire(self, mapping: dict) -> None:
        """Apply a coordinator-announced re-placement after a failure.

        Updates the local placement view, re-incarnates sender channels
        into moved operators (reset + replay from the processed
        watermark), and forgets receiver state of channels whose sender
        was reborn elsewhere (the new incarnation restarts its sequence
        space)."""
        moved = set(mapping)
        for address, node_id in mapping.items():
            self._ops[address].node_id = node_id
        reliable = self._delivery
        for key in reliable.sender_channels_to(moved):
            reset = reliable.reset_sender(key)
            if reset is None:
                continue
            base_seq, replays = reset
            self._audit.pop(key, None)
            new_node = self._ops[key[1]].node_id
            if new_node == self._node_id:
                # the receiver was reborn on *this* node: the channel
                # collapsed to a local edge, which needs no acks — deliver
                # the unprocessed suffix directly and drop the channel
                for msg in replays:
                    self.deliver(self._ops[msg.target], msg)
                reliable.forget_sender(key)
                continue
            outbox = self._outbox(new_node)
            outbox.append(("reset", key, base_seq))
            for msg in replays:
                outbox.append(("msg", msg))
        reliable.drop_receivers_from(moved)
        for key in [k for k in self._audit if k[0] in moved or k[1] in moved]:
            del self._audit[key]
