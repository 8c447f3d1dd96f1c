"""Recovery layer: reliable channels, failure detection, crash fail-over.

This module turns the fault *model* of :mod:`repro.sim.faults` into a
*survivable* runtime.  Three collaborators, all deterministic (every step
runs at a simulation instant through the kernel's ordinary scheduling
primitives, and all randomness comes from the injector's named stream):

* :class:`ReliableDelivery` — the kernel-timed port of the one channel
  driver in :mod:`repro.runtime.delivery` (go-back-N with in-order
  admission: the per-channel FIFO guarantee the PROGRESSMAP regression
  depends on, §4.3).  The protocol and its driver live there, once, for
  both backends; this class supplies the lossy simulated network under
  it (transmit, ack, kernel timers) and the crash and checkpoint hooks.
* :class:`FailureDetector` — heartbeat-based: every node deposits a
  heartbeat each ``interval`` into the membership view of every peer
  that can hear it; a monitor sweep declares a node failed after
  ``timeout`` seconds of silence and notices it again once heartbeats
  resume.  Where a cut can happen and ``partition_failover="quorum"``,
  declarations are quorum-gated and minority nodes fence themselves.
* :class:`RecoveryManager` — executes the schedule's crash/restart
  events (fail-stop: mailboxes, back-pressure queues and in-flight
  executions on the node are lost) and drives fail-over on detection:
  every operator of the dead node respawns on a surviving node via
  :meth:`OperatorLifecycle.migrate` (mailbox empty — its contents died
  with the node) and upstream retransmit buffers replay everything not
  yet *processed*, rebuilding the lost state.

Fault model honesty: acknowledgements fire on *processing completion*,
not delivery, so a crash never silently drops a message that had merely
reached a mailbox.  Operator *state* loss is governed by
``EngineConfig.state_recovery``: the default ``"none"`` keeps the legacy
semantics (windowed aggregation state survives via the migration path —
the classic upstream-backup assumption, bit-identical to earlier
revisions), ``"replay"`` models honest loss (failed operators restart
pristine and senders replay from sequence 0, so retransmit buffers never
truncate), and ``"checkpoint"`` adds the :class:`CheckpointManager`:
periodic snapshots of every operator's :class:`~repro.state.store.
KeyedStateStore` plus its per-channel delivery frontier, restore from
the last snapshot on fail-over, replay only of messages after it, and
retransmit-buffer truncation at the checkpoint watermark.  A checkpoint
records the receiver's out-of-order ``processed`` set alongside the
watermark because the snapshot state already contains those messages'
effects — rollback restores the set so replay never double-applies them.
Re-emissions after a restore reuse the original sequence numbers when the
operator's emission order is replay-deterministic (windowed operators
emit one message per completed window in window-end order; single-input
operators replay in channel order), so downstream duplicate-drops give
exactly-once state recovery; multi-input pass-through operators fall
back to fresh sequences (at-least-once).
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.dataflow.messages import Message
from repro.runtime.config import FAILURE_TIMEOUT, HEARTBEAT_INTERVAL
from repro.runtime.delivery import Channel, ReliableDriver
from repro.runtime.topology import OperatorRuntime, _format_address

INF = float("inf")


class ReliableDelivery(ReliableDriver):
    """The kernel-timed port of the channel driver (:mod:`.delivery`).

    Everything here is simulation: loss, partition and bandwidth draws,
    the ``FifoChannel`` clamp, retransmit timers and acks as kernel events.
    Installed only when the run has a non-empty fault schedule; without it
    the transport keeps its fire-and-forget delivery, so zero-fault runs
    stay bit-identical.
    """

    def __init__(self, sim, metrics, injector, delay_model,
                 node_down: Callable[[int], bool],
                 rto: float, rto_cap: float):
        super().__init__(sim, metrics, rto, rto_cap)
        self._sim = sim
        self._injector = injector
        self._delay_model = delay_model
        self._node_down = node_down
        self._bandwidth = None

    def attach_bandwidth(self, bandwidth) -> None:
        """Install the shared-link model (``link_capacity`` runs only)."""
        self._bandwidth = bandwidth

    def enable_state_retention(self) -> None:
        """Switch buffer release to checkpoint-stability gating.

        Called once at wiring time when ``state_recovery != "none"``:
        processed messages stay in retransmit buffers until a checkpoint
        of the receiver covers them (``mark_stable``), so a restore can
        always replay the suffix after its checkpoint.  In ``"replay"``
        mode no checkpoint ever marks anything stable and buffers retain
        the full history — the honest upstream-backup baseline."""
        self._retain = True

    def retains_state(self) -> bool:
        """Whether buffer release is gated on checkpoint stability."""
        return self._retain

    def send(self, src_rt: Optional[OperatorRuntime], dst_rt: OperatorRuntime,
             channel, msg: Message) -> None:
        """Hand one freshly-built message to the reliable channel
        (``src_rt`` None: an ingestion client; ``channel``: the hop's
        ``FifoChannel`` order clamp)."""
        key = (msg.sender, dst_rt.address)
        ch = self._channels.get(key)
        if ch is None:
            ch = self._open(key, src_rt, dst_rt, channel)
        self._send(ch, msg)

    # -- the port ------------------------------------------------------

    def transmit(self, ch: Channel, msg: Message) -> None:
        """One attempt to push ``msg`` over the simulated wire."""
        sim = self._sim
        src_node, dst_node = ch.src_node, ch.dst_rt.node_id
        if self._injector.severs(src_node, dst_node):
            # partition: there is no wire — the frame vanishes before any
            # loss draw, so the RNG stream is untouched by the cut
            self._metrics.messages_dropped_partition += 1
            return
        transit = self._injector.inflate_transit(
            self._delay_model.delay(src_node, dst_node)
        )
        if self._injector.drops_message(src_node, dst_node):
            self._metrics.messages_lost_network += 1
            return
        if self._bandwidth is not None:
            pc = msg.pc
            transit += self._bandwidth.transfer_time(
                sim.now, src_node, dst_node, msg.tuple_count,
                INF if pc is None else pc.deadline,
            )
        arrival = ch.link.deliver_time(sim.now, transit)
        sim.schedule_at_fast(arrival, self._arrive, ch, msg)

    def _arrive(self, ch: Channel, msg: Message) -> None:
        if self._node_down(ch.dst_rt.node_id):
            # fail-stop target: the transmission evaporates, no ack — the
            # sender's timer keeps the message alive until fail-over
            self._metrics.messages_dropped_down += 1
            return
        self._receive(ch, msg)

    def ack(self, ch: Channel) -> None:
        """Cumulative (admitted, processed) ack back to the sender, as a
        kernel event after the reverse hop's delay (it may be lost)."""
        src_node, dst_node = ch.src_node, ch.dst_rt.node_id
        if self._injector.severs(dst_node, src_node):
            self._metrics.acks_dropped_partition += 1
            return
        if self._injector.drops_ack(dst_node, src_node):
            self._metrics.acks_lost += 1
            return
        delay = self._injector.inflate_transit(
            self._delay_model.delay(dst_node, src_node)
        )
        admitted, processed = ch.receiver.cumulative_ack()
        self._sim.schedule_fast(delay, self._on_ack, ch, admitted, processed)

    def arm(self, ch: Channel) -> None:
        """The timer is a kernel event under the generation it was armed in."""
        sender = ch.sender
        self._sim.schedule_fast(sender.rto, self.on_timer, ch, sender.generation)

    # ------------------------------------------------------------------
    # crash hooks (driven by the RecoveryManager)
    # ------------------------------------------------------------------

    def on_node_crash(self, node_id: int) -> None:
        """Roll receivers of channels into ``node_id`` back to their
        processed watermark: admitted-but-unprocessed messages died with
        the node's mailboxes and must be re-admitted on replay."""
        for ch in self._channels.values():
            if ch.dst_rt.node_id == node_id:
                receiver = ch.receiver
                receiver.reset(receiver.watermark + 1, receiver.processed)

    def on_failover(self, op_rt: OperatorRuntime) -> None:
        """The cluster announced ``op_rt``'s old node dead: senders roll
        back to the receiver's processed watermark (the announcement
        carries it) and retransmit toward the operator's new home."""
        for _sender, ch in self.channels_into(op_rt):
            ch.sender.rollback(ch.receiver.watermark)
            self._arm(ch)

    # ------------------------------------------------------------------
    # checkpoint support (driven by the CheckpointManager)
    # ------------------------------------------------------------------

    def channels_into(self, op_rt: OperatorRuntime):
        """Yield ``(sender_key, channel)`` for every channel into ``op_rt``."""
        for (sender, _dst), ch in self._channels.items():
            if ch.dst_rt is op_rt:
                yield sender, ch

    def channels_from(self, op_rt: OperatorRuntime):
        """Yield ``(dst_address, channel)`` for every channel out of ``op_rt``."""
        for (_sender, dst), ch in self._channels.items():
            if ch.src_rt is op_rt:
                yield dst, ch

    def mark_stable(self, op_rt: OperatorRuntime) -> None:
        """A checkpoint of ``op_rt`` just covered all effects through its
        receivers' watermarks: retained buffers may truncate up to them."""
        for _sender, ch in self.channels_into(op_rt):
            self._unacked_count -= ch.sender.mark_stable(ch.receiver.watermark)

    def rollback_receiver(self, op_rt: OperatorRuntime, ckpt_channels: dict) -> int:
        """Roll every channel into ``op_rt`` back to its checkpoint frontier.

        ``ckpt_channels`` maps sender key to ``(watermark, processed_set)``
        as recorded at checkpoint time (channels absent from the map roll
        back to pristine).  The senders roll back too: the fail-over
        announcement carries the roll-back to them.  Returns the number of
        processed messages whose effects were lost and must be replayed."""
        replayed = 0
        for sender, ch in self.channels_into(op_rt):
            watermark, processed = ckpt_channels.get(sender, (-1, frozenset()))
            receiver = ch.receiver
            replayed += receiver.watermark - watermark
            replayed += len(receiver.processed) - len(processed)
            # the processed set is restored because the snapshot state
            # already contains those messages' effects — replay skips them
            receiver.reset(watermark + 1, processed)
            ch.sender.rollback_processed(watermark)
            self._arm(ch)
        return replayed

    def rollback_sender_seqs(self, op_rt: OperatorRuntime, out_seqs: dict) -> None:
        """Roll ``op_rt``'s outgoing sequence counters back to checkpoint.

        Only called for operators whose emission order is replay-
        deterministic: re-emissions after the restore then reuse the
        original sequence numbers, downstream receivers drop the ones they
        already processed, and recovery is exactly-once.  Stale buffered
        copies of the rolled-back range are dropped — the re-emission
        supersedes them."""
        for dst, ch in self.channels_from(op_rt):
            self._unacked_count -= ch.sender.rewind(out_seqs.get(dst, 0))


class _OperatorCheckpoint:
    """One operator's durable snapshot: state bytes plus the delivery
    frontier the state is consistent with.

    ``channels`` maps each incoming sender key to ``(watermark,
    processed_set)``; ``out_seqs`` maps each outgoing destination address
    to the channel's ``next_seq`` so a replay-deterministic operator can
    re-emit under the original sequence numbers."""

    __slots__ = ("time", "state", "channels", "out_seqs")

    def __init__(self, time: float, state: bytes, channels: dict, out_seqs: dict):
        self.time = time
        self.state = state
        self.channels = channels
        self.out_seqs = out_seqs


class CheckpointManager:
    """Periodic asynchronous operator-state snapshots and crash restore.

    Installed only when ``state_recovery != "none"`` (which itself
    requires a non-empty fault schedule).  In ``"checkpoint"`` mode every
    node runs an independent snapshot sweep on a jittered interval (the
    jitter draws from the dedicated ``"checkpoints"`` RNG substream, so
    enabling checkpointing never shifts any other random stream); each
    sweep snapshots the operators currently placed on that node between
    message executions — asynchronous with respect to the rest of the
    cluster, atomic with respect to the operator (the simulation executes
    a message's state mutation and its processed-ack at one instant).  In
    ``"replay"`` mode no sweeps run and every restore falls back to a
    pristine operator plus full replay — the upstream-backup baseline the
    experiments compare against.

    Restore (:meth:`restore`) rebuilds a lost operator from its last
    checkpoint: state bytes into the operator, receiver frontier rollback
    (watermark, out-of-order processed set, senders' go-back-N cursors)
    and — for replay-deterministic operators — outgoing sequence rollback
    so re-emissions dedupe downstream (exactly-once state recovery).
    """

    def __init__(self, sim, ops: dict, reliable: ReliableDelivery, metrics,
                 timeline, rng, interval: float, mode: str):
        self._sim = sim
        self._ops = ops
        self._reliable = reliable
        self._metrics = metrics
        self._timeline = timeline
        self._rng = rng
        self._interval = interval
        self._mode = mode
        self._checkpoints: dict = {}
        self._lost: set = set()
        reliable.enable_state_retention()

    def start(self, nodes: list) -> None:
        """Begin the per-node snapshot sweeps (``"checkpoint"`` mode only)."""
        if self._mode != "checkpoint":
            return
        for node in nodes:
            self._schedule_sweep(node)

    def _schedule_sweep(self, node) -> None:
        # jitter desynchronises the nodes' sweeps (a synchronous global
        # snapshot barrier is exactly what async checkpointing avoids)
        delay = self._interval * (1.0 + 0.1 * float(self._rng.random()))
        self._sim.schedule_fast(delay, self._sweep, node)

    def _sweep(self, node) -> None:
        if not node.down:
            count = 0
            for op_rt in self._ops.values():
                if op_rt.node_id == node.node_id and op_rt.address not in self._lost:
                    self.checkpoint_op(op_rt)
                    count += 1
            self._timeline.record(
                self._sim.now, "checkpoint",
                f"node {node.node_id}: {count} operator snapshots",
            )
        self._schedule_sweep(node)

    def checkpoint_op(self, op_rt: OperatorRuntime) -> None:
        """Snapshot one operator and truncate buffers it no longer needs."""
        state_bytes = op_rt.operator.state_snapshot()
        channels = {
            sender: (ch.receiver.watermark, frozenset(ch.receiver.processed))
            for sender, ch in self._reliable.channels_into(op_rt)
        }
        out_seqs = {dst: ch.sender.next_seq
                    for dst, ch in self._reliable.channels_from(op_rt)}
        self._checkpoints[op_rt.address] = _OperatorCheckpoint(
            self._sim.now, state_bytes, channels, out_seqs
        )
        self._metrics.checkpoints_taken += 1
        self._metrics.checkpoint_bytes += len(state_bytes)
        self._reliable.mark_stable(op_rt)

    # ------------------------------------------------------------------
    # crash / restore (driven by the RecoveryManager)
    # ------------------------------------------------------------------

    def mark_lost_node(self, node_id: int) -> None:
        """Fail-stop: the in-memory state of every operator on the node is
        gone; restores are deferred to fail-over (or restart, when the
        node comes back before detection)."""
        for op_rt in self._ops.values():
            if op_rt.node_id == node_id:
                self._lost.add(op_rt.address)

    def restore(self, op_rt: OperatorRuntime) -> bool:
        """Rebuild a lost operator from its last checkpoint (or pristine).

        Returns True when a restore happened (the operator was lost)."""
        if op_rt.address not in self._lost:
            return False
        self._lost.discard(op_rt.address)
        if op_rt.is_sink:
            # A sink's only effect is the output record it hands to the
            # runtime's recorder at processing time — an externally
            # durable write that does not die with the node.  Its
            # processed watermark therefore *is* its checkpoint: the
            # respawned instance resumes from it, and rolling the
            # frontier back would re-record outputs the outside world
            # already saw.  Unprocessed messages still re-deliver via
            # the fail-over retransmit path.
            op_rt.operator.state_restore(None)
            self._metrics.state_restores += 1
            self._timeline.record(
                self._sim.now, "restore",
                f"{_format_address(op_rt.address)} resumed at its "
                f"processed watermark (sink outputs are durable)",
            )
            return True
        ckpt = self._checkpoints.get(op_rt.address)
        op_rt.operator.state_restore(ckpt.state if ckpt is not None else None)
        replayed = self._reliable.rollback_receiver(
            op_rt, ckpt.channels if ckpt is not None else {}
        )
        if self._emission_deterministic(op_rt):
            self._reliable.rollback_sender_seqs(
                op_rt, ckpt.out_seqs if ckpt is not None else {}
            )
        self._metrics.state_restores += 1
        self._metrics.messages_replayed_recovery += replayed
        self._timeline.record(
            self._sim.now, "restore",
            f"{_format_address(op_rt.address)} restored from "
            + (f"checkpoint at {ckpt.time:.3f}s" if ckpt is not None
               else "scratch (no checkpoint)")
            + f"; {replayed} messages to replay",
        )
        return True

    def restore_on_node(self, node_id: int) -> int:
        """Restore every still-lost operator on ``node_id`` (a node that
        restarted before failure detection evacuated it)."""
        restored = 0
        for op_rt in self._ops.values():
            if op_rt.node_id == node_id and self.restore(op_rt):
                restored += 1
        return restored

    @staticmethod
    def _emission_deterministic(op_rt: OperatorRuntime) -> bool:
        """Whether replay reproduces the operator's emission sequence.

        Windowed operators emit exactly one message per completed window
        per out-link in window-end order, whatever the cross-channel
        interleaving; single-input operators replay their one channel in
        sequence order.  Multi-input pass-through operators interleave
        emissions nondeterministically and degrade to at-least-once."""
        return op_rt.stage.is_windowed or op_rt.input_channel_count <= 1

    # -- introspection -------------------------------------------------

    def describe(self) -> dict:
        """JSON-able dump for the ``repro checkpoint`` subcommand."""
        return {
            "mode": self._mode,
            "interval": self._interval,
            "operators": {
                _format_address(address): {
                    "time": ckpt.time,
                    "state_bytes": len(ckpt.state),
                    "channels": {
                        _format_address(sender): {
                            "watermark": watermark,
                            "out_of_order": len(processed),
                        }
                        for sender, (watermark, processed) in ckpt.channels.items()
                    },
                    "out_seqs": {
                        _format_address(dst): seq
                        for dst, seq in ckpt.out_seqs.items()
                    },
                }
                for address, ckpt in self._checkpoints.items()
            },
            "lost": sorted(_format_address(a) for a in self._lost),
        }


class MembershipView:
    """One node's local view of reachable peers, fed by heartbeats.

    ``last_heard[p]`` is the instant this node last received a heartbeat
    from peer ``p`` — heartbeats are carried by the same fabric as data,
    so an active partition stops them at the cut and the two sides'
    views diverge.  A node always hears itself.
    """

    __slots__ = ("node_id", "last_heard")

    def __init__(self, node_id: int, node_ids):
        self.node_id = node_id
        self.last_heard = {nid: 0.0 for nid in node_ids}

    def hear(self, peer: int, now: float) -> None:
        self.last_heard[peer] = now

    def reachable(self, now: float, timeout: float) -> set:
        """Peers heard within ``timeout`` (self included unconditionally)."""
        me = self.node_id
        return {nid for nid, last in self.last_heard.items()
                if nid == me or now - last <= timeout}

    def has_quorum(self, now: float, timeout: float, cluster_size: int) -> bool:
        """Strict majority of the *full* cluster is reachable."""
        return 2 * len(self.reachable(now, timeout)) > cluster_size


class FailureDetector:
    """Heartbeat failure detection over per-observer membership views.

    Each node owns a :class:`MembershipView`; a heartbeat deposits into an
    observer's view only when the emitter→observer link is not severed,
    so the sides of a cut stop hearing each other while intra-side views
    stay fresh.  Without a cut every live observer hears every live node
    at the same instant, the views agree, and detection latency is
    bounded by ``timeout + interval``.

    Every sweep (same cadence as the heartbeats) runs two passes in
    deterministic node-id order:

    1. **Fencing** (``quorum`` only): a live node whose view lost its
       strict majority fences itself — it stops executing and cannot be
       a fail-over target — and unfences once quorum returns.
    2. **Declarations**: an observer that times out a peer declares it
       dead; under ``quorum`` *only if the observer's own view has
       quorum* — a no-quorum observer's declaration is suppressed and
       counted.  Without the gate an observer declares on timeout alone:
       on crash-only schedules that lets the lone survivor of a double
       crash fail over, and under ``naive`` fail-over both sides of a cut
       evacuate each other, which is exactly the split-brain double-spawn
       the experiment measures.  Any observer hearing a declared-dead
       peer again revives it (heal detection).
    """

    def __init__(self, sim, nodes: list, interval: float, timeout: float,
                 injector, metrics, timeline, quorum: bool,
                 on_failure: Callable[[int], None],
                 on_alive: Optional[Callable[[int], None]] = None,
                 on_fence: Optional[Callable[[int], None]] = None,
                 on_unfence: Optional[Callable[[int], None]] = None):
        if interval <= 0 or timeout < interval:
            raise ValueError("need 0 < heartbeat interval <= timeout")
        self._sim = sim
        self._nodes = nodes
        self._interval = interval
        self._timeout = timeout
        self._injector = injector
        self._metrics = metrics
        self._timeline = timeline
        self._quorum = quorum
        self._on_failure = on_failure
        self._on_alive = on_alive
        self._on_fence = on_fence
        self._on_unfence = on_unfence
        node_ids = [node.node_id for node in nodes]
        self.views = {nid: MembershipView(nid, node_ids) for nid in node_ids}
        self.failed: set[int] = set()
        self.failures_declared = 0
        #: (observer, peer) pairs already declared; cleared on re-hearing
        self._declared: set[tuple[int, int]] = set()
        #: (observer, peer) suppressions already counted this episode
        self._suppressed: set[tuple[int, int]] = set()

    def start(self) -> None:
        for node in self._nodes:
            self._sim.schedule_fast(self._interval, self._emit, node)
        self._sim.schedule_fast(self._interval, self._sweep)

    def reset_view(self, node_id: int) -> None:
        """Refresh a restarted node's view so it does not declare the
        whole cluster dead off pre-crash staleness.  Peers already
        declared dead stay stale: refreshing one that is still down would
        revive it and declare it dead a second time."""
        now = self._sim.now
        last_heard = self.views[node_id].last_heard
        for peer in last_heard:
            if peer not in self.failed:
                last_heard[peer] = now

    def _emit(self, node) -> None:
        if not node.down:
            now = self._sim.now
            nid = node.node_id
            severs = self._injector.severs
            for view in self.views.values():
                oid = view.node_id
                if oid == nid:
                    view.hear(nid, now)
                    continue
                observer = self._nodes[oid]
                # a down observer's memory is frozen; a severed link
                # carries no heartbeat
                if not observer.down and not severs(nid, oid):
                    view.hear(nid, now)
        self._sim.schedule_fast(self._interval, self._emit, node)

    def _sweep(self) -> None:
        now = self._sim.now
        timeout = self._timeout
        cluster = len(self._nodes)
        if self._quorum:
            # pass 1: self-fencing on quorum loss (before any declaration,
            # so a majority-side takeover never races a still-executing
            # minority instance)
            for node in self._nodes:
                if node.down:
                    continue
                quorate = self.views[node.node_id].has_quorum(
                    now, timeout, cluster)
                if not quorate and not node.fenced:
                    if self._on_fence is not None:
                        self._on_fence(node.node_id)
                elif quorate and node.fenced:
                    if self._on_unfence is not None:
                        self._on_unfence(node.node_id)
        # pass 2: declarations and revivals, in node-id order
        for node in self._nodes:
            if node.down:
                continue
            oid = node.node_id
            view = self.views[oid]
            quorate = (not self._quorum) or view.has_quorum(
                now, timeout, cluster)
            last_heard = view.last_heard
            for peer in self._nodes:
                pid = peer.node_id
                if pid == oid:
                    continue
                key = (oid, pid)
                if now - last_heard[pid] <= timeout:
                    self._declared.discard(key)
                    self._suppressed.discard(key)
                    if pid in self.failed:
                        # direct evidence of life trumps any past verdict
                        self.failed.discard(pid)
                        if self._on_alive is not None:
                            self._on_alive(pid)
                    continue
                if key in self._declared:
                    continue
                if not quorate:
                    if key not in self._suppressed:
                        self._suppressed.add(key)
                        self._metrics.failovers_suppressed_no_quorum += 1
                        self._timeline.record(
                            now, "suppressed",
                            f"node {oid} (no quorum) suppressed fail-over "
                            f"of node {pid}",
                        )
                    continue
                self._declared.add(key)
                if pid not in self.failed:
                    self.failed.add(pid)
                    self.failures_declared += 1
                    self._on_failure(pid)
        self._sim.schedule_fast(self._interval, self._sweep)


class RecoveryManager:
    """Executes crash/restart events and drives fail-over on detection.

    Crash semantics are fail-stop: the node stops heartbeating and
    executing, its mailboxes / back-pressure queues / in-flight quanta are
    lost, and in-flight transmissions toward it evaporate.  On detection,
    every operator of the dead node is respawned on a surviving node
    (round-robin over ``lifecycle.evacuate``), and the reliable layer
    replays everything unprocessed.
    """

    def __init__(self, sim, nodes: list, ops: dict, lifecycle, reliable,
                 metrics, timeline, injector, tracer=None,
                 quorum: bool = False):
        self._sim = sim
        self._nodes = nodes
        self._ops = ops
        self._lifecycle = lifecycle
        self._reliable = reliable
        self._metrics = metrics
        self._timeline = timeline
        self._tracer = tracer
        self._crash_time: dict[int, float] = {}
        self._evacuated: dict[int, list[OperatorRuntime]] = {}
        self._checkpoints: Optional[CheckpointManager] = None
        #: quorum-gated fail-over with self-fencing (only when the
        #: schedule can cut the fabric and ``partition_failover="quorum"``)
        self._quorum = quorum
        #: where every operator started (the invariant checker's anchor)
        self.initial_ownership = {addr: op.node_id for addr, op in ops.items()}
        #: (time, address, from_node, to_node, reason) per completed move
        self.ownership_log: list[tuple] = []
        #: (time, node_id, "fence" | "unfence") transitions
        self.fence_log: list[tuple] = []
        self._move_reason = "migrate"
        lifecycle.on_move = self._record_move
        self.detector = FailureDetector(
            sim, nodes, HEARTBEAT_INTERVAL, FAILURE_TIMEOUT,
            injector, metrics, timeline, quorum=quorum,
            on_failure=self._on_failure, on_alive=self._on_alive,
            on_fence=self._fence, on_unfence=self._unfence,
        )

    def attach_checkpoints(self, checkpoints: CheckpointManager) -> None:
        """Install the state-recovery collaborator (``state_recovery !=
        "none"`` runs only).  Without it, crashes keep the legacy
        semantics: operator state rides along on the migration path."""
        self._checkpoints = checkpoints

    def install(self, schedule) -> None:
        """Schedule every crash/restart of the fault schedule and start
        the heartbeat machinery."""
        for crash in schedule.crashes:
            self._sim.schedule_at(crash.start, self.crash, crash.node)
            if crash.end != float("inf"):
                self._sim.schedule_at(crash.end, self.restart, crash.node)
        for part in schedule.partitions:
            # accounting only: the cut itself is a pure point query on the
            # injector, these events just mark the window in the timeline
            self._sim.schedule_at(part.start, self._partition_started, part)
            if part.end != float("inf"):
                self._sim.schedule_at(part.end, self._partition_healed, part)
        self.detector.start()

    def _record_move(self, op_rt, src_node: int, dst_node: int) -> None:
        self.ownership_log.append(
            (self._sim.now, op_rt.address, src_node, dst_node,
             self._move_reason)
        )

    def _partition_started(self, part) -> None:
        self._metrics.partitions_observed += 1
        groups = "/".join("{" + ",".join(map(str, g)) + "}"
                          for g in part.groups)
        self._timeline.record(self._sim.now, "partition",
                              f"cut opened: groups {groups} vs rest")

    def _partition_healed(self, part) -> None:
        self._metrics.partition_heals += 1
        self._timeline.record(self._sim.now, "heal",
                              "cut closed: fabric whole again")

    # ------------------------------------------------------------------
    # crash / restart (the fault side)
    # ------------------------------------------------------------------

    def crash(self, node_id: int) -> None:
        """Fail-stop ``node_id`` at the current instant."""
        node = self._nodes[node_id]
        if node.down:
            return
        now = self._sim.now
        node.down = True
        self._crash_time[node_id] = now
        self._metrics.crashes += 1
        # fail-stop is honest about memory: every operator on the node
        # loses its in-memory state (restored at fail-over or restart)
        lost = self._halt(node_id, lose_state=True)
        self._timeline.record(now, "crash", f"node {node_id} down "
                                            f"({lost} queued messages lost)")

    def _halt(self, node_id: int, lose_state: bool) -> int:
        """Stop execution on ``node_id`` as a fail-stop would: reset its
        workers (any in-flight completion event becomes stale and is
        discarded by the dispatch loop's ``current_op`` guard), drop
        queued work and roll the delivery frontier into the node back so
        replays re-admit it.  ``lose_state`` also marks its operators'
        in-memory state lost (a crash or a takeover; a fence keeps it).
        Returns the number of queued messages dropped — all of them
        survive in upstream retransmit buffers."""
        node = self._nodes[node_id]
        now = self._sim.now
        for worker in node.workers:
            if not worker.idle:
                # in-flight quantum dies with the node; the stale completion
                # event is discarded by the dispatch loop's current_op guard
                worker.idle = True
                worker.current_op = None
            worker.last_op = None
        lost = 0
        tracer = self._tracer
        for op_rt in self._ops.values():
            if op_rt.node_id != node_id:
                continue
            mailbox = op_rt.mailbox
            lost += len(mailbox) + len(op_rt.blocked)
            while len(mailbox) > 0:  # volatile memory: queued work dies
                dead = mailbox.pop()
                if tracer is not None:
                    tracer.on_lost_crash(dead, now)
            if tracer is not None:
                for dead in op_rt.blocked:
                    tracer.on_lost_crash(dead, now)
            op_rt.blocked.clear()
            node.run_queue.discard(op_rt)
        self._metrics.messages_lost_crash += lost
        # admitted-but-unprocessed work was dropped with the mailboxes:
        # roll the delivery frontier back so replays re-admit it
        self._reliable.on_node_crash(node_id)
        if lose_state and self._checkpoints is not None:
            self._checkpoints.mark_lost_node(node_id)
        return lost

    # ------------------------------------------------------------------
    # quorum fencing (``quorum`` runs only)
    # ------------------------------------------------------------------

    def _fence(self, node_id: int) -> None:
        """Self-fence a live node whose membership view lost quorum.

        The node aborts queued and in-flight work exactly like a crash —
        everything unprocessed survives upstream and will be replayed —
        but unlike a crash its memory (operator state, watermarks) stays
        intact, so a heal before any takeover resumes losslessly.  While
        fenced the node admits arrivals but executes nothing and cannot
        be a fail-over target."""
        node = self._nodes[node_id]
        if node.down or node.fenced:
            return
        now = self._sim.now
        node.fenced = True
        self._metrics.nodes_fenced += 1
        self.fence_log.append((now, node_id, "fence"))
        lost = self._halt(node_id, lose_state=False)
        self._timeline.record(
            now, "fence",
            f"node {node_id} lost quorum; execution suspended "
            f"({lost} queued messages parked for replay)",
        )

    def _unfence(self, node_id: int) -> None:
        node = self._nodes[node_id]
        if not node.fenced:
            return
        now = self._sim.now
        node.fenced = False
        self.fence_log.append((now, node_id, "unfence"))
        self._timeline.record(now, "unfence",
                              f"node {node_id} regained quorum; resuming")
        # wake the pool: arrivals admitted during the fence are waiting
        for _ in node.workers:
            node.wake_idle_worker()

    def restart(self, node_id: int) -> None:
        """Bring ``node_id`` back and rebalance: operators evacuated from it
        migrate home (:meth:`_return_home`)."""
        node = self._nodes[node_id]
        if not node.down:
            return
        node.down = False
        self._metrics.node_restarts += 1
        if self._checkpoints is not None:
            # a crash the detector never saw: the node's operators were not
            # evacuated, but their in-memory state is gone all the same
            self._checkpoints.restore_on_node(node_id)
        # a rebooted node must not declare the cluster dead off its
        # frozen pre-crash membership view
        self.detector.reset_view(node_id)
        returned = self._return_home(node_id, "restart")
        self._timeline.record(
            self._sim.now, "restart",
            f"node {node_id} up ({len(returned)} operators migrating home)",
        )

    def _return_home(self, node_id: int, reason: str) -> list:
        """Migrate the operators evacuated from ``node_id`` back to it,
        gracefully: state and mailboxes move with them, so unlike the
        fail-over path no retransmit-state rollback is needed (go-back-N
        backlogs replay in seq order regardless).  Returns them."""
        returned = self._evacuated.pop(node_id, [])
        self._move_reason = reason
        for op_rt in returned:
            self._lifecycle.migrate(op_rt, node_id)
        self._move_reason = "migrate"
        return returned

    # ------------------------------------------------------------------
    # detection callbacks (the recovery side)
    # ------------------------------------------------------------------

    def _on_failure(self, node_id: int) -> None:
        now = self._sim.now
        node = self._nodes[node_id]
        alive = not node.down
        double_spawn = False
        if alive:
            # partition takeover: the declaring side cannot reach the
            # node, so from the cluster's perspective this is a logical
            # crash — the node's mailboxes are unreachable and the new
            # instances must start from replay.  Under quorum gating the
            # victim is always already fenced (pass 1 of the same sweep),
            # so exactly one instance executes at any instant; a naive
            # declaration takes over a still-executing node instead.
            if self._quorum and not node.fenced:
                raise RuntimeError(
                    f"split-brain: quorum fail-over would double-spawn "
                    f"operators of live unfenced node {node_id}"
                )
            double_spawn = not node.fenced
            # the majority cannot read minority memory: state restarts
            # from the last checkpoint (or replay) on the new home
            self._halt(node_id, lose_state=True)
        else:
            crashed_at = self._crash_time.get(node_id, now)
            self._metrics.failure_detections.append((node_id, crashed_at, now))
        survivors = [n.node_id for n in self._nodes
                     if not n.down and not n.fenced and n.node_id != node_id]
        if not survivors:  # validate_cluster forbids this; defensive only
            return
        self._move_reason = "failover"
        moved = self._lifecycle.evacuate(node_id, survivors)
        self._move_reason = "migrate"
        self._evacuated[node_id] = moved
        for op_rt in moved:
            self._reliable.on_failover(op_rt)
        if self._checkpoints is not None:
            # after evacuation (new home, empty mailbox): rebuild state from
            # the last checkpoint and roll the delivery frontier back to it
            for op_rt in moved:
                self._checkpoints.restore(op_rt)
        if double_spawn:
            self._metrics.double_spawns += len(moved)
            self._timeline.record(
                now, "double-spawn",
                f"naive fail-over evacuated live node {node_id}: "
                f"{len(moved)} operators now logically doubled",
            )
        if alive:
            self._timeline.record(
                now, "failover",
                f"unreachable node {node_id} declared dead; "
                f"{len(moved)} operators respawned on {survivors}",
            )
        else:
            crashed_at = self._crash_time.get(node_id, now)
            self._timeline.record(
                now, "failover",
                f"node {node_id} declared dead after {now - crashed_at:.3f}s; "
                f"{len(moved)} operators respawned on {survivors}",
            )

    def _on_alive(self, node_id: int) -> None:
        now = self._sim.now
        if self._quorum and not self._nodes[node_id].down:
            # heal-time reconciliation: the re-admitted node gets its
            # operators back
            returned = self._return_home(node_id, "reconcile")
            if returned:
                self._metrics.reconciliations += 1
                self._timeline.record(
                    now, "reconcile",
                    f"node {node_id} re-admitted; {len(returned)} operators "
                    f"migrating home",
                )
                return
        self._timeline.record(now, "alive",
                              f"node {node_id} heartbeating again")
