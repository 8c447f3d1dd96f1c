"""Wire frames of the process backend.

Every pipe of the mesh is a socket pair, and each process owns its ends as
:class:`PipeEnd` objects: non-blocking sockets carrying length-prefixed
frames (a little-endian ``u32`` body length, then the body).  An end
queues outbound frames as bytes and sends what the socket takes, resuming
a partial write where it stopped; inbound bytes collect until a whole
frame can be cut off the front.  The worker and coordinator loops watch
their ends through one selector each; the few exchanges outside a loop
(the pre-``START`` handshake, ``STOP`` and the final ``REPORT``) block on
the same ends through :func:`send_frame` / :func:`recv_frame`.  Two
encodings share a pipe and are discriminated by the body's first byte:

* **Control frames** — a pickled ``(kind, payload)`` tuple (pickle frames
  start with ``b"\\x80"``).  Rare, shapes vary, pickle is fine.
* **Binary DATA frames** (magic ``0xC3``) — the data-plane fast path.  A
  single frame carries every entry a worker produced for one destination
  during a dispatch quantum — messages, coalesced cumulative acks, reply
  contexts and channel resets — struct-packed: a fixed-layout record per
  entry kind, numeric fields packed little-endian, event arrays appended
  as raw ``float64``/``int64`` bytes, and operator/client addresses (plus
  stage-name strings) *interned per connection direction* so each address
  crosses the pipe once (a pickled ``DEF`` record) and is a 4-byte id
  ever after.  Pipes are FIFO, so a definition always precedes its uses;
  entries that do not match the fast shape (a message without a batch,
  an exotic priority- or reply-context subclass) degrade to a per-entry
  pickle record inside the same frame — the fast path is an encoding
  choice, never a semantic constraint.

Control frame kinds
-------------------

=========  =========  ===================================================
kind       direction  payload
=========  =========  ===================================================
READY      w -> c     ``node_id`` — worker finished booting its topology
START      c -> w     ``epoch`` — the one wall-clock base every process
                      stamps against (CLOCK_MONOTONIC is system-wide)
HB         w -> c     ``(node_id, idle, ingest_acks, admissions, probe)``
                      — every heartbeat interval, as soon as a worker
                      with its ingest exhausted turns idle, and in answer
                      to a ``PROBE``: the worker's mailbox-admission
                      count and the id of the last probe it answered
PROBE      c -> w     ``probe_id`` — second wave of the end-of-run check;
                      the worker answers at once with an ``HB``
TRACE      w -> c     ``(node_id, [span_part, ...], [sample, ...],
                      inversions)`` — flushed with heartbeats (obs plane
                      only): span parts (:data:`repro.obs.merge.
                      PART_FIELDS` tuples; cumulative, latest part wins
                      per ``(msg_id, origin node)``), the node samples
                      taken since the last flush (``SchedSample.__slots__``
                      tuples) and the cumulative priority-inversion count
REWIRE     c -> w     ``({address: new_node_id}, {src_key: watermark})``
                      — the dead node's operators re-placed, and the
                      processed watermark each moved source resumes from
                      (its new owner replays its own copy of the trace)
RESCALE    c -> w     ``(job_name, stage_name, parallelism)`` — rescale a
                      key-partitioned stage (applied at the worker's next
                      quiescent point for that stage; single-node runs)
STOP       c -> w     ``None`` — drain nothing further, report and exit
REPORT     w -> c     ``(node_id, MetricsHub, worker_stats)``
=========  =========  ===================================================

Binary DATA records (after the magic byte; all little-endian)
-------------------------------------------------------------

=======  ==========================================================
tag      layout
=======  ==========================================================
1 DEF    u32 id, u32 len, pickle(object) — interning definition
2 MSG    u32 sender_id, u32 target_id, u8 flags (bit0 = has PC),
         i64 msg_id, i64 seq, i32 channel_index, f64 p, f64 t,
         f64 deps_arrival, f64 batch.arrival_time, u32 n,
         i32 source_id, u8 times_sorted, then n×f64 logical times,
         n×f64 values, n×i64 keys, then (flags bit0) the PC record:
         i64 msg_id, f64 ×6 (pri_local, pri_global, p_mf, t_mf,
         latency_constraint, deadline), i64 token_interval
3 ACK    u32 sender_id, u32 target_id, i64 admitted, i64 processed
4 REPLY  u32 sender_id, u32 stage_id, f64 c_m, f64 c_path,
         f64 queueing_delay, i64 mailbox_size
5 RESET  u32 sender_id, u32 target_id, i64 base_seq
6 RAW    u32 len, pickle(entry) — fallback for non-fast shapes
=======  ==========================================================

Sequence numbers and msg ids travel unchanged (``enqueue_time`` is
receiver-local and is rebuilt as NaN); decoded messages are the *same*
messages — the global id counter is never consulted on the receiving
side.
"""

from __future__ import annotations

import pickle
import struct
from selectors import EVENT_READ, EVENT_WRITE
from typing import Any, Iterable

import numpy as np

from repro.core.context import PriorityContext, ReplyContext
from repro.dataflow.events import EventBatch
from repro.dataflow.messages import Message
from repro.dataflow.operators import OpAddress

READY = "ready"
START = "start"
HB = "hb"
PROBE = "probe"
TRACE = "trace"
REWIRE = "rewire"
RESCALE = "rescale"
STOP = "stop"
REPORT = "report"

#: first byte of a binary DATA frame (pickle frames start with 0x80)
DATA_MAGIC = b"\xc3"

_PROTO = pickle.HIGHEST_PROTOCOL
_NAN = float("nan")

_TAG_DEF = 1
_TAG_MSG = 2
_TAG_ACK = 3
_TAG_REPLY = 4
_TAG_RESET = 5
_TAG_RAW = 6

_DEF = struct.Struct("<BII")
_MSG = struct.Struct("<BIIBqqiddddIiB")
_ACK = struct.Struct("<BIIqq")
_REPLY = struct.Struct("<BIIdddq")
_RESET = struct.Struct("<BIIq")
_RAW = struct.Struct("<BI")
_PC = struct.Struct("<q6dq")

_LEN = struct.Struct("<I")  # frame header: body length


class PipeEnd:
    """One process's end of a mesh pipe: framed bytes over a non-blocking
    socket.

    ``peer`` names the process at the other end (a node id; ``None`` for
    the coordinator as seen from a worker) and ``codec`` is the
    :class:`DataCodec` of a worker-to-worker pipe, installed by the worker
    once its topology is built.  Once :meth:`watch`\\ ed,
    the end keeps its selector registration current by itself: read
    interest always, write interest exactly while :attr:`unsent` bytes
    remain."""

    __slots__ = ("sock", "peer", "codec", "_in", "_out", "_selector", "_writing")

    def __init__(self, sock, peer: int | None = None):
        sock.setblocking(False)
        self.sock = sock
        self.peer = peer
        self.codec = None
        self._in = bytearray()
        self._out = bytearray()
        self._selector = None
        self._writing = False

    def watch(self, selector) -> None:
        """Register with the owning loop's selector (the key's data is
        this end)."""
        self._selector = selector
        selector.register(self.sock, EVENT_READ, self)

    def close(self) -> None:
        """Stop watching, drop every queued byte and close the socket."""
        if self._selector is not None:
            self._selector.unregister(self.sock)
            self._selector = None
        self._out.clear()
        self.sock.close()

    # -- outbound ------------------------------------------------------

    def queue(self, body) -> None:
        """Append one frame to the outbound bytes (nothing is written)."""
        out = self._out
        out += _LEN.pack(len(body))
        out += body

    def put(self, kind: str, payload: Any = None) -> None:
        """Queue one pickled control frame."""
        self.queue(pickle.dumps((kind, payload), protocol=_PROTO))

    @property
    def unsent(self) -> int:
        """Queued bytes the socket has not taken yet."""
        return len(self._out)

    def write(self) -> bool:
        """Send what the socket takes now, without blocking; False once the
        peer has closed its end."""
        out = self._out
        if out:
            try:
                del out[:self.sock.send(out)]
            except BlockingIOError:
                pass
            except (BrokenPipeError, ConnectionResetError):
                return False
        self._interest()
        return True

    def write_all(self, timeout: float | None = None) -> None:
        """Send every queued byte, blocking up to ``timeout`` seconds per
        write (``TimeoutError`` past it; ``None`` waits for good)."""
        sock = self.sock
        sock.settimeout(timeout)
        try:
            sock.sendall(self._out)
        finally:
            sock.setblocking(False)
        self._out.clear()
        self._interest()

    def _interest(self) -> None:
        writing = bool(self._out)
        if self._selector is not None and writing != self._writing:
            self._writing = writing
            self._selector.modify(
                self.sock, EVENT_READ | EVENT_WRITE if writing else EVENT_READ, self)

    # -- inbound -------------------------------------------------------

    def fill(self) -> bool:
        """Move what the socket holds now into the inbound buffer; False
        once the peer has closed its end (frames already buffered stay
        readable)."""
        try:
            # 64 KiB bounds one loop turn's work and stays under malloc's
            # mmap threshold, past which every read would map fresh pages
            chunk = self.sock.recv(1 << 16)
        except BlockingIOError:
            return True
        except ConnectionResetError:
            return False
        self._in += chunk
        return bool(chunk)

    def frame(self) -> bytes | None:
        """Cut the next whole frame's body off the inbound buffer (None
        while it has not fully arrived)."""
        buf = self._in
        if len(buf) < _LEN.size:
            return None
        end = _LEN.size + _LEN.unpack_from(buf)[0]
        if len(buf) < end:
            return None
        with memoryview(buf) as view:
            body = view[_LEN.size:end].tobytes()
        del buf[:end]
        return body

    def recv(self, timeout: float | None = None) -> bytes:
        """Wait for the next whole frame's body, up to ``timeout`` seconds
        per read (``TimeoutError``); ``EOFError`` if the peer closes
        first."""
        body = self.frame()
        if body is None:
            sock = self.sock
            sock.settimeout(timeout)
            try:
                while body is None:
                    if not self.fill():
                        raise EOFError("the peer closed the pipe")
                    body = self.frame()
            finally:
                sock.setblocking(False)
        return body


def send_frame(pipe: PipeEnd, kind: str, payload: Any = None,
               timeout: float | None = None) -> None:
    """Queue one control frame and block until every queued byte is sent."""
    pipe.put(kind, payload)
    pipe.write_all(timeout)


def recv_frame(pipe: PipeEnd, timeout: float | None = None) -> tuple:
    """Block for one control frame; returns ``(kind, payload)``."""
    return pickle.loads(pipe.recv(timeout))


class DataCodec:
    """Binary encoder/decoder for one pipe (one codec per peer connection).

    The encoder half interns the addresses *this* side sends; the decoder
    half resolves the ids the *other* side assigned.  The two directions
    are independent id spaces, so a single codec object per connection
    serves both.  State only ever grows with the (small, bounded) set of
    operator addresses and stage names — it survives fail-over rewires
    unchanged because addresses are stable identities.

    ``addresses`` are the receiving process's own operator addresses: a
    defined address that matches one decodes to that very object, so the
    decoded messages key the receiver's dicts by identity.  Without them
    (a bare codec) every definition decodes to a fresh object."""

    __slots__ = ("_ids", "_objs", "_own")

    def __init__(self, addresses: Iterable[OpAddress] = ()):
        self._ids: dict = {}    # encoder: object -> id
        self._objs: list = []   # decoder: id -> object
        #: (job, stage, index) -> the receiver's address object (a plain
        #: tuple key: looking the decoded address up would compare it)
        self._own = {(a.job, a.stage, a.index): a for a in addresses}

    # ------------------------------------------------------------------
    # encoding
    # ------------------------------------------------------------------

    def _intern(self, obj, parts: list) -> int:
        ids = self._ids
        id_ = ids.get(obj)
        if id_ is None:
            id_ = len(ids)
            ids[obj] = id_
            blob = pickle.dumps(obj, protocol=_PROTO)
            parts.append(_DEF.pack(_TAG_DEF, id_, len(blob)))
            parts.append(blob)
        return id_

    def encode_data(self, entries: list) -> bytes:
        """One binary DATA frame carrying every entry, fast paths first."""
        parts: list = [DATA_MAGIC]
        intern = self._intern
        for entry in entries:
            tag = entry[0]
            if tag == "msg":
                msg = entry[1]
                batch = msg.batch
                pc = msg.pc
                if batch is None or (pc is not None and type(pc) is not PriorityContext):
                    self._raw(entry, parts)
                    continue
                sender_id = intern(msg.sender, parts)
                target_id = intern(msg.target, parts)
                times = np.ascontiguousarray(batch.logical_times)
                values = np.ascontiguousarray(batch.values)
                keys = np.ascontiguousarray(batch.keys)
                parts.append(_MSG.pack(
                    _TAG_MSG, sender_id, target_id,
                    1 if pc is not None else 0,
                    msg.msg_id, msg.seq, msg.channel_index,
                    msg.p, msg.t, msg.deps_arrival,
                    batch.arrival_time, len(times), batch.source_id,
                    1 if batch.times_sorted else 0,
                ))
                parts.append(times.tobytes())
                parts.append(values.tobytes())
                parts.append(keys.tobytes())
                if pc is not None:
                    parts.append(_PC.pack(
                        pc.msg_id, pc.pri_local, pc.pri_global, pc.p_mf,
                        pc.t_mf, pc.latency_constraint, pc.deadline,
                        pc.token_interval,
                    ))
            elif tag == "ack":
                _, key, admitted, processed = entry
                parts.append(_ACK.pack(
                    _TAG_ACK, intern(key[0], parts), intern(key[1], parts),
                    admitted, processed,
                ))
            elif tag == "reply":
                _, sender, stage, rc = entry
                if type(rc) is not ReplyContext:
                    self._raw(entry, parts)
                    continue
                parts.append(_REPLY.pack(
                    _TAG_REPLY, intern(sender, parts), intern(stage, parts),
                    rc.c_m, rc.c_path, rc.queueing_delay, rc.mailbox_size,
                ))
            elif tag == "reset":
                _, key, base_seq = entry
                parts.append(_RESET.pack(
                    _TAG_RESET, intern(key[0], parts), intern(key[1], parts),
                    base_seq,
                ))
            else:
                self._raw(entry, parts)
        return b"".join(parts)

    @staticmethod
    def _raw(entry, parts: list) -> None:
        blob = pickle.dumps(entry, protocol=_PROTO)
        parts.append(_RAW.pack(_TAG_RAW, len(blob)))
        parts.append(blob)

    # ------------------------------------------------------------------
    # decoding
    # ------------------------------------------------------------------

    def decode_data(self, buf: bytes) -> list:
        """Decode one binary DATA frame back into transport entries."""
        if buf[:1] != DATA_MAGIC:
            raise ValueError("not a binary DATA frame")
        objs = self._objs
        entries: list = []
        offset = 1
        end = len(buf)
        while offset < end:
            tag = buf[offset]
            if tag == _TAG_MSG:
                (
                    _, sender_id, target_id, flags, msg_id, seq,
                    channel_index, p, t, deps_arrival, arrival_time, n,
                    source_id, times_sorted,
                ) = _MSG.unpack_from(buf, offset)
                offset += _MSG.size
                times = np.frombuffer(buf, np.float64, n, offset).copy()
                offset += n * 8
                values = np.frombuffer(buf, np.float64, n, offset).copy()
                offset += n * 8
                keys = np.frombuffer(buf, np.int64, n, offset).copy()
                offset += n * 8
                pc = None
                if flags & 1:
                    (
                        pc_msg_id, pri_local, pri_global, p_mf, t_mf,
                        latency_constraint, deadline, token_interval,
                    ) = _PC.unpack_from(buf, offset)
                    offset += _PC.size
                    pc = PriorityContext(
                        msg_id=pc_msg_id, pri_local=pri_local,
                        pri_global=pri_global, p_mf=p_mf, t_mf=t_mf,
                        latency_constraint=latency_constraint,
                        deadline=deadline, token_interval=token_interval,
                    )
                msg = Message.__new__(Message)
                msg.target = objs[target_id]
                msg.batch = EventBatch._raw(
                    times, values, keys, arrival_time, source_id,
                    bool(times_sorted),
                )
                msg.p = p
                msg.t = t
                msg.deps_arrival = deps_arrival
                msg.sender = objs[sender_id]
                msg.pc = pc
                msg.channel_index = channel_index
                msg.msg_id = msg_id
                msg.enqueue_time = _NAN
                msg.seq = seq
                entries.append(("msg", msg))
            elif tag == _TAG_ACK:
                _, sender_id, target_id, admitted, processed = _ACK.unpack_from(
                    buf, offset
                )
                offset += _ACK.size
                entries.append(
                    ("ack", (objs[sender_id], objs[target_id]), admitted, processed)
                )
            elif tag == _TAG_REPLY:
                (
                    _, sender_id, stage_id, c_m, c_path, queueing_delay,
                    mailbox_size,
                ) = _REPLY.unpack_from(buf, offset)
                offset += _REPLY.size
                rc = ReplyContext(
                    c_m=c_m, c_path=c_path, queueing_delay=queueing_delay,
                    mailbox_size=mailbox_size,
                )
                entries.append(("reply", objs[sender_id], objs[stage_id], rc))
            elif tag == _TAG_RESET:
                _, sender_id, target_id, base_seq = _RESET.unpack_from(buf, offset)
                offset += _RESET.size
                entries.append(
                    ("reset", (objs[sender_id], objs[target_id]), base_seq)
                )
            elif tag == _TAG_DEF:
                _, id_, length = _DEF.unpack_from(buf, offset)
                offset += _DEF.size
                obj = pickle.loads(buf[offset:offset + length])
                offset += length
                if type(obj) is OpAddress:
                    obj = self._own.get((obj.job, obj.stage, obj.index), obj)
                if id_ != len(objs):  # pragma: no cover - protocol guard
                    raise ValueError(
                        f"interning id {id_} out of order (have {len(objs)})"
                    )
                objs.append(obj)
            elif tag == _TAG_RAW:
                _, length = _RAW.unpack_from(buf, offset)
                offset += _RAW.size
                entries.append(pickle.loads(buf[offset:offset + length]))
                offset += length
            else:  # pragma: no cover - protocol guard
                raise ValueError(f"unknown DATA record tag {tag}")
        return entries
