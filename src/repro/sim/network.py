"""Network model: constant per-hop transit, per-channel FIFO (in-order)
delivery, and optional contended uplinks.

Every hop pays one constant transit (:class:`ConstantDelay`: local or
remote), resolved once when the hop is wired, so the network draws no
random numbers.  The paper's runtime "provides channel-wise guarantee of
in-order processing for all target operators" (§4.3) — Cameo's PROGRESSMAP
regression relies on it.  :class:`FifoChannel` enforces that: a message
handed to the channel is delivered no earlier than any message handed to it
before.  :class:`BandwidthModel` adds serialization time on a shared uplink
when a run configures ``link_capacity``.
"""

from __future__ import annotations

from dataclasses import dataclass


#: message transit times (seconds) within a node and across nodes (clients
#: count as remote)
LOCAL_DELAY = 2e-5
REMOTE_DELAY = 5e-4

#: serialized size per tuple (bytes): converts batches to frame sizes for
#: the :class:`BandwidthModel`
LINK_BYTES_PER_TUPLE = 64.0


@dataclass
class ConstantDelay:
    """Fixed local/remote transit delays (seconds) between two cluster
    nodes; client ingestion (node -1) counts as remote."""

    local: float = LOCAL_DELAY
    remote: float = REMOTE_DELAY

    def delay(self, src_node: int, dst_node: int) -> float:
        return self.local if src_node == dst_node else self.remote


class FifoChannel:
    """Per (upstream-operator, downstream-operator) ordered delivery.

    ``deliver_time(now, transit)`` returns the wall-clock instant at which a
    message sent *now* with the given transit delay arrives, clamped so that
    deliveries never reorder.
    """

    __slots__ = ("_last_delivery",)

    def __init__(self):
        self._last_delivery: float = float("-inf")

    def deliver_time(self, now: float, transit: float) -> float:
        if transit < 0:
            raise ValueError("transit delay must be non-negative")
        arrival = max(now + transit, self._last_delivery)
        self._last_delivery = arrival
        return arrival


#: link-scheduling policies a SharedLink accepts
LINK_POLICIES = ("fair", "edf")

INF = float("inf")


class SharedLink:
    """One contended link: concurrent transfers share ``capacity`` bytes/s.

    Transfer time is computed at start-of-transfer from a snapshot of the
    link's in-flight flows (no retroactive rate adjustment when flows join
    or leave mid-transfer — a deliberate O(1)-per-transfer approximation
    that keeps the model deterministic and allocation-free):

    * ``fair``  — the new flow gets an equal share of the capacity:
      ``time = bytes / (capacity / (1 + active_flows))``.
    * ``edf``   — deadline-aware per DCoflow: flows transmit in earliest-
      deadline-first order, so the new flow waits behind the *remaining*
      bytes of every active flow with an earlier (or equal) deadline and
      then gets the full link:
      ``time = (bytes_ahead + bytes) / capacity``.

    No RNG is involved; same-seed runs with the same traffic see the same
    transfer times.
    """

    __slots__ = ("capacity", "policy", "_flows", "bytes_sent", "transfers",
                 "contended_transfers", "max_concurrent")

    def __init__(self, capacity: float, policy: str = "fair"):
        if capacity <= 0:
            raise ValueError(f"link capacity must be positive, got {capacity}")
        if policy not in LINK_POLICIES:
            raise ValueError(
                f"unknown link policy {policy!r}; expected {LINK_POLICIES}")
        self.capacity = float(capacity)
        self.policy = policy
        self._flows: list = []  # (start, finish, nbytes, deadline)
        self.bytes_sent = 0.0
        self.transfers = 0
        self.contended_transfers = 0
        self.max_concurrent = 0

    def transfer_time(self, now: float, nbytes: float,
                      deadline: float = INF) -> float:
        """Serialization time for ``nbytes`` starting now; registers the
        transfer as an in-flight flow until its computed finish."""
        flows = [f for f in self._flows if f[1] > now]
        if self.policy == "fair":
            share = self.capacity / (len(flows) + 1)
            duration = nbytes / share
        else:  # edf
            ahead = 0.0
            for start, finish, size, dl in flows:
                if dl <= deadline:
                    # linear estimate of the flow's unsent remainder
                    span = finish - start
                    ahead += size * ((finish - now) / span) if span > 0 else 0.0
            duration = (ahead + nbytes) / self.capacity
        flows.append((now, now + duration, float(nbytes), deadline))
        self._flows = flows
        self.transfers += 1
        self.bytes_sent += nbytes
        if len(flows) > 1:
            self.contended_transfers += 1
        if len(flows) > self.max_concurrent:
            self.max_concurrent = len(flows)
        return duration

    def report(self) -> dict:
        return {
            "capacity": self.capacity,
            "policy": self.policy,
            "bytes_sent": self.bytes_sent,
            "transfers": self.transfers,
            "contended_transfers": self.contended_transfers,
            "max_concurrent": self.max_concurrent,
        }


class BandwidthModel:
    """Per-node uplink contention for cross-node transfers.

    Every source node owns one :class:`SharedLink` uplink; a transfer from
    node ``s`` to a *different* node pays ``bytes / share`` serialization
    time on ``s``'s uplink on top of the propagation delay from
    :class:`ConstantDelay`.  Local hops and client ingestion (src node -1,
    modeled as remote machines with their own NICs) are exempt.

    Installed by the engine only when ``link_capacity`` is configured —
    otherwise no instance exists and the transit path is untouched.
    """

    def __init__(self, capacity: float, policy: str = "fair",
                 bytes_per_tuple: float = LINK_BYTES_PER_TUPLE,
                 frame_bytes: float = 256.0,
                 metrics=None):
        if bytes_per_tuple <= 0:
            raise ValueError("bytes_per_tuple must be positive")
        if frame_bytes < 0:
            raise ValueError("frame_bytes must be non-negative")
        self.capacity = float(capacity)
        self.policy = policy
        self.bytes_per_tuple = float(bytes_per_tuple)
        self.frame_bytes = float(frame_bytes)
        self._links: dict[int, SharedLink] = {}
        self._metrics = metrics
        # validate eagerly, not on first transfer
        SharedLink(capacity, policy)

    def uplink(self, node_id: int) -> SharedLink:
        link = self._links.get(node_id)
        if link is None:
            link = SharedLink(self.capacity, self.policy)
            self._links[node_id] = link
        return link

    def transfer_time(self, now: float, src_node: int, dst_node: int,
                      tuple_count: int, deadline: float = INF) -> float:
        """Extra transit seconds for one frame; 0 for exempt hops."""
        if src_node < 0 or src_node == dst_node:
            return 0.0
        nbytes = self.frame_bytes + self.bytes_per_tuple * tuple_count
        extra = self.uplink(src_node).transfer_time(now, nbytes, deadline)
        metrics = self._metrics
        if metrics is not None:
            metrics.link_bytes_sent += nbytes
            metrics.link_transfer_seconds += extra
        return extra

    def report(self) -> dict:
        return {
            "capacity": self.capacity,
            "policy": self.policy,
            "bytes_per_tuple": self.bytes_per_tuple,
            "uplinks": {node: link.report()
                        for node, link in sorted(self._links.items())},
        }


class ChannelTable:
    """Lazily-created :class:`FifoChannel` per directed (src, dst) pair."""

    def __init__(self):
        self._channels: dict[tuple, FifoChannel] = {}

    def channel(self, src_key, dst_key) -> FifoChannel:
        key = (src_key, dst_key)
        chan = self._channels.get(key)
        if chan is None:
            chan = FifoChannel()
            self._channels[key] = chan
        return chan

    def __len__(self) -> int:
        return len(self._channels)
