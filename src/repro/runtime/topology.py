"""Topology layer: builds the operator graph and emits a wiring plan.

The :class:`TopologyBuilder` owns everything that happens *before* the
first message flows: instantiating one :class:`OperatorRuntime` per (job,
stage, parallel index), placing them on nodes, wiring channels with
per-channel FIFO delivery and input-channel indices (§4.3), registering
the ingestion clients in front of source operators, embedding a context
converter in every operator and client when contexts are enabled
(§5.2 / Fig. 5a), and pre-resolving the per-link delivery caches the
transport's hot path relies on.

Its output is a :class:`WiringPlan` — the complete description of the
built topology.  The plan is the hand-off point between construction and
execution: the transport and node runtimes only ever see finished
operator runtimes, never partially-wired ones.  ``WiringPlan.describe()``
renders the same information as JSON-able data for the ``repro topology``
CLI subcommand and the tests that pin the builder's output shape.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import repeat
from typing import Any, Iterable, Optional

from repro.core.converter import ContextConverter
from repro.core.progress_map import make_progress_map
from repro.core.scheduler import Mailbox
from repro.dataflow.events import EventBatch
from repro.dataflow.graph import StageSpec
from repro.dataflow.jobs import JobSpec
from repro.dataflow.operators import (
    OpAddress,
    SinkOperator,
    SourceOperator,
    WindowedJoinOperator,
)
from repro.runtime.placement import place_operators


@dataclass
class Route:
    """Out-edge of an operator: where its emissions go.

    ``links`` pairs each target with its pre-resolved delivery channel,
    input-channel index and transit — filled once at wiring time so the
    per-send hot path does no dict lookups.

    ``active`` is the number of leading targets currently receiving data.
    It equals ``len(targets)`` at construction and only diverges when the
    lifecycle controller rescales the destination stage: keys partition
    modulo ``active`` instead of the built parallelism, so a stage can
    shrink or grow back without rewiring any channels."""

    dst_stage: StageSpec
    targets: list["OperatorRuntime"]
    key_partitioned: bool
    links: list[tuple] = field(default_factory=list)
    active: int = -1

    def __post_init__(self) -> None:
        if self.active < 0:
            self.active = len(self.targets)

    def fan_out(self, batch: EventBatch) -> Iterable[tuple[tuple, EventBatch]]:
        """``(link, sub-batch)`` per instance currently receiving data:
        instance ``j``'s share of the keys on a key-partitioned edge, the
        whole batch otherwise."""
        links = self.links
        if self.active != len(links):
            links = links[: self.active]
        if self.key_partitioned and len(links) > 1:
            return zip(links, batch.partition(len(links)))
        return zip(links, repeat(batch))


class OperatorRuntime:
    """An operator bound to a node, a mailbox and a context converter.

    Besides the wiring, this caches everything the per-message hot path
    would otherwise have to look up or re-derive: the job's metrics
    object, source/sink type flags, the stage name and cost model, and the
    per-sender reply route.

    ``node_id`` is the operator's *current* placement: it changes when the
    lifecycle controller migrates the operator, and every cache keyed on it
    (route links, reply routes) is rebuilt by the transport at that point.
    ``pending_migration`` holds the destination node id while the operator
    is busy on a worker and the move must wait for release."""

    __slots__ = (
        "operator",
        "stage",
        "job",
        "node_id",
        "mailbox",
        "converter",
        "routes",
        "busy",
        "queue_token",
        "queued_key",
        "queued_seq",
        "in_queue",
        "blocked",
        "job_metrics",
        "is_source",
        "is_sink",
        "stage_name",
        "cost_model",
        "reply_cache",
        "queue_stat",
        "exec_stat",
        "pending_migration",
        "migrations",
        "_channel_index",
        "_channel_senders",
    )

    def __init__(
        self,
        operator,
        stage: StageSpec,
        job: JobSpec,
        node_id: int,
        mailbox: Mailbox,
        converter: Optional[ContextConverter],
    ):
        self.operator = operator
        self.stage = stage
        self.job = job
        self.node_id = node_id
        self.mailbox = mailbox
        self.converter = converter
        self.routes: list[Route] = []
        self.busy = False
        self.queue_token = -1
        self.queued_key = 0.0
        self.queued_seq = 0
        self.in_queue = False
        #: client messages held back by ingestion back-pressure (FIFO)
        self.blocked: deque = deque()
        self.job_metrics = None  # bound by the engine once jobs register
        self.is_source = isinstance(operator, SourceOperator)
        self.is_sink = isinstance(operator, SinkOperator)
        self.stage_name = stage.name
        self.cost_model = stage.cost
        #: sender -> (converter, transit) for replies
        self.reply_cache: dict = {}
        #: per-stage queueing/execution stats, bound on first use (shared
        #: across parallel indices of the stage via the job metrics dicts)
        self.queue_stat = None
        self.exec_stat = None
        #: destination node of an in-flight migrate() waiting for release
        self.pending_migration: Optional[int] = None
        #: completed migrations (lifecycle accounting)
        self.migrations = 0
        self._channel_index: dict[Any, int] = {}
        self._channel_senders: list[Any] = []

    @property
    def address(self) -> OpAddress:
        return self.operator.address

    def register_input(self, sender_key: Any) -> int:
        """Assign (or fetch) the input channel index for a sender."""
        index = self._channel_index.get(sender_key)
        if index is None:
            index = len(self._channel_senders)
            self._channel_index[sender_key] = index
            self._channel_senders.append(sender_key)
        return index

    def channel_index_of(self, sender_key: Any) -> int:
        return self._channel_index[sender_key]

    @property
    def input_channel_count(self) -> int:
        return len(self._channel_senders)

    @property
    def channel_senders(self) -> list[Any]:
        return list(self._channel_senders)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"OperatorRuntime({self.address})"


def client_key(job: str, stage: str, index: int) -> tuple:
    """Address of the ingestion client feeding a source operator."""
    return ("client", job, stage, index)


def _format_address(key: Any) -> str:
    """Stable string form for operator and client addresses."""
    if isinstance(key, OpAddress):
        return f"{key.job}/{key.stage}[{key.index}]"
    if isinstance(key, tuple) and key and key[0] == "client":
        _, job, stage, index = key
        return f"client:{job}/{stage}[{index}]"
    return str(key)


@dataclass
class WiringPlan:
    """The built topology: every operator runtime, fully wired.

    ``placements`` records the placement decided at build time; the live
    placement is each runtime's ``node_id`` (they diverge once operators
    migrate).  ``describe()`` reports the live state.
    """

    ops: dict[OpAddress, OperatorRuntime]
    client_converters: dict[tuple, ContextConverter]
    placements: dict[OpAddress, int]
    contexts_enabled: bool

    def late_tuples(self) -> dict[str, int]:
        """Per job, the tuples its windowed operators dropped because they
        arrived behind an already emitted window."""
        late: dict[str, int] = {}
        for address, op_rt in self.ops.items():
            if op_rt.operator.is_windowed:
                late[address.job] = late.get(address.job, 0) + op_rt.operator.late_tuples
        return late

    def describe(self) -> dict:
        """JSON-able dump: operators, placements, channels, reply routes."""
        operators = []
        channels = []
        reply_routes = []
        for address, op_rt in self.ops.items():
            operators.append({
                "address": _format_address(address),
                "job": address.job,
                "stage": address.stage,
                "index": address.index,
                "kind": op_rt.stage.kind,
                "node": op_rt.node_id,
                "built_on_node": self.placements[address],
                "migrations": op_rt.migrations,
                "is_source": op_rt.is_source,
                "is_sink": op_rt.is_sink,
                "has_converter": op_rt.converter is not None,
                "input_channels": [
                    _format_address(sender) for sender in op_rt.channel_senders
                ],
            })
            for sender in op_rt.channel_senders:
                channels.append({
                    "src": _format_address(sender),
                    "dst": _format_address(address),
                    "channel_index": op_rt.channel_index_of(sender),
                })
                if self.contexts_enabled:
                    # RC acknowledgements travel the reverse direction of
                    # every data channel (Fig. 5a steps 5-6)
                    reply_routes.append({
                        "src": _format_address(address),
                        "dst": _format_address(sender),
                    })
        return {
            "operators": operators,
            "placements": {
                _format_address(a): op.node_id for a, op in self.ops.items()
            },
            "channels": channels,
            "reply_routes": reply_routes,
            "contexts_enabled": self.contexts_enabled,
        }


class TopologyBuilder:
    """Builds the operator topology for a set of jobs.

    The builder is construction-only state: once :meth:`build` returns a
    :class:`WiringPlan`, the builder holds no references the runtime needs.
    Mailboxes are created through each node's run queue (the run queue
    decides the mailbox discipline), and link transit delays are
    pre-resolved.
    """

    def __init__(
        self,
        config,
        jobs: dict[str, JobSpec],
        policy,
        profiler,
        channels,
        delay_model,
    ):
        self._config = config
        self._jobs = jobs
        self._policy = policy
        self._profiler = profiler
        self._channels = channels
        self._delay_model = delay_model
        self._contexts = config.contexts_enabled
        self._ops: dict[OpAddress, OperatorRuntime] = {}
        self._client_converters: dict[tuple, ContextConverter] = {}
        self._placements: dict[OpAddress, int] = {}

    def build(self, nodes: list) -> WiringPlan:
        self._build_operators(nodes)
        self._wire_edges()
        self._finalize_wiring()
        return WiringPlan(
            ops=self._ops,
            client_converters=self._client_converters,
            placements=self._placements,
            contexts_enabled=self._contexts,
        )

    # ------------------------------------------------------------------
    # construction phases
    # ------------------------------------------------------------------

    def _build_operators(self, nodes: list) -> None:
        self._placements = place_operators(self._config, self._jobs.values())
        for address, node_id in self._placements.items():
            job = self._jobs[address.job]
            stage = job.graph.stage(address.stage)
            mailbox = nodes[node_id].run_queue.create_mailbox()
            converter = self._make_converter(job, stage) if self._contexts else None
            # the placement's address object is the operator's own, so the
            # topology, the profiler and every message share one key per
            # operator and their dict lookups resolve on identity
            operator = stage.build_operator(address)
            self._ops[address] = OperatorRuntime(
                operator, stage, job, node_id, mailbox, converter
            )
            self._profiler.seed(address, stage.cost.nominal(0))

    def _make_converter(
        self, job: JobSpec, stage: Optional[StageSpec], source_index: int = 0
    ) -> ContextConverter:
        return ContextConverter(
            job_name=job.name,
            latency_constraint=job.latency_constraint,
            own_window=stage.window if stage is not None else None,
            policy=self._policy,
            progress_map=make_progress_map(job.time_domain),
            use_query_semantics=self._config.use_query_semantics,
            source_index=source_index,
        )

    def _wire_edges(self) -> None:
        for job in self._jobs.values():
            graph = job.graph
            for src_name in graph.stage_names:
                src_stage = graph.stage(src_name)
                for dst_name in graph.downstream(src_name):
                    dst_stage = graph.stage(dst_name)
                    for src_index in range(src_stage.parallelism):
                        src_rt = self._ops[OpAddress(job.name, src_name, src_index)]
                        if dst_stage.key_partitioned:
                            targets = [
                                self._ops[OpAddress(job.name, dst_name, j)]
                                for j in range(dst_stage.parallelism)
                            ]
                        else:
                            j = src_index % dst_stage.parallelism
                            targets = [self._ops[OpAddress(job.name, dst_name, j)]]
                        src_rt.routes.append(
                            Route(dst_stage, targets, dst_stage.key_partitioned)
                        )
                        for target in targets:
                            target.register_input(src_rt.address)
            # ingestion clients feed every source operator
            for stage_name in graph.source_stages:
                stage = graph.stage(stage_name)
                for index in range(stage.parallelism):
                    key = client_key(job.name, stage_name, index)
                    self._ops[OpAddress(job.name, stage_name, index)].register_input(key)
                    if self._contexts:
                        self._client_converters[key] = self._make_converter(
                            job, None, source_index=index
                        )

    def _finalize_wiring(self) -> None:
        for op_rt in self._ops.values():
            op_rt.operator.wire_inputs(max(1, op_rt.input_channel_count))
            if isinstance(op_rt.operator, WindowedJoinOperator):
                graph = op_rt.job.graph
                left_stage = graph.upstream(op_rt.stage.name)[0]
                sides = [
                    0 if getattr(sender, "stage", None) == left_stage else 1
                    for sender in op_rt.channel_senders
                ]
                op_rt.operator.set_channel_sides(sides)
            if op_rt.converter is not None:
                self._seed_converter(op_rt.converter, op_rt.job, op_rt.stage.name)
            self.resolve_links(op_rt)
        for key, converter in self._client_converters.items():
            _, job_name, stage_name, _ = key
            job = self._jobs[job_name]
            # the client's "downstream" is the source stage itself
            converter.seed_reply_state(
                stage_name,
                job.graph.stage(stage_name).cost.nominal(0),
                job.graph.critical_path_cost(stage_name),
            )

    def resolve_links(self, op_rt: OperatorRuntime) -> None:
        """(Re)build the per-target delivery caches of ``op_rt``'s routes.

        Pre-resolves the delivery channel, input-channel index and transit
        delay.  Also called by the transport when a migration changes a node
        id a cached transit was computed from."""
        for route in op_rt.routes:
            route.links = [
                (
                    dst_rt,
                    self._channels.channel(op_rt.address, dst_rt.address),
                    dst_rt.channel_index_of(op_rt.address),
                    self._delay_model.delay(op_rt.node_id, dst_rt.node_id),
                )
                for dst_rt in route.targets
            ]

    def _seed_converter(
        self, converter: ContextConverter, job: JobSpec, stage_name: str
    ) -> None:
        for dst_name in job.graph.downstream(stage_name):
            converter.seed_reply_state(
                dst_name,
                job.graph.stage(dst_name).cost.nominal(0),
                job.graph.critical_path_cost(dst_name),
            )
