"""Operator lifecycle: dynamic reconfiguration as a runtime primitive.

The paper motivates Cameo with operators that *stay put* while the
scheduler absorbs load variation (§1-2), but a layered runtime should
still support the reconfigurations production engines lean on — live
operator migration and elastic worker pools — without a restart, the way
*Towards Fine-Grained Scalability for Stateful Stream Processing Systems*
argues reconfiguration must be a first-class runtime operation.  This
controller is that public API; experiments use it instead of poking
node worker pools or run queues directly.

Semantics:

* ``spawn(node)`` / ``retire(node)`` grow / shrink one node's worker pool
  at the current simulation instant (a retired worker finishes its current
  message, then stops taking work).
* ``rescale(node, workers)`` sets the active pool size, spawning or
  retiring as needed.
* ``rescale_stage(job, stage, parallelism)`` changes how many of a
  key-partitioned stage's built instances are *active*: upstream routes
  repartition keys modulo the new count, and every instance's
  :class:`~repro.state.store.KeyedStateStore` is split by the new key
  partition with the shards merged into the instances that now own those
  keys — state moves *with* the keys, so a mid-window rescale at a
  quiescent instant preserves aggregates exactly.  Deactivated instances'
  output channels are masked in downstream progress trackers (an idle
  instance never emits progress, so leaving its channel live would stall
  the downstream frontier forever).
* ``migrate(op, dst_node)`` moves an operator to another node: its run
  queue entry on the source node is discarded, the mailbox is drained
  into a mailbox of the destination's discipline (preserving pop order),
  placement-dependent caches are rewired in place, and the operator is
  re-registered with the destination run queue.  If the operator is busy
  on a worker, the move completes when that worker releases it (mailbox
  drained or quantum boundary) — the in-flight quantum still executes,
  and is accounted, on the source node.

Determinism: every step runs at a simulation instant through the kernel's
ordinary scheduling primitives, so a run with migrations is exactly as
reproducible as one without.
"""

from __future__ import annotations

from typing import Optional, Union

from repro.dataflow.jobs import JobSpec
from repro.dataflow.operators import OpAddress
from repro.runtime.topology import OperatorRuntime
from repro.runtime.workers import Worker


def check_stage_rescale(
    jobs: dict[str, JobSpec], job_name: str, stage_name: str, parallelism: int
) -> None:
    """Raise unless ``parallelism`` active instances is a valid rescale of
    the job's stage: a known job (``KeyError``), a known stage, a count in
    ``1..`` its built parallelism, and a key-partitioned stage when more
    than one instance is built (``ValueError``).  The mp backend checks
    when the rescale is scheduled, before any worker sees it."""
    if job_name not in jobs:
        raise KeyError(f"unknown job {job_name!r}")
    job = jobs[job_name]
    try:
        stage = job.graph.stage(stage_name)
    except KeyError:
        raise ValueError(f"unknown stage {job.name}/{stage_name}") from None
    built = stage.parallelism
    if not 1 <= parallelism <= built:
        raise ValueError(
            f"active count must be in 1..{built} (built parallelism), "
            f"got {parallelism}"
        )
    if built > 1 and not stage.key_partitioned:
        raise ValueError(f"stage {job.name}/{stage_name} is not key-partitioned")


def apply_stage_rescale(
    ops: dict, job_name: str, stage_name: str, parallelism: int
) -> int:
    """Core of a stage rescale, over any ``address -> OperatorRuntime`` map.

    Shared by the sim :class:`OperatorLifecycle` and the mp backend's
    in-worker rescale (both backends build their topology with the same
    :class:`~repro.runtime.topology.TopologyBuilder`, so routes, stores
    and progress trackers have identical shapes).  Returns the number of
    keys whose state moved."""
    jobs = {address.job: op_rt.job for address, op_rt in ops.items()}
    check_stage_rescale(jobs, job_name, stage_name, parallelism)
    instances = sorted(
        (
            op_rt
            for address, op_rt in ops.items()
            if address.job == job_name and address.stage == stage_name
        ),
        key=lambda op_rt: op_rt.address.index,
    )
    stage = instances[0].stage
    # 1. flip every upstream route into the stage to the new active count
    for op_rt in ops.values():
        for route in op_rt.routes:
            if route.dst_stage is stage and route.targets[0].job is instances[0].job:
                route.active = parallelism
    # 2. move state with the keys: each instance splits out the keys it
    #    no longer owns and the shard merges into the new owner
    moved = 0
    for i, src_rt in enumerate(instances):
        store = src_rt.operator.state_store
        if store is None:
            continue
        for j in range(parallelism):
            if j == i:
                continue
            shard = store.split(
                lambda key, _j=j, _p=parallelism: key % _p == _j
            )
            moved += shard.key_count()
            dst_store = instances[j].operator.state_store
            if dst_store is not None:
                dst_store.merge(shard)
    # 3. mask (or restore) deactivated instances' output channels in
    #    downstream progress trackers so the frontier never stalls on a
    #    channel that will carry no more progress
    for i, src_rt in enumerate(instances):
        active = i < parallelism
        for route in src_rt.routes:
            for link in route.links:
                dst_rt = link[0]
                progress = dst_rt.operator.progress
                if progress is not None:
                    progress.set_channel_active(link[2], active)
    return moved


class OperatorLifecycle:
    """Public reconfiguration API over a running engine."""

    def __init__(self, sim, nodes: list, ops: dict, transport):
        self._sim = sim
        self._nodes = nodes
        self._ops = ops
        self._transport = transport
        #: completed migrations, for tests and the topology dump
        self.completed_migrations = 0
        #: migrations deferred because the operator was busy
        self.deferred_migrations = 0
        #: completed stage rescales and keys moved by them
        self.stage_rescales = 0
        self.keys_moved = 0
        #: optional observer called as ``on_move(op_rt, src, dst)`` at the
        #: instant a migration completes (the recovery layer's ownership
        #: log hangs off this; None costs nothing)
        self.on_move = None

    # ------------------------------------------------------------------
    # elastic worker pools
    # ------------------------------------------------------------------

    def spawn(self, node_id: int) -> Worker:
        """Grow a node's worker pool by one at the current instant."""
        return self._nodes[node_id].add_worker()

    def retire(self, node_id: int) -> Optional[Worker]:
        """Shrink a node's pool by one; never retires the last worker.

        Returns the retired worker, or None when the node is already down
        to a single active worker."""
        return self._nodes[node_id].retire_worker()

    def rescale(self, node_id: int, workers: int) -> int:
        """Set a node's *active* worker count; returns the resulting count.

        Grows with :meth:`spawn` and shrinks with :meth:`retire`, so the
        result may stay above the target when shrinking below one worker
        is requested (the last worker is never retired)."""
        if workers < 1:
            raise ValueError("target worker count must be >= 1")
        node = self._nodes[node_id]
        while node.active_worker_count < workers:
            self.spawn(node_id)
        while node.active_worker_count > workers:
            if self.retire(node_id) is None:
                break
        return node.active_worker_count

    # ------------------------------------------------------------------
    # stage rescaling (key-granular state movement)
    # ------------------------------------------------------------------

    def rescale_stage(self, job_name: str, stage_name: str, parallelism: int) -> int:
        """Set the number of *active* instances of a key-partitioned stage.

        The stage keeps every built instance and channel; only the key
        partition changes.  Upstream routes flip to ``parallelism`` active
        targets, then each instance splits out the keys it no longer owns
        under ``key % parallelism`` and the shards merge into the new
        owners' stores — accumulator objects move whole, so per-key fold
        order (and therefore every float) is unchanged.  Instances beyond
        the active count have their output channels masked in downstream
        progress trackers; growing back restores them.

        Exact when the stage's input channels are quiescent at the flip
        instant (no in-flight batches keyed under the old partition);
        value-conserving regardless.  Returns the number of keys moved."""
        moved = apply_stage_rescale(self._ops, job_name, stage_name, parallelism)
        self.stage_rescales += 1
        self.keys_moved += moved
        return moved

    def migrate(
        self, op: Union[OpAddress, OperatorRuntime], dst_node: int
    ) -> bool:
        """Move an operator to ``dst_node``.

        Returns True when the move completed immediately, False when the
        operator was busy and the move will complete at its next release
        point (a later ``migrate`` call may redirect a still-pending
        move)."""
        op_rt = op if isinstance(op, OperatorRuntime) else self._ops[op]
        if not 0 <= dst_node < len(self._nodes):
            raise ValueError(f"unknown node {dst_node}")
        if dst_node == op_rt.node_id:
            op_rt.pending_migration = None
            return True
        if op_rt.busy:
            op_rt.pending_migration = dst_node
            self.deferred_migrations += 1
            return False
        self._move(op_rt, dst_node)
        return True

    def evacuate(self, node_id: int, targets: list[int]) -> list[OperatorRuntime]:
        """Move every operator off ``node_id``, round-robin over ``targets``.

        The crash fail-over primitive: a dead node's operators are respawned
        on survivors in deterministic registration order.  The source node's
        mailboxes are empty at this point (crash cleared them), so every
        move completes immediately.  Returns the moved operators."""
        if not targets:
            raise ValueError("evacuation needs at least one target node")
        moved = []
        cursor = 0
        for op_rt in self._ops.values():
            if op_rt.node_id != node_id:
                continue
            op_rt.busy = False  # any in-flight quantum died with the node
            op_rt.pending_migration = None
            self.migrate(op_rt, targets[cursor % len(targets)])
            cursor += 1
            moved.append(op_rt)
        return moved

    def finish_migration(self, op_rt: OperatorRuntime) -> None:
        """Complete a deferred move; called by the node dispatch loop at
        the release point of an operator with ``pending_migration`` set."""
        dst_node = op_rt.pending_migration
        op_rt.pending_migration = None
        if dst_node is not None and dst_node != op_rt.node_id:
            self._move(op_rt, dst_node)

    def _move(self, op_rt: OperatorRuntime, dst_node: int) -> None:
        src = self._nodes[op_rt.node_id]
        dst = self._nodes[dst_node]
        if self.on_move is not None:
            self.on_move(op_rt, op_rt.node_id, dst_node)
        # 1. forget the operator on the source node's run queue
        src.run_queue.discard(op_rt)
        # 2. drain the mailbox into the destination discipline, preserving
        #    pop order (stable: equal-priority messages keep their order)
        old_mailbox = op_rt.mailbox
        new_mailbox = dst.run_queue.create_mailbox()
        while len(old_mailbox) > 0:
            new_mailbox.push(old_mailbox.pop())
        op_rt.mailbox = new_mailbox
        # 3. re-place and rewire every placement-dependent cache
        op_rt.node_id = dst_node
        self._transport.rewire(op_rt)
        op_rt.migrations += 1
        self.completed_migrations += 1
        # 4. re-register with the destination run queue
        if len(new_mailbox) > 0:
            dst.run_queue.notify(op_rt, self._sim.now, None)
            dst.wake_idle_worker()
