"""Operator placement strategies.

Placement decides which operators share a node's worker pool — the essence
of the multi-tenant setting.  ``round_robin`` interleaves all jobs'
operators across nodes (maximal collocation, the configuration the paper's
multi-tenant experiments stress); ``pack_by_job`` gives each job its own
node modulo the cluster size (closer to a slot-reserved deployment, used in
the Fig. 1 motivation experiment).
"""

from __future__ import annotations

from typing import Iterable

from repro.dataflow.operators import OpAddress

PLACEMENTS = ("round_robin", "pack_by_job", "single_node")


class Placement:
    """Maps every operator address to a node id, deterministically."""

    def __init__(self, strategy: str, node_count: int):
        if strategy not in PLACEMENTS:
            raise ValueError(f"unknown placement {strategy!r}; expected {PLACEMENTS}")
        if node_count < 1:
            raise ValueError("need at least one node")
        self._strategy = strategy
        self._node_count = node_count

    def assign(self, addresses: Iterable[OpAddress]) -> dict[OpAddress, int]:
        """Assign nodes to the given addresses (stable in input order)."""
        addresses = list(addresses)
        if self._strategy == "single_node":
            return {a: 0 for a in addresses}
        if self._strategy == "round_robin":
            return {a: i % self._node_count for i, a in enumerate(addresses)}
        # pack_by_job: all of a job's operators land on one node
        job_order: dict[str, int] = {}
        assignment = {}
        for address in addresses:
            if address.job not in job_order:
                job_order[address.job] = len(job_order)
            assignment[address] = job_order[address.job] % self._node_count
        return assignment


def place_operators(config, jobs: Iterable) -> dict[OpAddress, int]:
    """Node of every operator instance of ``jobs``, in (job, stage, index)
    order — a pure function of the config, so the topology builder and
    every process of the mp backend derive the same placement."""
    addresses = [
        OpAddress(job.name, stage_name, index)
        for job in jobs
        for stage_name in job.graph.stage_names
        for index in range(job.graph.stage(stage_name).parallelism)
    ]
    return Placement(config.placement, config.nodes).assign(addresses)
