"""Worker telemetry bus: the node sampler's mp wire format and log.

Each worker process reads itself with the shared sampler
(:func:`repro.obs.introspect.sample`) every
``EngineConfig.trace_sample_interval`` wall-clock seconds, struct-packs the
:class:`~repro.obs.spans.SchedSample` records (one fixed-size
little-endian record per sample, no pickle) and ships them to the
coordinator in ``TELEMETRY`` control frames piggybacked on the heartbeat
cadence.  The coordinator folds every worker's stream into one
:class:`TelemetryLog` time series, reconciling per-worker clocks with the
offsets measured at the CLOCK/CLOCK_ACK barrier exchange (see
:mod:`repro.obs.merge`).

This is deliberately the sensor substrate a closed-loop autoscale
controller needs (see ROADMAP "Closed-loop autoscaling"): per-node queue
depth and utilization are the load signals the DRS-style parallelism
model consumes, ``state_bytes`` is the migration-cost signal, and the
log's stable export (:meth:`TelemetryLog.as_dicts`) is the interface a
controller can replay offline — in the record the sim backend samples too.

The bus follows the observability plane's null-collaborator idiom: with
telemetry off the worker holds no buffer and no interval, so the dispatch
loop sees a single dead ``is None`` branch and nothing else.
"""

from __future__ import annotations

import struct
from operator import attrgetter

from repro.obs.spans import SchedSample

#: one packed sample, in ``SchedSample.__slots__`` order: time, node,
#: depth, head priority, busy / active workers, utilization, then the
#: eight cumulative or gauge integers
_RECORD = struct.Struct("<diidiidqqqqqqqq")
_FIELDS = attrgetter(*SchedSample.__slots__)


def pack_samples(samples: list[SchedSample]) -> bytes:
    """Struct-pack samples for a ``TELEMETRY`` frame (no pickle)."""
    return b"".join(_RECORD.pack(*_FIELDS(s)) for s in samples)


def unpack_samples(data: bytes) -> list[SchedSample]:
    """Inverse of :func:`pack_samples`."""
    if len(data) % _RECORD.size:
        raise ValueError(
            f"telemetry payload is not a whole number of records "
            f"({len(data)} bytes, record size {_RECORD.size})"
        )
    return [SchedSample(*fields) for fields in _RECORD.iter_unpack(data)]


class TelemetryLog:
    """Coordinator-side fold of every worker's telemetry stream.

    Samples are appended as ``TELEMETRY`` frames arrive (already adjusted
    onto the coordinator's clock axis); views sort deterministically by
    ``(time, node)`` so the export is stable regardless of frame
    interleaving."""

    def __init__(self):
        self.samples: list[SchedSample] = []

    def extend(self, samples: list[SchedSample]) -> None:
        self.samples.extend(samples)

    def __len__(self) -> int:
        return len(self.samples)

    def sorted_samples(self) -> list[SchedSample]:
        return sorted(self.samples, key=lambda s: (s.time, s.node_id))

    def per_node(self) -> dict[int, list[SchedSample]]:
        """node_id -> its samples in time order."""
        series: dict[int, list[SchedSample]] = {}
        for sample in self.sorted_samples():
            series.setdefault(sample.node_id, []).append(sample)
        return series

    def as_dicts(self) -> list[dict]:
        """Stable JSON-able export (the autoscaler-facing interface)."""
        return [s.as_dict() for s in self.sorted_samples()]

    def summary(self) -> dict:
        nodes = sorted({s.node_id for s in self.samples})
        return {
            "telemetry_samples": len(self.samples),
            "telemetry_nodes": nodes,
        }
