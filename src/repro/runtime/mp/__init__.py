"""Process-backed execution backend (``backend="mp"``).

Each node of the configured cluster runs as a real worker process; the
coordinator replays a deterministically captured ingest trace into the
workers, which run the node runtime's dispatch loop on a wall clock and
exchange framed, batched messages over multiprocessing pipes through a
:class:`~repro.runtime.mp.transport.ProcessTransport` — the simulated
:class:`~repro.runtime.transport.Transport` with pipes and outboxes as
its delivery layer.  The reliability layer over
those channels is :mod:`repro.runtime.delivery` — the one go-back-N core
and driver both backends run — through a wall-clock port
(:class:`~repro.runtime.mp.reliable.MpReliableDelivery`) where the sim has
a kernel-timed one.  See ``docs/architecture.md`` ("Process
backend") for the frame format, the ack flow, the FIFO-order argument and
the determinism caveats relative to the sim backend.
"""

from repro.runtime.mp.engine import MpStreamEngine

__all__ = ["MpStreamEngine"]
