"""Discrete-event simulation substrate (kernel, RNG streams, network models)."""

from repro.sim.kernel import SimulationError, Simulator
from repro.sim.network import (
    ChannelTable,
    ConstantDelay,
    FifoChannel,
)
from repro.sim.rng import RngRegistry

__all__ = [
    "ChannelTable",
    "ConstantDelay",
    "FifoChannel",
    "RngRegistry",
    "SimulationError",
    "Simulator",
]
