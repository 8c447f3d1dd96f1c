"""Seeded random-number streams.

Each component (arrival generator, network loss, profile-noise
injector...) draws from its *own* named substream so that adding randomness
to one component never shifts the numbers another component sees.  This is
what makes A/B comparisons between schedulers meaningful: the workload is
bit-identical across the compared runs.
"""

from __future__ import annotations

import numpy as np


class RngRegistry:
    """Hands out independent :class:`numpy.random.Generator` substreams by name.

    Substreams are derived from the root seed and the stream name, so the
    same ``(seed, name)`` pair always yields the same sequence regardless of
    creation order.
    """

    def __init__(self, seed: int = 0):
        if not isinstance(seed, (int, np.integer)):
            raise TypeError(f"seed must be an int, got {type(seed).__name__}")
        self._seed = int(seed)
        self._streams: dict[str, np.random.Generator] = {}

    @property
    def seed(self) -> int:
        return self._seed

    def stream(self, name: str) -> np.random.Generator:
        """Return the generator for ``name``, creating it on first use."""
        generator = self._streams.get(name)
        if generator is None:
            child_seed = np.random.SeedSequence(
                self._seed, spawn_key=(_stable_hash(name),)
            )
            generator = np.random.Generator(np.random.PCG64(child_seed))
            self._streams[name] = generator
        return generator

    def fork(self, salt: int) -> "RngRegistry":
        """Derive a registry with a different root seed (for replicated runs)."""
        return RngRegistry(self._seed * 1_000_003 + salt)


def _stable_hash(name: str) -> int:
    """A deterministic 32-bit hash of a string (Python's hash() is salted)."""
    value = 2166136261
    for byte in name.encode("utf-8"):
        value = ((value ^ byte) * 16777619) & 0xFFFFFFFF
    return value
