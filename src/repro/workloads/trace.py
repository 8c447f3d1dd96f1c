"""Synthetic production-trace generator.

The paper characterises its production workload (Fig. 2) by three aggregate
properties, which this module reproduces with documented parameters:

* **volume power law** (Fig. 2a): 10% of streams carry the majority of the
  data — Zipf-like per-stream volumes;
* **temporal variability** (Fig. 2c): second-scale spikes and idle periods,
  continuously changing across sources — an on/off modulated rate heatmap;
* **spatial skew** (Fig. 10): Type 1 sources are uniform and carry 2× the
  events of Type 2, whose per-source rates vary by ~200×.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np


def power_law_volumes(
    stream_count: int, rng: np.random.Generator, alpha: float = 1.2, total: float = 1.0
) -> np.ndarray:
    """Per-stream volume shares following a Zipf-like power law.

    Returns shares summing to ``total``, sorted descending.  With the
    default ``alpha`` the top 10% of streams carry well over half the data,
    matching Fig. 2(a).
    """
    if stream_count < 1:
        raise ValueError("need at least one stream")
    ranks = np.arange(1, stream_count + 1, dtype=np.float64)
    weights = ranks ** (-alpha)
    # jitter so repeated ranks aren't perfectly deterministic across streams
    weights *= rng.uniform(0.8, 1.2, size=stream_count)
    weights = np.sort(weights)[::-1]
    return total * weights / weights.sum()


def top_k_share(volumes: np.ndarray, fraction: float = 0.1) -> float:
    """Fraction of total volume carried by the top ``fraction`` of streams."""
    if not 0 < fraction <= 1:
        raise ValueError("fraction must be in (0, 1]")
    ordered = np.sort(np.asarray(volumes, dtype=np.float64))[::-1]
    k = max(1, int(round(fraction * ordered.size)))
    total = ordered.sum()
    if total == 0:
        return float("nan")
    return float(ordered[:k].sum() / total)


def ingestion_heatmap(
    source_count: int,
    duration_s: int,
    rng: np.random.Generator,
    base_rate: float = 10.0,
    spike_rate: float = 200.0,
    spike_probability: float = 0.05,
    idle_probability: float = 0.25,
    mean_episode_s: float = 4.0,
) -> np.ndarray:
    """A (source x second) rate matrix with spikes and idle periods.

    Each source alternates between episodes of geometric duration; each
    episode is idle, normal, or a spike.  Mirrors the high temporal
    variability of Fig. 2(c).
    """
    if source_count < 1 or duration_s < 1:
        raise ValueError("heatmap dimensions must be positive")
    if not 0 <= spike_probability <= 1 or not 0 <= idle_probability <= 1:
        raise ValueError("probabilities must be within [0, 1]")
    if spike_probability + idle_probability > 1:
        raise ValueError("spike and idle probabilities must sum to at most 1")
    heatmap = np.zeros((source_count, duration_s))
    p_continue = max(0.0, 1.0 - 1.0 / mean_episode_s)
    for source in range(source_count):
        second = 0
        while second < duration_s:
            draw = rng.random()
            if draw < idle_probability:
                rate = 0.0
            elif draw < idle_probability + spike_probability:
                rate = spike_rate * rng.uniform(0.5, 1.5)
            else:
                rate = base_rate * rng.uniform(0.5, 1.5)
            length = 1 + rng.geometric(1.0 - p_continue) if p_continue > 0 else 1
            end = min(duration_s, second + int(length))
            heatmap[source, second:end] = rate
            second = end
    return heatmap


@dataclass(frozen=True)
class SkewedWorkload:
    """Per-source message rates for the Fig. 10 experiment."""

    type1_rates: np.ndarray  # uniform, 2x total volume
    type2_rates: np.ndarray  # skewed ~skew_ratio across sources

    @property
    def skew_ratio(self) -> float:
        positive = self.type2_rates[self.type2_rates > 0]
        return float(positive.max() / positive.min())


def make_skewed_workload(
    source_count: int,
    rng: np.random.Generator,
    type2_total_rate: float = 64.0,
    skew_ratio: float = 200.0,
) -> SkewedWorkload:
    """Build Type 1 / Type 2 per-source rates.

    Type 2 rates follow a geometric progression spanning ``skew_ratio``
    between the hottest and coldest source, scaled to ``type2_total_rate``
    messages/s total.  Type 1 produces twice as many events, spread evenly.
    """
    if source_count < 2:
        raise ValueError("need at least two sources to express skew")
    if skew_ratio < 1:
        raise ValueError("skew ratio must be >= 1")
    exponents = np.linspace(0.0, 1.0, source_count)
    raw = skew_ratio ** exponents
    type2 = raw * (type2_total_rate / raw.sum())
    # random ordering so hot sources are not adjacent by index
    rng.shuffle(type2)
    type1_total = 2.0 * type2_total_rate
    type1 = np.full(source_count, type1_total / source_count)
    return SkewedWorkload(type1_rates=type1, type2_rates=type2)


# ----------------------------------------------------------------------
# vectorized arrival precomputation (million-source scale)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class ArrivalTrace:
    """A precomputed, flattened arrival schedule for one tenant.

    ``times`` holds every arrival instant sorted ascending; ``sources``
    holds the source index of each arrival.  The pair is the columnar
    ("struct of arrays") form of the per-event tuples a driver loop would
    generate — precomputing it in bulk is what lets million-source sweeps
    and the process backend's ingest replay scale: generation is two
    vectorized RNG draws plus one sort, instead of one Python-level RNG
    call chain per event.
    """

    times: np.ndarray     # float64, sorted ascending
    sources: np.ndarray   # int64, source index per arrival
    source_count: int
    duration: float

    def __post_init__(self):
        if len(self.times) != len(self.sources):
            raise ValueError("times and sources must have equal length")

    @property
    def count(self) -> int:
        return len(self.times)

    def per_source(self, source: int) -> np.ndarray:
        """Arrival instants of one source (ascending)."""
        return self.times[self.sources == source]

    def shard(self, owner_by_source: np.ndarray, shard_count: int) -> list["ArrivalTrace"]:
        """Split into per-owner subtraces (shardable trace iteration).

        ``owner_by_source[i]`` names the shard owning source ``i`` — the
        same owner function the mp backend's worker ingestion uses to
        split its captured trace (placement of the source's first
        operator).  Each subtrace preserves global time order and
        per-source arrival order, and the shards partition the arrivals
        exactly: replaying all shards merged by time reproduces the
        original trace.  Vectorized: one mask pass per shard."""
        owner_by_source = np.asarray(owner_by_source, dtype=np.int64)
        if len(owner_by_source) != self.source_count:
            raise ValueError("need one owner per source")
        if owner_by_source.size and not (
            0 <= owner_by_source.min() and owner_by_source.max() < shard_count
        ):
            raise ValueError("owners must be within [0, shard_count)")
        owner_by_arrival = owner_by_source[self.sources]
        return [
            ArrivalTrace(
                times=self.times[owner_by_arrival == shard],
                sources=self.sources[owner_by_arrival == shard],
                source_count=self.source_count,
                duration=self.duration,
            )
            for shard in range(shard_count)
        ]

    def digest(self) -> str:
        """Stable content hash — regression tests pin this."""
        sha = hashlib.sha256()
        sha.update(np.ascontiguousarray(self.times).tobytes())
        sha.update(np.ascontiguousarray(self.sources).tobytes())
        sha.update(f"{self.source_count}:{self.duration!r}".encode())
        return sha.hexdigest()


def precompute_periodic_arrivals(
    rates: np.ndarray, duration: float, phase: float = 0.0
) -> ArrivalTrace:
    """Arrival arrays for periodic sources: source ``i`` fires every
    ``1/rates[i]`` seconds, first at ``phase + 1/rates[i]``.

    Matches :class:`~repro.workloads.arrivals.PeriodicArrivals` driving:
    arrivals strictly after 0 and at or before ``duration``.  Zero-rate
    sources contribute nothing.  Fully vectorized — 10^6 sources generate
    in seconds.
    """
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 1:
        raise ValueError("rates must be one-dimensional")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if np.any(rates < 0):
        raise ValueError("rates must be non-negative")
    periods = np.zeros_like(rates)
    positive = rates > 0
    periods[positive] = 1.0 / rates[positive]
    counts = np.zeros(len(rates), dtype=np.int64)
    counts[positive] = np.floor(
        (duration - phase) / periods[positive]
    ).astype(np.int64)
    counts = np.maximum(counts, 0)
    total = int(counts.sum())
    sources = np.repeat(np.arange(len(rates), dtype=np.int64), counts)
    # k-th arrival of its source (1-based): global arange minus the start
    # offset of each source's run of slots
    offsets = np.concatenate(([0], np.cumsum(counts)[:-1]))
    k = np.arange(total, dtype=np.int64) - np.repeat(offsets, counts) + 1
    times = phase + k * periods[sources]
    order = np.argsort(times, kind="stable")
    return ArrivalTrace(
        times=times[order], sources=sources[order],
        source_count=len(rates), duration=float(duration),
    )


def precompute_poisson_arrivals(
    rates: np.ndarray, duration: float, rng: np.random.Generator
) -> ArrivalTrace:
    """Arrival arrays for Poisson sources, in two bulk RNG draws.

    Uses the conditional-uniformity property of the Poisson process: the
    per-source arrival *count* over ``[0, duration]`` is
    ``Poisson(rate * duration)`` and, given the count, the arrival
    instants are i.i.d. uniform on the interval.  One vectorized
    ``poisson`` draw plus one vectorized ``random`` draw therefore
    replaces the per-event exponential-gap loop — same process in
    distribution, a million sources in seconds.  Output is deterministic
    for a given ``(rates, duration, rng state)``.
    """
    rates = np.asarray(rates, dtype=np.float64)
    if rates.ndim != 1:
        raise ValueError("rates must be one-dimensional")
    if duration <= 0:
        raise ValueError("duration must be positive")
    if np.any(rates < 0):
        raise ValueError("rates must be non-negative")
    counts = rng.poisson(rates * duration)
    total = int(counts.sum())
    sources = np.repeat(np.arange(len(rates), dtype=np.int64), counts)
    times = rng.random(total) * duration
    # sort by time (stable: simultaneous arrivals keep source order)
    order = np.argsort(times, kind="stable")
    return ArrivalTrace(
        times=times[order], sources=sources[order],
        source_count=len(rates), duration=float(duration),
    )


def heatmap_to_arrivals(
    heatmap: np.ndarray, rng: np.random.Generator
) -> ArrivalTrace:
    """Vectorized arrivals for a (source x second) rate heatmap.

    Every (source, second) cell is an independent Poisson-count draw at
    the cell's rate with uniform placement inside the second — the bulk
    equivalent of replaying :func:`ingestion_heatmap` through per-event
    driver loops.  A million-source heatmap turns into arrival arrays in
    seconds instead of hours.
    """
    heatmap = np.asarray(heatmap, dtype=np.float64)
    if heatmap.ndim != 2:
        raise ValueError("heatmap must be (source x second)")
    source_count, duration_s = heatmap.shape
    counts = rng.poisson(heatmap)                      # (source, second)
    total = int(counts.sum())
    flat = counts.ravel()                              # source-major
    cells = np.repeat(np.arange(flat.size, dtype=np.int64), flat)
    sources = cells // duration_s
    seconds = cells % duration_s
    times = seconds + rng.random(total)
    order = np.argsort(times, kind="stable")
    return ArrivalTrace(
        times=times[order], sources=sources[order],
        source_count=source_count, duration=float(duration_s),
    )


def heatmap_digest(heatmap: np.ndarray) -> str:
    """Stable content hash of a rate heatmap.

    Pinned by regression tests so refactors of the episode generator can
    never silently change same-seed output (the figures depend on it
    being bit-identical)."""
    return hashlib.sha256(
        np.ascontiguousarray(np.asarray(heatmap, dtype=np.float64)).tobytes()
    ).hexdigest()
