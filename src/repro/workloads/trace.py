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


def heatmap_digest(heatmap: np.ndarray) -> str:
    """Stable content hash of a rate heatmap.

    Pinned by regression tests so refactors of the episode generator can
    never silently change same-seed output (the figures depend on it
    being bit-identical)."""
    return hashlib.sha256(
        np.ascontiguousarray(np.asarray(heatmap, dtype=np.float64)).tobytes()
    ).hexdigest()
