"""Online cost profiling.

Cameo derives ``C_oM`` and ``C_path`` "by profiling" (§4.2.1).  The
profiler keeps an exponentially-weighted moving average of measured
per-message execution cost for every operator, warm-started from the
stage's nominal cost model (equivalent to an offline profiling pass).

Figure 16 studies robustness to *inaccurate* profiles: the optional
:class:`GaussianNoiseInjector` perturbs each reported measurement with
N(0, sigma) before it reaches the moving average, exactly as the paper
perturbs measured profile costs.
"""

from __future__ import annotations

from typing import Hashable, Optional

import numpy as np


class GaussianNoiseInjector:
    """Adds N(0, sigma) noise to cost measurements (Fig. 16).  Costs are
    floored at zero — a negative execution time is meaningless."""

    def __init__(self, sigma: float, rng: np.random.Generator):
        if sigma < 0:
            raise ValueError("sigma must be non-negative")
        self._sigma = sigma
        self._rng = rng

    @property
    def sigma(self) -> float:
        return self._sigma

    def perturb(self, cost: float) -> float:
        if self._sigma == 0.0:
            return cost
        return max(0.0, cost + float(self._rng.normal(0.0, self._sigma)))


#: EWMA weight of one online cost measurement
PROFILER_ALPHA = 0.2


class CostProfiler:
    """EWMA of per-message execution cost, keyed by operator address."""

    def __init__(self, alpha: float = PROFILER_ALPHA,
                 noise: Optional[GaussianNoiseInjector] = None):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("alpha must be in (0, 1]")
        self._alpha = alpha
        self._noise = noise
        self._estimates: dict[Hashable, float] = {}
        self._samples: dict[Hashable, int] = {}

    def seed(self, key: Hashable, nominal_cost: float) -> None:
        """Warm-start an operator's estimate (offline-profiling equivalent).
        Does not overwrite an estimate that already has online samples."""
        if key not in self._estimates:
            self._estimates[key] = max(0.0, nominal_cost)

    def record(self, key: Hashable, measured_cost: float) -> None:
        """Fold one measured execution into the moving average."""
        if measured_cost < 0:
            raise ValueError("measured cost must be non-negative")
        if self._noise is not None:
            measured_cost = self._noise.perturb(measured_cost)
        current = self._estimates.get(key)
        if current is None:
            self._estimates[key] = measured_cost
        else:
            self._estimates[key] = (1 - self._alpha) * current + self._alpha * measured_cost
        self._samples[key] = self._samples.get(key, 0) + 1

    def estimate(self, key: Hashable, default: float = 0.0) -> float:
        """Current cost estimate for the operator (``C_oM``)."""
        return self._estimates.get(key, default)

    def sample_count(self, key: Hashable) -> int:
        return self._samples.get(key, 0)
