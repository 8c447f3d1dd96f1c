"""PROGRESSMAP: map frontier progress to frontier time (§4.3 step 2).

Two implementations, matching the paper's two supported time domains:

* ingestion time — logical time *is* the system arrival time, so the map is
  the identity;
* event time — logical and physical time are separated by a small,
  roughly constant ingestion gap, so the map is an online linear fit
  ``t = α·p + γ`` over a running window of observed ``(p_M, t_M)`` pairs
  (Alg. 1 line 15 feeds the model on every conversion).

When the fit cannot be trusted yet (fewer than two distinct points), the
mapper reports "unavailable" and the converter falls back to treating the
windowed operator as regular (§4.3 last paragraph).
"""

from __future__ import annotations

import math
from collections import deque
from typing import Optional


#: observation window (points) of the PROGRESSMAP regression
PROGRESS_WINDOW = 64


class ProgressMap:
    """Interface: update with observations, map progress to wall-clock time."""

    def update(self, p: float, t: float) -> None:
        raise NotImplementedError

    def map(self, p: float) -> Optional[float]:
        """Estimated wall-clock time at which progress ``p`` is fully
        observed, or None when no estimate is available yet."""
        raise NotImplementedError


class IdentityProgressMap(ProgressMap):
    """Ingestion-time domain: ``t_MF = p_MF``."""

    def update(self, p: float, t: float) -> None:  # observations are irrelevant
        pass

    def map(self, p: float) -> Optional[float]:
        return p


class LinearProgressMap(ProgressMap):
    """Event-time domain: online least-squares fit over a running window.

    Maintains running sums over a bounded deque so both ``update`` and
    ``map`` are O(1).  With a single distinct observation the model assumes
    unit slope through the last point (events ingested in near real time,
    which is the production setting the paper describes).
    """

    def __init__(self, window: int = PROGRESS_WINDOW, min_points: int = 2):
        if window < 2:
            raise ValueError("regression window must hold at least 2 points")
        self._window = window
        self._min_points = max(1, min_points)
        self._points: deque[tuple[float, float]] = deque()
        self._sum_p = 0.0
        self._sum_t = 0.0
        self._sum_pp = 0.0
        self._sum_pt = 0.0

    @property
    def observation_count(self) -> int:
        return len(self._points)

    def update(self, p: float, t: float) -> None:
        if not (math.isfinite(p) and math.isfinite(t)):
            return  # union frontiers may be -inf before all inputs speak
        self._points.append((p, t))
        self._sum_p += p
        self._sum_t += t
        self._sum_pp += p * p
        self._sum_pt += p * t
        if len(self._points) > self._window:
            old_p, old_t = self._points.popleft()
            self._sum_p -= old_p
            self._sum_t -= old_t
            self._sum_pp -= old_p * old_p
            self._sum_pt -= old_p * old_t

    def coefficients(self) -> Optional[tuple[float, float]]:
        """Fitted ``(alpha, gamma)`` of ``t = alpha*p + gamma``, or None."""
        n = len(self._points)
        if n < self._min_points:
            return None
        denominator = n * self._sum_pp - self._sum_p * self._sum_p
        if abs(denominator) < 1e-12:
            # all observed progress values identical: unit slope through the
            # mean point (constant ingestion gap assumption)
            mean_p = self._sum_p / n
            mean_t = self._sum_t / n
            return (1.0, mean_t - mean_p)
        alpha = (n * self._sum_pt - self._sum_p * self._sum_t) / denominator
        gamma = (self._sum_t - alpha * self._sum_p) / n
        return (alpha, gamma)

    def map(self, p: float) -> Optional[float]:
        coefficients = self.coefficients()
        if coefficients is None:
            return None
        alpha, gamma = coefficients
        return alpha * p + gamma


def make_progress_map(time_domain: str) -> ProgressMap:
    """Factory keyed by the job's time domain (§4.3)."""
    if time_domain == "ingestion":
        return IdentityProgressMap()
    if time_domain == "event":
        return LinearProgressMap()
    raise ValueError(f"unknown time domain {time_domain!r}")
