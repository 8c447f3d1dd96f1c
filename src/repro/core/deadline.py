"""Start-deadline arithmetic (§4.2, Equations 1-3).

The *start deadline* of a message M is the latest wall-clock time at which
M may begin executing at its target operator without violating the job's
latency constraint::

    ddl_M = t_MF + L − C_oM − C_path          (Eq. 3)

For a regular operator ``t_MF`` degrades to ``t_M`` (Eq. 2), and for a
single-operator dataflow additionally ``C_path = 0`` (Eq. 1).
"""

from __future__ import annotations


def start_deadline(t_mf: float, latency_constraint: float, c_m: float, c_path: float) -> float:
    """Equation 3: latest safe start time for the message."""
    if latency_constraint < 0:
        raise ValueError("latency constraint must be non-negative")
    if c_m < 0 or c_path < 0:
        raise ValueError("costs must be non-negative")
    return t_mf + latency_constraint - c_m - c_path

