"""The benchmark wraps program functions by their class-attribute names.

``perfbench.layers.install`` looks each name up in the owning class's
``__dict__``, so renaming or inheriting one of them breaks a traced
benchmark run.  Installing here makes that a tier-1 failure instead.
"""

from perfbench import layers
from perfbench.tracer import Tracer

from repro.sim.kernel import Simulator


def test_every_patched_name_resolves():
    tracer = Tracer()
    try:
        layers.install(tracer)  # a missing name raises KeyError here
        for name in ("schedule", "schedule_at", "schedule_fast",
                     "schedule_at_fast", "try_advance", "run"):
            assert hasattr(Simulator.__dict__[name], "__wrapped__"), name
    finally:
        tracer.uninstall()
    assert not hasattr(Simulator.__dict__["schedule_at_fast"], "__wrapped__")
