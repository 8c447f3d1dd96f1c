"""Unit tests for the discrete-event simulation kernel."""

import pytest

from repro.sim.kernel import SimulationError, Simulator


def test_starts_at_zero():
    assert Simulator().now == 0.0


def test_schedule_and_run_fires_callback():
    sim = Simulator()
    fired = []
    sim.schedule(1.5, fired.append, "a")
    sim.run()
    assert fired == ["a"]
    assert sim.now == 1.5


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, order.append, 3)
    sim.schedule(1.0, order.append, 1)
    sim.schedule(2.0, order.append, 2)
    sim.run()
    assert order == [1, 2, 3]


def test_ties_break_by_insertion_order():
    sim = Simulator()
    order = []
    for i in range(10):
        sim.schedule(1.0, order.append, i)
    sim.run()
    assert order == list(range(10))


def test_schedule_in_past_raises():
    sim = Simulator()
    sim.schedule(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(0.5, lambda: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        Simulator().schedule(-1.0, lambda: None)


def test_nan_time_raises():
    with pytest.raises(SimulationError):
        Simulator().schedule_at(float("nan"), lambda: None)


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, fired.append, "early")
    sim.schedule(10.0, fired.append, "late")
    sim.run(until=5.0)
    assert fired == ["early"]
    assert sim.now == 5.0  # clock advanced to the horizon
    sim.run(until=20.0)
    assert fired == ["early", "late"]


def test_run_until_advances_clock_on_empty_heap():
    sim = Simulator()
    sim.run(until=7.0)
    assert sim.now == 7.0


def test_callbacks_can_schedule_more_events():
    sim = Simulator()
    fired = []

    def chain(n):
        fired.append(n)
        if n < 5:
            sim.schedule(1.0, chain, n + 1)

    sim.schedule(0.0, chain, 0)
    sim.run()
    assert fired == [0, 1, 2, 3, 4, 5]
    assert sim.now == 5.0


def test_zero_delay_event_fires_at_same_time():
    sim = Simulator()
    times = []
    sim.schedule(2.0, lambda: sim.schedule(0.0, lambda: times.append(sim.now)))
    sim.run()
    assert times == [2.0]


def test_fired_count_tracks_executions():
    sim = Simulator()
    for _ in range(4):
        sim.schedule(1.0, lambda: None)
    sim.run()
    assert sim.fired_count == 4


def test_run_not_reentrant():
    sim = Simulator()
    errors = []

    def reenter():
        try:
            sim.run()
        except SimulationError as exc:
            errors.append(exc)

    sim.schedule(1.0, reenter)
    sim.run()
    assert len(errors) == 1


# ----------------------------------------------------------------------
# the hot-path scheduling names
# ----------------------------------------------------------------------


def test_schedule_fast_fires_in_order_with_normal_events():
    sim = Simulator()
    order = []
    sim.schedule(2.0, order.append, "slow")
    sim.schedule_fast(1.0, order.append, "fast")
    sim.schedule_at_fast(3.0, order.append, "fast-at")
    sim.run()
    assert order == ["fast", "slow", "fast-at"]
    assert sim.now == 3.0


def test_schedule_fast_tie_breaks_by_insertion_order():
    sim = Simulator()
    order = []
    sim.schedule_fast(1.0, order.append, 0)
    sim.schedule(1.0, order.append, 1)
    sim.schedule_fast(1.0, order.append, 2)
    sim.run()
    assert order == [0, 1, 2]


def test_schedule_fast_rejects_past_and_nan():
    sim = Simulator()
    sim.schedule_fast(1.0, lambda: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at_fast(0.5, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_fast(-1.0, lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_at_fast(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule_fast(float("nan"), lambda: None)
    with pytest.raises(SimulationError):
        sim.schedule(float("nan"), lambda: None)


# ----------------------------------------------------------------------
# try_advance (engine inline-batching hook)
# ----------------------------------------------------------------------


def test_try_advance_outside_run_refuses():
    sim = Simulator()
    assert sim.try_advance(1.0) is False


def test_try_advance_within_run():
    sim = Simulator()
    observed = []

    def probe():
        # next event is at t=5: advancing to 4 is safe, to 5 or 6 is not
        observed.append(sim.try_advance(6.0))
        observed.append(sim.try_advance(5.0))
        observed.append(sim.try_advance(4.0))
        observed.append(sim.now)

    sim.schedule(1.0, probe)
    sim.schedule(5.0, lambda: None)
    sim.run()
    assert observed == [False, False, True, 4.0]


def test_try_advance_respects_until_horizon():
    sim = Simulator()
    observed = []

    def probe():
        observed.append(sim.try_advance(11.0))  # beyond the run horizon
        observed.append(sim.try_advance(9.0))

    sim.schedule(1.0, probe)
    sim.run(until=10.0)
    assert observed == [False, True]
    assert sim.now == 10.0
