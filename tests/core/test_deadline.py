"""Unit tests for start-deadline arithmetic (Eqs. 1-3)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.deadline import start_deadline


class TestStartDeadline:
    def test_equation_1_single_operator(self):
        # ddl = t + L - C_oM (no downstream path)
        assert start_deadline(10.0, 5.0, 1.0, 0.0) == 14.0

    def test_equation_2_with_critical_path(self):
        # paper's example: ddl_M2 = 30 + 50 - 20 = 60
        assert start_deadline(30.0, 50.0, 20.0, 0.0) == 60.0

    def test_equation_3_frontier_extension(self):
        # windowed: t_MF replaces t, extending the deadline
        regular = start_deadline(10.0, 5.0, 1.0, 2.0)
        windowed = start_deadline(18.0, 5.0, 1.0, 2.0)
        assert windowed - regular == 8.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            start_deadline(0.0, 1.0, -0.1, 0.0)
        with pytest.raises(ValueError):
            start_deadline(0.0, 1.0, 0.0, -0.1)

    def test_negative_constraint_rejected(self):
        with pytest.raises(ValueError):
            start_deadline(0.0, -1.0, 0.0, 0.0)


@given(
    t=st.floats(min_value=0, max_value=1e6),
    constraint=st.floats(min_value=0, max_value=1e4),
    c_m=st.floats(min_value=0, max_value=100),
    c_path=st.floats(min_value=0, max_value=100),
)
@settings(max_examples=200)
def test_property_deadline_monotonic(t, constraint, c_m, c_path):
    """Deadlines grow with slack and shrink with cost."""
    base = start_deadline(t, constraint, c_m, c_path)
    assert start_deadline(t + 1, constraint, c_m, c_path) == pytest.approx(base + 1)
    assert start_deadline(t, constraint + 1, c_m, c_path) == pytest.approx(base + 1)
    assert start_deadline(t, constraint, c_m + 1, c_path) == pytest.approx(base - 1)
    assert start_deadline(t, constraint, c_m, c_path + 1) == pytest.approx(base - 1)
