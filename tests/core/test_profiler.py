"""Unit tests for cost profiling and noise injection (Fig. 16's mechanism)."""

import numpy as np
import pytest

from repro.core.profiler import CostProfiler, GaussianNoiseInjector


class TestCostProfiler:
    def test_default_estimate(self):
        assert CostProfiler().estimate("op", default=0.5) == 0.5

    def test_seed_sets_initial_estimate(self):
        profiler = CostProfiler()
        profiler.seed("op", 0.01)
        assert profiler.estimate("op") == 0.01

    def test_seed_never_overwrites(self):
        profiler = CostProfiler()
        profiler.seed("op", 0.01)
        profiler.seed("op", 0.99)
        assert profiler.estimate("op") == 0.01

    def test_first_record_without_seed_sets_estimate(self):
        profiler = CostProfiler()
        profiler.record("op", 0.02)
        assert profiler.estimate("op") == 0.02

    def test_ewma_converges_to_constant_cost(self):
        profiler = CostProfiler(alpha=0.3)
        profiler.seed("op", 1.0)
        for _ in range(100):
            profiler.record("op", 0.01)
        assert profiler.estimate("op") == pytest.approx(0.01, rel=0.01)

    def test_ewma_formula(self):
        profiler = CostProfiler(alpha=0.5)
        profiler.record("op", 1.0)
        profiler.record("op", 0.0)
        assert profiler.estimate("op") == pytest.approx(0.5)

    def test_negative_cost_rejected(self):
        with pytest.raises(ValueError):
            CostProfiler().record("op", -0.1)

    @pytest.mark.parametrize("alpha", [0.0, -0.1, 1.5])
    def test_invalid_alpha_rejected(self, alpha):
        with pytest.raises(ValueError):
            CostProfiler(alpha=alpha)

    def test_keys_independent(self):
        profiler = CostProfiler()
        profiler.record("a", 0.1)
        profiler.record("b", 0.9)
        assert profiler.estimate("a") == 0.1
        assert profiler.estimate("b") == 0.9


class TestNoiseInjector:
    def test_zero_sigma_is_identity(self):
        injector = GaussianNoiseInjector(0.0, np.random.default_rng(0))
        assert injector.perturb(0.5) == 0.5

    def test_noise_floors_at_zero(self):
        injector = GaussianNoiseInjector(10.0, np.random.default_rng(0))
        assert all(injector.perturb(0.001) >= 0.0 for _ in range(100))

    def test_noise_is_unbiased_at_scale(self):
        injector = GaussianNoiseInjector(0.1, np.random.default_rng(0))
        samples = [injector.perturb(1.0) for _ in range(2000)]
        assert np.mean(samples) == pytest.approx(1.0, abs=0.02)

    def test_negative_sigma_rejected(self):
        with pytest.raises(ValueError):
            GaussianNoiseInjector(-1.0, np.random.default_rng(0))

    def test_profiler_applies_noise(self):
        rng = np.random.default_rng(1)
        profiler = CostProfiler(alpha=1.0, noise=GaussianNoiseInjector(0.5, rng))
        profiler.record("op", 1.0)
        assert profiler.estimate("op") != 1.0
