"""Unit tests for the synthetic production-trace generator (Fig. 2 props)."""

import numpy as np
import pytest

from repro.sim.rng import RngRegistry
from repro.workloads.trace import (
    ingestion_heatmap,
    make_skewed_workload,
    power_law_volumes,
    top_k_share,
)


def rng():
    return RngRegistry(0).stream("test")


class TestPowerLawVolumes:
    def test_sums_to_total(self):
        volumes = power_law_volumes(100, rng(), total=5.0)
        assert volumes.sum() == pytest.approx(5.0)

    def test_sorted_descending(self):
        volumes = power_law_volumes(50, rng())
        assert (np.diff(volumes) <= 0).all()

    def test_top_10pct_carries_majority(self):
        # the paper's Fig. 2(a): 10% of streams process a majority of data
        volumes = power_law_volumes(200, rng())
        assert top_k_share(volumes, 0.1) > 0.5

    def test_single_stream(self):
        assert power_law_volumes(1, rng()).sum() == pytest.approx(1.0)

    def test_zero_streams_rejected(self):
        with pytest.raises(ValueError):
            power_law_volumes(0, rng())


class TestTopKShare:
    def test_uniform_volumes(self):
        assert top_k_share(np.ones(10), 0.5) == pytest.approx(0.5)

    def test_concentrated(self):
        volumes = np.array([100.0] + [0.0] * 9)
        assert top_k_share(volumes, 0.1) == 1.0

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            top_k_share(np.ones(3), 0.0)


class TestIngestionHeatmap:
    def test_shape(self):
        heatmap = ingestion_heatmap(5, 60, rng())
        assert heatmap.shape == (5, 60)
        assert (heatmap >= 0).all()

    def test_has_idle_periods(self):
        heatmap = ingestion_heatmap(20, 200, rng(), idle_probability=0.3)
        assert (heatmap == 0).any()

    def test_has_spikes(self):
        heatmap = ingestion_heatmap(20, 200, rng(), base_rate=10.0, spike_rate=200.0,
                                    spike_probability=0.1)
        active = heatmap[heatmap > 0]
        assert active.max() > 5 * np.median(active)

    def test_probability_validation(self):
        with pytest.raises(ValueError):
            ingestion_heatmap(5, 10, rng(), spike_probability=0.8, idle_probability=0.5)
        with pytest.raises(ValueError):
            ingestion_heatmap(0, 10, rng())


class TestSkewedWorkload:
    def test_type1_uniform_double_volume(self):
        workload = make_skewed_workload(8, rng(), type2_total_rate=64.0)
        assert workload.type1_rates.sum() == pytest.approx(128.0)
        assert len(set(np.round(workload.type1_rates, 9))) == 1  # uniform

    def test_type2_total(self):
        workload = make_skewed_workload(8, rng(), type2_total_rate=64.0)
        assert workload.type2_rates.sum() == pytest.approx(64.0)

    def test_skew_ratio(self):
        workload = make_skewed_workload(16, rng(), skew_ratio=200.0)
        assert workload.skew_ratio == pytest.approx(200.0, rel=0.01)

    def test_validation(self):
        with pytest.raises(ValueError):
            make_skewed_workload(1, rng())
        with pytest.raises(ValueError):
            make_skewed_workload(8, rng(), skew_ratio=0.5)


class TestArrivalPrecompute:
    """Same-seed output of the heatmap generator fig02 is drawn from."""

    def test_heatmap_generator_still_bit_identical(self):
        """The figures depend on ``ingestion_heatmap`` same-seed output;
        pin its digest so vectorization work can never drift it."""
        from repro.workloads.trace import heatmap_digest

        heatmap = ingestion_heatmap(6, 8, np.random.default_rng(11))
        assert heatmap_digest(heatmap) == (
            "bcc73fea56c8b233229bd8f70823d8917ef8dd8bbdfb7e14233ce9f58f570ca2"
        )
