"""Unit tests for events and columnar batches."""

import numpy as np
import pytest

from repro.dataflow.events import Event, EventBatch


class TestEventBatch:
    def test_defaults_fill_values_and_keys(self):
        batch = EventBatch([1.0, 2.0, 3.0])
        assert np.array_equal(batch.values, np.ones(3))
        assert np.array_equal(batch.keys, np.zeros(3, dtype=np.int64))

    def test_length(self):
        assert len(EventBatch([1.0, 2.0])) == 2
        assert len(EventBatch([])) == 0

    def test_max_logical_time(self):
        assert EventBatch([1.0, 5.0, 3.0]).max_logical_time == 5.0

    def test_empty_batch_progress_is_neg_inf(self):
        assert EventBatch([]).max_logical_time == float("-inf")
        assert EventBatch([]).min_logical_time == float("inf")

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            EventBatch([1.0, 2.0], values=[1.0])

    def test_two_dimensional_rejected(self):
        with pytest.raises(ValueError):
            EventBatch([[1.0, 2.0]])

    def test_select_by_mask(self):
        batch = EventBatch([1.0, 2.0, 3.0], values=[10, 20, 30], keys=[0, 1, 0],
                           arrival_time=9.0, source_id=4)
        picked = batch.select(batch.keys == 0)
        assert len(picked) == 2
        assert np.array_equal(picked.values, [10, 30])
        assert picked.arrival_time == 9.0
        assert picked.source_id == 4

    def test_select_empty_mask(self):
        batch = EventBatch([1.0, 2.0])
        assert len(batch.select(np.zeros(2, dtype=bool))) == 0

    def test_select_by_index_array(self):
        batch = EventBatch([1.0, 2.0, 3.0], values=[10, 20, 30], keys=[5, 6, 7],
                           arrival_time=9.0, source_id=4, times_sorted=True)
        picked = batch.select(np.array([0, 2]))
        assert np.array_equal(picked.logical_times, [1.0, 3.0])
        assert np.array_equal(picked.values, [10, 30])
        assert np.array_equal(picked.keys, [5, 7])
        assert (picked.arrival_time, picked.source_id) == (9.0, 4)
        assert picked.times_sorted
        assert len(batch.select(np.array([], dtype=np.intp))) == 0

    def test_from_events(self):
        events = [Event(1.0, 2.0, 3), Event(4.0, 5.0, 6)]
        batch = EventBatch.from_events(events, arrival_time=1.5)
        assert np.array_equal(batch.logical_times, [1.0, 4.0])
        assert np.array_equal(batch.values, [2.0, 5.0])
        assert np.array_equal(batch.keys, [3, 6])
        assert batch.arrival_time == 1.5

    def test_single(self):
        batch = EventBatch.single(2.0, value=7.0, key=1)
        assert len(batch) == 1
        assert batch.max_logical_time == 2.0

    def test_raw_matches_public_constructor(self):
        times = np.array([1.0, 2.0])
        values = np.array([3.0, 4.0])
        keys = np.array([0, 1], dtype=np.int64)
        raw = EventBatch._raw(times, values, keys, arrival_time=5.0, source_id=2)
        assert np.array_equal(raw.logical_times, times)
        assert raw.arrival_time == 5.0
        assert raw.max_logical_time == 2.0


class TestPartition:
    """``partition`` is the one key-routing rule of both transports; it
    must agree with how ``lifecycle`` splits state: ``key % p == j``."""

    @staticmethod
    def batch(n, seed=0):
        rng = np.random.default_rng(seed)
        keys = rng.integers(-50, 50, n)
        keys[: n // 4] = rng.integers(-2**62, 2**62, n // 4)
        return EventBatch(
            np.sort(rng.uniform(0.0, 10.0, n)), rng.normal(size=n), keys,
            arrival_time=3.5, source_id=7, times_sorted=True,
        )

    @pytest.mark.parametrize("parallelism", [1, 2, 3, 4, 5, 8, 16])
    @pytest.mark.parametrize("n", [0, 1, 257])
    def test_parts_hold_exactly_their_keys_in_input_order(self, parallelism, n):
        batch = self.batch(n, seed=parallelism)
        parts = batch.partition(parallelism)
        assert len(parts) == parallelism
        assert sum(len(part) for part in parts) == n
        rows = list(zip(batch.logical_times, batch.values, batch.keys.tolist()))
        for j, part in enumerate(parts):
            owned = (lambda key: key % parallelism == j)
            expected = [row for row in rows if owned(row[2])]
            got = list(zip(part.logical_times, part.values, part.keys.tolist()))
            assert got == expected  # same rows, same order

    def test_provenance_and_sortedness_carry_over(self):
        for hint in (True, False):
            batch = self.batch(40)
            batch.times_sorted = hint
            for part in batch.partition(3):
                assert part.times_sorted is hint
                assert part.arrival_time == 3.5
                assert part.source_id == 7
                assert part.keys.dtype == np.int64

    def test_parts_own_their_arrays(self):
        batch = self.batch(40)
        times, values, keys = (
            batch.logical_times.copy(), batch.values.copy(), batch.keys.copy())
        for part in batch.partition(1) + batch.partition(2):
            part.logical_times += 1.0
            part.values[:] = -1.0
            part.keys[:] = 0
        assert np.array_equal(batch.logical_times, times)
        assert np.array_equal(batch.values, values)
        assert np.array_equal(batch.keys, keys)
