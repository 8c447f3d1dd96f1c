"""Unit tests for dataflow operators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dataflow.events import EventBatch
from repro.dataflow.messages import Message
from repro.dataflow.operators import (
    WINDOW_RESULT_EPS,
    FilterOperator,
    MapOperator,
    OpAddress,
    SinkOperator,
    SourceOperator,
    WindowedAggregateOperator,
    WindowedJoinOperator,
    _dense_keys,
    _run_starts,
)
from repro.dataflow.windows import WindowSpec
from repro.state.store import _Accumulator, _WindowState

ADDR = OpAddress("job", "stage", 0)


def msg(batch, p=None, t=0.0, channel=0):
    if p is None:
        p = batch.max_logical_time if batch is not None else 0.0
    return Message(target=ADDR, batch=batch, p=p, t=t, channel_index=channel)


def wired(op, channels=1):
    op.wire_inputs(channels)
    return op


class TestOpAddress:
    def test_equality_and_hash(self):
        a = OpAddress("j", "s", 1)
        b = OpAddress("j", "s", 1)
        assert a == b
        assert hash(a) == hash(b)
        assert a != OpAddress("j", "s", 2)

    def test_str(self):
        assert str(OpAddress("j", "s", 1)) == "j/s[1]"

    def test_usable_as_dict_key(self):
        d = {OpAddress("j", "s", 0): 1}
        assert d[OpAddress("j", "s", 0)] == 1


class TestSourceOperator:
    def test_forwards_batch(self):
        op = wired(SourceOperator(ADDR))
        batch = EventBatch([1.0, 2.0], arrival_time=5.0)
        out = op.on_message(msg(batch, t=5.0), now=5.0)
        assert len(out) == 1
        assert out[0].batch is batch
        assert out[0].progress == 2.0
        assert out[0].arrival == 5.0

    def test_counts_invocations(self):
        op = wired(SourceOperator(ADDR))
        op.on_message(msg(EventBatch([1.0])), now=0.0)
        op.on_message(msg(None, p=1.0), now=0.0)
        assert op.invocations == 2
        assert op.triggers == 1


class TestMapFilter:
    def test_map_transforms_values(self):
        op = wired(MapOperator(ADDR, lambda v: v * 2))
        out = op.on_message(msg(EventBatch([1.0], values=[3.0])), now=0.0)
        assert out[0].batch.values[0] == 6.0

    def test_map_preserves_progress(self):
        op = wired(MapOperator(ADDR, lambda v: v))
        out = op.on_message(msg(EventBatch([4.0]), p=4.0, t=2.0), now=0.0)
        assert out[0].progress == 4.0
        assert out[0].arrival == 2.0

    def test_map_forwards_heartbeats(self):
        op = wired(MapOperator(ADDR, lambda v: v * 2))
        out = op.on_message(msg(EventBatch([]), p=9.0, t=2.0), now=0.0)
        assert len(out) == 1
        assert len(out[0].batch) == 0
        assert out[0].progress == 9.0

    def test_map_keeps_the_sortedness_hint(self):
        op = wired(MapOperator(ADDR, lambda v: v * 2))
        for hint in (True, False):
            batch = EventBatch([1.0, 2.0], values=[3.0, 4.0], keys=[5, 6],
                               arrival_time=7.0, source_id=3, times_sorted=hint)
            out = op.on_message(msg(batch), now=0.0)[0].batch
            assert out.times_sorted is hint
            # times and keys are passed through, not copied or re-validated
            assert out.logical_times is batch.logical_times
            assert out.keys is batch.keys
            assert list(out.values) == [6.0, 8.0]
            assert (out.arrival_time, out.source_id) == (7.0, 3)

    def test_map_rejects_a_function_that_changes_the_row_count(self):
        op = wired(MapOperator(ADDR, lambda v: v[:1]))
        with pytest.raises(ValueError):
            op.on_message(msg(EventBatch([1.0, 2.0])), now=0.0)

    def test_filter_keeps_matching_rows(self):
        op = wired(FilterOperator(ADDR, lambda v: v > 1.5))
        out = op.on_message(msg(EventBatch([1.0, 2.0], values=[1.0, 2.0])), now=0.0)
        assert len(out[0].batch) == 1
        assert out[0].batch.values[0] == 2.0


class TestWindowedAggregate:
    def make(self, window=None, agg="sum", by_key=True, channels=1):
        op = WindowedAggregateOperator(
            ADDR, window or WindowSpec.tumbling(10.0), agg, by_key
        )
        return wired(op, channels)

    def test_no_emit_before_frontier(self):
        op = self.make()
        out = op.on_message(msg(EventBatch([3.0], values=[5.0]), p=3.0), now=0.0)
        assert out == []
        assert op.pending_window_count == 1

    def test_emit_on_frontier_crossing(self):
        op = self.make()
        op.on_message(msg(EventBatch([3.0], values=[5.0]), p=3.0, t=1.0), now=0.0)
        out = op.on_message(msg(EventBatch([12.0], values=[1.0]), p=12.0, t=2.0), now=0.0)
        assert len(out) == 1
        emission = out[0]
        assert emission.progress == 10.0
        assert emission.batch.values[0] == 5.0
        # result timestamp sits just inside the emitted window
        assert emission.batch.logical_times[0] == pytest.approx(10.0 - WINDOW_RESULT_EPS)

    def test_window_arrival_anchor_is_max_contributor(self):
        op = self.make()
        op.on_message(msg(EventBatch([1.0], arrival_time=1.0), p=1.0, t=1.0), now=1.0)
        op.on_message(msg(EventBatch([2.0], arrival_time=7.0), p=2.0, t=7.0), now=7.0)
        out = op.on_message(msg(EventBatch([11.0], arrival_time=8.0), p=11.0, t=8.0), now=8.0)
        assert out[0].arrival == 7.0  # the trigger message is not a contributor

    def test_aggregates_by_key(self):
        op = self.make()
        batch = EventBatch([1.0, 2.0, 3.0], values=[1.0, 2.0, 4.0], keys=[0, 1, 0])
        op.on_message(msg(batch, p=3.0), now=0.0)
        out = op.on_message(msg(EventBatch([10.5]), p=10.5), now=0.0)
        result = out[0].batch
        assert list(result.keys) == [0, 1]
        assert list(result.values) == [5.0, 2.0]

    def test_aggregate_without_keys(self):
        op = self.make(by_key=False)
        batch = EventBatch([1.0, 2.0], values=[1.0, 2.0], keys=[3, 4])
        op.on_message(msg(batch, p=2.0), now=0.0)
        out = op.on_message(msg(EventBatch([10.5]), p=10.5), now=0.0)
        assert list(out[0].batch.values) == [3.0]

    @pytest.mark.parametrize(
        "agg,expected", [("sum", 6.0), ("count", 3.0), ("mean", 2.0), ("max", 3.0), ("min", 1.0)]
    )
    def test_aggregate_functions(self, agg, expected):
        op = self.make(agg=agg)
        batch = EventBatch([1.0, 2.0, 3.0], values=[1.0, 2.0, 3.0])
        op.on_message(msg(batch, p=3.0), now=0.0)
        out = op.on_message(msg(EventBatch([10.5]), p=10.5), now=0.0)
        assert out[0].batch.values[0] == expected

    def test_multi_channel_waits_for_all(self):
        op = self.make(channels=2)
        op.on_message(msg(EventBatch([3.0]), p=3.0, channel=0), now=0.0)
        out = op.on_message(msg(EventBatch([12.0]), p=12.0, channel=0), now=0.0)
        assert out == []  # channel 1 has not progressed yet
        out = op.on_message(msg(EventBatch([11.0]), p=11.0, channel=1), now=0.0)
        assert len(out) == 1

    def test_heartbeat_advances_frontier(self):
        op = self.make(channels=2)
        op.on_message(msg(EventBatch([3.0]), p=3.0, channel=0), now=0.0)
        op.on_message(msg(EventBatch([12.0]), p=12.0, channel=0), now=0.0)
        out = op.on_message(msg(EventBatch([]), p=12.0, channel=1), now=0.0)
        assert len(out) == 1  # empty batch still carries progress

    def test_sliding_window_event_in_multiple_windows(self):
        op = self.make(window=WindowSpec.sliding(10.0, 5.0))
        op.on_message(msg(EventBatch([7.0], values=[1.0]), p=7.0), now=0.0)
        out = op.on_message(msg(EventBatch([20.5]), p=20.5), now=0.0)
        # event at 7 belongs to windows ending at 10 and 15
        ends = [e.progress for e in out]
        assert 10.0 in ends and 15.0 in ends
        emitted = {e.progress: (e.batch.values.sum() if len(e.batch) else 0.0) for e in out}
        assert emitted[10.0] == 1.0
        assert emitted[15.0] == 1.0

    def test_windows_emit_in_order(self):
        op = self.make()
        out = op.on_message(msg(EventBatch([5.0, 15.0, 25.0]), p=25.0), now=0.0)
        # frontier 25 already completes windows 10 and 20
        assert [e.progress for e in out] == [10.0, 20.0]
        out += op.on_message(msg(EventBatch([31.0]), p=31.0), now=0.0)
        assert [e.progress for e in out] == [10.0, 20.0, 30.0]

    def test_late_tuples_counted_and_dropped(self):
        op = self.make()
        op.on_message(msg(EventBatch([5.0, 15.0]), p=15.0), now=0.0)
        op.on_message(msg(EventBatch([22.0]), p=22.0), now=0.0)  # emits window 10
        op.on_message(msg(EventBatch([3.0]), p=22.0), now=0.0)  # way late
        assert op.late_tuples == 1

    def test_large_batch_matches_loop_reference(self):
        rng = np.random.default_rng(0)
        n = 5000
        times = rng.uniform(0, 30, n)
        values = rng.normal(size=n)
        keys = rng.integers(0, 5, n)
        op = self.make()
        out = op.on_message(msg(EventBatch(times, values, keys), p=30.0), now=0.0)
        out += op.on_message(msg(EventBatch([31.0]), p=31.0), now=0.0)
        got = {}
        for emission in out:
            for key, value in zip(emission.batch.keys, emission.batch.values):
                got[(emission.progress, int(key))] = value
        expected = {}
        for time, value, key in zip(times, values, keys):
            end = (np.floor(time / 10.0) + 1) * 10.0
            expected[(end, int(key))] = expected.get((end, int(key)), 0.0) + value
        assert set(got) == set(expected)
        for pair in got:
            assert got[pair] == pytest.approx(expected[pair])

    @pytest.mark.parametrize("agg", ["sum", "count", "mean", "max", "min", "join"])
    @pytest.mark.parametrize("branch", ["bincount", "sort"])
    def test_update_window_matches_accumulator_loop(self, agg, branch):
        """``_group`` then ``_fold`` into one window, over two calls,
        against one ``_Accumulator.add`` per event.  ``join`` is the join's
        per-key count against one count per event; its ``sort`` branch is
        the ``np.unique`` grouping of keys the bincount cannot take."""
        rng = np.random.default_rng(1)
        if agg == "join":
            op = WindowedJoinOperator(ADDR, WindowSpec.tumbling(10.0))
        else:
            op = self.make(agg=agg)
        reference = {}
        for call in range(2):
            n = 3000
            keys = rng.integers(0, 40, n)
            if branch == "sort":
                keys = keys * (2**40 + 1) - 2**44  # negative and > 2**20
            values = rng.normal(size=n)
            partial = op._group(keys, values)
            assert partial[0] == sorted(set(keys.tolist()))
            op._fold(10.0, partial, n, arrival=float(call))
            for key, value in zip(keys.tolist(), values.tolist()):
                reference.setdefault(key, _Accumulator()).add(value)
        state = op._windows[10.0]
        assert state.max_arrival == 1.0
        if agg == "join":
            # the join folds into the side it absorbs (left by default)
            assert state.left == {key: a.count for key, a in reference.items()}
            assert state.right == {}
            return
        assert state.tuple_count == 6000
        assert sorted(state.accumulators) == sorted(reference)
        for key, expected in reference.items():
            accumulator = state.accumulators[key]
            assert accumulator.count == expected.count
            # a per-batch partial sum is added to the running one, so sums
            # agree with the per-event loop up to rounding; the rest exactly
            assert accumulator.sum == pytest.approx(expected.sum)
            if agg in ("sum", "mean"):
                assert accumulator.result(agg) == pytest.approx(expected.result(agg))
            else:
                assert accumulator.result(agg) == expected.result(agg)


class TestWindowedJoin:
    def make(self):
        op = WindowedJoinOperator(ADDR, WindowSpec.tumbling(10.0))
        op.wire_inputs(2)
        op.set_channel_sides([0, 1])
        return op

    def test_join_counts_pairs(self):
        op = self.make()
        op.on_message(msg(EventBatch([1.0, 2.0], keys=[7, 7]), p=2.0, channel=0), now=0.0)
        op.on_message(msg(EventBatch([3.0, 4.0, 5.0], keys=[7, 7, 8]), p=5.0, channel=1), now=0.0)
        op.on_message(msg(EventBatch([11.0], keys=[0]), p=11.0, channel=0), now=0.0)
        out = op.on_message(msg(EventBatch([11.0], keys=[0]), p=11.0, channel=1), now=0.0)
        assert len(out) == 1
        batch = out[0].batch
        assert list(batch.keys) == [7]
        assert batch.values[0] == 4.0  # 2 left x 2 right

    def test_no_match_emits_empty_batch_with_progress(self):
        op = self.make()
        op.on_message(msg(EventBatch([1.0], keys=[1]), p=1.0, channel=0), now=0.0)
        op.on_message(msg(EventBatch([2.0], keys=[2]), p=2.0, channel=1), now=0.0)
        op.on_message(msg(EventBatch([11.0], keys=[5]), p=11.0, channel=0), now=0.0)
        out = op.on_message(msg(EventBatch([11.0], keys=[6]), p=11.0, channel=1), now=0.0)
        assert len(out) == 1
        assert len(out[0].batch) == 0
        assert out[0].progress == 10.0

    def test_adjacent_keys_above_2_53_stay_distinct(self):
        """Keys are folded as int64: a float64 detour would merge 2**53
        and 2**53 + 1 into one bucket (any hash-valued key is this big)."""
        low, high = 2**53, 2**53 + 1
        op = self.make()
        op.on_message(msg(EventBatch([1.0, 2.0, 3.0], keys=[low, high, high]),
                          p=3.0, channel=0), now=0.0)
        op.on_message(msg(EventBatch([4.0, 5.0, 6.0], keys=[high, low, low]),
                          p=6.0, channel=1), now=0.0)
        op.on_message(msg(EventBatch([11.0], keys=[0]), p=11.0, channel=0), now=0.0)
        out = op.on_message(msg(EventBatch([11.0], keys=[0]), p=11.0, channel=1), now=0.0)
        assert len(out) == 1
        assert out[0].batch.keys.tolist() == [low, high]
        assert out[0].batch.values.tolist() == [2.0, 2.0]  # 1x2 and 2x1

    def test_requires_channel_sides(self):
        op = WindowedJoinOperator(ADDR, WindowSpec.tumbling(10.0))
        op.wire_inputs(2)
        with pytest.raises(RuntimeError):
            op.on_message(msg(EventBatch([1.0]), p=1.0), now=0.0)

    def test_invalid_sides_rejected(self):
        op = WindowedJoinOperator(ADDR, WindowSpec.tumbling(10.0))
        with pytest.raises(ValueError):
            op.set_channel_sides([0, 2])


class _JoinReference:
    """Per-event dict model of the windowed join: what ``_absorb`` and the
    emission must equal, one event and one window at a time."""

    def __init__(self, window):
        self.window = window
        self.windows = {}  # end -> [left counts, right counts, max arrival]
        self.emitted_through = float("-inf")
        self.late_tuples = 0
        self.progress = [float("-inf"), float("-inf")]

    def on_message(self, times, keys, side, p, arrival):
        slide, size = self.window.slide, self.window.size
        for time, key in zip(times, keys):
            end = (np.floor(time / slide) + 1.0) * slide
            for _ in range(self.window.window_count_containing()):
                if time >= end - size:
                    if end > self.emitted_through:
                        state = self.windows.setdefault(end, [{}, {}, float("-inf")])
                        state[side][key] = state[side].get(key, 0) + 1
                        state[2] = max(state[2], arrival)
                    else:
                        self.late_tuples += 1
                end += slide
        self.progress[side] = max(self.progress[side], p)
        emitted = []
        for end in sorted(e for e in self.windows if e <= min(self.progress)):
            left, right, arrival = self.windows.pop(end)
            matched = sorted(set(left) & set(right))
            emitted.append((end, arrival, matched,
                            [float(left[k] * right[k]) for k in matched]))
            self.emitted_through = max(self.emitted_through, end)
        return emitted


_join_keys = st.one_of(
    st.integers(0, 6), st.integers(-3, 3), st.integers(2**20, 2**20 + 3),
    st.sampled_from([2**53, 2**53 + 1, -(2**53) - 1]),
)
_join_message = st.tuples(
    st.lists(st.tuples(st.integers(0, 240), _join_keys), min_size=0, max_size=25),
    st.integers(0, 1),  # side
    st.booleans(),      # sorted times (with the hint) or shuffled
)


@given(
    messages=st.lists(_join_message, min_size=1, max_size=12),
    slide=st.sampled_from([2.0, 5.0]),
    mult=st.integers(min_value=1, max_value=3),
    shuffle_seed=st.integers(0, 2**16),
)
@settings(max_examples=150, deadline=None)
def test_join_fold_matches_per_event_reference(messages, slide, mult, shuffle_seed):
    """The window-sliced join fold against a per-event dict model: sorted
    and unsorted batches, tumbling and sliding windows, both sides, late
    tuples after an emission, small / negative / huge keys."""
    window = WindowSpec(size=slide * mult, slide=slide)
    op = WindowedJoinOperator(ADDR, window)
    op.wire_inputs(2)
    op.set_channel_sides([0, 1])
    reference = _JoinReference(window)
    rng = np.random.default_rng(shuffle_seed)
    progress = [0.0, 0.0]
    for arrival, (events, side, in_order) in enumerate(messages):
        # quarter-second logical times; progress only moves forward, so an
        # event behind an emitted window is a late tuple
        times = np.array([quarter / 4.0 for quarter, _ in events])
        keys = np.array([key for _, key in events], dtype=np.int64)
        order = np.argsort(times, kind="stable") if in_order else rng.permutation(len(times))
        times, keys = times[order], keys[order]
        progress[side] = max([progress[side], *times.tolist()])
        batch = EventBatch(times, None, keys, arrival_time=float(arrival),
                           times_sorted=in_order)
        out = op.on_message(
            msg(batch, p=progress[side], t=float(arrival), channel=side), now=0.0)
        expected = reference.on_message(
            times.tolist(), keys.tolist(), side, progress[side], float(arrival))
        assert [
            (e.progress, e.arrival, e.batch.keys.tolist(), e.batch.values.tolist())
            for e in out
        ] == expected
        assert op.late_tuples == reference.late_tuples
        assert {
            end: [state.left, state.right, state.max_arrival]
            for end, state in op._windows.items()
        } == reference.windows


class _PerReplicaAggregate(WindowedAggregateOperator):
    """The fold before panes, kept verbatim as the bit-exact reference:
    every window replica regroups the rows it covers.  The pane-shared
    fold must perform the same float additions in the same order."""

    def _absorb(self, batch: EventBatch) -> None:
        """Vectorised window assignment + grouped accumulation.

        Each event at logical time ``p`` falls into the windows ending at
        ``first_end(p) + k * slide`` for ``k`` in ``0..size/slide - 1``; for
        every replica ``k`` we do one grouped reduction over (end, key).
        """
        p = batch.logical_times
        keys = batch.keys if self.by_key else np.zeros(len(batch), dtype=np.int64)
        values = batch.values
        slide, size = self.window.slide, self.window.size
        # the end assignment is monotone in p, so its min/max come from p's
        # min/max — the common one-window case needs no per-element array
        if batch.times_sorted:
            p_min, p_max = float(p[0]), float(p[-1])
        else:
            p_min, p_max = float(p.min()), float(p.max())
        e0_min = (math.floor(p_min / slide) + 1.0) * slide
        e0_max = (math.floor(p_max / slide) + 1.0) * slide
        first_end = None
        for k in range(self.window.window_count_containing()):
            e_min = e0_min + k * slide
            e_max = e0_max + k * slide
            if k == 0 and e_min == e_max:
                # fast path: the whole batch falls into one window replica
                # (k == 0 membership is guaranteed: end - size <= p < end)
                if e_min > self._emitted_through:
                    self._update_window(e_min, keys, values, batch.arrival_time)
                else:
                    self.late_tuples += len(p)
                continue
            if first_end is None:
                first_end = (np.floor(p / slide) + 1.0) * slide
            ends = first_end + k * slide
            if k == 0:
                mask = ends > self._emitted_through
                self.late_tuples += int(len(p) - mask.sum())
            else:
                in_window = p >= ends - size
                live = ends > self._emitted_through
                mask = in_window & live
                self.late_tuples += int((in_window & ~live).sum())
            if not mask.any():
                continue
            self._accumulate_groups(
                ends[mask], keys[mask], values[mask], batch.arrival_time
            )

    def _accumulate_groups(
        self,
        ends: np.ndarray,
        keys: np.ndarray,
        values: np.ndarray,
        arrival: float,
    ) -> None:
        # batches usually fall into one or two windows: split by unique end,
        # then reduce per key within each window
        for window_end in np.unique(ends):
            mask = ends == window_end
            self._update_window(float(window_end), keys[mask], values[mask], arrival)

    def _update_window(
        self, window_end: float, keys: np.ndarray, values: np.ndarray, arrival: float
    ) -> None:
        state = self._windows.get(window_end)
        if state is None:
            state = self._windows[window_end] = _WindowState()
        need_minmax = self.agg in ("max", "min")
        if _dense_keys(keys):
            per_key = np.bincount(keys)
            groups = per_key.nonzero()[0]
            counts = per_key[groups]
            sums = np.bincount(keys, weights=values)[groups]
            if need_minmax:
                maxs = np.full(len(per_key), -np.inf)
                mins = np.full_like(maxs, np.inf)
                np.maximum.at(maxs, keys, values)
                np.minimum.at(mins, keys, values)
                maxs, mins = maxs[groups], mins[groups]
        else:
            # arbitrary (large / negative) keys: sort-based grouping
            order = np.argsort(keys, kind="stable")
            k_sorted, v_sorted = keys[order], values[order]
            starts = _run_starts(k_sorted)
            groups = k_sorted[starts]
            counts = np.diff(starts, append=len(keys))
            sums = np.add.reduceat(v_sorted, starts)
            if need_minmax:
                maxs = np.maximum.reduceat(v_sorted, starts)
                mins = np.minimum.reduceat(v_sorted, starts)
        accumulators = state.accumulators
        groups = groups.tolist()
        for key, count, total in zip(groups, counts.tolist(), sums.tolist()):
            accumulator = accumulators.get(key)
            if accumulator is None:
                accumulator = accumulators[key] = _Accumulator()
            accumulator.sum += total
            accumulator.count += count
        if need_minmax:
            for key, high, low in zip(groups, maxs.tolist(), mins.tolist()):
                accumulator = accumulators[key]
                accumulator.max = max(accumulator.max, high)
                accumulator.min = min(accumulator.min, low)
        state.tuple_count += len(keys)
        if arrival > state.max_arrival:
            state.max_arrival = arrival


class _AggregateReference:
    """Per-event dict model of the windowed aggregate: one event, one
    window at a time.  Replicas outermost and events by time inside, which
    is the order the operator creates windows in."""

    def __init__(self, window, by_key):
        self.window = window
        self.by_key = by_key
        self.windows = {}  # end -> {key: [count, sum, max, min]}
        self.emitted_through = float("-inf")
        self.late_tuples = 0
        self.progress = [float("-inf"), float("-inf")]

    def on_message(self, events, channel, p):
        slide, size = self.window.slide, self.window.size
        for k in range(self.window.window_count_containing()):
            for time, key, value in sorted(events, key=lambda event: event[0]):
                end = (math.floor(time / slide) + 1.0) * slide + k * slide
                if k and time < end - size:
                    continue
                if end <= self.emitted_through:
                    self.late_tuples += 1
                    continue
                cell = self.windows.setdefault(end, {}).setdefault(
                    key if self.by_key else 0,
                    [0, 0.0, float("-inf"), float("inf")])
                cell[0] += 1
                cell[1] += value
                cell[2] = max(cell[2], value)
                cell[3] = min(cell[3], value)
        self.progress[channel] = max(self.progress[channel], p)
        emitted = []
        for end in sorted(e for e in self.windows if e <= min(self.progress)):
            emitted.append((end, self.windows.pop(end)))
            self.emitted_through = max(self.emitted_through, end)
        return emitted


_fold_windows = st.sampled_from([
    (2.0, 2.0), (5.0, 5.0),                  # tumbling
    (4.0, 2.0), (15.0, 5.0), (2.0, 0.5),     # size a multiple of slide
    (5.0, 2.0), (1.0, 0.4), (7.5, 5.0),      # not a multiple: masked fall-back
    (0.3, 0.1),                              # a multiple only up to rounding
])
_fold_times = st.one_of(
    st.integers(0, 240).map(lambda quarter: quarter / 4.0),  # window edges
    st.floats(0.0, 60.0),
)
_fold_message = st.tuples(
    st.lists(
        st.tuples(
            _fold_times,
            st.integers(0, 6),  # the key when the message is dense-only
            st.one_of(st.integers(-3, 6), st.integers(2**20, 2**20 + 3)),
            st.one_of(st.sampled_from([0.1, 0.2, 0.3, 1e16, -1e16]),
                      st.floats(-100.0, 100.0)),
        ),
        min_size=0, max_size=25,
    ),
    st.booleans(),  # sorted times (with the hint) or shuffled
    st.booleans(),  # dense keys only (bincount branch) or mixed
    st.integers(0, 1),  # input channel
)


def _fold_messages(messages, shuffle_seed):
    """One :class:`Message` per drawn message.  A channel's progress only
    moves forward, so an event behind an emitted window is a late tuple;
    windows stay pending (in creation order) while either of the two
    channels lags."""
    rng = np.random.default_rng(shuffle_seed)
    progress = [0.0, 0.0]
    for arrival, (events, in_order, dense, channel) in enumerate(messages):
        times = np.array([event[0] for event in events], dtype=np.float64)
        keys = np.array([event[1 if dense else 2] for event in events], dtype=np.int64)
        values = np.array([event[3] for event in events], dtype=np.float64)
        order = np.argsort(times, kind="stable") if in_order else rng.permutation(len(times))
        progress[channel] = max([progress[channel], *times.tolist()])
        batch = EventBatch(times[order], values[order], keys[order],
                           arrival_time=float(arrival), times_sorted=in_order)
        yield msg(batch, p=progress[channel], t=float(arrival), channel=channel)


def _close(value):
    return pytest.approx(value, rel=1e-9, abs=1e-9)


def _fold_state(op):
    return op.late_tuples, [
        (end, state.tuple_count, state.max_arrival,
         [(key, a.sum, a.count, a.max, a.min) for key, a in state.accumulators.items()])
        for end, state in op.state_store.windows.items()
    ]


@given(
    messages=st.lists(_fold_message, min_size=1, max_size=10),
    window=_fold_windows,
    agg=st.sampled_from(["sum", "count", "mean", "max", "min"]),
    by_key=st.booleans(),
    shuffle_seed=st.integers(0, 2**16),
)
@settings(deadline=None)
def test_pane_fold_is_bit_identical_to_per_replica_fold(
        messages, window, agg, by_key, shuffle_seed):
    """The shipped ``_absorb`` against the per-replica regrouping it
    replaced, after every message: same accumulators (``==`` on floats),
    same counters, same window-creation order, same emissions, same
    snapshot bytes."""
    spec = WindowSpec(*window)
    op = wired(WindowedAggregateOperator(ADDR, spec, agg, by_key), channels=2)
    reference = wired(_PerReplicaAggregate(ADDR, spec, agg, by_key), channels=2)
    for message in _fold_messages(messages, shuffle_seed):
        got, expected = (
            [(e.progress, e.arrival, e.batch.logical_times.tolist(),
              e.batch.keys.tolist(), e.batch.values.tolist())
             for e in each.on_message(message, now=0.0)]
            for each in (op, reference)
        )
        assert got == expected
        assert _fold_state(op) == _fold_state(reference)
        assert op.state_snapshot() == reference.state_snapshot()


@given(
    messages=st.lists(_fold_message, min_size=1, max_size=10),
    window=_fold_windows,
    agg=st.sampled_from(["sum", "count", "mean", "max", "min"]),
    by_key=st.booleans(),
    shuffle_seed=st.integers(0, 2**16),
)
@settings(deadline=None)
def test_aggregate_fold_matches_per_event_reference(
        messages, window, agg, by_key, shuffle_seed):
    """The fold against the per-event model: counts, max/min, late tuples,
    window-creation order and the emitted windows exactly; sums up to
    rounding (the model adds event by event, the fold partial by partial —
    the huge values are left out, they cancel differently)."""
    spec = WindowSpec(*window)
    op = wired(WindowedAggregateOperator(ADDR, spec, agg, by_key), channels=2)
    reference = _AggregateReference(spec, by_key)
    for message in _fold_messages(messages, shuffle_seed):
        batch = message.batch
        batch.values[np.abs(batch.values) > 100.0] = 1.5
        out = op.on_message(message, now=0.0)
        emitted = reference.on_message(
            list(zip(batch.logical_times.tolist(), batch.keys.tolist(),
                     batch.values.tolist())), message.channel_index, message.p)
        assert op.late_tuples == reference.late_tuples
        assert list(op._windows) == list(reference.windows)
        for end, cells in reference.windows.items():
            accumulators = op._windows[end].accumulators
            assert sorted(accumulators) == sorted(cells)
            assert op._windows[end].tuple_count == sum(c[0] for c in cells.values())
            for key, (count, total, high, low) in cells.items():
                a = accumulators[key]
                assert (a.count, a.sum) == (count, _close(total))
                if agg in ("max", "min"):
                    assert (a.max, a.min) == (high, low)
        assert [e.progress for e in out] == [end for end, _ in emitted]
        for emission, (_, cells) in zip(out, emitted):
            assert emission.batch.keys.tolist() == sorted(cells)
            expected = [
                {"sum": total, "count": float(count), "mean": total / count,
                 "max": high, "min": low}[agg]
                for count, total, high, low in (cells[key] for key in sorted(cells))
            ]
            exact = agg in ("count", "max", "min")
            assert emission.batch.values.tolist() == (
                expected if exact else [_close(value) for value in expected])


class TestSink:
    def test_counts_outputs(self):
        op = wired(SinkOperator(ADDR))
        assert op.on_message(msg(EventBatch([1.0])), now=0.0) == []
        op.on_message(msg(EventBatch([]), p=1.0), now=0.0)
        assert op.outputs_seen == 1


@given(
    times=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=60),
    slide=st.sampled_from([2.0, 5.0, 10.0]),
    mult=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=60, deadline=None)
def test_property_no_tuple_lost_or_duplicated(times, slide, mult):
    """Every on-time tuple lands in exactly size/slide windows."""
    window = WindowSpec(size=slide * mult, slide=slide)
    op = WindowedAggregateOperator(ADDR, window, agg="count", by_key=False)
    op.wire_inputs(1)
    out = op.on_message(msg(EventBatch(sorted(times)), p=max(times)), now=0.0)
    out += op.on_message(msg(EventBatch([max(times) + 2 * window.size + slide]),
                             p=max(times) + 2 * window.size + slide), now=0.0)
    total = sum(e.batch.values.sum() for e in out if len(e.batch))
    assert total == len(times) * window.window_count_containing()


class TestWindowedTopK:
    def make(self, k=2):
        from repro.dataflow.operators import WindowedTopKOperator

        op = WindowedTopKOperator(ADDR, WindowSpec.tumbling(10.0), k=k)
        return wired(op)

    def test_emits_only_top_k_keys(self):
        op = self.make(k=2)
        batch = EventBatch([1.0, 2.0, 3.0, 4.0], values=[5.0, 1.0, 9.0, 3.0],
                           keys=[0, 1, 2, 3])
        op.on_message(msg(batch, p=4.0), now=0.0)
        out = op.on_message(msg(EventBatch([10.5]), p=10.5), now=0.0)
        result = out[0].batch
        assert list(result.keys) == [2, 0]  # descending by value
        assert list(result.values) == [9.0, 5.0]

    def test_fewer_keys_than_k_kept_as_is(self):
        op = self.make(k=5)
        op.on_message(msg(EventBatch([1.0], values=[2.0], keys=[7]), p=1.0), now=0.0)
        out = op.on_message(msg(EventBatch([10.5]), p=10.5), now=0.0)
        assert list(out[0].batch.keys) == [7]

    def test_invalid_k_rejected(self):
        from repro.dataflow.operators import WindowedTopKOperator

        with pytest.raises(ValueError):
            WindowedTopKOperator(ADDR, WindowSpec.tumbling(10.0), k=0)
