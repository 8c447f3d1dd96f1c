"""Per-channel stream-progress tracking (watermarks).

A windowed operator fed by several upstream channels may only trigger a
window once *every* channel's progress has passed the window end — the
paper's "frontier progresses are observed at all sources" (§4.2.2).  The
runtime guarantees in-order delivery per channel (§4.3), so per-channel
progress is simply the last logical time seen on that channel.
"""

from __future__ import annotations

from typing import Iterable


class ProgressTracker:
    """Tracks logical-time progress across a fixed set of input channels."""

    def __init__(self, channel_count: int):
        if channel_count <= 0:
            raise ValueError("an operator must have at least one input channel")
        self._progress = [float("-inf")] * channel_count
        #: channel index -> saved progress while deactivated (stage rescale)
        self._inactive: dict[int, float] = {}

    @property
    def channel_count(self) -> int:
        return len(self._progress)

    def observe(self, channel_index: int, logical_time: float) -> None:
        """Record progress on one channel.  Regressions are clamped (in-order
        channels never regress, but empty heartbeat batches repeat values)."""
        if not 0 <= channel_index < len(self._progress):
            raise IndexError(
                f"channel {channel_index} out of range 0..{len(self._progress) - 1}"
            )
        if logical_time > self._progress[channel_index]:
            self._progress[channel_index] = logical_time

    @property
    def frontier(self) -> float:
        """Minimum progress across all channels: the operator's safe watermark."""
        return min(self._progress)

    @property
    def max_progress(self) -> float:
        return max(self._progress)

    def complete_up_to(self, logical_time: float) -> bool:
        """True when every channel has progressed to at least ``logical_time``."""
        return self.frontier >= logical_time

    # -- snapshot / restore (checkpointing) and channel (de)activation --

    def progress_values(self) -> list[float]:
        """Per-channel progress for operator-state snapshots (inactive
        channels report their saved, pre-deactivation value)."""
        values = list(self._progress)
        for index, saved in self._inactive.items():
            values[index] = saved
        return values

    def restore_values(self, values: list[float]) -> None:
        """Restore per-channel progress from a snapshot.

        The channel count is part of the wiring, not the state, so a
        snapshot taken under different wiring is a hard error."""
        if len(values) != len(self._progress):
            raise ValueError(
                f"progress snapshot has {len(values)} channels, "
                f"tracker has {len(self._progress)}"
            )
        self._progress = list(values)
        if self._inactive:
            for index, saved in self._inactive.items():
                self._inactive[index] = self._progress[index]
                self._progress[index] = float("inf")

    def reset(self) -> None:
        """Forget all progress (state-loss modelling: a restore with no
        checkpoint).  Replayed messages re-observe from scratch."""
        self._progress = [float("-inf")] * len(self._progress)
        for index in self._inactive:
            self._inactive[index] = float("-inf")
            self._progress[index] = float("inf")

    def set_channel_active(self, channel_index: int, active: bool) -> None:
        """(De)activate one input channel for frontier purposes.

        A stage-rescale deactivates the channels of instances that no
        longer receive data: an inactive channel contributes +inf to the
        frontier (it can never hold a window back), and its last observed
        progress is saved for reactivation."""
        if not 0 <= channel_index < len(self._progress):
            raise IndexError(
                f"channel {channel_index} out of range 0..{len(self._progress) - 1}"
            )
        if active:
            saved = self._inactive.pop(channel_index, None)
            if saved is not None:
                self._progress[channel_index] = saved
        elif channel_index not in self._inactive:
            self._inactive[channel_index] = self._progress[channel_index]
            self._progress[channel_index] = float("inf")


def merged_frontier(trackers: Iterable[ProgressTracker]) -> float:
    """Frontier across a set of trackers (used for multi-input operators)."""
    frontier = float("inf")
    for tracker in trackers:
        frontier = min(frontier, tracker.frontier)
    return frontier
