"""The channel transfer fabric.

Each (super-)channel is a shared bus: page data moving between a die's
register and the controller occupies the channel for the transfer
duration, so a long write burst delays queued read transfers — the
channel-blocking effect the paper blames for read/write interference on
the NVMe SSD (Section IV-D1).

For a super-channel device the pair of physical channels always moves as
one (split-DMA drives both halves in lockstep), so a pair is modeled as a
single timeline with twice the single-channel rate; a super-channel
device spec encodes that in ``channel_mbps``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.sim.engine import Simulator
from repro.sim.resources import TimelineResource


class ChannelArray:
    """One busy-timeline per (super-)channel."""

    def __init__(
        self,
        sim: Simulator,
        n_channels: int,
        mbps: int,
        *,
        observer: Optional[Callable[[int, int], None]] = None,
    ) -> None:
        if n_channels < 1:
            raise ValueError("need at least one channel")
        if mbps <= 0:
            raise ValueError("channel rate must be positive")
        self.sim = sim
        self.mbps = mbps
        self.observer = observer
        self._channels: List[TimelineResource] = [
            TimelineResource(sim) for _ in range(n_channels)
        ]
        # Transfers come in a handful of fixed sizes (host units, page
        # batches): memoize the ns conversion per size.
        self._transfer_cache: Dict[int, int] = {}

    def __len__(self) -> int:
        return len(self._channels)

    def transfer_ns(self, nbytes: int) -> int:
        cached = self._transfer_cache.get(nbytes)
        if cached is not None:
            return cached
        result = int(round(nbytes * 1_000 / self.mbps))
        self._transfer_cache[nbytes] = result
        return result

    def channel_of_die(self, die: int) -> int:
        return die % len(self._channels)

    def transfer(
        self, channel: int, nbytes: int, not_before: int = 0
    ) -> Tuple[int, int]:
        """Book ``nbytes`` on ``channel``; returns the ``(start, end)``.

        Runs once per mapping unit read, so it books the channel's
        timeline in place (what ``TimelineResource.reserve`` does) with
        the memoized duration.
        """
        channels = self._channels
        if not 0 <= channel < len(channels):
            raise ValueError(f"channel out of range: {channel}")
        duration = self._transfer_cache.get(nbytes)
        if duration is None:
            duration = self.transfer_ns(nbytes)
        timeline = channels[channel]
        start = max(self.sim.now, timeline.free_at, not_before)
        end = start + duration
        timeline.free_at = end
        timeline.busy_ns += duration
        if self.observer is not None:
            self.observer(start, end)
        return start, end

    def busy_ns(self, channel: int) -> int:
        return self._channels[channel].busy_ns

    def utilization(self, elapsed_ns: int) -> float:
        """Mean utilization across channels."""
        if elapsed_ns <= 0 or not self._channels:
            return 0.0
        total = sum(ch.busy_ns for ch in self._channels)
        return min(1.0, total / (elapsed_ns * len(self._channels)))
