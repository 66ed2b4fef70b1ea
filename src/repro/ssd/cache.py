"""Controller DRAM: the write buffer and the read cache.

The write buffer is why buffered write latency (a few µs) is far below
tPROG: the host gets its completion as soon as the data lands in DRAM,
and a background flusher commits it to flash.  When the flusher cannot
keep up the buffer fills and writes stall — the queue-depth-dependent
write latency blow-up of Fig. 4a and the GC latency spikes of Fig. 7b.

The read cache (NVMe SSD only; Z-SSD does not need one) is an LRU over
mapping units with a sequential-stream prefetcher.  Random reads at any
realistic capacity ratio miss almost always, exposing raw flash tR —
the paper's explanation for the 82.9 µs random-read latency.
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.sim.engine import Simulator
from repro.units import Count


class WriteBuffer:
    """Counted DRAM slots with FIFO admission and a flush queue."""

    def __init__(self, sim: Simulator, capacity_units: Count) -> None:
        if capacity_units < 1:
            raise ValueError("write buffer needs at least one slot")
        self.sim = sim
        self.capacity = capacity_units
        self._occupancy = 0
        #: Blocked reservations, oldest first, as ``(callback, args)``.
        self._waiters = sim.waitlist()
        self._resident: Dict[int, int] = {}  # lpn -> copies buffered
        #: Units waiting to be flushed, oldest first, and the one flush
        #: take parked until a unit arrives: a waitlist, which close()
        #: empties, so a parked taker never ties itself to the buffer.
        self._dirty: Deque[int] = deque()
        self._taker = sim.waitlist()
        # Statistics.
        self.stall_count = 0
        self.inserted = 0

    # ------------------------------------------------------------------
    @property
    def occupancy(self) -> int:
        return self._occupancy

    @property
    def is_full(self) -> bool:
        return self._occupancy >= self.capacity

    def contains(self, lpn: int) -> bool:
        """True if ``lpn``'s freshest data is still in DRAM (read hit)."""
        return self._resident.get(lpn, 0) > 0

    @property
    def resident(self) -> Dict[int, int]:
        """Buffered copies per LPN, only LPNs with at least one (the
        live dict; do not mutate): ``lpn in resident`` is
        :meth:`contains`, without the call."""
        return self._resident

    # ------------------------------------------------------------------
    def reserve(self, callback: Callable[..., Any], *args: Any) -> None:
        """Acquire a slot, then run ``callback(*args)``.

        With a slot free the callback is posted: it runs in the FIFO
        slot where a process yielding an already-fired event would
        resume.  Otherwise it waits its turn and is called from
        :meth:`flushed` the moment a slot is handed to it, as a process
        waiting on an event would be resumed from its trigger.
        """
        if self._occupancy < self.capacity and not self._waiters:
            self._occupancy += 1
            self.sim.post(callback, *args)
        else:
            self.stall_count += 1
            self._waiters.append((callback, args))

    def insert(self, lpn: int) -> None:
        """Deposit ``lpn`` into a previously reserved slot."""
        self._resident[lpn] = self._resident.get(lpn, 0) + 1
        self._queue_dirty(lpn)
        self.inserted += 1

    def take_dirty(self, callback: Callable[[int], Any]) -> None:
        """Take the next unit to flush, then run ``callback(lpn)``.

        With a unit queued it is taken now and the callback posted, as a
        process yielding an already-fired event would resume.  Otherwise
        the take parks, and the next :meth:`insert` or :meth:`requeue`
        calls it inline, as a waiting process was resumed from inside
        the put that woke it.
        """
        if self._dirty:
            self.sim.post(callback, self._dirty.popleft())
        else:
            self._taker.append((callback, ()))

    def take_ready(self, batch: List[int], limit: int) -> None:
        """Move queued units onto ``batch``, oldest first, until it
        holds ``limit`` units or the queue is empty."""
        dirty = self._dirty
        while len(batch) < limit and dirty:
            batch.append(dirty.popleft())

    def requeue(self, lpn: int) -> None:
        """Put a taken unit back on the flush queue (placement failed).

        The slot and residency are untouched — the unit is still
        buffered, it just could not be placed yet.
        """
        self._queue_dirty(lpn)

    def _queue_dirty(self, lpn: int) -> None:
        if self._taker:
            callback, _ = self._taker.popleft()
            callback(lpn)
        else:
            self._dirty.append(lpn)

    def flushed(self, lpn: int) -> None:
        """Mark ``lpn``'s flush complete; frees the slot."""
        count = self._resident.get(lpn, 0)
        if count <= 0:
            raise RuntimeError(f"flushed() for non-resident lpn {lpn}")
        if count == 1:
            del self._resident[lpn]
        else:
            self._resident[lpn] = count - 1
        if self._waiters:
            # Hand the slot straight to the oldest stalled writer.
            callback, args = self._waiters.popleft()
            callback(*args)
        else:
            self._occupancy -= 1

    @property
    def pending_flush(self) -> int:
        return len(self._dirty)


class ReadCache:
    """LRU unit cache with in-flight ("ready at") tracking.

    ``lookup`` returns the time the cached copy becomes usable — a
    prefetched entry still being read from flash is a hit that waits.
    """

    def __init__(self, capacity_units: Count, prefetch_ahead: int = 0) -> None:
        if capacity_units < 0 or prefetch_ahead < 0:
            raise ValueError("capacity and prefetch depth must be >= 0")
        self.capacity = capacity_units
        self.prefetch_ahead = prefetch_ahead
        self._entries: "OrderedDict[int, int]" = OrderedDict()  # lpn -> ready_at
        self._last_lpn: Optional[int] = None
        self._streak = 0
        # Statistics.
        self.hits = 0
        self.misses = 0
        self.prefetches = 0

    @property
    def enabled(self) -> bool:
        return self.capacity > 0

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def lookup(self, lpn: int) -> Optional[int]:
        """Ready-at time for ``lpn``, or ``None`` on a miss."""
        if not self.enabled:
            return None
        ready_at = self._entries.get(lpn)
        if ready_at is None:
            self.misses += 1
            return None
        self._entries.move_to_end(lpn)
        self.hits += 1
        return ready_at

    def insert(self, lpn: int, ready_at: int) -> None:
        if not self.enabled:
            return
        self._entries[lpn] = ready_at
        self._entries.move_to_end(lpn)
        while len(self._entries) > self.capacity:
            self._entries.popitem(last=False)

    def discard(self, lpn: int) -> None:
        """Drop ``lpn``'s cached copy, if any (its data was deallocated)."""
        self._entries.pop(lpn, None)

    def note_access(self, lpn: int) -> List[int]:
        """Update the stream detector; returns LPNs to prefetch.

        Detects a sequential run of three or more accesses, then asks the
        controller to stage the next ``prefetch_ahead`` units that are
        not already cached.  The controller reports every unit it serves
        while prefetching is on (a cache with no prefetch depth never
        uses the detector).
        """
        if self._last_lpn is not None and lpn == self._last_lpn + 1:
            self._streak += 1
        else:
            self._streak = 0
        self._last_lpn = lpn
        if not self.enabled or self.prefetch_ahead == 0 or self._streak < 2:
            return []
        wanted = [
            candidate
            for candidate in range(lpn + 1, lpn + 1 + self.prefetch_ahead)
            if candidate not in self._entries
        ]
        self.prefetches += len(wanted)
        return wanted

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
