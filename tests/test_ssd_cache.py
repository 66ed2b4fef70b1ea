"""Tests for the DRAM write buffer and read cache."""

import pytest

from repro.sim import Simulator
from repro.ssd.cache import ReadCache, WriteBuffer


def take_slot(buffer):
    """Reserve a slot for a writer that needs no wake-up."""
    buffer.reserve(lambda: None)


class TestWriteBuffer:
    def test_reserve_up_to_capacity(self):
        sim = Simulator()
        buffer = WriteBuffer(sim, capacity_units=2)
        granted = []
        for writer in "abc":
            buffer.reserve(granted.append, writer)
        sim.run()
        assert granted == ["a", "b"]  # a free slot's grant is posted
        assert buffer.is_full
        assert buffer.stall_count == 1

    def test_flush_frees_slot_to_oldest_waiter(self):
        sim = Simulator()
        buffer = WriteBuffer(sim, capacity_units=1)
        take_slot(buffer)
        buffer.insert(7)
        granted = []
        buffer.reserve(granted.append, "first")
        buffer.reserve(granted.append, "second")
        buffer.take_dirty(lambda lpn: None)  # flusher picks it up
        buffer.flushed(7)
        assert granted == ["first"]  # handed over at once, not posted
        assert buffer.occupancy == 1

    def test_contains_tracks_residency(self):
        sim = Simulator()
        buffer = WriteBuffer(sim, capacity_units=4)
        take_slot(buffer)
        buffer.insert(3)
        assert buffer.contains(3)
        buffer.flushed(3)
        assert not buffer.contains(3)

    def test_duplicate_lpn_refcounted(self):
        sim = Simulator()
        buffer = WriteBuffer(sim, capacity_units=4)
        for _ in range(2):
            take_slot(buffer)
            buffer.insert(3)
        buffer.flushed(3)
        assert buffer.contains(3)  # second copy still resident
        buffer.flushed(3)
        assert not buffer.contains(3)

    def test_dirty_queue_is_fifo(self):
        sim = Simulator()
        buffer = WriteBuffer(sim, capacity_units=4)
        for lpn in (5, 6, 7):
            take_slot(buffer)
            buffer.insert(lpn)
        taken = []
        buffer.take_dirty(taken.append)
        buffer.take_dirty(taken.append)
        assert buffer.pending_flush == 1
        sim.run()  # a ready take's callback is posted
        assert taken == [5, 6]

    def test_parked_take_is_called_inline(self):
        sim = Simulator()
        buffer = WriteBuffer(sim, capacity_units=4)
        taken = []
        buffer.take_dirty(taken.append)
        take_slot(buffer)
        buffer.insert(4)
        assert taken == [4]  # handed over inside the insert
        buffer.take_dirty(taken.append)
        buffer.requeue(4)
        assert taken == [4, 4] and buffer.pending_flush == 0

    def test_take_ready_stops_at_limit(self):
        sim = Simulator()
        buffer = WriteBuffer(sim, capacity_units=4)
        for lpn in (1, 2, 3):
            take_slot(buffer)
            buffer.insert(lpn)
        batch = [0]
        buffer.take_ready(batch, limit=3)
        assert batch == [0, 1, 2] and buffer.pending_flush == 1
        buffer.take_ready(batch, limit=8)
        assert batch == [0, 1, 2, 3] and buffer.pending_flush == 0

    def test_flushed_without_insert_rejected(self):
        sim = Simulator()
        buffer = WriteBuffer(sim, capacity_units=2)
        with pytest.raises(RuntimeError):
            buffer.flushed(9)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            WriteBuffer(Simulator(), capacity_units=0)

    def test_close_drops_blocked_writers(self):
        sim = Simulator()
        buffer = WriteBuffer(sim, capacity_units=1)
        take_slot(buffer)
        buffer.reserve(lambda: None)
        buffer.take_dirty(lambda lpn: None)
        assert len(buffer._waiters) == len(buffer._taker) == 1
        sim.close()
        assert len(buffer._waiters) == len(buffer._taker) == 0


class TestReadCache:
    def test_disabled_cache_never_hits(self):
        cache = ReadCache(capacity_units=0)
        assert not cache.enabled
        cache.insert(1, ready_at=0)
        assert cache.lookup(1) is None

    def test_hit_returns_ready_time(self):
        cache = ReadCache(capacity_units=4)
        cache.insert(1, ready_at=500)
        assert cache.lookup(1) == 500
        assert cache.hits == 1

    def test_lru_eviction(self):
        cache = ReadCache(capacity_units=2)
        cache.insert(1, 0)
        cache.insert(2, 0)
        cache.lookup(1)  # touch 1 -> 2 is now LRU
        cache.insert(3, 0)
        assert cache.lookup(2) is None
        assert cache.lookup(1) is not None

    def test_hit_rate(self):
        cache = ReadCache(capacity_units=4)
        cache.insert(1, 0)
        cache.lookup(1)
        cache.lookup(2)
        assert cache.hit_rate() == pytest.approx(0.5)

    def test_stream_detector_needs_three_sequential(self):
        cache = ReadCache(capacity_units=16, prefetch_ahead=4)
        assert cache.note_access(10) == []
        assert cache.note_access(11) == []
        wanted = cache.note_access(12)
        assert wanted == [13, 14, 15, 16]

    def test_stream_detector_resets_on_random(self):
        cache = ReadCache(capacity_units=16, prefetch_ahead=4)
        cache.note_access(10)
        cache.note_access(11)
        assert cache.note_access(50) == []
        assert cache.note_access(51) == []

    def test_prefetch_skips_cached_units(self):
        cache = ReadCache(capacity_units=16, prefetch_ahead=3)
        cache.insert(13, 0)
        cache.note_access(10)
        cache.note_access(11)
        assert cache.note_access(12) == [14, 15]

    def test_discard_drops_one_entry(self):
        cache = ReadCache(capacity_units=4)
        cache.insert(1, 10)
        cache.insert(2, 20)
        cache.discard(1)
        cache.discard(7)  # not cached: a no-op
        assert cache.lookup(1) is None
        assert cache.lookup(2) == 20

    def test_no_prefetch_without_depth(self):
        cache = ReadCache(capacity_units=16, prefetch_ahead=0)
        cache.note_access(10)
        cache.note_access(11)
        assert cache.note_access(12) == []
