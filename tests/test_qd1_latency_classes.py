"""The exact latency classes of uncontended QD1 runs.

With flash jitter and device stalls set to zero and no faults, a QD1
psync run gives only a few distinct latencies, each a closed sum of
device timings and per-step host costs.  These tests pin the multiset
of every I/O's application latency (300 I/Os on ull and nvme, random
reads and writes), so a change to how the engine advances the clock —
running host code ahead of the queue, merging or splitting sleeps —
cannot move a single nanosecond unnoticed.

The read runs show two classes on each device, and the registry names
both.  On ull every read goes to flash; the slow class misses the
controller's mapping cache and pays a 3,300 ns map fetch (its first
``ctrl`` phase is 4,800 ns against 1,500 ns), so it numbers
``ssd.map.misses`` and the fast class the map-cache hits.  On nvme the
fast read is a DRAM read-cache hit (``ssd.read.cache_hits``): it has no
``flash_read`` span and no flash-to-controller ``dma``.
"""

from __future__ import annotations

import collections
import dataclasses

import pytest

from repro.api import JobConfig, Testbed
from repro.obs import Observability

IO_COUNT = 300

#: (completion, device, rw) -> {latency ns: I/Os}.
CLASSES = {
    ("poll", "ull", "randread"): {11187: 52, 14487: 248},
    ("poll", "ull", "randwrite"): {8980: 300},
    ("poll", "nvme", "randread"): {9080: 1, 82700: 299},
    ("poll", "nvme", "randwrite"): {11080: 300},
    ("interrupt", "ull", "randread"): {13287: 52, 16587: 248},
    ("interrupt", "ull", "randwrite"): {11080: 300},
    ("interrupt", "nvme", "randread"): {11180: 1, 84800: 299},
    ("interrupt", "nvme", "randwrite"): {13180: 300},
}

#: Hybrid polling draws its timer slack, so its latencies spread; pin
#: (sum, min, max) of the same runs instead.
HYBRID = {
    ("ull", "randread"): (4308364, 12652, 14791),
    ("ull", "randwrite"): (3337763, 8980, 12139),
    ("nvme", "randread"): (24776268, 48968, 82700),
    ("nvme", "randwrite"): (3653813, 11080, 13189),
}


def measure(completion: str, device: str, rw: str) -> tuple:
    """Every I/O's latency (ns) of one jitter-free, stall-free run, and
    the run's registry counters."""
    base = Testbed(device=device).device_config()
    timing = dataclasses.replace(base.timing, read_jitter=0.0, program_jitter=0.0)
    testbed = Testbed(
        device=device,
        completion=completion,
        config_overrides=(
            ("timing", timing),
            ("read_stall_prob", 0.0),
            ("write_stall_prob", 0.0),
        ),
    )
    with Observability(tracing=False) as obs:
        measured = testbed.run(
            JobConfig(rw=rw, io_count=IO_COUNT, capture_timeseries=True)
        )
    counters = {m.name: m.value for m in obs.registry if m.kind == "counter"}
    values = measured.result.timeseries.values.tolist()
    return [int(value) for value in values], counters


def fast_reads(device: str, counters: dict) -> int:
    """The registry's count of the reads that take the fast path."""
    if device == "ull":
        return counters["ssd.read.flash"] - counters["ssd.map.misses"]
    return counters["ssd.read.cache_hits"]


@pytest.mark.parametrize("case", list(CLASSES), ids="-".join)
def test_latency_multiset_is_pinned(case):
    values, counters = measure(*case)
    classes = dict(collections.Counter(values))
    assert classes == CLASSES[case]
    completion, device, rw = case
    if completion == "poll" and rw == "randread":
        assert classes[min(classes)] == fast_reads(device, counters)


@pytest.mark.parametrize("case", list(HYBRID), ids="-".join)
def test_hybrid_latency_sum_and_range_are_pinned(case):
    values, _counters = measure("hybrid", *case)
    assert len(values) == IO_COUNT
    assert (sum(values), min(values), max(values)) == HYBRID[case]
