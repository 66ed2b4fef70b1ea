"""The per-I/O object budget of the simulated I/O path.

Each I/O travels as one slotted :class:`~repro.ssd.device.IoRecord`
from blk-mq to flash; the device runs writes as callback stages, not as
a process per write.  These tests pin the exact number of ``Process``
and ``Event`` constructions of small real runs, so a change that brings
per-I/O objects back shows up as a changed count rather than as noise in
a wall-time benchmark.
"""

from __future__ import annotations

import collections

import pytest

from repro.api import JobConfig, Testbed
from repro.sim.events import Event

IO_COUNT = 200

#: (completion, engine, iodepth) -> (Processes, Events) for IO_COUNT
#: randrw I/Os on ull.  Processes: the job loop, the write batcher and
#: one flush worker per die, none per I/O.  Events: one CQE event per
#: synchronous I/O whose host code blocks on the CQE (hybrid polling
#: often oversleeps it, libaio reaps through a callback), plus the
#: flush pipeline's store hand-offs and libaio's slot waits.
BUDGET = {
    ("interrupt", "psync", 1): (34, 391),
    ("poll", "psync", 1): (34, 390),
    ("hybrid", "psync", 1): (34, 286),
    ("interrupt", "libaio", 8): (34, 323),
}


def constructions(completion, engine, iodepth, io_count=IO_COUNT):
    """Count ``Process`` and other ``Event`` constructions of one run."""
    counts = collections.Counter()
    init = Event.__init__

    def counting(self, *args, **kwargs):
        counts["Process" if type(self).__name__ == "Process" else "Event"] += 1
        init(self, *args, **kwargs)

    Event.__init__ = counting
    try:
        Testbed(device="ull", completion=completion).run_job(
            JobConfig(rw="randrw", engine=engine, iodepth=iodepth, io_count=io_count)
        )
    finally:
        Event.__init__ = init
    return counts["Process"], counts["Event"]


@pytest.mark.parametrize("case", list(BUDGET), ids=lambda case: f"{case[1]}-{case[0]}")
def test_exact_object_counts(case):
    assert constructions(*case) == BUDGET[case]


@pytest.mark.parametrize("case", list(BUDGET), ids=lambda case: f"{case[1]}-{case[0]}")
def test_no_process_per_device_request(case):
    processes, _ = constructions(*case, io_count=IO_COUNT // 2)
    assert processes == BUDGET[case][0]
