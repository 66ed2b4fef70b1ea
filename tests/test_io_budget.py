"""The per-I/O object and dispatch budget of the simulated I/O path.

Each I/O travels as one slotted :class:`~repro.ssd.device.IoRecord`
from blk-mq to flash; the device runs as callback stages with no process
at all (its write path, write batcher, flush workers and GC); host code
advances the clock once per run of pure-CPU steps, inline when nothing
else is due first.  These tests pin the exact number of ``Process`` and
``Event`` constructions and of engine dispatches of small real runs, so
a change that brings per-I/O objects, device processes or per-step
wakes back shows up as a changed count rather than as noise in a
wall-time benchmark.  They also pin every CPU accounting
cell, which sleeping per run instead of per step, and running ahead,
must leave untouched.
"""

from __future__ import annotations

import collections
import contextlib
import functools

import pytest

from repro.api import JobConfig, Testbed
from repro.sim import engine as sim_engine
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.ssd.config import UNIT_SIZE
from repro.ssd.device import SsdDevice
from repro.ssd.registry import resolve_config

IO_COUNT = 200

#: (completion, engine, iodepth) -> (Processes, Events) for IO_COUNT
#: randrw I/Os on ull.  Processes: the job loop only; the device has
#: none (its write path, batcher, flush workers and GC are callback
#: stages).  Events: one CQE event per synchronous I/O whose host code
#: blocks on the CQE (hybrid polling often oversleeps it, libaio reaps
#: through a callback), plus libaio's slot waits.  With the flush
#: pipeline as processes these were 34 Processes and 391, 390, 286 and
#: 323 Events.
BUDGET = {
    ("interrupt", "psync", 1): (1, 200),
    ("poll", "psync", 1): (1, 200),
    ("hybrid", "psync", 1): (1, 95),
    ("interrupt", "libaio", 8): (1, 158),
}


#: (completion, engine, iodepth) -> engine dispatches of the same runs.
#: A psync interrupt I/O has four host runs (fio prep through the
#: doorbell; the switch-out; MSI + ISR; the wake-up with the syscall
#: exit), and each runs ahead of the queue unless a device callback is
#: due first: a read then costs three dispatches (command fetch, device
#: completion, CQE post).  Sleeping per run instead of per step took
#: 3751, 2950, 3748 and 1923 dispatches to 2151, 1750, 2349 and 1723;
#: running ahead took them to these.
DISPATCHES = {
    ("interrupt", "psync", 1): 1205,
    ("poll", "psync", 1): 1162,
    ("hybrid", "psync", 1): 1480,
    ("interrupt", "libaio", 8): 1498,
}

#: (completion, engine, iodepth) -> every CPU accounting cell of the same
#: runs as ``(mode, module, function, ns, loads, stores)``, in
#: ``profiles()`` order: the values of the per-step sleeps, unchanged.
CELLS = {
    ("interrupt", "psync", 1): [
        ("kernel", "sched", "context_switch", 230000, 43000, 34000),
        ("user", "fio", "fio_rw", 140000, 38000, 24000),
        ("kernel", "nvme-driver", "nvme_irq", 100000, 19000, 12000),
        ("kernel", "vfs", "syscall", 60000, 9400, 6600),
        ("kernel", "blk-mq", "blk_mq_make_request", 60000, 19000, 13000),
        ("kernel", "blk-mq", "blk_mq_complete_request", 60000, 14000, 9000),
        ("kernel", "vfs", "vfs_rw", 50000, 17000, 11000),
        ("kernel", "nvme-driver", "nvme_queue_rq", 50000, 13000, 9000),
        ("kernel", "nvme-driver", "doorbell_write", 20000, 400, 600),
    ],
    ("poll", "psync", 1): [
        ("kernel", "blk-mq", "blk_mq_poll", 1523040, 266756, 104797),
        ("kernel", "nvme-driver", "nvme_poll", 380757, 85743, 28581),
        ("user", "fio", "fio_rw", 140000, 38000, 24000),
        ("kernel", "vfs", "syscall", 60000, 9400, 6600),
        ("kernel", "blk-mq", "blk_mq_make_request", 60000, 19000, 13000),
        ("kernel", "blk-mq", "blk_mq_complete_request", 60000, 12000, 8000),
        ("kernel", "vfs", "vfs_rw", 50000, 17000, 11000),
        ("kernel", "nvme-driver", "nvme_queue_rq", 50000, 13000, 9000),
        ("kernel", "nvme-driver", "doorbell_write", 20000, 400, 600),
    ],
    ("hybrid", "psync", 1): [
        ("kernel", "sched", "timer_wakeup", 756200, 43780, 31840),
        ("kernel", "blk-mq", "blk_mq_poll", 272560, 49744, 21248),
        ("user", "fio", "fio_rw", 140000, 38000, 24000),
        ("kernel", "vfs", "syscall", 60000, 9400, 6600),
        ("kernel", "blk-mq", "blk_mq_make_request", 60000, 19000, 13000),
        ("kernel", "blk-mq", "blk_mq_complete_request", 60000, 12000, 8000),
        ("kernel", "vfs", "vfs_rw", 50000, 17000, 11000),
        ("kernel", "nvme-driver", "nvme_queue_rq", 50000, 13000, 9000),
        ("kernel", "blk-mq", "blk_mq_poll_hybrid_sleep", 50000, 8000, 6000),
        ("kernel", "nvme-driver", "nvme_poll", 48235, 10872, 3624),
        ("kernel", "nvme-driver", "doorbell_write", 20000, 400, 600),
    ],
    ("interrupt", "libaio", 8): [
        ("kernel", "blk-mq", "aio_submit_path", 140000, 26000, 18000),
        ("kernel", "nvme-driver", "nvme_irq", 100000, 19000, 12000),
        ("user", "fio", "io_getevents", 70000, 12000, 7000),
        ("user", "fio", "io_submit", 60000, 11000, 7000),
    ],
}


@contextlib.contextmanager
def constructions():
    """Count ``Process`` and ``Event`` constructions inside the block."""
    counts = collections.Counter()
    init = Event.__init__

    def counting(self, *args, **kwargs):
        counts["Process" if type(self).__name__ == "Process" else "Event"] += 1
        init(self, *args, **kwargs)

    Event.__init__ = counting
    try:
        yield counts
    finally:
        Event.__init__ = init


@functools.lru_cache(maxsize=None)
def measure(completion, engine, iodepth, io_count=IO_COUNT):
    """Run one job; returns its ``(Processes, Events)`` constructions,
    its engine dispatches and its accounting cells."""
    before = sim_engine.events_executed_total
    with constructions() as counts:
        result = Testbed(device="ull", completion=completion).run_job(
            JobConfig(rw="randrw", engine=engine, iodepth=iodepth, io_count=io_count)
        )
    dispatches = sim_engine.events_executed_total - before
    cells = [
        (p.mode.value, p.module, p.function, p.cycles_ns, p.loads, p.stores)
        for p in result.accounting.profiles()
    ]
    return (counts["Process"], counts["Event"]), dispatches, cells


@pytest.mark.parametrize("case", list(BUDGET), ids=lambda case: f"{case[1]}-{case[0]}")
def test_exact_object_counts(case):
    assert measure(*case)[0] == BUDGET[case]


@pytest.mark.parametrize("case", list(BUDGET), ids=lambda case: f"{case[1]}-{case[0]}")
def test_no_process_per_device_request(case):
    (processes, _), _, _ = measure(*case, io_count=IO_COUNT // 2)
    assert processes == BUDGET[case][0]


@pytest.mark.parametrize("case", list(BUDGET), ids=lambda case: f"{case[1]}-{case[0]}")
def test_exact_dispatches(case):
    assert measure(*case)[1] == DISPATCHES[case]


@pytest.mark.parametrize("case", list(BUDGET), ids=lambda case: f"{case[1]}-{case[0]}")
def test_accounting_cells_are_unchanged(case):
    assert measure(*case)[2] == CELLS[case]


def test_device_alone_constructs_no_process():
    """Writes submitted straight to a device, enough to run GC, build no
    ``Process``: the only events are the records' ``done`` events."""
    sim = Simulator()
    config = resolve_config(
        "zssd",
        (("channels", 2), ("ways_per_channel", 2), ("blocks_per_die", 12),
         ("pages_per_block", 16), ("write_buffer_units", 2)),
    )
    with constructions() as counts:
        device = SsdDevice(sim, config)
        device.precondition(1.0)
        pages = device.logical_pages
        records = [
            device.write((37 * i) % pages * UNIT_SIZE, UNIT_SIZE) for i in range(300)
        ]
        sim.run()
    assert all(record.device_done_ns is not None for record in records)
    assert device.stats.gc_events and device.controller.write_buffer.stall_count
    assert counts == {"Event": len(records)}
