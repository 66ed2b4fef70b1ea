"""Differential harness: the device's write stages against the write process.

:class:`~repro.ssd.device.SsdDevice` runs a write as a chain of callback
stages, each claimed to run at the tick and in the FIFO slot where the
generator process it replaced would have resumed.  These tests keep that
process (``_write_flow`` with ``write_unit``) as the oracle and check
the claim mechanically: hypothesis-generated mixes of reads, writes and
trims at queue depths 1-16 run once on each path, and every request's
device-done time, the executed-callback count and the controller
statistics must be equal.

The devices are the zoo's zssd and intel750 shrunk to four dies of
twelve 16-page blocks and preconditioned full, so garbage collection
runs within a few dozen writes, with a write buffer of one to four
units, so admission blocks and a freed slot hands over straight from
the flush worker.
"""

from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim import engine as sim_engine
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.ssd.cache import WriteBuffer
from repro.ssd.config import UNIT_SIZE
from repro.ssd.device import IoOp, SsdDevice
from repro.ssd.registry import resolve_config

SMALL_GEOMETRY = (
    ("channels", 2),
    ("ways_per_channel", 2),
    ("blocks_per_die", 12),
    ("pages_per_block", 16),
    ("overprovision", 0.25),
)

#: A host link so fast that a write's DMA ends the tick it starts, so
#: the write continues into the buffer without a pause.
INSTANT_DMA = (("pcie_latency_ns", 0), ("pcie_mbps", 10**9))

#: Simulated-time bound of one mix: far past the last completion.
HORIZON_NS = 2_000_000_000


class OracleWriteBuffer(WriteBuffer):
    """Slots granted through events, as the write process waited on them."""

    def __init__(self, sim, capacity_units):
        super().__init__(sim, capacity_units)
        self._waiters = deque()

    def reserve(self):
        """Acquire a slot; the event fires when one is held."""
        event = Event(self.sim)
        if self._occupancy < self.capacity and not self._waiters:
            self._occupancy += 1
            event.succeed()
        else:
            self.stall_count += 1
            self._waiters.append(event)
        return event

    def flushed(self, lpn):
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
            self._waiters.popleft().succeed()
        else:
            self._occupancy -= 1


class OracleDevice(SsdDevice):
    """Writes run as one generator process each, as before the stages."""

    def __init__(self, sim, config, **kwargs):
        super().__init__(sim, config, **kwargs)
        # Swapped in before the flush processes first run and read it.
        self.controller.write_buffer = OracleWriteBuffer(
            sim, config.write_buffer_units
        )

    def serve(self, record, on_done):
        if record.op is not IoOp.WRITE:
            super().serve(record, on_done)
            return
        record.lpn, record.units = self._units_of(record.offset, record.nbytes)
        self.sim.process(self._write_flow(record, on_done))

    def _write_flow(self, request, on_done):
        trace = request.trace
        config = self.config
        controller = self.controller
        yield self.sim.sleep(config.write_fw_ns)
        dma_start, dma_done = controller.pcie.reserve(
            config.pcie_transfer_ns(request.nbytes), not_before=self.sim.now
        )
        if trace is not None:
            trace.wait("ssd.pcie", "dma_backlog", self.sim.now, dma_start)
            trace.phase("dma", dma_start)
            trace.annotate("pcie_dma", dma_start, dma_done, nbytes=request.nbytes)
        if dma_done > self.sim.now:
            yield self.sim.sleep(dma_done - self.sim.now)
        if trace is not None:
            trace.phase("write_buffer", self.sim.now)
        for lpn in range(request.lpn, request.lpn + request.units):
            yield from write_unit(controller, lpn, trace=trace)
        stall = controller.roll_write_stall()
        if trace is not None:
            if stall:
                trace.phase("write_stall", self.sim.now)
                trace.phase("ctrl", self.sim.now + stall)
                trace.wait(
                    "ssd.firmware", "write_stall", self.sim.now, self.sim.now + stall
                )
            else:
                trace.phase("ctrl", self.sim.now)
        yield self.sim.sleep(stall + config.dram_hit_ns + config.completion_fw_ns)
        self._complete(request, on_done)


def write_unit(controller, lpn, trace=None):
    """Process: admit one unit into the write buffer."""
    sim = controller.sim
    wait_from = sim.now
    yield controller.write_buffer.reserve()
    if trace is not None and sim.now > wait_from:
        blocked_on = "gc_stall" if controller.gc_active > 0 else "buffer_full"
        trace.phase(blocked_on, wait_from)
        trace.phase("write_buffer", sim.now)
        trace.wait(
            "ssd.write_buffer",
            "gc" if controller.gc_active > 0 else "flush",
            wait_from,
            sim.now,
        )
    controller.write_buffer.insert(lpn)
    controller._m_buffer_occ.set(controller.write_buffer.occupancy, sim.now)
    controller._t_buffer_occ.record(sim.now, controller.write_buffer.occupancy)


def run_mix(device_cls, name, buffer_units, qd, ops, instant_dma=False):
    """Drive ``ops`` at queue depth ``qd``; returns everything compared."""
    overrides = SMALL_GEOMETRY + (("write_buffer_units", buffer_units),)
    if instant_dma:
        overrides += INSTANT_DMA
    config = resolve_config(name, overrides)
    sim = Simulator()
    device = device_cls(sim, config, seed=5)
    device.precondition(1.0)
    pages = device.logical_pages
    records = []

    def driver():
        outstanding = deque()
        for kind, unit, units, gap in ops:
            while len(outstanding) >= qd:
                oldest = outstanding.popleft()
                if not oldest.done.triggered:
                    yield oldest.done
            if gap:
                yield sim.sleep(gap)
            units = min(units, pages)
            first = unit % (pages - units + 1)
            record = device.submit(kind, first * UNIT_SIZE, units * UNIT_SIZE)
            records.append(record)
            outstanding.append(record)

    before = sim_engine.events_executed_total
    sim.process(driver())
    sim.run(until=HORIZON_NS)
    executed = sim_engine.events_executed_total - before
    return (
        [record.device_done_ns for record in records],
        sim.pending_count,
        executed,
        device.stats,
        device.controller.write_buffer.stall_count,
        (device.completed_reads, device.completed_writes, device.completed_trims),
        device.ftl.gc_runs,
    )


_op = st.tuples(
    st.sampled_from([IoOp.WRITE, IoOp.WRITE, IoOp.WRITE, IoOp.READ, IoOp.TRIM]),
    st.integers(0, 10_000),
    st.integers(1, 4),
    st.sampled_from([0, 0, 0, 100, 1_000, 20_000]),
)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["zssd", "intel750"]),
    buffer_units=st.integers(1, 4),
    qd=st.integers(1, 16),
    ops=st.lists(_op, min_size=1, max_size=60),
    instant_dma=st.booleans(),
)
def test_stages_match_the_write_process(name, buffer_units, qd, ops, instant_dma):
    staged = run_mix(SsdDevice, name, buffer_units, qd, ops, instant_dma)
    oracle = run_mix(OracleDevice, name, buffer_units, qd, ops, instant_dma)
    assert staged == oracle


@pytest.mark.parametrize("instant_dma", [False, True])
@pytest.mark.parametrize("name", ["zssd", "intel750"])
def test_heavy_overwrite_blocks_admission_and_runs_gc(name, instant_dma):
    """A fixed deep overwrite storm reaches both hand-over paths: blocked
    admission (a slot freed by a flush) and GC, and still matches."""
    ops = [(IoOp.WRITE, unit * 37, 1 + unit % 3, 0) for unit in range(200)]
    staged = run_mix(SsdDevice, name, 2, 16, ops, instant_dma)
    oracle = run_mix(OracleDevice, name, 2, 16, ops, instant_dma)
    assert staged == oracle
    done, pending, _, stats, stalls, _, gc_runs = staged
    assert None not in done and pending == 0
    assert stalls > 0 and gc_runs > 0 and stats.gc_events
