"""Differential harness: the write back end's stages against its processes.

:class:`~repro.ssd.controller.SsdController` runs the write batcher, the
per-die flush workers and garbage collection as callback stages, each
claimed to run at the tick and in the FIFO slot where the generator
process it replaced resumed.  These tests keep those generators
(``_batcher``, ``_flush_worker``, ``_collect_one_block`` and
``_program_migration``, over a ``Store``-backed hand-off) as the oracle
and check the claim mechanically: hypothesis-generated mixes of reads,
writes and trims at queue depths 1-16 run once on each path, and every
request's device-done time, the executed-callback count, the controller
statistics (every GC event included), the FTL's maps, the write
buffer's stall count and the power series must be equal.

The devices are the zoo's zssd and intel750 shrunk to four dies of
twelve 16-page blocks and preconditioned full, so garbage collection
runs within a few dozen writes, with a write buffer of one to four
units, so a slot freed by a flush hands over straight to a stalled
writer, or of sixteen, so batches queue while every die is busy.
Batch coalescing runs both off and at the spec's window, and an
injected program-failure plan exercises block retirement.
"""

from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.ssd.device as device_module
from repro.faults.plan import FaultPlan, NandFaults
from repro.ftl.allocator import OutOfSpace
from repro.sim import engine as sim_engine
from repro.sim.engine import Simulator
from repro.sim.events import Event
from repro.sim.process import Process
from repro.ssd.cache import WriteBuffer
from repro.ssd.config import UNIT_SIZE
from repro.ssd.controller import GcEvent, SsdController
from repro.ssd.device import IoOp, SsdDevice
from repro.ssd.registry import resolve_config

SMALL_GEOMETRY = (
    ("channels", 2),
    ("ways_per_channel", 2),
    ("blocks_per_die", 12),
    ("pages_per_block", 16),
    ("overprovision", 0.25),
)

#: Simulated-time bound of one mix: far past the last completion.
HORIZON_NS = 2_000_000_000

#: Program failures frequent enough that a short mix retires blocks.
PROGRAM_FAULTS = FaultPlan(seed=3, nand=NandFaults(program_fail_prob=0.05))


class OracleStore:
    """An unbounded FIFO with blocking ``get``: the flush pipeline's old
    hand-off.  A ``put`` to a blocked getter resumes it inside the put."""

    def __init__(self, sim):
        self.sim = sim
        self._items = deque()
        self._getters = deque()

    def __len__(self):
        return len(self._items)

    def put(self, item):
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self._items.append(item)

    def get(self):
        event = Event(self.sim)
        if self._items:
            event.succeed(self._items.popleft())
        else:
            self._getters.append(event)
        return event


class OracleWriteBuffer(WriteBuffer):
    """The dirty queue as a store whose takes are events."""

    def __init__(self, sim, capacity_units):
        super().__init__(sim, capacity_units)
        self._dirty_store = OracleStore(sim)

    def insert(self, lpn):
        self._resident[lpn] = self._resident.get(lpn, 0) + 1
        self._dirty_store.put(lpn)
        self.inserted += 1

    def next_dirty(self):
        """Blocking take of the next unit to flush (fires with the LPN)."""
        return self._dirty_store.get()

    def requeue(self, lpn):
        self._dirty_store.put(lpn)

    @property
    def pending_flush(self):
        return len(self._dirty_store)


class StartedInPlace(Process):
    """A process whose generator starts inside the current callback.

    The controller posts one start per stage where it used to start one
    process; the oracle starts its process from that posted callback, so
    the start costs the one dispatch and takes the one FIFO slot that
    ``Process``'s own posted start did."""

    def __init__(self, sim, generator):
        Event.__init__(self, sim)
        self._generator = generator
        self._waiting_on = None
        sim._live[self] = None
        self._resume(None, None)


class OracleController(SsdController):
    """The batcher, the flush workers and GC as generator processes."""

    def __init__(self, sim, config, **kwargs):
        super().__init__(sim, config, **kwargs)
        # Swapped in before the posted starts run and read them.
        self.write_buffer = OracleWriteBuffer(sim, config.write_buffer_units)
        self._batches = OracleStore(sim)

    def _batch_take(self):
        StartedInPlace(self.sim, self._batcher())

    def _flush_take(self, die_index):
        StartedInPlace(self.sim, self._flush_worker(die_index))

    def _batcher(self):
        """Process: gather buffered units into program-sized batches."""
        config = self.config
        buffer = self.write_buffer
        while True:
            first = yield buffer.next_dirty()
            batch = [first]
            while (
                len(batch) < config.units_per_program and buffer.pending_flush > 0
            ):
                ready = buffer.next_dirty()
                assert ready.triggered
                batch.append(ready.value)
            if (
                config.flush_coalesce_ns > 0
                and len(batch) < config.units_per_program
            ):
                yield self.sim.sleep(config.flush_coalesce_ns)
                while (
                    len(batch) < config.units_per_program
                    and buffer.pending_flush > 0
                ):
                    ready = buffer.next_dirty()
                    assert ready.triggered
                    batch.append(ready.value)
            self._batches.put(batch)

    def _flush_worker(self, die_index):
        config = self.config
        buffer = self.write_buffer
        while True:
            batch = yield self._batches.get()
            while (
                self.ftl.allocator.free_blocks(die_index)
                < config.gc_watermark_blocks
            ):
                reclaimed = yield from self._collect_one_block(die_index)
                if not reclaimed:
                    break
            local = []
            overflow = []
            for lpn in batch:
                if self.ftl.allocator.can_host_write(die_index):
                    self.ftl.write_to_die(lpn, die_index)
                    local.append(lpn)
                else:
                    overflow.append(lpn)
            tracer = self.sim.obs.tracer
            finish_at = self.sim.now
            if local:
                channel = self.channels.channel_of_die(die_index)
                _, staged = self.channels.transfer(
                    channel, len(local) * UNIT_SIZE, not_before=self.sim.now
                )
                prog_start, programmed = self._program_page(
                    die_index, not_before=staged
                )
                if tracer.enabled:
                    tracer.span(
                        f"die{die_index}",
                        "flash_prog",
                        prog_start,
                        programmed,
                        units=len(local),
                    )
                finish_at = max(finish_at, programmed)
            placed = list(local)
            for lpn in overflow:
                try:
                    die, stream = self.ftl.host_write_point()
                    self.ftl.write_to_die(lpn, die, stream)
                except OutOfSpace:
                    buffer.requeue(lpn)
                    continue
                placed.append(lpn)
                channel = self.channels.channel_of_die(die)
                _, staged = self.channels.transfer(
                    channel, UNIT_SIZE, not_before=self.sim.now
                )
                prog_start, programmed = self._program_page(die, not_before=staged)
                if tracer.enabled:
                    tracer.span(
                        f"die{die}", "flash_prog", prog_start, programmed, units=1
                    )
                finish_at = max(finish_at, programmed)
            self.stats.flush_batches += 1
            self._m_flush_batches.inc()
            if finish_at > self.sim.now:
                yield self.sim.sleep(finish_at - self.sim.now)
            for lpn in placed:
                buffer.flushed(lpn)
            self._m_buffer_occ.set(buffer.occupancy, self.sim.now)
            self._t_buffer_occ.record(self.sim.now, buffer.occupancy)

    def _collect_one_block(self, die_index):
        """Process: one GC cycle on ``die_index``.  Returns True if a
        block was reclaimed."""
        plan = self.ftl.plan_gc(die_index)
        if plan is None:
            return False
        die = self.dies[die_index]
        gc_start = self.sim.now
        migrated = 0
        config = self.config
        pending = []
        self.gc_active += 1
        self._t_gc_active.record(gc_start, self.gc_active)
        try:
            for lpn in plan.victim_lpns:
                if not self.ftl.still_in_block(lpn, plan.victim_block):
                    continue
                _, read_done = die.read(not_before=self.sim.now)
                if read_done > self.sim.now:
                    yield self.sim.sleep(read_done - self.sim.now)
                pending.append(lpn)
                if len(pending) >= config.units_per_program:
                    migrated += yield from self._program_migration(
                        die_index, pending, plan.victim_block
                    )
                    pending = []
            if pending:
                migrated += yield from self._program_migration(
                    die_index, pending, plan.victim_block
                )
            _, erased = die.erase(not_before=self.sim.now)
            if erased > self.sim.now:
                yield self.sim.sleep(erased - self.sim.now)
        finally:
            self.gc_active -= 1
        self._t_gc_active.record(self.sim.now, self.gc_active)
        self._t_gc_moved.add(self.sim.now, migrated)
        self.ftl.finish_gc(plan)
        self.stats.gc_events.append(
            GcEvent(
                die=die_index,
                start_ns=gc_start,
                end_ns=self.sim.now,
                migrated_pages=migrated,
            )
        )
        self._m_gc_invocations.inc()
        self._m_gc_migrated.inc(migrated)
        self._m_gc_duration.observe(self.sim.now - gc_start)
        tracer = self.sim.obs.tracer
        if tracer.enabled:
            tracer.span(
                f"die{die_index}",
                "gc",
                gc_start,
                self.sim.now,
                migrated_pages=migrated,
                victim_block=plan.victim_block,
            )
        return True

    def _program_migration(self, die_index, lpns, victim_block):
        """Process: one copyback program for a chunk of migrating pages."""
        survivors = [
            lpn for lpn in lpns if self.ftl.still_in_block(lpn, victim_block)
        ]
        if not survivors:
            return 0
        for lpn in survivors:
            self.ftl.relocate(lpn, die_index)
        _, programmed = self._program_page(die_index, not_before=self.sim.now)
        if programmed > self.sim.now:
            yield self.sim.sleep(programmed - self.sim.now)
        return len(survivors)


def build_device(oracle, sim, config, **kwargs):
    """An :class:`SsdDevice` over the staged controller, or the oracle."""
    if not oracle:
        return SsdDevice(sim, config, **kwargs)
    with mock.patch.object(device_module, "SsdController", OracleController):
        return SsdDevice(sim, config, **kwargs)


def run_mix(oracle, name, buffer_units, qd, ops, coalesce=True, faults=None):
    """Drive ``ops`` at queue depth ``qd``; returns everything compared.
    ``coalesce`` False turns the batcher's coalescing window off."""
    overrides = SMALL_GEOMETRY + (("write_buffer_units", buffer_units),)
    if not coalesce:
        overrides += (("flush_coalesce_ns", 0),)
    config = resolve_config(name, overrides)
    sim = Simulator()
    device = build_device(oracle, sim, config, seed=5, faults=faults)
    assert isinstance(device.controller, OracleController) == oracle
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
    mapping = device.ftl.mapping
    power = device.power.series
    return dict(
        done=[record.device_done_ns for record in records],
        executed=executed,
        stats=device.stats,
        l2p=mapping._l2p.tobytes(),
        p2l=mapping._p2l.tobytes(),
        stalls=device.controller.write_buffer.stall_count,
        power=(power.times.tobytes(), power.values.tobytes()),
    )


_op = st.tuples(
    st.sampled_from([IoOp.WRITE, IoOp.WRITE, IoOp.WRITE, IoOp.READ, IoOp.TRIM]),
    # Spread over the drive, or within a hot set whose pages GC victims
    # hold and the host overwrites mid-migration.
    st.one_of(st.integers(0, 10_000), st.integers(0, 15)),
    st.integers(1, 4),
    st.sampled_from([0, 0, 0, 100, 1_000, 20_000]),
)


@settings(max_examples=60, deadline=None)
@given(
    name=st.sampled_from(["zssd", "intel750"]),
    buffer_units=st.sampled_from([1, 2, 3, 4, 16]),
    qd=st.integers(1, 16),
    ops=st.lists(_op, min_size=1, max_size=60),
    coalesce=st.booleans(),
    faults=st.sampled_from([None, PROGRAM_FAULTS]),
)
def test_stages_match_the_processes(name, buffer_units, qd, ops, coalesce, faults):
    staged = run_mix(False, name, buffer_units, qd, ops, coalesce, faults)
    oracle = run_mix(True, name, buffer_units, qd, ops, coalesce, faults)
    assert staged == oracle


@pytest.mark.parametrize("faults", [None, PROGRAM_FAULTS], ids=["clean", "program-fail"])
@pytest.mark.parametrize("coalesce", [False, True], ids=["no-coalesce", "coalesce"])
@pytest.mark.parametrize("name", ["zssd", "intel750"])
def test_overwrite_storm_runs_gc_and_matches(name, coalesce, faults):
    """A fixed deep overwrite storm reaches every hand-over: blocked
    admission, parked and ready takes on both queues, GC cycles with
    migrations and, under the fault plan, retired blocks."""
    ops = [(IoOp.WRITE, unit * 37, 1 + unit % 3, 0) for unit in range(200)]
    staged = run_mix(False, name, 2, 16, ops, coalesce, faults)
    oracle = run_mix(True, name, 2, 16, ops, coalesce, faults)
    assert staged == oracle
    stats = staged["stats"]
    assert staged["stalls"] > 0 and stats.gc_events
    assert any(event.migrated_pages for event in stats.gc_events)
    if faults is None:
        assert None not in staged["done"]
    else:
        # Retired blocks shrink intel750's pool until GC starves some
        # writes; the processes leave the very same ones incomplete.
        assert stats.program_fails > 0 and stats.blocks_retired > 0


@pytest.mark.parametrize("coalesce", [False, True], ids=["no-coalesce", "coalesce"])
@pytest.mark.parametrize("name", ["zssd", "intel750"])
def test_hot_set_storm_matches(name, coalesce):
    """Overwrites of a 16-unit hot set through a 16-unit buffer: batches
    queue while every die is busy, and the host overwrites pages that
    a GC cycle has read but not yet programmed, so whole migration
    chunks come up empty."""
    ops = [(IoOp.WRITE, (unit * 5) % 16, 1 + unit % 2, 0) for unit in range(300)]
    staged = run_mix(False, name, 16, 16, ops, coalesce)
    oracle = run_mix(True, name, 16, 16, ops, coalesce)
    assert staged == oracle
    assert None not in staged["done"] and staged["stats"].gc_events


@pytest.mark.parametrize("name", ["zssd", "intel750"])
def test_trim_during_gc_matches(name):
    """A whole-drive trim every 50 requests of an overwrite storm lands
    while a GC cycle holds read pages it has not programmed yet: that
    migration chunk has no survivors, and the cycle goes on without a
    pause."""
    ops = [
        (IoOp.TRIM, 0, 10**6, 0) if unit % 50 == 49
        else (IoOp.WRITE, unit * 37, 1 + unit % 3, 0)
        for unit in range(300)
    ]
    staged = run_mix(False, name, 2, 16, ops, coalesce=False)
    oracle = run_mix(True, name, 2, 16, ops, coalesce=False)
    assert staged == oracle
    assert None not in staged["done"] and staged["stats"].gc_events


def test_gc_starvation_is_the_same_on_both_paths():
    """The geometry where foreground GC starves host writes: intel750
    shrunk, a 2-unit buffer, 400 QD-16 writes.  Some writes never
    complete within 2 s simulated, the same ones on both paths; the
    count pins today's GC for a change that means to move it."""
    ops = [(IoOp.WRITE, unit * 37, 1 + unit % 3, 0) for unit in range(400)]
    staged = run_mix(False, "intel750", 2, 16, ops)
    oracle = run_mix(True, "intel750", 2, 16, ops)
    assert staged == oracle
    assert staged["done"].count(None) == 8
