"""Differential harness: the one-call read path against the per-unit chain.

:class:`~repro.ssd.controller.SsdController` serves a request's mapping
units in one ``read_units`` call, with the per-request lookups hoisted
out of the unit loop, over dies, channels and a power meter that book
inline.  These tests keep the chain it replaced as the oracle: one
``read_unit`` per unit (``_map_lookup_delay``, ``_serve_read``,
``_flash_read``, ``_maybe_prefetch``), over a die that books through
``_jittered`` / ``_suspendable_op`` / ``_book``, channels that book
through ``TimelineResource.reserve``, and a power meter that records
through ``_record``.  Hypothesis-generated mixes of reads, writes and
trims at queue depths 1-16 run once on each path, and everything the
read path touches must be equal: every request's done time, the
controller statistics, the read cache's counters and entries, the
map-segment cache's key order, every die's and channel's booking
state, the power series, the metrics, the telemetry, the trace records
of traced I/Os, and the next draw of every RNG stream.

The devices are the zoo's zssd (map-segment cache, program suspend)
and intel750 (read cache with sequential prefetch), shrunk to four
dies of twelve 16-page blocks and preconditioned to none, half or all
of their space, so a mix meets unwritten LBAs, buffered units, GC and
programs to suspend.  The map cache runs off and at two small
segments, the stall roll at the spec's odds and at one in five, and an
injected read-failure plan exercises ECC retries.
"""

from collections import deque
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import repro.ssd.controller as controller_module
import repro.ssd.device as device_module
from repro.faults.plan import FaultPlan, NandFaults
from repro.flash.chip import FlashDie, OpKind, _InFlightOp
from repro.obs.core import Observability
from repro.sim.engine import Simulator
from repro.sim.rng import UniformStream
from repro.ssd.channels import ChannelArray
from repro.ssd.config import UNIT_SIZE
from repro.ssd.controller import SsdController
from repro.ssd.device import IoOp, SsdDevice
from repro.ssd.power import _CODE_BITS, _END, _ERASE, _PROGRAM, _READ, _TRANSFER, PowerMeter
from repro.ssd.registry import resolve_config

SMALL_GEOMETRY = (
    ("channels", 2),
    ("ways_per_channel", 2),
    ("blocks_per_die", 12),
    ("pages_per_block", 16),
    ("overprovision", 0.25),
)

#: Two 8-unit map segments: reads of a few units cross segments, and
#: a mix over the drive evicts them.
SMALL_MAP_CACHE = (
    ("map_cache_segments", 2),
    ("map_segment_units", 8),
    ("map_fetch_ns", 3_000),
)
NO_MAP_CACHE = (("map_cache_segments", 0),)

#: A stall on one read in five, so short mixes draw and hit stalls.
FREQUENT_STALLS = (("read_stall_prob", 0.2), ("read_stall_ns", 50_000))

#: Read failures frequent enough that a short mix retries.
READ_FAULTS = FaultPlan(seed=3, nand=NandFaults(read_fail_prob=0.3))

#: Simulated-time bound of one mix: far past the last completion.
HORIZON_NS = 2_000_000_000


class OracleDie(FlashDie):
    """A die that books through the helpers it had before reads and
    programs were booked inline."""

    def __init__(self, sim, timing, *, seed=97, **kwargs):
        super().__init__(sim, timing, seed=seed, **kwargs)
        self._stream = UniformStream(seed)
        self._uniform = self._stream.uniform

    def next_draw(self):
        return self._stream.random()

    def _jittered(self, base_ns, jitter):
        if jitter <= 0.0:
            return base_ns
        factor = 1.0 + self._uniform(-jitter, jitter)
        return max(1, int(round(base_ns * factor)))

    def read(self, not_before=0):
        self.reads += 1
        slots = self._slots
        duration = self._jittered(slots.read_ns, slots.read_jitter)
        arrival = max(self.sim.now, not_before)
        slow = self._suspendable_op(arrival)
        if slow is not None:
            return self._suspend_and_read(slow, arrival, duration)
        return self._book(OpKind.READ, duration, arrival)

    def program(self, not_before=0):
        self.programs += 1
        slots = self._slots
        duration = self._jittered(slots.program_ns, slots.program_jitter)
        interval = self._book(OpKind.PROGRAM, duration, not_before)
        self._last_slow_op = _InFlightOp(OpKind.PROGRAM, *interval)
        return interval

    def erase(self, not_before=0):
        self.erases += 1
        interval = self._book(OpKind.ERASE, self._slots.erase_ns, not_before)
        self._last_slow_op = _InFlightOp(OpKind.ERASE, *interval)
        return interval

    def _book(self, kind, duration, not_before):
        start = max(self.sim.now, self.free_at, not_before)
        end = start + duration
        self.free_at = end
        self.busy_ns += duration
        if self.observer is not None:
            self.observer(kind, start, end)
        return start, end

    def _suspendable_op(self, arrival):
        if not self.allow_suspend:
            return None
        slow = self._last_slow_op
        if slow is None:
            return None
        if slow.end != self.free_at:
            return None
        if not slow.start <= arrival < slow.end:
            return None
        if slow.suspends_used >= self._slots.max_suspends_per_op:
            return None
        return slow


class OracleChannels(ChannelArray):
    """Channels that book through ``TimelineResource.reserve``."""

    def transfer(self, channel, nbytes, not_before=0):
        if not 0 <= channel < len(self._channels):
            raise ValueError(f"channel out of range: {channel}")
        interval = self._channels[channel].reserve(self.transfer_ns(nbytes), not_before)
        if self.observer is not None:
            self.observer(*interval)
        return interval


class OraclePower(PowerMeter):
    """A meter whose observers record through ``_record``."""

    def observe_op(self, kind, start, end):
        if end <= start:
            return
        if kind is OpKind.READ:
            code = _READ
        elif kind is OpKind.PROGRAM:
            code = _PROGRAM
        else:
            code = _ERASE
        self._record(code, start, end)

    def observe_transfer(self, start, end):
        if end <= start:
            return
        self._record(_TRANSFER, start, end)

    def _record(self, code, start, end):
        now = self.sim.now
        pending = self._pending
        pending.append((start if start > now else now) << _CODE_BITS | code)
        pending.append((end if end > now else now) << _CODE_BITS | code | _END)
        if len(pending) >= self._fold_at:
            self._fold()


class OracleController(SsdController):
    """The read path as one ``read_unit`` chain per mapping unit."""

    def read_units(self, first_lpn, count, trace=None):
        internal_done = 0
        for lpn in range(first_lpn, first_lpn + count):
            unit_done = self.read_unit(lpn, trace=trace)
            if unit_done > internal_done:
                internal_done = unit_done
        return internal_done

    def read_unit(self, lpn, *, trace=None):
        config = self.config
        map_delay = self._map_lookup_delay(lpn)
        start = self.sim.now + config.read_fw_ns + map_delay
        if trace is not None and map_delay:
            trace.annotate("map_fetch", start - map_delay, start, lpn=lpn)
        done = self._serve_read(lpn, start, trace)
        self._maybe_prefetch(lpn)
        return done

    def _map_lookup_delay(self, lpn):
        config = self.config
        if config.map_cache_segments <= 0:
            return 0
        segment = lpn // config.map_segment_units
        cache = self._map_cache
        if segment in cache:
            cache.move_to_end(segment)
            return 0
        cache[segment] = None
        while len(cache) > config.map_cache_segments:
            cache.popitem(last=False)
        self.stats.map_misses += 1
        self._m_map_misses.inc()
        return config.map_fetch_ns

    def _serve_read(self, lpn, start, trace=None):
        config = self.config
        if self.write_buffer.contains(lpn):
            self.stats.buffer_read_hits += 1
            self._m_buffer_hits.inc()
            if trace is not None:
                trace.annotate("buffer_hit", start, start + config.dram_hit_ns)
            return start + config.dram_hit_ns
        cached_ready = self.read_cache.lookup(lpn)
        if cached_ready is not None:
            self.stats.cache_read_hits += 1
            self._m_cache_hits.inc()
            if trace is not None:
                trace.annotate(
                    "cache_hit", start, max(start, cached_ready) + config.dram_hit_ns
                )
            return max(start, cached_ready) + config.dram_hit_ns
        ppa = self.ftl.read_ppa(lpn)
        if ppa is None:
            self.stats.unwritten_reads += 1
            return start + config.dram_hit_ns
        return self._flash_read(lpn, ppa, start, trace)

    def _flash_read(self, lpn, ppa, start, trace=None):
        die_index = self.layout.die_of_page(ppa)
        die = self.dies[die_index]
        suspends_before = die.suspends
        flash_start, array_done = die.read(not_before=start)
        suspended = die.suspends > suspends_before
        if suspended:
            self._m_suspends.inc()
        retries = 0
        fi = self._nand_faults
        if fi is not None and fi.spec.read_fail_prob > 0.0:
            retry_start = array_done
            while retries < fi.spec.max_read_retries and fi.roll(
                fi.spec.read_fail_prob
            ):
                retries += 1
                _, array_done = die.read(not_before=array_done + fi.spec.ecc_retry_ns)
            if retries:
                self.stats.read_retries += retries
                self._m_read_retries.inc(retries)
                self._t_fault_recovery.add_interval(retry_start, array_done)
                if trace is not None:
                    trace.annotate(
                        "ecc_retry", retry_start, array_done, retries=retries
                    )
                tracer = self.sim.obs.tracer
                if tracer.enabled:
                    tracer.span(
                        "faults",
                        "ecc_retry",
                        retry_start,
                        array_done,
                        die=die_index,
                        lpn=lpn,
                        retries=retries,
                    )
        stall = 0
        if self._roll(self.config.read_stall_prob):
            self.stats.read_stalls += 1
            stall = self.config.read_stall_ns
            array_done += stall
        channel = self.channels.channel_of_die(die_index)
        channel_start, transfer_done = self.channels.transfer(
            channel, UNIT_SIZE, not_before=array_done
        )
        if trace is not None:
            if flash_start > start:
                trace.phase("suspend_wait" if suspended else "die_wait", start)
                holder = (
                    "program_suspend"
                    if suspended
                    else ("gc" if self.gc_active > 0 else "io")
                )
                trace.wait(f"ssd.die{die_index}", holder, start, flash_start)
            trace.phase("flash_read", flash_start)
            if retries:
                trace.wait(
                    f"ssd.die{die_index}", "ecc_retry", retry_start, array_done - stall
                )
            if stall:
                trace.annotate("read_stall", array_done - stall, array_done)
            trace.phase("dma", array_done)
            trace.wait(f"ssd.ch{channel}", "transfer_backlog", array_done, channel_start)
        self.read_cache.insert(lpn, ready_at=transfer_done)
        self.stats.flash_reads += 1
        self._m_flash_reads.inc()
        return transfer_done

    def _maybe_prefetch(self, lpn):
        for candidate in self.read_cache.note_access(lpn):
            if candidate >= self.ftl.logical_pages:
                continue
            ppa = self.ftl.read_ppa(candidate)
            if ppa is None or self.write_buffer.contains(candidate):
                continue
            die_index = self.layout.die_of_page(ppa)
            _, array_done = self.dies[die_index].read(not_before=self.sim.now)
            channel = self.channels.channel_of_die(die_index)
            _, transfer_done = self.channels.transfer(
                channel, UNIT_SIZE, not_before=array_done
            )
            self.read_cache.insert(candidate, ready_at=transfer_done)
            self.stats.flash_reads += 1


def build_device(oracle, sim, config, **kwargs):
    """An :class:`SsdDevice` over the one-call read path, or the oracle."""
    if not oracle:
        return SsdDevice(sim, config, **kwargs)
    with mock.patch.multiple(
        controller_module,
        FlashDie=OracleDie,
        ChannelArray=OracleChannels,
        PowerMeter=OraclePower,
    ), mock.patch.object(device_module, "SsdController", OracleController):
        return SsdDevice(sim, config, **kwargs)


def run_mix(oracle, name, overrides, fill, qd, ops, faults=None, telemetry=False):
    """Drive ``ops`` at queue depth ``qd``; returns everything compared.

    An op is ``(kind, unit, units, gap, traced)``; a ``unit`` of
    ``None`` starts where the previous request ended, so runs of them
    are sequential streams."""
    config = resolve_config(name, SMALL_GEOMETRY + overrides)
    obs = Observability(tracing=True, metrics=True, telemetry=telemetry)
    sim = Simulator(obs=obs)
    device = build_device(oracle, sim, config, seed=5, faults=faults)
    controller = device.controller
    assert isinstance(controller, OracleController) == oracle
    assert all(isinstance(die, OracleDie) == oracle for die in controller.dies)
    device.precondition(fill)
    pages = device.logical_pages
    records = []
    traces = []

    def driver():
        outstanding = deque()
        next_unit = 0
        for kind, unit, units, gap, traced in ops:
            while len(outstanding) >= qd:
                oldest = outstanding.popleft()
                if not oldest.done.triggered:
                    yield oldest.done
            if gap:
                yield sim.sleep(gap)
            units = min(units, pages)
            first = (next_unit if unit is None else unit) % (pages - units + 1)
            next_unit = first + units
            offset, nbytes = first * UNIT_SIZE, units * UNIT_SIZE
            trace = obs.tracer.begin_io(kind, offset, nbytes, sim.now) if traced else None
            record = device.submit(kind, offset, nbytes, trace=trace)
            records.append(record)
            if trace is not None:
                traces.append(trace)
            outstanding.append(record)

    sim.process(driver())
    sim.run(until=HORIZON_NS)
    cache = controller.read_cache
    power = device.power.series
    if oracle:
        die_draws = [die.next_draw() for die in controller.dies]
    else:
        die_draws = [die._random() for die in controller.dies]
    fi = controller._nand_faults
    telemetry_series = obs.telemetry
    return dict(
        done=[record.device_done_ns for record in records],
        stats=device.stats,
        read_cache=(cache.hits, cache.misses, cache.prefetches, list(cache._entries.items())),
        map_cache=list(controller._map_cache),
        dies=[
            (die.reads, die.programs, die.erases, die.suspends, die.busy_ns, die.free_at)
            for die in controller.dies
        ],
        channels=[
            (channel.free_at, channel.busy_ns) for channel in controller.channels._channels
        ],
        power=(power.times.tobytes(), power.values.tobytes()),
        metrics=obs.registry.snapshot(sim.now),
        telemetry={
            series: telemetry_series.get(series).samples()
            for series in (telemetry_series.names() if telemetry else [])
        },
        traces=[(t._marks, t._nested, t._waits) for t in traces],
        track_spans=obs.tracer.track_spans,
        draws=(
            die_draws,
            controller._rng.random(),
            None if fi is None else fi.rng.random(),
        ),
    )


def check(name, overrides, fill, qd, ops, faults=None, telemetry=False):
    one_call = run_mix(False, name, overrides, fill, qd, ops, faults, telemetry)
    oracle = run_mix(True, name, overrides, fill, qd, ops, faults, telemetry)
    assert one_call == oracle
    return one_call


_op = st.tuples(
    st.sampled_from([IoOp.READ, IoOp.READ, IoOp.READ, IoOp.WRITE, IoOp.WRITE, IoOp.TRIM]),
    # Spread over the drive, within a hot set of five map segments, or
    # where the last request ended.
    st.one_of(st.integers(0, 10_000), st.integers(0, 40), st.none(), st.none()),
    st.integers(1, 12),
    st.sampled_from([0, 0, 0, 100, 1_000, 20_000]),
    st.booleans(),
)


@settings(max_examples=80, deadline=None)
@given(
    name=st.sampled_from(["zssd", "intel750"]),
    map_cache=st.sampled_from([(), NO_MAP_CACHE, SMALL_MAP_CACHE]),
    stalls=st.sampled_from([(), FREQUENT_STALLS]),
    fill=st.sampled_from([0.0, 0.5, 1.0]),
    qd=st.integers(1, 16),
    ops=st.lists(_op, min_size=1, max_size=50),
    faults=st.sampled_from([None, READ_FAULTS]),
    telemetry=st.booleans(),
)
def test_read_units_match_the_per_unit_chain(
    name, map_cache, stalls, fill, qd, ops, faults, telemetry
):
    check(name, map_cache + stalls, fill, qd, ops, faults, telemetry)


@pytest.mark.parametrize("faults", [None, READ_FAULTS], ids=["clean", "read-fail"])
@pytest.mark.parametrize("name", ["zssd", "intel750"])
def test_fixed_mix_reaches_every_read_outcome(name, faults):
    """A fixed mix that meets every branch: buffer, cache and unwritten
    hits, map misses, suspends under programs (zssd), prefetches
    (intel750), stalls and, under the fault plan, retries."""
    ops = []
    for step in range(120):
        if step % 4 == 0:
            ops.append((IoOp.WRITE, step * 7, 2, 0, step % 8 == 0))
        elif step % 4 == 1:
            # The unit just written, once it is in the buffer.
            ops.append((IoOp.READ, (step - 1) * 7, 2, 20_000, True))
        else:
            ops.append((IoOp.READ, None, 4, 0 if step % 3 else 5_000, step % 2 == 0))
    result = check(name, SMALL_MAP_CACHE + FREQUENT_STALLS, 0.5, 4, ops, faults, True)
    stats = result["stats"]
    assert stats.flash_reads and stats.buffer_read_hits and stats.unwritten_reads
    assert stats.map_misses and stats.read_stalls
    assert result["traces"] and any(nested for _, nested, _ in result["traces"])
    if name == "zssd":
        assert any(die[3] for die in result["dies"]), "no read suspended a program"
    else:
        hits, _, prefetches, _ = result["read_cache"]
        assert prefetches and hits and stats.cache_read_hits
    if faults is not None:
        assert stats.read_retries and result["track_spans"]


@pytest.mark.parametrize("name", ["zssd", "intel750"])
def test_map_cache_evicts_the_least_recently_used_segment(name):
    """One-unit reads of segments 0, 1, 0, 2, 1, 0 through a two-segment
    cache: the hit on segment 0 makes segment 1 the one segment 2
    evicts, so only the third read hits."""
    ops = [(IoOp.READ, segment * 8, 1, 0, False) for segment in (0, 1, 0, 2, 1, 0)]
    result = check(name, SMALL_MAP_CACHE, 1.0, 1, ops)
    assert result["stats"].map_misses == 5
    assert result["map_cache"] == [1, 0]
